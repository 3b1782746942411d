"""Specht modules for flamingo shapes: spanning sets, exact rank, membership.

The shapes handled here are lambda = (d^r, 1^(n-rd)), whose conjugate is
mu = (nu, r^(d-1)) with nu = n - (d-1)r.  The module is realized inside the
polynomial ring in matrix entries as the span of products of top-justified
minors, one minor per column set, with column-set sizes given by mu.

All linear algebra is exact: a reduced row echelon of integer rows, kept
by fraction-free cross-multiplication with gcd cleanup, over packed
monomial columns, whose integer order is the term order.  Each pivot
monomial leads its own row and occurs in no other, so membership is one
pass over the pivots a polynomial touches, with no leading-term search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .invariants import jellyfish_invariant
from .partitions import OrderedSetPartition, enumerate_unordered_partitions
from .polynomials import MatrixPolynomial, Monomial, _mask, add_into, extend_minor_product


# -- shapes -----------------------------------------------------------------


def conjugate_partition(lam: Sequence[int]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def syt_count(lam: Sequence[int]) -> int:
    """Number of standard Young tableaux of the given shape, by the
    hook-length formula n! / prod(hooks)."""
    lam = tuple(lam)
    if list(lam) != sorted(lam, reverse=True) or any(p < 1 for p in lam):
        raise ValueError("shape must be a weakly decreasing positive sequence")
    n = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row_len in enumerate(lam, start=1):
        for j in range(1, row_len + 1):
            hooks *= row_len - j + conj[j - 1] - i + 1
    return math.factorial(n) // hooks


@dataclass(frozen=True)
class SpechtShape:
    """The shape lam = (d^r, 1^(n-rd)) for ints n, d, r, a bool excluded;
    nu is the first part of its conjugate (nu, r^(d-1))."""

    n: int
    d: int
    r: int

    def __post_init__(self) -> None:
        n, d, r = self.n, self.d, self.r
        if any(type(x) is not int for x in (n, d, r)):
            raise ValueError(f"n, d and r must be ints, got n = {n!r}, d = {d!r}, r = {r!r}")
        if r < 1 or d < 1 or n < r * d:
            raise ValueError(f"need r, d >= 1 and n >= r*d, got n = {n}, d = {d}, r = {r}, r*d = {r * d}")

    @property
    def lam(self) -> tuple[int, ...]:
        return (self.d,) * self.r + (1,) * (self.n - self.r * self.d)

    @property
    def nu(self) -> int:
        return self.n - (self.d - 1) * self.r

    def dimension(self) -> int:
        return syt_count(self.lam)


def spanning_set(shape: SpechtShape) -> list[MatrixPolynomial]:
    """Products of top-justified minors, one per set partition of [n] into
    blocks of sizes mu: the partitions into d blocks of size at least r whose
    largest block has nu elements (every other block then has r).  The
    minor-product kernel expands each product; its largest minor takes
    rows 1..nu, so k = nu."""
    n = shape.n
    gens = []
    for partition in enumerate_unordered_partitions(n, shape.d, shape.r):
        if max(partition.block_sizes()) == shape.nu:
            partial = [(0, 1)]
            for cols in partition.blocks:
                partial = extend_minor_product(partial, (1 << len(cols)) - 1, _mask(cols), n)
            gens.append(MatrixPolynomial._trusted(n, dict(partial), shape.nu))
    return gens


# -- exact linear algebra over the monomial basis ---------------------------


def _gcd_normalize(terms: dict[Monomial, int]) -> dict[Monomial, int]:
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            return terms
    if g > 1:
        return {m: c // g for m, c in terms.items()}
    return terms


class SpanChecker:
    """Incremental reduced integer row echelon, one row per pivot monomial.

    Each row has gcd 1 and its pivot as leading monomial, and every pivot
    occurs in its own row only.  So the pivot coefficients of a polynomial p
    name exactly the rows to subtract: with L the lcm of those rows' pivot
    coefficients a_m, ``L*p - sum (L/a_m) p[m] row_m`` holds no pivot
    monomial, and it is empty exactly when p lies in the span.  Membership
    is that one pass; rank and membership are exact over the rationals.
    """

    def __init__(self, polys: Iterable[MatrixPolynomial] = ()):  # noqa: D401
        self.n: int | None = None
        self.pivots: dict[Monomial, dict[Monomial, int]] = {}
        for p in polys:
            self.insert(p)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _residue(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        pivots = self.pivots
        touched = [(m, c) for m, c in terms.items() if m in pivots]
        scale = math.lcm(*(pivots[m][m] for m, _ in touched))
        out = {m: scale * c for m, c in terms.items()}
        for m, c in touched:
            row = pivots[m]
            add_into(out, row, -(scale // row[m] * c))
        return out

    def insert(self, p: MatrixPolynomial) -> bool:
        """Add a polynomial to the span; True when it increased the rank."""
        if self.n is None:
            self.n = p.n
        elif self.n != p.n:
            raise ValueError("mixed column counts")
        residue = _gcd_normalize(self._residue(p.terms))
        if not residue:
            return False
        lead = max(residue)
        a = residue[lead]
        # Every monomial of the residue lies below each pivot whose row holds
        # ``lead``, so clearing ``lead`` there keeps each row's leading term.
        for m, row in self.pivots.items():
            b = row.get(lead)
            if b:
                new = {mono: a * c for mono, c in row.items()}
                add_into(new, residue, -b)
                self.pivots[m] = _gcd_normalize(new)
        self.pivots[lead] = residue
        return True

    def contains(self, p: MatrixPolynomial) -> bool:
        if self.n is not None and p.n != self.n:
            raise ValueError("mixed column counts")
        return not self._residue(p.terms)


def exact_rank(polys: Iterable[MatrixPolynomial]) -> int:
    """Rank over the rationals of the coefficient matrix whose rows are the
    polynomials and whose columns are their monomials in term order."""
    return SpanChecker(polys).rank


@lru_cache(maxsize=64)
def _span_checker(shape: SpechtShape) -> SpanChecker:
    return SpanChecker(spanning_set(shape))


def membership_test(p: MatrixPolynomial, shape: SpechtShape) -> bool:
    """True when adding p to the spanning set leaves its rank unchanged."""
    return _span_checker(shape).contains(p)


def spanning_rank(shape: SpechtShape) -> int:
    return _span_checker(shape).rank


# -- hook shapes ------------------------------------------------------------


def hook_family(n: int, d: int) -> list[OrderedSetPartition]:
    """For each (d-1)-subset P of {2..n}, the interval partition whose block
    minima are {1} union P; all are noncrossing."""
    if not (type(n) is type(d) is int and 1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got n = {n}, d = {d}")
    out = []
    for P in itertools.combinations(range(2, n + 1), d - 1):
        cuts = (1,) + P + (n + 1,)
        blocks = [tuple(range(cuts[i], cuts[i + 1])) for i in range(d)]
        out.append(OrderedSetPartition(n, tuple(blocks)))
    return out


@dataclass(frozen=True)
class HookBasis:
    """The depth-1 invariants of ``hook_family(n, d)`` measured against the
    module of shape (d, 1^(n-d)): family size, exact rank, module dimension,
    and whether every member lies inside the module."""

    n: int
    d: int
    family: int
    rank: int
    dimension: int
    members: bool

    @property
    def basis(self) -> bool:
        """Full rank C(n-1, d-1) equal to the module dimension, every member inside."""
        expected = math.comb(self.n - 1, self.d - 1)
        return self.family == self.rank == self.dimension == expected and self.members


def hook_basis(n: int, d: int) -> HookBasis:
    shape = SpechtShape(n, d, 1)
    invariants = [jellyfish_invariant(p, 1) for p in hook_family(n, d)]
    rank = exact_rank(invariants)
    members = all(membership_test(q, shape) for q in invariants)
    return HookBasis(n, d, len(invariants), rank, shape.dimension(), members)
