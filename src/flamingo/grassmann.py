"""Exterior-algebra realization of the invariants on Gr(n, 2n).

An n x n matrix M embeds into the Grassmannian of n-planes in 2n-space as
the row span of [M_0 | M], where M_0 alternates +1, -1 down the diagonal.
Maximal minors of that n x 2n matrix (Pluecker coordinates, indexed by
size-n column sets K in [2n]) pull back to signed minors of M, and the cap
and wedge operations of the Grassmann-Cayley algebra build the same
invariants as the tableau sum, up to one global sign per partition.

The translation sign from a Pluecker coordinate to a minor of M is
computed from first principles by Laplace expansion along the unit
columns; a popular shortcut claims the sign is (-1)**|I|, which fails in
general (``scripts/global_sign_survey.py`` counts how often).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .invariants import jellyfish_invariant
from .partitions import FlamingoContext, OrderedSetPartition, word_inversions
from .polynomials import (
    ColumnCollision,
    MatrixPolynomial,
    add_into,
    add_minor_product,
    extend_minor_product,
)
from .tableaux import top_justified_tableau

# -- the embedding ----------------------------------------------------------


def alternating_diagonal(n: int) -> list[list[int]]:
    """diag(+1, -1, +1, ...) as a dense n x n matrix."""
    return [[(-1) ** i if i == j else 0 for j in range(n)] for i in range(n)]


def phi(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Concatenate the alternating diagonal with M, giving an n x 2n matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    m0 = alternating_diagonal(n)
    return [m0[i] + list(matrix[i]) for i in range(n)]


def delta_index_set(rows: Iterable[int], cols: Iterable[int], n: int) -> tuple[int, ...]:
    """Column set K in [2n] whose Pluecker coordinate pulls back to the
    minor on the given rows and columns: K = ([n] minus rows) union (cols + n)."""
    I = set(rows)
    J = set(cols)
    if len(I) != len(J):
        raise ValueError("need |rows| = |cols|")
    if not I <= set(range(1, n + 1)) or not J <= set(range(1, n + 1)):
        raise ValueError("row and column sets must lie in [n]")
    return tuple(sorted((set(range(1, n + 1)) - I) | {j + n for j in J}))


def translation_sign(rows: Sequence[int], n: int) -> int:
    """Exact sign relating the Pluecker coordinate on delta_index_set(I, J, n)
    to the minor on rows I and columns J.

    Laplace expansion along the kept unit columns: each kept column c
    contributes the diagonal entry (-1)**(c - 1) and the column-position
    shuffle contributes one transposition per pair (c, i) with i in I,
    i < c.  The result depends only on n and the set I.
    """
    I = set(rows)
    kept = [c for c in range(1, n + 1) if c not in I]
    s = sum(c - 1 for c in kept)
    s += sum(1 for c in kept for i in I if i < c)
    return -1 if s % 2 else 1


def delta_to_minor(K: Iterable[int], n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Split a size-n column set K in [2n] into (sign, rows I, cols J) with
    the Pluecker coordinate on K equal to sign times the minor M_I^J."""
    Kset = set(K)
    if len(Kset) != n or not Kset <= set(range(1, 2 * n + 1)):
        raise ValueError("K must be a size-n subset of [2n]")
    kept = Kset & set(range(1, n + 1))
    I = tuple(sorted(set(range(1, n + 1)) - kept))
    J = tuple(sorted(k - n for k in Kset - kept))  # |J| = n - |kept| = |I|
    return translation_sign(I, n), I, J


# -- exterior algebra over the 2n column vectors ----------------------------


def _sort_with_sign(indices: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(sign, sorted tuple); sign 0 when an index repeats."""
    if len(set(indices)) != len(indices):
        return 0, ()
    inv = word_inversions(indices)
    return (-1 if inv % 2 else 1), tuple(sorted(indices))


def _merge_sign(x: Sequence[int], y: Sequence[int]) -> int:
    """Sign of sorting the concatenation of two sorted duplicate-free lists;
    0 when they intersect."""
    if set(x) & set(y):
        return 0
    inv = sum(1 for a in x for b in y if a > b)
    return -1 if inv % 2 else 1


class Extensor:
    """Signed sum of wedges of column vectors, each term carrying the
    Pluecker factors accumulated by earlier caps.

    Terms map (indices, factors) to an integer coefficient, where indices
    is a sorted duplicate-free tuple in [2n] and factors is a
    lexicographically sorted tuple of sorted index tuples.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], int] | None = None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def basis(cls, indices: Iterable[int]) -> "Extensor":
        sign, sorted_idx = _sort_with_sign(list(indices))
        if sign == 0:
            return cls()
        return cls({(sorted_idx, ()): sign})

    @classmethod
    def scalar_one(cls) -> "Extensor":
        return cls({((), ()): 1})

    def __add__(self, other: "Extensor") -> "Extensor":
        terms = dict(self.terms)
        add_into(terms, other.terms)
        return Extensor(terms)

    def scale(self, c: int) -> "Extensor":
        return Extensor({key: c * v for key, v in self.terms.items()})

    def wedge(self, other: "Extensor") -> "Extensor":
        terms: dict = {}
        for (idx1, fac1), c1 in self.terms.items():
            for (idx2, fac2), c2 in other.terms.items():
                sign = _merge_sign(idx1, idx2)
                if sign == 0:
                    continue
                key = (tuple(sorted(idx1 + idx2)), tuple(sorted(fac1 + fac2)))
                new = terms.get(key, 0) + sign * c1 * c2
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return Extensor(terms)

    def degrees(self) -> set[int]:
        return {len(idx) for idx, _ in self.terms}

    def __eq__(self, other) -> bool:
        return isinstance(other, Extensor) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Extensor({len(self.terms)} terms)"


def cap(x: Extensor, y: Extensor, n: int) -> Extensor:
    """The meet: for decomposable pieces of degrees n - a and n - b this
    moves b indices of x into a maximal determinant with y's indices and
    keeps the rest, summed over all choices with the shuffle sign.

    Degrees must be homogeneous on both sides.  Requires a + b <= n.
    """
    if not x.terms or not y.terms:
        return Extensor()
    xdegs, ydegs = x.degrees(), y.degrees()
    if len(xdegs) != 1 or len(ydegs) != 1:
        raise ValueError("cap needs homogeneous inputs")
    xdeg, ydeg = xdegs.pop(), ydegs.pop()
    b = n - ydeg
    if b < 0 or xdeg - b < 0:
        raise ValueError("degree mismatch in cap")
    acc: dict = {}
    for (idx1, fac1), c1 in x.terms.items():
        for moved in itertools.combinations(idx1, b):
            kept = tuple(i for i in idx1 if i not in moved)
            # shuffle sign for pulling the moved indices to the front
            shuffle = sum(1 for m in moved for k in kept if k < m)
            sign1 = -1 if shuffle % 2 else 1
            for (idx2, fac2), c2 in y.terms.items():
                merge = _merge_sign(moved, idx2)
                if merge == 0:
                    continue
                factor = tuple(sorted(moved + idx2))
                key = (kept, tuple(sorted(fac1 + fac2 + (factor,))))
                new = acc.get(key, 0) + sign1 * merge * c1 * c2
                if new:
                    acc[key] = new
                else:
                    acc.pop(key, None)
    return Extensor(acc)


# -- Pluecker expressions ----------------------------------------------------


@dataclass
class PlueckerExpression:
    """Signed integer combination of products of Pluecker coordinates on
    Gr(n, 2n); each product is a sorted tuple of sorted size-n index sets."""

    n: int
    terms: dict[tuple[tuple[int, ...], ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.terms = {fac: c for fac, c in self.terms.items() if c}

    def __len__(self) -> int:
        return len(self.terms)


def gc_jellyfish(partition: OrderedSetPartition, r: int) -> PlueckerExpression:
    """Fully expanded cap-and-wedge realization of the invariant: cap the
    tentacle wedge onto each of the first d - 1 shifted blocks, wedge the
    results, then close with the last shifted block.  Terms are degree-d
    products of Pluecker coordinates."""
    ctx = FlamingoContext.from_admissible(partition, r)
    n = partition.n
    S = ctx.tentacle_rows
    E = ctx.tail_rows
    blocks_shifted = [tuple(x + n for x in block) for block in partition.blocks]
    v_S = Extensor.basis(S)
    result = Extensor.scalar_one()
    for i in range(ctx.d - 1):
        piece = cap(v_S, Extensor.basis(E + blocks_shifted[i]), n)
        result = result.wedge(piece)
    result = result.wedge(Extensor.basis(E + blocks_shifted[-1]))
    terms: dict = {}
    for (idx, factors), c in result.terms.items():
        if len(idx) != n:
            raise ValueError("closing wedge did not reach top degree")
        add_into(terms, {tuple(sorted(factors + (idx,))): c})
    return PlueckerExpression(n, terms)


def phi_star(expr: PlueckerExpression) -> MatrixPolynomial:
    """Pull a Pluecker expression back to matrix entries: every factor
    becomes a signed minor of M, fully expanded.

    Raises ColumnCollision when two factors of a product share a column.
    """
    n = expr.n
    acc: dict = {}
    k = 0
    for factors, c in expr.terms.items():
        # a term without factors is its coefficient times the empty minor
        minors = [delta_to_minor(K, n) for K in factors] or [(1, (), ())]
        used = [j for _, _, J in minors for j in J]
        if len(set(used)) < len(used):
            raise ColumnCollision("two factors of a product share a column")
        partial = [(0, c)]
        for _, I, J in minors[:-1]:
            partial = extend_minor_product(partial, I, J, n)
        _, I, J = minors[-1]
        add_minor_product(acc, partial, I, J, n, math.prod(sign for sign, _, _ in minors))
        k = max([k] + [I[-1] for _, I, _ in minors if I])
    return MatrixPolynomial._trusted(n, acc, k)


def compare_up_to_sign(p: MatrixPolynomial, q: MatrixPolynomial) -> int | None:
    """+1 when p equals q, -1 when p equals -q (both zero counts as +1),
    None when the two are not equal up to sign."""
    if p == q:
        return 1
    if p == -q:
        return -1
    return None


def predicted_global_sign(partition: OrderedSetPartition, r: int) -> int:
    """Candidate closed form for the global sign relating the cap-and-wedge
    expansion to the tableau sum: built from the top-justified tableau's
    reading word and the tentacle counts.  Reported by experiment scripts,
    never asserted."""
    ctx = FlamingoContext.from_admissible(partition, r)
    word = top_justified_tableau(partition, r).reading_word()
    cross = sum(
        ctx.tentacle_counts[i] * (ctx.nu - len(partition.blocks[i]))
        for i in range(ctx.d)
    )
    if cross % 2:
        raise ArithmeticError(f"cross-term exponent {cross} must be even")
    exponent = word_inversions(word) + cross // 2
    return -1 if exponent % 2 else 1


def resolved_global_sign(partition: OrderedSetPartition, r: int) -> int | None:
    """The actual sign with phi_star(gc_jellyfish) = sign * invariant, or
    None if the two disagree beyond sign (never observed)."""
    return compare_up_to_sign(
        phi_star(gc_jellyfish(partition, r)), jellyfish_invariant(partition, r)
    )
