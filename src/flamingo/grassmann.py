"""Exterior-algebra realization of the invariants on Gr(n, 2n).

An n x n matrix M embeds into the Grassmannian of n-planes in 2n-space as
the row span of [M_0 | M], where M_0 alternates +1, -1 down the diagonal.
Maximal minors of that n x 2n matrix (Pluecker coordinates, indexed by
size-n column sets K in [2n]) pull back to signed minors of M, and the cap
and wedge operations of the Grassmann-Cayley algebra build the same
invariants as the tableau sum, up to one global sign per partition.

Every index set in [2n] is an int mask with bit i - 1 for index i, the
bitmap representation of basis blades (Dorst, Fontijne and Mann, *Geometric
Algebra for Computer Science*, ch. 19).  An ``Extensor`` term is keyed by
(index mask, sorted tuple of factor masks), and a ``PlueckerExpression``
term by the sorted tuple of its factor masks; ``phi_star`` hands the
minor kernel masks, and :func:`index_set` decodes only at I/O and in
checks.  Two index sets wedge to zero when their masks meet.  Otherwise the
reordering sign of x followed by y is the parity of the pairs (a in x,
b in y) with a > b: one popcount of y against the mask of positions that
have an odd number of x's indices above them.

The translation sign from a Pluecker coordinate to a minor of M is
computed from first principles by Laplace expansion along the unit
columns, and comes to (-1)**C(m, 2) for m kept unit columns; a popular
shortcut claims the sign is (-1)**|I|, which fails in general
(``scripts/global_sign_survey.py`` counts how often).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .invariants import jellyfish_invariant
from .partitions import OrderedSetPartition, require_admissible, word_inversions
from .polynomials import (
    ColumnCollision,
    MatrixPolynomial,
    _mask,
    add_into,
    add_minor_product,
    extend_minor_product,
)
from .tableaux import top_justified_tableau

# -- index sets as masks ----------------------------------------------------


def index_set(mask: int) -> tuple[int, ...]:
    """The indices of a mask in increasing order: the decoding of an
    Extensor index set or of a Pluecker factor, for output and checks."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _checked_mask(indices: Iterable[int], n: int, copies: int = 1) -> int:
    """The mask of indices that are ints in [1, copies * n], not bools, and
    do not repeat, by the partition constructor's rule, for an int n."""
    indices, top = tuple(indices), copies * n
    in_range = type(n) is int and all(type(i) is int and 1 <= i <= top for i in indices)
    if not in_range or len(set(indices)) != len(indices):
        raise ValueError(f"indices must be distinct ints in [1, {top}] for an int n, got {indices}, n = {n!r}")
    return _mask(indices)


def _odd_above(x: int) -> int:
    """Mask of the positions with an odd number of x's indices above them.

    Sorting the indices of x followed by those of y takes one transposition
    per pair (a in x, b in y) with a > b, so its sign is
    (-1)**popcount(_odd_above(x) & y)."""
    above = 0
    while x:
        low = x & -x
        above ^= low - 1
        x ^= low
    return above


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


def _translation_exponent(kept: int) -> int:
    """Exponent of the translation sign for the mask of kept unit columns.

    Laplace expansion along the kept unit columns: each kept column c
    contributes the diagonal entry (-1)**(c - 1) and one transposition per
    row i in I below c.  Since c - 1 counts the kept columns and the rows
    of I below c, the exponent is congruent to the number of pairs of kept
    columns, C(|kept|, 2).
    """
    m = kept.bit_count()
    return m * (m - 1) // 2


def delta_index_set(rows: Iterable[int], cols: Iterable[int], n: int) -> tuple[int, ...]:
    """Column set K in [2n] whose Pluecker coordinate pulls back to the
    minor on the given rows and columns: K = ([n] minus rows) union (cols + n)."""
    I, J = _checked_mask(rows, n), _checked_mask(cols, n)
    if I.bit_count() != J.bit_count():
        raise ValueError("need |rows| = |cols|")
    return index_set((((1 << n) - 1) ^ I) | (J << n))


def translation_sign(rows: Iterable[int], n: int) -> int:
    """Exact sign relating the Pluecker coordinate on delta_index_set(I, J, n)
    to the minor on rows I and columns J; it depends only on n and |I|."""
    kept = ~_checked_mask(rows, n) & ((1 << n) - 1)
    return -1 if _translation_exponent(kept) % 2 else 1


def delta_to_minor(K: Iterable[int], n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Split a size-n column set K in [2n] into (sign, rows I, cols J) with
    the Pluecker coordinate on K equal to sign times the minor M_I^J."""
    mask = _checked_mask(K, n, 2)
    if mask.bit_count() != n:
        raise ValueError("K must be a size-n subset of [2n]")
    full = (1 << n) - 1
    I = index_set(full ^ (mask & full))
    return translation_sign(I, n), I, index_set(mask >> n)  # |J| = n - |kept| = |I|


# -- exterior algebra over the 2n column vectors ----------------------------


class Extensor:
    """Signed sum of wedges of column vectors, each term carrying the
    Pluecker factors accumulated by earlier caps.

    Terms map (indices, factors) to an integer coefficient, where indices
    is the mask of a set in [2n] and factors is a sorted tuple of masks.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, tuple[int, ...]], int] | None = None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, tuple[int, ...]], int]) -> "Extensor":
        """Adopt ``terms`` without copying or filtering it.  The caller
        guarantees that no coefficient is 0."""
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def basis(cls, indices: Iterable[int]) -> "Extensor":
        """The wedge of the given positive indices in the given order;
        zero when an index repeats."""
        mask = above = odd = 0
        for i in indices:
            if type(i) is not int or i < 1:
                raise ValueError(f"indices must be positive ints, got {i!r}")
            bit = 1 << (i - 1)
            if mask & bit:
                return cls()
            odd ^= (above & bit).bit_count()  # the earlier indices past i
            above ^= bit - 1
            mask |= bit
        return cls({(mask, ()): -1 if odd else 1})

    def __add__(self, other: "Extensor") -> "Extensor":
        terms = dict(self.terms)
        add_into(terms, other.terms)
        return Extensor._trusted(terms)

    def wedge(self, other: "Extensor") -> "Extensor":
        terms: dict = {}
        for (idx1, fac1), c1 in self.terms.items():
            above = _odd_above(idx1)
            for (idx2, fac2), c2 in other.terms.items():
                if idx1 & idx2:
                    continue
                c = -c1 * c2 if (above & idx2).bit_count() % 2 else c1 * c2
                key = (idx1 | idx2, tuple(sorted(fac1 + fac2)))
                new = terms.get(key, 0) + c
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return Extensor._trusted(terms)

    def degrees(self) -> set[int]:
        return {idx.bit_count() for idx, _ in self.terms}

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
        bits = [1 << i for i in range(idx1.bit_length()) if idx1 >> i & 1]
        for chosen in itertools.combinations(bits, b):
            moved = sum(chosen)
            kept = idx1 ^ moved
            above = _odd_above(moved)
            # shuffle sign for pulling the moved indices to the front
            shuffle = (above & kept).bit_count()
            for (idx2, fac2), c2 in y.terms.items():
                if moved & idx2:
                    continue
                c = -c1 * c2 if (shuffle + (above & idx2).bit_count()) % 2 else c1 * c2
                key = (kept, tuple(sorted(fac1 + fac2 + (moved | idx2,))))
                new = acc.get(key, 0) + c
                if new:
                    acc[key] = new
                else:
                    acc.pop(key, None)
    return Extensor._trusted(acc)


# -- Pluecker expressions ----------------------------------------------------


@dataclass
class PlueckerExpression:
    """Signed integer combination of products of Pluecker coordinates on
    Gr(n, 2n); each product is a sorted tuple of masks of size-n index
    sets in [2n]."""

    n: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.terms = {fac: c for fac, c in self.terms.items() if c}

    def __len__(self) -> int:
        return len(self.terms)


def _blade(mask: int) -> Extensor:
    """The wedge of a mask's indices in increasing order, sign +1."""
    return Extensor._trusted({(mask, ()): 1})


def gc_jellyfish(partition: OrderedSetPartition, r: int, caps: dict | None = None) -> PlueckerExpression:
    """Fully expanded cap-and-wedge realization of the invariant: cap the
    tentacle wedge onto each of the first d - 1 shifted blocks, wedge the
    results, then close with the last shifted block.  Terms are degree-d
    products of Pluecker coordinates.

    ``caps`` is a table of cap pieces keyed by the cap's own inputs: n and
    the masks of the tentacle rows S and of E + (B + n), for the tail rows
    E and a block B.  A sweep passes one table for all its partitions, so
    each distinct piece is built once; pieces are shared and never changed.
    Without it the pieces go into a fresh table."""
    nu = require_admissible(partition, r)
    n = partition.n
    if caps is None:
        caps = {}
    tentacles = (1 << nu) - (1 << r)  # rows r + 1 .. nu
    tail = (1 << n) - (1 << nu)  # rows nu + 1 .. n
    *first, last = partition.blocks
    result = None
    for block in first:
        top = tail | _mask(block) << n
        piece = caps.get((n, tentacles, top))
        if piece is None:
            piece = caps[n, tentacles, top] = cap(_blade(tentacles), _blade(top), n)
        result = piece if result is None else result.wedge(piece)
    closing = _blade(tail | _mask(last) << n)
    result = closing if result is None else result.wedge(closing)
    terms: dict = {}
    for (idx, factors), c in result.terms.items():
        if idx.bit_count() != n:
            raise ValueError("closing wedge did not reach top degree")
        add_into(terms, {tuple(sorted(factors + (idx,))): c})
    return PlueckerExpression(n, terms)


def phi_star(expr: PlueckerExpression) -> MatrixPolynomial:
    """Pull a Pluecker expression back to matrix entries: every factor
    becomes a signed minor of M, fully expanded.

    A factor K splits into the kept unit columns K & (2**n - 1), the rows
    I of [n] they leave out, and the columns J = K >> n.  Raises
    ColumnCollision when two factors of a product share a column.
    """
    n = expr.n
    full = (1 << n) - 1
    acc: dict = {}
    k = 0
    for factors, c in expr.terms.items():
        # a term without factors is its coefficient times the empty minor
        minors = []
        used = exponent = 0
        for K in factors:
            kept, J = K & full, K >> n
            if used & J:
                raise ColumnCollision("two factors of a product share a column")
            used |= J
            exponent += _translation_exponent(kept)
            I = full ^ kept
            minors.append((I, J))
            k = max(k, I.bit_length())
        last = minors.pop() if minors else (0, 0)
        partial = [(0, c)]
        for I, J in minors:
            partial = extend_minor_product(partial, I, J, n)
        add_minor_product(acc, partial, *last, n, -1 if exponent % 2 else 1)
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
    nu = require_admissible(partition, r)
    word = top_justified_tableau(partition, r).reading_word()
    cross = sum((len(block) - r) * (nu - len(block)) for block in partition.blocks)
    if cross % 2:
        raise ArithmeticError(f"cross-term exponent {cross} must be even")
    exponent = word_inversions(word) + cross // 2
    return -1 if exponent % 2 else 1


def resolved_global_sign(partition: OrderedSetPartition, r: int, caps: dict | None = None) -> int | None:
    """The actual sign with phi_star(gc_jellyfish) = sign * invariant, or
    None if the two disagree beyond sign (never observed).  ``caps`` is
    the cap table of ``gc_jellyfish``."""
    return compare_up_to_sign(
        phi_star(gc_jellyfish(partition, r, caps)), jellyfish_invariant(partition, r)
    )
