"""Exact sparse polynomials in matrix entries x[i][j].

A monomial is multilinear in the columns: it assigns to each column j of an
n-column matrix at most one row index, encoded as a length-n tuple whose
entry at position j - 1 is the row (1-based) or 0 when column j is absent.
Coefficients are arbitrary-precision signed integers, so every computation
here is exact.

Products in this package always combine factors with disjoint column
support; multiplying two monomials that share a column raises
:class:`ColumnCollision` rather than silently squaring a variable.

The constructor and ``from_json_dict`` validate input from outside.  The
ring operations and ``substitute_columns`` combine operands that are
already valid, so they adopt their results through
``MatrixPolynomial._trusted``.  :func:`add_into` is the one accumulate: it
adds a signed multiple of a term dict into another in place, for any
hashable keys, and every identity check is "the signed sum is empty".
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

Monomial = tuple[int, ...]


class ColumnCollision(ValueError):
    """Two monomials being multiplied both use some column."""


def variable_position(row: int, col: int, n: int) -> int:
    """Rank of x[row][col] in the term order, 0 = most significant.

    Row 1 reads left to right, row 2 right to left, rows 3 and up left to
    right again; every row-a variable outranks every row-(a+1) variable.
    """
    if row == 2:
        return n + (n - col)
    return (row - 1) * n + (col - 1)


def monomial_key(m: Monomial) -> tuple[int, ...]:
    """Sort key increasing with the term order; max() picks the leading monomial."""
    n = len(m)
    positions = sorted(variable_position(row, j + 1, n) for j, row in enumerate(m) if row)
    return tuple(-p for p in positions)


def term_compare(m1: Monomial, m2: Monomial) -> int:
    """-1, 0, or 1 as m1 is below, equal to, or above m2 in the term order."""
    if len(m1) != len(m2):
        raise ValueError("monomials over different column counts")
    k1, k2 = monomial_key(m1), monomial_key(m2)
    return (k1 > k2) - (k1 < k2)


def add_into(acc: dict, terms: Mapping, factor: int = 1) -> None:
    """acc += factor * terms in place; keys whose coefficient cancels to 0
    leave ``acc``.  Keys may be any hashable, and a zero factor leaves
    ``acc`` unchanged."""
    get = acc.get
    for key, c in terms.items():
        new = get(key, 0) + factor * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def monomial_multiply(m1: Monomial, m2: Monomial) -> Monomial:
    out = list(m1)
    for j, row in enumerate(m2):
        if row:
            if out[j]:
                raise ColumnCollision(f"column {j + 1} used by both factors")
            out[j] = row
    return tuple(out)


class MatrixPolynomial:
    """Sparse exact polynomial over the entries of a k-row, n-column matrix.

    Treat instances as immutable; all arithmetic returns fresh objects.
    ``k`` is advisory: it is the larger of the declared row count and the
    rows actually appearing in the terms.
    """

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | None = None, k: int = 0):
        if n < 0:
            raise ValueError("n must be nonnegative")
        clean: dict[Monomial, int] = {}
        max_row = 0
        for m, c in (terms or {}).items():
            if len(m) != n:
                raise ValueError(f"monomial {m} has length {len(m)}, expected {n}")
            if not isinstance(c, int):
                raise TypeError("coefficients must be int")
            if c == 0:
                continue
            for row in m:
                if row < 0:
                    raise ValueError("row indices must be nonnegative")
                if row > max_row:
                    max_row = row
            clean[tuple(m)] = c
        self.n = n
        self.k = max(k, max_row)
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, int], k: int) -> "MatrixPolynomial":
        """Adopt ``terms`` without copying or checking it.  The caller
        guarantees what ``__init__`` would enforce: every key a length-n
        tuple of nonnegative ints, every coefficient a nonzero int, and no
        row above ``k``."""
        self = cls.__new__(cls)
        self.n = n
        self.k = k
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n: int, k: int = 0) -> "MatrixPolynomial":
        return cls(n, {}, k)

    @classmethod
    def one(cls, n: int, k: int = 0) -> "MatrixPolynomial":
        return cls(n, {(0,) * n: 1}, k)

    @classmethod
    def variable(cls, row: int, col: int, n: int) -> "MatrixPolynomial":
        if not 1 <= col <= n or row < 1:
            raise ValueError("variable indices out of range")
        m = [0] * n
        m[col - 1] = row
        return cls(n, {tuple(m): 1})

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("column-count mismatch")
        terms = dict(self.terms)
        add_into(terms, other.terms)
        return MatrixPolynomial._trusted(self.n, terms, max(self.k, other.k))

    def __neg__(self) -> "MatrixPolynomial":
        return MatrixPolynomial._trusted(self.n, {m: -c for m, c in self.terms.items()}, self.k)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MatrixPolynomial.zero(self.n, self.k)
            return MatrixPolynomial._trusted(self.n, {m: c * other for m, c in self.terms.items()}, self.k)
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("column-count mismatch")
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            # m1 * m2 determines m2, so the products for one m1 are distinct keys
            add_into(terms, {monomial_multiply(m1, m2): c2 for m2, c2 in other.terms.items()}, c1)
        return MatrixPolynomial._trusted(self.n, terms, max(self.k, other.k))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    # -- inspection ---------------------------------------------------

    def leading_term(self) -> tuple[Monomial, int]:
        """Largest monomial in the term order, with its coefficient."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=monomial_key)
        return m, self.terms[m]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms from largest to smallest monomial."""
        return sorted(self.terms.items(), key=lambda mc: monomial_key(mc[0]), reverse=True)

    def evaluate(self, matrix: Sequence[Sequence[int]]) -> int:
        """Value at an integer matrix with at least k rows and exactly n columns."""
        if len(matrix) < self.k:
            raise ValueError(f"need at least {self.k} rows, got {len(matrix)}")
        if matrix and any(len(row) != self.n for row in matrix):
            raise ValueError(f"every row must have {self.n} entries")
        total = 0
        for m, c in self.terms.items():
            value = c
            for j, row in enumerate(m):
                if row:
                    value *= matrix[row - 1][j]
                    if value == 0:
                        break
            total += value
        return total

    def substitute_columns(self, w: Sequence[int]) -> "MatrixPolynomial":
        """Replace each variable x[a][j] by x[a][w(j)], w a permutation of [n]."""
        if sorted(w) != list(range(1, self.n + 1)):
            raise ValueError("w must be a permutation of the columns")
        terms: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            new = [0] * self.n
            for j, row in enumerate(m):
                if row:
                    new[w[j] - 1] = row
            terms[tuple(new)] = c
        return MatrixPolynomial._trusted(self.n, terms, self.k)

    # -- presentation -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            vars_part = " ".join(f"x[{row},{j + 1}]" for j, row in enumerate(m) if row)
            mag = abs(c)
            body = vars_part if vars_part else "1"
            if mag != 1 or not vars_part:
                body = f"{mag} {vars_part}".strip()
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self) -> str:
        return f"MatrixPolynomial(n={self.n}, k={self.k}, {len(self.terms)} terms)"

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "terms": [
                {"rows": list(m), "coeff": str(c)} for m, c in self.sorted_terms()
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MatrixPolynomial":
        terms: dict[Monomial, int] = {}
        for t in data["terms"]:
            m = tuple(int(x) for x in t["rows"])
            c = int(t["coeff"])
            if m in terms:
                raise ValueError(f"duplicate monomial {m}")
            terms[m] = c
        return cls(int(data["n"]), terms, int(data.get("k", 0)))

    @classmethod
    def from_json(cls, text: str) -> "MatrixPolynomial":
        return cls.from_json_dict(json.loads(text))


@lru_cache(maxsize=None)
def _minor_terms(rows: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Terms of the minor on the given increasing rows and any len(rows)
    increasing columns: for each term, the row paired with each column in
    column order, and the term's sign."""
    out = []
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(
            1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
        )
        paired = [0] * len(rows)
        for t, p in enumerate(perm):
            paired[p] = rows[t]
        out.append((tuple(paired), -1 if inversions % 2 else 1))
    return tuple(out)


def minor(rows: Iterable[int], cols: Iterable[int], n: int) -> MatrixPolynomial:
    """Determinant of the submatrix on the given rows and columns, both taken
    in increasing order, as a polynomial over an n-column matrix.

    The empty minor is the constant 1.
    """
    I = tuple(sorted(set(rows)))
    J = tuple(sorted(set(cols)))
    if len(I) != len(J):
        raise ValueError(f"minor needs |rows| = |cols|, got {len(I)} and {len(J)}")
    if I and I[0] < 1:
        raise ValueError("row indices start at 1")
    if J and (J[0] < 1 or J[-1] > n):
        raise ValueError(f"column indices must lie in [1, {n}]")
    if not I:
        return MatrixPolynomial.one(n)
    scatter = column_scatter([J], n)
    return MatrixPolynomial(n, {scatter(paired): c for paired, c in _minor_terms(I)}, k=I[-1])


# -- products of minors over disjoint columns --------------------------------
#
# A product of minors, one per column set, is carried as a list of partial
# terms (rows, coefficient): ``rows`` lists the row paired with each column,
# block after block and each block's columns in increasing order.  Only the
# finished terms are scattered into monomials, so the intermediate products
# build no MatrixPolynomial and share every prefix of blocks.


def column_scatter(col_sets: Sequence[Sequence[int]], n: int) -> Callable[[tuple[int, ...]], Monomial]:
    """The map from rows listed block by block, each block's columns in
    increasing order, to the length-n monomial; columns in no block read 0.

    Raises ColumnCollision when two column sets share a column.
    """
    position = [-1] * n
    offset = 0
    for cols in col_sets:
        for j in sorted(cols):
            if position[j - 1] >= 0:
                raise ColumnCollision(f"column {j} used by both factors")
            position[j - 1] = offset
            offset += 1
    if -1 in position:
        # every uncovered column reads a 0 appended after the listed rows
        position = [offset if p < 0 else p for p in position]
        pick = _picker(position)
        return lambda rows: pick(rows + (0,))
    return _picker(position)


def _picker(position: list[int]) -> Callable[[tuple[int, ...]], Monomial]:
    if len(position) >= 2:
        return operator.itemgetter(*position)
    return lambda rows: tuple(rows[p] for p in position)


def extend_minor_product(
    partial: list[tuple[tuple[int, ...], int]], rows: tuple[int, ...]
) -> list[tuple[tuple[int, ...], int]]:
    """Multiply partial terms by the minor on the given increasing rows and
    the next block of columns."""
    terms = _minor_terms(rows)
    return [(head + tail, c * s) for head, c in partial for tail, s in terms]


def add_minor_product(
    acc: dict[Monomial, int],
    scatter: Callable[[tuple[int, ...]], Monomial],
    partial: list[tuple[tuple[int, ...], int]],
    rows: tuple[int, ...],
    coeff: int,
) -> None:
    """Add coeff times the partial terms times the minor on ``rows`` and the
    last block of columns into ``acc``, in place; monomials whose
    coefficient cancels to 0 leave ``acc``."""
    terms = _minor_terms(rows)
    get = acc.get
    for head, c in partial:
        c *= coeff
        for tail, s in terms:
            m = scatter(head + tail)
            new = get(m, 0) + (c if s > 0 else -c)
            if new:
                acc[m] = new
            else:
                acc.pop(m, None)


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination; independent of minor()."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(size - 1):
        pivot_row = next((i for i in range(col, size) if a[i][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        for i in range(col + 1, size):
            for j in range(col + 1, size):
                a[i][j] = (a[col][col] * a[i][j] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[-1][-1] if size else 1
