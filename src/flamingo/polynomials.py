"""Exact sparse polynomials in matrix entries x[i][j].

A monomial is multilinear in the columns: for each column j of an n-column
matrix it holds at most one variable x[row][j], with 1 <= row <= n.  It is
packed into an int with bit ``n*n - 1 - variable_position(row, j, n)`` set
for each of its variables, so integer order is the term order and ``max``
picks the leading monomial (the packed exponent vectors of Monagan and
Pearce).  A row above n has no bit, so every entry point rejects it.
Tuples appear only at I/O: the constructor and ``from_json_dict`` take,
and ``to_json_dict`` and ``__str__`` show, a monomial as the length-n tuple
of the row paired with each column, 0 for an absent column.
Coefficients are arbitrary-precision signed integers, so every computation
here is exact.

Every product here is one of minors on disjoint column sets, expanded by
the kernel at the end of this module from masks of rows and columns; a
polynomial is multiplied only by an int.  The kernel caches each minor's
table of terms and builds it from the cached tables one row smaller, by
expansion along its first row, so minors that end on the same rows and
columns share those tables; the terms keep the order of the row-by-row
expansion, the permutations in lexicographic order.  ``phi_star`` raises
:class:`ColumnCollision` when two of its factors share a column.

The constructor and ``from_json_dict`` validate input from outside.  The
ring operations and the kernel combine operands that are already valid,
so they adopt their results through ``MatrixPolynomial._trusted``.  A
column permutation acts on packed monomials through :func:`column_map`,
built once per permutation and validated there, and :func:`map_monomial`.
:func:`add_into` is the one accumulate: it adds a signed multiple of a
term dict into another in place, for any hashable keys, and every
identity check is "the signed sum is empty".
"""

from __future__ import annotations

import functools
import json
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import is_permutation

Monomial = int


class ColumnCollision(ValueError):
    """Two factors of a product of minors share a column."""


def variable_position(row: int, col: int, n: int) -> int:
    """Rank of x[row][col] in the term order, 0 = most significant.

    Row 1 reads left to right, row 2 right to left, rows 3 and up left to
    right again; every row-a variable outranks every row-(a+1) variable.
    """
    if row == 2:
        return n + (n - col)
    return (row - 1) * n + (col - 1)


def _bit(row: int, col: int, n: int) -> int:
    return n * n - 1 - variable_position(row, col, n)


def _bits(m: Monomial) -> Iterator[int]:
    """The set bits of a packed monomial, most significant first."""
    while m:
        b = m.bit_length() - 1
        m ^= 1 << b
        yield b


def _unpack(m: Monomial, n: int) -> tuple[int, ...]:
    """The row paired with each column, 0 for a column m does not use;
    each bit is read back by inverting ``_bit``."""
    rows = [0] * n
    for b in _bits(m):
        row, offset = divmod(n * n - 1 - b, n)
        rows[n - 1 - offset if row == 1 else offset] = row + 1
    return tuple(rows)


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


def column_map(w: Sequence[int], n: int) -> list[int]:
    """The bit map of x[a][j] -> x[a][w(j)] over n columns: bit -> its
    variable's image, as a one-bit mask.  ``w`` must be a permutation of
    [n], by the one rule of ``partitions.is_permutation``, for an int n."""
    if type(n) is not int or len(w) != n or not is_permutation(w):
        raise ValueError(f"w must be a permutation of the columns [1, n] of an int n, got n = {n!r}")
    moved = [0] * (n * n)
    for row in range(1, n + 1):
        # a row's variables take n consecutive bits, one way or the other
        first = _bit(row, 1, n)
        step = _bit(row, 2, n) - first if n > 1 else 1
        for col, to in enumerate(w):
            moved[first + col * step] = 1 << (first + (to - 1) * step)
    return moved


def map_monomial(m: Monomial, moved: Sequence[int]) -> Monomial:
    """The image of a packed monomial under a ``column_map``."""
    image = 0
    while m:
        b = m.bit_length() - 1
        m ^= 1 << b
        image |= moved[b]
    return image


class MatrixPolynomial:
    """Sparse exact polynomial over the entries of a k-row, n-column matrix.

    Treat instances as immutable; all arithmetic returns fresh objects.
    ``k`` is advisory: it is the larger of the declared row count and the
    rows actually appearing in the terms.  ``terms`` maps packed monomials
    to their coefficients.
    """

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None, k: int = 0):
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a nonnegative int, got {n!r}")
        clean: dict[Monomial, int] = {}
        max_row = 0
        for m, c in (terms or {}).items():
            if len(m) != n:
                raise ValueError(f"monomial {m} has length {len(m)}, expected {n}")
            if type(c) is not int:
                raise TypeError(f"coefficients must be int, got {c!r}")
            if c == 0:
                continue
            bits = 0
            for j, row in enumerate(m):
                if type(row) is not int or not 0 <= row <= n:
                    raise ValueError(f"row indices must be ints in [0, {n}]")
                if row:
                    bits |= 1 << _bit(row, j + 1, n)
                    max_row = max(max_row, row)
            clean[bits] = c
        self.n = n
        self.k = max(k, max_row)
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, int], k: int) -> "MatrixPolynomial":
        """Adopt ``terms`` without copying or checking it.  The caller
        guarantees what ``__init__`` would enforce: every key a packed
        monomial over n columns with at most one variable per column,
        every coefficient a nonzero int, and no row above ``k``."""
        self = cls.__new__(cls)
        self.n = n
        self.k = k
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n: int, k: int = 0) -> "MatrixPolynomial":
        return cls(n, {}, k)

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
        if type(other) is not int:
            return NotImplemented
        if other == 0:
            return MatrixPolynomial.zero(self.n, self.k)
        return MatrixPolynomial._trusted(self.n, {m: c * other for m, c in self.terms.items()}, self.k)

    __rmul__ = __mul__

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
        m = max(self.terms)
        return m, self.terms[m]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms from largest to smallest monomial."""
        return sorted(self.terms.items(), reverse=True)

    def evaluate(self, matrix: Sequence[Sequence[int]]) -> int:
        """Value at an integer matrix with at least k rows and exactly n columns."""
        if len(matrix) < self.k:
            raise ValueError(f"need at least {self.k} rows, got {len(matrix)}")
        if matrix and any(len(row) != self.n for row in matrix):
            raise ValueError(f"every row must have {self.n} entries")
        n = self.n
        entry = [0] * (n * n)  # bit -> the matrix entry of its variable
        for row in range(1, min(self.k, n) + 1):
            for col in range(1, n + 1):
                entry[_bit(row, col, n)] = matrix[row - 1][col - 1]
        total = 0
        for m, c in self.terms.items():
            value = c
            for b in _bits(m):
                value *= entry[b]
                if value == 0:
                    break
            total += value
        return total

    # -- presentation -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            vars_part = " ".join(f"x[{row},{j + 1}]" for j, row in enumerate(_unpack(m, self.n)) if row)
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
                {"rows": list(_unpack(m, self.n)), "coeff": str(c)} for m, c in self.sorted_terms()
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MatrixPolynomial":
        """Read the JSON form back.  ``n``, ``k`` and the rows must be JSON
        integers and ``coeff`` a decimal string or a JSON integer; nothing
        is truncated, and ``true`` is not 1."""
        n, k = data["n"], data.get("k", 0)
        if type(n) is not int or type(k) is not int:
            raise ValueError(f"n and k must be JSON integers, got {n!r} and {k!r}")
        terms: dict[tuple[int, ...], int] = {}
        for t in data["terms"]:
            m = tuple(t["rows"])  # the constructor rejects a row that is not an int
            c = t["coeff"]
            if type(c) is str:
                c = int(c)
            elif type(c) is not int:
                raise ValueError(f"coeff must be a decimal string or a JSON integer, got {c!r}")
            if m in terms:
                raise ValueError(f"duplicate monomial {m}")
            terms[m] = c
        return cls(n, terms, k)

    @classmethod
    def from_json(cls, text: str) -> "MatrixPolynomial":
        return cls.from_json_dict(json.loads(text))


# -- products of minors over disjoint columns --------------------------------
#
# A product of minors, one per column set, is carried as a list of partial
# terms (packed monomial, coefficient).  Column sets are disjoint, so
# multiplying in the next minor ORs each head with each of its terms; the
# intermediate products build no MatrixPolynomial and share every prefix of
# blocks.  Row and column sets are masks, bit i - 1 for index i.  Once every
# minor is folded in, the partial terms are the product's distinct terms.


def _mask(indices: Iterable[int]) -> int:
    """The mask of a set of positive indices, bit i - 1 for index i."""
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


@functools.lru_cache(maxsize=None)
def _minor_terms(rows: int, cols: int, n: int) -> tuple[tuple[Monomial, int], ...]:
    """Terms of the minor on the rows and columns of two masks of equal
    size, over an n-column matrix, as (packed monomial, sign).  The table is
    built from the cached tables one row smaller: expanded along its first
    row, each column in increasing order with alternating sign, so the terms
    follow the permutations in lexicographic order."""
    if not rows:
        return ((0, 1),)
    low = rows & -rows
    row, rest = low.bit_length(), rows ^ low
    terms: list[tuple[Monomial, int]] = []
    negate = False
    remaining = cols
    while remaining:
        col = remaining & -remaining
        remaining ^= col
        x = 1 << _bit(row, col.bit_length(), n)
        sub = _minor_terms(rest, cols ^ col, n)
        terms += [(bits | x, -s) for bits, s in sub] if negate else [(bits | x, s) for bits, s in sub]
        negate = not negate
    return tuple(terms)


def minor(rows: Iterable[int], cols: Iterable[int], n: int) -> MatrixPolynomial:
    """Determinant of the submatrix on the given rows and columns, both taken
    in increasing order, as a polynomial over an n-column matrix.

    The empty minor is the constant 1.  Rows and columns are ints in [1, n],
    none repeated.
    """
    rows, cols = tuple(rows), tuple(cols)
    if type(n) is not int or any(type(x) is not int for x in rows + cols):
        raise ValueError(f"n, row and column indices must be ints, got n = {n!r}, {rows} and {cols}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError(f"row and column indices must not repeat, got {rows} and {cols}")
    I, J = sorted(rows), sorted(cols)
    if len(I) != len(J):
        raise ValueError(f"minor needs |rows| = |cols|, got {len(I)} and {len(J)}")
    if I and (I[0] < 1 or I[-1] > n):
        raise ValueError(f"row indices must lie in [1, {n}]")
    if J and (J[0] < 1 or J[-1] > n):
        raise ValueError(f"column indices must lie in [1, {n}]")
    return MatrixPolynomial._trusted(n, dict(_minor_terms(_mask(I), _mask(J), n)), max(I, default=0))


def extend_minor_product(
    partial: list[tuple[Monomial, int]], rows: int, cols: int, n: int
) -> list[tuple[Monomial, int]]:
    """Multiply partial terms by the minor on the rows and columns of two
    masks; no head uses those columns."""
    terms = _minor_terms(rows, cols, n)
    return [(head | tail, c * s) for head, c in partial for tail, s in terms]


def add_minor_product(
    acc: dict[Monomial, int],
    partial: list[tuple[Monomial, int]],
    rows: int,
    cols: int,
    n: int,
    coeff: int,
) -> None:
    """Add coeff times the partial terms times the minor on the rows and
    columns of two masks into ``acc``, in place; monomials whose
    coefficient cancels to 0 leave ``acc``."""
    terms = _minor_terms(rows, cols, n)
    get = acc.get
    for head, c in partial:
        c *= coeff
        for tail, s in terms:
            m = head | tail
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
