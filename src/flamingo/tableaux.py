"""Jellyfish tableaux: enumeration, reading words, signs, and minor products.

A tableau for an ordered set partition pi = (pi_1 | ... | pi_d) at depth r
has d columns and nu rows, in the layout that
``partitions.require_admissible`` states and whose height it returns.
Rows 1..r are fully filled, every deeper row holds exactly one entry, and
column j contains exactly the elements of pi_j, increasing downward, so it
is fed by |pi_j| - r of the rows r + 1 .. nu.  Such a tableau is
determined by which column each of those rows feeds, so that assignment is
the whole stored state; entries are always derived by sorting the blocks
into their rows.

The reading word is read straight from the assignment, without a grid:
row t <= r gives ``block[t - 1]`` of every block in order, and each deep
row gives the next unread entry of ``block[r:]`` of the column it feeds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .partitions import OrderedSetPartition, permute_blocks, require_admissible, word_inversions
from .polynomials import MatrixPolynomial, _mask, extend_minor_product


@dataclass(frozen=True)
class JellyfishTableau:
    partition: OrderedSetPartition
    r: int
    assignment: tuple[int, ...]
    """assignment[t] is the 1-based column fed by row r + 1 + t."""

    def __post_init__(self) -> None:
        a = self.assignment
        if type(a) is not tuple or len(a) != self.nu - self.r or any(type(c) is not int for c in a):
            raise ValueError("assignment must be a tuple giving an int column for each of rows r+1 .. nu")
        for i, block in enumerate(self.partition.blocks, start=1):
            if a.count(i) != len(block) - self.r:
                raise ValueError(f"column {i} must receive exactly |pi_{i}| - r deep rows")

    @classmethod
    def _trusted(
        cls, partition: OrderedSetPartition, r: int, assignment: tuple[int, ...]
    ) -> "JellyfishTableau":
        """Adopt ``assignment`` without the checks of ``__post_init__``.  The
        caller guarantees them: every block holds at least r elements and
        column i is fed by exactly |pi_i| - r of the rows r + 1 .. nu."""
        self = cls.__new__(cls)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "assignment", assignment)
        return self

    @cached_property
    def nu(self) -> int:
        """The number of rows."""
        return require_admissible(self.partition, self.r)

    def column_rows(self, i: int) -> tuple[int, ...]:
        """Sorted row indices occupied by column i (1-based)."""
        deep = tuple(
            self.r + 1 + t for t, col in enumerate(self.assignment) if col == i
        )
        return tuple(range(1, self.r + 1)) + deep

    def grid(self) -> list[list[int | None]]:
        """nu rows by d columns; None marks an empty cell."""
        cells: list[list[int | None]] = [[None] * self.partition.d for _ in range(self.nu)]
        for i, block in enumerate(self.partition.blocks, start=1):
            for row, element in zip(self.column_rows(i), block):
                cells[row - 1][i - 1] = element
        return cells

    def reading_word(self) -> list[int]:
        """Nonempty entries row by row, left to right: the word of ``grid``,
        read from the assignment.  As in the grid, a deep row fed past the
        end of its block stays empty; a validated tableau has no such row."""
        r = self.r
        blocks = self.partition.blocks
        word = [block[t] for t in range(r) for block in blocks]
        read = [r] * len(blocks)  # read[c - 1]: entries of column c read so far
        for c in self.assignment:
            block = blocks[c - 1]
            k = read[c - 1]
            if k < len(block):
                word.append(block[k])
            read[c - 1] = k + 1
        return word

    def inversion_number(self) -> int:
        return word_inversions(self.reading_word())

    def sign(self) -> int:
        return -1 if self.inversion_number() % 2 else 1

    def minor_product(self) -> MatrixPolynomial:
        """The product over columns i of the minor on rows column_rows(i)
        and columns pi_i, fully expanded by the minor-product kernel."""
        n = self.partition.n
        partial = [(0, 1)]
        for i, block in enumerate(self.partition.blocks, start=1):
            partial = extend_minor_product(partial, _mask(self.column_rows(i)), _mask(block), n)
        return MatrixPolynomial._trusted(n, dict(partial), self.nu)

    def permute_columns(self, sigma: Sequence[int]) -> "JellyfishTableau":
        """The tableau for the block-reordered partition in which each
        column keeps its rows; column i moves to position sigma(i).  Its
        deep rows move with it, so the result needs no re-validation."""
        new_partition = permute_blocks(sigma, self.partition)
        new_assignment = tuple(sigma[c - 1] for c in self.assignment)
        return JellyfishTableau._trusted(new_partition, self.r, new_assignment)

    def render_text(self) -> str:
        """Rows top to bottom, columns separated by tabs, '.' for empty cells."""
        lines = []
        for row in self.grid():
            lines.append("\t".join("." if x is None else str(x) for x in row))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render_text()


def tableau_count(partition: OrderedSetPartition, r: int) -> int:
    """|J_r(pi)| = (nu - r)! / prod((|pi_i| - r)!)."""
    total = math.factorial(require_admissible(partition, r) - r)
    for block in partition.blocks:
        total //= math.factorial(len(block) - r)
    return total


def iter_tableaux(partition: OrderedSetPartition, r: int) -> Iterator[JellyfishTableau]:
    """All tableaux, choosing the deep rows of column 1 first, then column 2
    from what remains, and so on; each choice runs in ascending combination
    order.  The walk meets what the constructor checks (every block holds
    at least r elements, and column i takes |pi_i| - r deep rows), so each
    tableau is adopted through ``JellyfishTableau._trusted``."""
    deep_rows = list(range(r + 1, require_admissible(partition, r) + 1))
    blocks = partition.blocks
    assignment: dict[int, int] = {}

    def rec(i: int, remaining: list[int]) -> Iterator[JellyfishTableau]:
        if i > len(blocks):
            yield JellyfishTableau._trusted(partition, r, tuple(assignment[row] for row in deep_rows))
            return
        for chosen in itertools.combinations(remaining, len(blocks[i - 1]) - r):
            for row in chosen:
                assignment[row] = i
            rest = [row for row in remaining if row not in chosen]
            yield from rec(i + 1, rest)
            for row in chosen:
                del assignment[row]

    return rec(1, deep_rows)


def enumerate_tableaux(partition: OrderedSetPartition, r: int) -> list[JellyfishTableau]:
    return list(iter_tableaux(partition, r))


def top_justified_tableau(partition: OrderedSetPartition, r: int) -> JellyfishTableau:
    """The tableau filling deep rows greedily: column 1 takes the first
    |pi_1| - r rows below r, column 2 the next |pi_2| - r, and so on.  It
    is the first of ``iter_tableaux``."""
    return next(iter_tableaux(partition, r))


def column_arrangement_sign(tableau: JellyfishTableau, orders: Sequence[Sequence[int]]) -> int:
    """Sign of a tableau whose columns were internally rearranged, counting
    only inversions between entries of distinct columns.

    ``orders[i - 1]`` lists the elements of block i in the top-to-bottom
    order they occupy column i's rows; for the blocks themselves this agrees
    with ``tableau.sign()``.  A column's entries appear in the reading word
    in that order, so the inversions within columns are those of the orders.
    An element that is not an int is rejected, as a bool or a float would
    sort like its int twin.
    """
    relabel: dict[int, int] = {}
    for i, (block, order) in enumerate(zip(tableau.partition.blocks, orders, strict=True), start=1):
        if any(type(x) is not int for x in order) or sorted(order) != list(block):
            raise ValueError(f"orders[{i - 1}] must rearrange block {i}")
        relabel.update(zip(block, order))
    inv = word_inversions([relabel[x] for x in tableau.reading_word()])
    inv -= sum(word_inversions(order) for order in orders)
    return -1 if inv % 2 else 1
