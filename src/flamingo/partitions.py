"""Ordered set partitions of [n], crossing tests, and symmetric group actions.

Every enumeration of set partitions in the package goes through the one
recursion :func:`block_tuples`: the enumerators here, and the recurrence
and three-term sweeps of ``verification``, which split a set into
(A, B, rest) and cut the rest into prefix blocks with it.

Conventions used throughout the package:

* Ground sets are ``[n] = {1, 2, ..., n}``.
* Permutations are tuples in one-line notation, so ``w[i - 1]`` is the image
  of ``i``.
* An ordered set partition is a sequence of pairwise disjoint nonempty
  blocks whose union is ``[n]``; the block order matters.  The text form
  separates blocks with ``|`` and elements with spaces, for example
  ``"2 3 6 10|5 7 8 9|1 4"``.
* A depth r is an int >= 1, checked by :func:`require_depth`.  The
  tableau row layout at depth r is stated once, by
  :func:`require_admissible`, which returns the tableau height nu.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class BlockTooSmall(ValueError):
    """Raised when an operation requires every block to hold at least r elements."""


# ---------------------------------------------------------------------------
# Permutations in one-line notation.


def is_permutation(w: Sequence[int]) -> bool:
    """True when ``w`` lists the ints 1..len(w) once each."""
    return sorted(w) == list(range(1, len(w) + 1)) and all(type(x) is int for x in w)


def simple_transposition(n: int, i: int) -> tuple[int, ...]:
    """The adjacent transposition swapping i and i + 1.

    >>> simple_transposition(4, 2)
    (1, 3, 2, 4)
    """
    if type(i) is not int or not 1 <= i < n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def long_cycle(n: int) -> tuple[int, ...]:
    """The n-cycle sending 1 to n and every other j to j - 1.

    >>> long_cycle(4)
    (4, 1, 2, 3)
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    return (n,) + tuple(range(1, n))


def longest_permutation(n: int) -> tuple[int, ...]:
    """The order-reversing permutation j -> n + 1 - j."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    return tuple(range(n, 0, -1))


def perm_inverse(w: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, image in enumerate(w, start=1):
        inv[image - 1] = i
    return tuple(inv)


def word_inversions(word: Sequence[int]) -> int:
    """Number of pairs appearing out of order in ``word``: positions a < b
    with word[a] > word[b] strictly, so repeated letters make no inversion.

    Read right to left, each letter is out of order with the smaller letters
    already read; ``bisect_left`` counts those in the sorted list of them."""
    count = 0
    seen: list[int] = []
    for x in reversed(word):
        k = bisect_left(seen, x)
        count += k
        seen.insert(k, x)
    return count


def perm_sign(w: Sequence[int]) -> int:
    return -1 if word_inversions(w) % 2 else 1


# ---------------------------------------------------------------------------
# Ordered set partitions.


@dataclass(frozen=True)
class OrderedSetPartition:
    """A sequence of disjoint nonempty blocks covering [n].

    Blocks are stored sorted internally, as a tuple of tuples, so the
    partition hashes; use :meth:`from_blocks` or :func:`parse_partition`
    rather than the raw constructor when the input may be unsorted.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if type(self.blocks) is not tuple or any(type(block) is not tuple for block in self.blocks):
            raise ValueError(f"blocks must be a tuple of tuples, got {self.blocks!r}")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError(f"block not sorted: {block}")
            for x in block:
                if type(x) is not int or x < 1 or x > self.n:
                    raise ValueError(f"element {x} outside [1, {self.n}]")
                if x in seen:
                    raise ValueError(f"element {x} repeated")
                seen.add(x)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"blocks do not cover [n]; missing {missing}")

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "OrderedSetPartition":
        """Adopt ``blocks`` without the checks of ``__post_init__``.  The
        caller guarantees them: nonempty sorted blocks of ints in [1, n],
        pairwise disjoint and covering [n]."""
        self = cls.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        return self

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "OrderedSetPartition":
        tidy = tuple(tuple(sorted(block)) for block in blocks)
        return cls(sum(map(len, tidy)), tidy)

    @property
    def d(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_of(self, element: int) -> int:
        """1-based index of the block containing ``element``."""
        for i, block in enumerate(self.blocks, start=1):
            if element in block and type(element) is int:
                return i
        raise ValueError(f"{element} not in [1, {self.n}]")

    def text(self) -> str:
        return "|".join(" ".join(str(x) for x in block) for block in self.blocks)

    def __str__(self) -> str:
        return f"({self.text()})"

    def canonical(self) -> "OrderedSetPartition":
        """Blocks reordered ascending by their minimum element."""
        return OrderedSetPartition._trusted(self.n, tuple(sorted(self.blocks, key=min)))

    def replace_blocks(self, replacements: dict[int, Iterable[int]]) -> "OrderedSetPartition":
        """A copy with the 1-based block positions in ``replacements`` swapped out."""
        new = list(self.blocks)
        for pos, content in replacements.items():
            new[pos - 1] = tuple(sorted(content))
        return OrderedSetPartition(self.n, tuple(new))


def parse_partition(text: str) -> OrderedSetPartition:
    """Parse the ``"a b|c d"`` text form; n is the total number of elements.

    >>> parse_partition("2 3|1 4").blocks
    ((2, 3), (1, 4))

    Only the integers are parsed here; the constructor checks the rest.
    """
    blocks = []
    for chunk in text.split("|"):
        try:
            blocks.append([int(p) for p in chunk.split()])
        except ValueError as exc:
            raise ValueError(f"bad element in partition text: {chunk!r}") from exc
    return OrderedSetPartition.from_blocks(blocks)


def block_tuples(
    elements: Sequence[int], d: int, r: int, canonical: bool = False
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the blocks of every ordered partition of the increasing
    ``elements`` into d blocks of size at least r, in lexicographic order of
    the block-assignment word; nothing when there are fewer than r * d
    elements.  r = 0 lets blocks be empty.  A generator, so no list of every
    partition is held.  The first element varies slowest: given the elements
    in decreasing order, the largest does, and each block comes out
    decreasing.

    With ``canonical`` an element may open only the first empty block, so
    each set partition appears once, with its blocks ascending by minimum.
    """
    if len(elements) < r * d:
        return
    blocks: list[list[int]] = [[] for _ in range(d)]
    size = len(elements)

    def rec(i: int, deficit: int, reach: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        # deficit: elements still owed to blocks below size r.  The element
        # at i may join blocks[:reach]: all d blocks when ordered, else the
        # nonempty ones and the first empty one.
        e = elements[i]
        remaining = size - i - 1
        for b in range(reach):
            block = blocks[b]
            left = deficit - (len(block) < r)
            if left <= remaining:
                block.append(e)
                if remaining:
                    yield from rec(i + 1, left, reach + (b + 1 == reach < d))
                else:
                    yield tuple(map(tuple, blocks))
                block.pop()

    if size:
        yield from rec(0, r * d, min(d, 1) if canonical else d)
    else:
        yield ()  # no elements: one partition, into d = 0 blocks


def _partitions(n: int, d: int, r: int, canonical: bool = False) -> Iterator[OrderedSetPartition]:
    """The partitions of [n] into d blocks of size at least r, built
    unchecked in the order of ``block_tuples`` once the sizes pass: r by
    ``require_depth``, n and d as ints of at least 1, a bool excluded."""
    require_depth(r)
    if type(n) is not int or type(d) is not int or n < 1 or d < 1:
        raise ValueError(f"n and d must be ints of at least 1, got n = {n!r}, d = {d!r}")
    every = block_tuples(range(1, n + 1), d, r, canonical)
    return (OrderedSetPartition._trusted(n, blocks) for blocks in every)


def enumerate_ordered_partitions(n: int, d: int, r: int) -> list[OrderedSetPartition]:
    """All ordered set partitions of [n] into d blocks of size at least r.

    Returned in lexicographic order of the block-assignment word of
    1, 2, ..., n.  Empty when n < r * d.
    """
    return list(_partitions(n, d, r))


def enumerate_unordered_partitions(n: int, d: int, r: int) -> list[OrderedSetPartition]:
    """Set partitions of [n] into d blocks of size at least r, one canonical
    representative each (blocks ascending by minimum)."""
    return list(_partitions(n, d, r, canonical=True))


def partitions_up_to(n_max: int, r: int) -> Iterator[OrderedSetPartition]:
    """Every ordered partition of [n] into blocks of size at least r, for
    n = r .. n_max, by n and then by the number of blocks, each in the order
    of ``enumerate_ordered_partitions``.  A generator that holds no list;
    its first step checks r by ``require_depth`` and n_max as an int."""
    require_depth(r)
    if type(n_max) is not int:
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    for n in range(r, n_max + 1):
        for d in range(1, n // r + 1):
            yield from _partitions(n, d, r)


def is_noncrossing(partition: OrderedSetPartition) -> bool:
    """True when no quadruple a < b < c < d has a, c in one block and b, d
    in a different block.

    Two blocks x and y cross exactly when the elements of y fall in more
    than one gap of x, the gaps below min x and above max x counting as one.
    """
    blocks = partition.blocks
    return not any(
        len({bisect(x, b) % len(x) for b in y}) > 1
        for s, x in enumerate(blocks)
        for y in blocks[s + 1 :]
    )


def enumerate_noncrossing(n: int, d: int, r: int) -> list[OrderedSetPartition]:
    """Canonical representatives of the noncrossing partitions in
    ``enumerate_unordered_partitions(n, d, r)``."""
    return [p for p in enumerate_unordered_partitions(n, d, r) if is_noncrossing(p)]


# ---------------------------------------------------------------------------
# Group actions.


def act_elements(w: Sequence[int], partition: OrderedSetPartition) -> OrderedSetPartition:
    """Apply a permutation of [n] to every element, keeping block order."""
    if len(w) != partition.n or not is_permutation(w):
        raise ValueError("w must be a permutation of [n]")
    # a permutation maps a partition of [n] to one: adopt the image unchecked
    return OrderedSetPartition._trusted(
        partition.n,
        tuple(tuple(sorted(w[x - 1] for x in block)) for block in partition.blocks),
    )


def rotate(partition: OrderedSetPartition) -> OrderedSetPartition:
    """Apply j -> c_n(j) where c_n sends 1 to n and j to j - 1 otherwise.

    >>> rotate(parse_partition("1 2|3 4")).text()
    '1 4|2 3'
    """
    return act_elements(long_cycle(partition.n), partition)


def rotation_orbit(partition: OrderedSetPartition) -> list[OrderedSetPartition]:
    """Distinct canonical forms of the rotation iterates."""
    seen = []
    current = partition
    for _ in range(partition.n):
        canon = current.canonical()
        if canon not in seen:
            seen.append(canon)
        current = rotate(current)
    return seen


def permute_blocks(sigma: Sequence[int], partition: OrderedSetPartition) -> OrderedSetPartition:
    """Reorder blocks so position i holds the old block sigma^{-1}(i)."""
    if len(sigma) != partition.d or not is_permutation(sigma):
        raise ValueError("sigma must be a permutation of the block positions")
    inv = perm_inverse(sigma)
    return OrderedSetPartition._trusted(partition.n, tuple(partition.blocks[j - 1] for j in inv))


def transposition_distance_to_noncrossing(partition: OrderedSetPartition, k: int) -> bool:
    """True when some product of at most k adjacent transpositions, applied
    to the elements, turns the partition into a noncrossing one.

    Breadth-first search over canonical forms; block order is irrelevant
    to the crossing test.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative int, got {k!r}")
    n = partition.n
    start = partition.canonical()
    if is_noncrossing(start):
        return True
    seen = {start}
    frontier = [start]
    gens = [simple_transposition(n, i) for i in range(1, n)]
    for _ in range(k):
        nxt = []
        for p in frontier:
            for w in gens:
                q = act_elements(w, p).canonical()
                if q in seen:
                    continue
                if is_noncrossing(q):
                    return True
                seen.add(q)
                nxt.append(q)
        frontier = nxt
        if not frontier:
            break
    return False


# ---------------------------------------------------------------------------
# The depth rule and the row layout shared by tableaux, invariants, grassmann
# and diagrams.


def require_depth(r: int) -> None:
    """Raise ValueError unless the depth r is an int >= 1, a bool excluded."""
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be an int of at least 1, got {r!r}")


def require_admissible(partition: OrderedSetPartition, r: int) -> int:
    """The height nu = n - (d - 1) * r of the tableaux of the partition at
    depth r.  Raises ValueError for a depth that ``require_depth`` rejects,
    and BlockTooSmall unless every block holds at least r elements.

    Rows 1 .. r are full, one entry per block.  Rows r + 1 .. nu are the
    tentacle rows, one entry each: block i feeds |pi_i| - r of them, so
    nu = r + sum(|pi_i| - r).  Rows nu + 1 .. n are the tail rows that the
    cap-and-wedge and the tensor diagrams use."""
    require_depth(r)
    smallest = min(map(len, partition.blocks), default=r)
    if smallest < r:
        raise BlockTooSmall(f"every block needs at least r = {r} elements, the smallest has {smallest}")
    return partition.n - (partition.d - 1) * r
