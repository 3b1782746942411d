"""Linear relations among the invariants and the independence conjecture.

The central identity: split the ground set into a prefix of untouched
blocks plus three sets A, B, C with |C| = r; then the invariant of
(prefix | A union B | C) expands as the alternating sum over S subseteq C
of the invariants of (prefix | A union S | B union (C minus S)).  At r = 1
this rearranges to the three-term relation, which in turn resolves
crossings of depth-1 invariants two different ways.

The conjecture harness collects partitions that some short sequence of
adjacent transpositions makes noncrossing and reports the exact rank of
their invariants.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .invariants import jellyfish_invariant, relation_holds
from .partitions import (
    OrderedSetPartition,
    enumerate_unordered_partitions,
    require_depth,
    transposition_distance_to_noncrossing,
)
from .specht import exact_rank


def recurrence_terms(
    prefix: Sequence[Iterable[int]],
    A: Iterable[int],
    B: Iterable[int],
    C: Iterable[int],
    r: int,
) -> tuple[OrderedSetPartition, list[tuple[int, OrderedSetPartition]]]:
    """The left side (prefix | A union B | C) and the 2^r signed right-hand
    partitions ((-1)^|S|, (prefix | A+S | B+(C-S))) over subsets S of C;
    requires nonempty A, B, C with |C| = r.

    Undersized blocks are retained: their invariants vanish, which is how
    the identity absorbs degenerate terms.  The input is validated once,
    the left side by the checking constructor (A and B joined as lists, so
    an element repeated in or across them is rejected) and A and B as
    nonempty; the right-hand partitions are built unchecked from its blocks.
    """
    A, B = list(A), list(B)
    left = OrderedSetPartition.from_blocks([*prefix, A + B, C])
    if not A or not B:
        raise ValueError("empty block")
    n, head, C = left.n, left.blocks[:-2], left.blocks[-1]
    if len(C) != r:
        raise ValueError(f"need |C| = r, got |C| = {len(C)}, r = {r}")
    require_depth(r)  # past |C| = r, only a bool or float twin of |C| is left to reject
    terms = []
    for size in range(r + 1):
        for S in itertools.combinations(C, size):
            blocks = head + (tuple(sorted({*A, *S})), tuple(sorted({*B, *C}.difference(S))))
            terms.append((-1 if size % 2 else 1, OrderedSetPartition._trusted(n, blocks)))
    return left, terms


def verify_recurrence(
    prefix: Sequence[Iterable[int]],
    A: Iterable[int],
    B: Iterable[int],
    C: Iterable[int],
    r: int,
) -> bool:
    """Exact polynomial check of the 2^r + 1 term identity."""
    return relation_holds(*recurrence_terms(prefix, A, B, C, r), r)


def verify_three_term(A: Iterable[int], B: Iterable[int], C: Iterable[int]) -> bool:
    """[A+B | C] + [A+C | B] + [B+C | A] = 0 at depth 1, |C| = 1."""
    instance = OrderedSetPartition.from_blocks([A, B, C])
    A, B, C = map(set, instance.blocks)
    if len(C) != 1:
        raise ValueError(f"need a singleton C, got |C| = {len(C)}")
    left, *rest = (
        OrderedSetPartition._trusted(instance.n, (tuple(sorted(x)), tuple(sorted(y))))
        for x, y in ((A | B, C), (A | C, B), (B | C, A))
    )
    return relation_holds(left, [(-1, q) for q in rest], 1)


# -- crossing resolution at depth 1 -----------------------------------------


def smallest_crossing_quadruple(
    partition: OrderedSetPartition,
) -> tuple[int, int, int, int] | None:
    """Lexicographically least a < b < c < d with a, c together and b, d
    together in two distinct blocks."""
    block_of = {x: i for i, block in enumerate(partition.blocks) for x in block}
    n = partition.n
    for quad in itertools.combinations(range(1, n + 1), 4):
        a, b, c, d = quad
        if block_of[a] == block_of[c] and block_of[b] == block_of[d] and block_of[a] != block_of[b]:
            return quad
    return None


def resolve_crossing_r1(
    partition: OrderedSetPartition,
) -> tuple[list[tuple[int, OrderedSetPartition]], list[tuple[int, OrderedSetPartition]]]:
    """Two rewritings of the depth-1 invariant across its least crossing.

    With a < b < c < d the least crossing quadruple, P the block holding a
    and c (position i), Q the block holding b and d (position j):

    * moving b:            [pi] =  [pi{i: P+Q-b, j: {b}}] + [pi{i: P+b, j: Q-b}]
    * moving c the other way: [pi] = -[pi{i: Q+P-c, j: {c}}] - [pi{i: Q+c, j: P-c}]

    Both identities are re-verified as exact polynomials before returning.
    """
    quad = smallest_crossing_quadruple(partition)
    if quad is None:
        raise ValueError("partition has no crossing")
    a, b, c, d = quad
    i = partition.block_of(a)
    j = partition.block_of(b)
    P = set(partition.blocks[i - 1])
    Q = set(partition.blocks[j - 1])

    first = [
        (1, partition.replace_blocks({i: (P | Q) - {b}, j: {b}})),
        (1, partition.replace_blocks({i: P | {b}, j: Q - {b}})),
    ]
    second = [
        (-1, partition.replace_blocks({i: (Q | P) - {c}, j: {c}})),
        (-1, partition.replace_blocks({i: Q | {c}, j: P - {c}})),
    ]
    if not all(relation_holds(partition, resolution, 1) for resolution in (first, second)):
        raise AssertionError("crossing resolution failed to reproduce the invariant")
    return first, second


# -- conjecture harness ------------------------------------------------------


def conjecture_family(n: int, d: int, r: int) -> list[OrderedSetPartition]:
    """Partitions with d blocks of size >= r that at most r - 3 adjacent
    transpositions make noncrossing, in canonical order."""
    if r < 3:
        raise ValueError(f"the family is defined for r >= 3, got r = {r}")
    return [
        p
        for p in enumerate_unordered_partitions(n, d, r)
        if transposition_distance_to_noncrossing(p, r - 3)
    ]


def conjecture_report(n: int, d: int, r: int) -> tuple[int, int]:
    """(family size, exact rank of the family's invariants)."""
    family = conjecture_family(n, d, r)
    return len(family), exact_rank([jellyfish_invariant(p, r) for p in family])
