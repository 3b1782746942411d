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

from .invariants import jellyfish_invariant
from .partitions import (
    OrderedSetPartition,
    enumerate_unordered_partitions,
    require_depth,
    transposition_distance_to_noncrossing,
)
from .polynomials import add_into
from .specht import exact_rank


def recurrence_left(
    prefix: Sequence[Iterable[int]], A: Iterable[int], B: Iterable[int], C: Iterable[int]
) -> OrderedSetPartition:
    """(prefix | A union B | C), validated by the constructor; A and B are
    joined as lists, so an element repeated in or across them is rejected."""
    return OrderedSetPartition.from_blocks([*prefix, [*A, *B], C])


def recurrence_terms(
    prefix: Sequence[Iterable[int]],
    A: Iterable[int],
    B: Iterable[int],
    C: Iterable[int],
    r: int,
) -> list[tuple[int, OrderedSetPartition]]:
    """The 2^r signed right-hand partitions ((-1)^|S|, (prefix | A+S | B+(C-S)))
    over subsets S of C; requires nonempty A, B, C with |C| = r.

    Undersized blocks are retained: their invariants vanish, which is how
    the identity absorbs degenerate terms.  The input is validated once, by
    building (prefix | A | B | C) with the checking constructor, and the
    partitions are built unchecked.
    """
    instance = OrderedSetPartition.from_blocks([*prefix, A, B, C])
    n, head = instance.n, instance.blocks[:-3]
    A, B, C = map(set, instance.blocks[-3:])
    if len(C) != r:
        raise ValueError(f"need |C| = r, got |C| = {len(C)}, r = {r}")
    require_depth(r)  # past |C| = r, only a bool or float twin of |C| is left to reject
    out = []
    for size in range(r + 1):
        for S in itertools.combinations(sorted(C), size):
            blocks = head + (tuple(sorted(A.union(S))), tuple(sorted(B | C.difference(S))))
            out.append((-1 if size % 2 else 1, OrderedSetPartition._trusted(n, blocks)))
    return out


def verify_recurrence(
    prefix: Sequence[Iterable[int]],
    A: Iterable[int],
    B: Iterable[int],
    C: Iterable[int],
    r: int,
) -> bool:
    """Exact polynomial check of the 2^r + 1 term identity: the left side
    minus the signed right-hand invariants is empty."""
    A, B, C = list(A), list(B), list(C)
    terms = recurrence_terms(prefix, A, B, C, r)
    # the terms share n and the sorted prefix blocks with the left side
    n, head = terms[0][1].n, terms[0][1].blocks[:-2]
    left = OrderedSetPartition._trusted(n, head + (tuple(sorted(A + B)), tuple(sorted(C))))
    acc = dict(jellyfish_invariant(left, r).terms)
    for sign, partition in terms:
        add_into(acc, jellyfish_invariant(partition, r).terms, -sign)
    return not acc


def verify_three_term(A: Iterable[int], B: Iterable[int], C: Iterable[int]) -> bool:
    """[A+B | C] + [A+C | B] + [B+C | A] = 0 at depth 1, |C| = 1."""
    instance = OrderedSetPartition.from_blocks([A, B, C])
    A, B, C = map(set, instance.blocks)
    if len(C) != 1:
        raise ValueError(f"need a singleton C, got |C| = {len(C)}")
    acc: dict = {}
    for x, y in ((A | B, C), (A | C, B), (B | C, A)):
        partition = OrderedSetPartition._trusted(instance.n, (tuple(sorted(x)), tuple(sorted(y))))
        add_into(acc, jellyfish_invariant(partition, 1).terms)
    return not acc


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
    target = jellyfish_invariant(partition, 1).terms
    for resolution in (first, second):
        acc = dict(target)
        for sign, q in resolution:
            add_into(acc, jellyfish_invariant(q, 1).terms, -sign)
        if acc:
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
