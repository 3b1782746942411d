"""The jellyfish invariant of an ordered set partition and its symmetry laws.

The invariant at depth r is the signed sum of minor products over all
jellyfish tableaux.  Partitions with a block smaller than r get the zero
polynomial rather than an error.

It is built without tableau objects: the deep rows are chosen column by
column in the order of ``iter_tableaux``, as row masks, and the product of
the minors of the columns chosen so far is carried down as a list of
partial terms, so tableaux that agree on their first columns share that
work.  Each finished term is stored once into one dict by
``polynomials.store_minor_product``, signed by the parity of the tableau's
reading word, with no lookup: a monomial fixes the row set of each block's
columns, so it names its tableau, no two tableaux share a monomial and
nothing cancels.  The walk sums the counts the kernel returns and raises
``ArithmeticError`` if the dict holds fewer terms, so a collision can
never come back as a wrong polynomial.  The polynomial is
adopted once through ``MatrixPolynomial._trusted``; the walk meets its
precondition, since every coefficient is +-1 and no row exceeds nu.  The
tests' independent references are the tableau sum multiplied pair by
pair (``oracles.pairwise_product``) and ``oracles.determinant_invariant``.

The symmetric group acts on columns; the laws verified here are

* w . [pi]_r = sgn(w) [w . pi]_r for any permutation w of [n], among
  them the rotation (the long cycle) and the reflection (the reversal),
* [pi]_r = sgn(sigma)^r [sigma(pi)]_r for any reordering sigma of blocks,
  checked like every linear relation among invariants by ``relation_holds``.

A ``ColumnAction`` carries what the first law needs of w alone: the bit
map, sgn(w) and the image of each monomial met so far; it moves a
partition through w without checking w again, and compares the two sides
of the law term by term without building the moved polynomial.  A sweep
builds one per generator and n and shares it across every partition of
[n], so each distinct monomial is mapped once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .partitions import (
    BlockTooSmall,
    OrderedSetPartition,
    perm_sign,
    permute_blocks,
    require_admissible,
    require_depth,
    word_inversions,
)
from .polynomials import (
    MatrixPolynomial,
    _mask,
    add_into,
    column_map,
    extend_minor_product,
    map_monomial,
    store_minor_product,
)


@lru_cache(maxsize=16384)
def _invariant_cached(partition: OrderedSetPartition, r: int) -> MatrixPolynomial:
    try:
        nu = require_admissible(partition, r)
    except BlockTooSmall:
        return MatrixPolynomial.zero(partition.n, k=0)
    blocks = partition.blocks
    n = partition.n
    last = len(blocks) - 1
    top = (1 << r) - 1  # rows 1..r
    cols = [_mask(block) for block in blocks]
    deep_rows = [1 << a for a in range(r, nu)]  # rows r + 1 .. nu, one bit each
    # rows 1..r of the reading word; the deep rows follow, one entry each
    head_word = [block[t] for t in range(r) for block in blocks]
    entry: dict[int, int] = {}  # deep row's bit -> its entry along the current path
    acc: dict = {}
    stored = 0  # terms written at the leaves; each must be a new key

    def walk(i: int, remaining: list[int], partial: list) -> None:
        nonlocal stored
        for chosen in itertools.combinations(remaining, len(blocks[i]) - r):
            for bit, element in zip(chosen, blocks[i][r:]):
                entry[bit] = element
            rows = top | sum(chosen)
            if i < last:
                rest = [bit for bit in remaining if not bit & rows]
                walk(i + 1, rest, extend_minor_product(partial, rows, cols[i], n))
            else:
                word = head_word + [entry[bit] for bit in deep_rows]
                sign = -1 if word_inversions(word) % 2 else 1
                stored += store_minor_product(acc, partial, rows, cols[i], n, sign)

    walk(0, deep_rows, [(0, 1)])
    if len(acc) != stored:
        raise ArithmeticError(f"two tableaux of {partition.text()} at depth {r} gave one monomial")
    return MatrixPolynomial._trusted(n, acc, nu)


def jellyfish_invariant(partition: OrderedSetPartition, r: int) -> MatrixPolynomial:
    """[pi]_r as an exact polynomial, for an int r >= 1; zero when some
    block has size < r.  The depth is checked before the cache lookup,
    where a float or a bool would hash like its int."""
    require_depth(r)
    return _invariant_cached(partition, r)


class ColumnAction:
    """A permutation w of [n] acting on the columns of n-column invariants,
    x[a][j] -> x[a][w(j)], with what depends on w alone: its validated bit
    map, its sign, and ``images``, which holds the image of each packed
    monomial met so far.  An action shared by every identity at n maps each
    distinct monomial once; it lives as long as its caller keeps it."""

    __slots__ = ("w", "moved", "sign", "images")

    def __init__(self, w: Sequence[int], n: int):
        self.w = tuple(w)
        self.moved = column_map(self.w, n)
        self.sign = perm_sign(self.w)
        self.images: dict[int, int] = {}

    def act(self, partition: OrderedSetPartition) -> OrderedSetPartition:
        """w . pi, each element moved by w in block order: the image of
        ``partitions.act_elements`` without its second check of w."""
        if partition.n != len(self.w):
            raise ValueError("the partition must be of [n] for this action")
        w = self.w
        # w was checked when the action was built, so the image is a partition of [n]
        return OrderedSetPartition._trusted(
            partition.n, tuple(tuple(sorted(w[x - 1] for x in block)) for block in partition.blocks)
        )

    def holds_for(self, partition: OrderedSetPartition, r: int) -> bool:
        """Check w . [pi]_r == sgn(w) [w . pi]_r exactly: both sides have
        as many terms, and the image of each term of [pi]_r carries sgn(w)
        times its coefficient in [w . pi]_r.  That is equality, since w maps
        monomials one to one and no polynomial holds a zero coefficient.  A
        monomial not met before is mapped once and remembered."""
        source = jellyfish_invariant(partition, r).terms
        target = jellyfish_invariant(self.act(partition), r).terms
        if len(source) != len(target):
            return False
        images, moved, sign = self.images, self.moved, self.sign
        for m, c in source.items():
            image = images.get(m)
            if image is None:
                image = images[m] = map_monomial(m, moved)
            if target.get(image) != sign * c:
                return False
        return True


def relation_holds(left: OrderedSetPartition, terms: Iterable[tuple[int, OrderedSetPartition]], r: int) -> bool:
    """Check [left]_r == sum of sign * [p]_r over (sign, p) in ``terms`` exactly."""
    acc = dict(jellyfish_invariant(left, r).terms)
    for sign, partition in terms:
        add_into(acc, jellyfish_invariant(partition, r).terms, -sign)
    return not acc


def verify_block_reorder(sigma: Sequence[int], partition: OrderedSetPartition, r: int) -> bool:
    """Check [pi]_r == sgn(sigma)^r [sigma(pi)]_r exactly."""
    require_depth(r)  # before the power sgn(sigma)^r, as [pi]_r checks it
    return relation_holds(partition, [(perm_sign(sigma) ** r, permute_blocks(sigma, partition))], r)
