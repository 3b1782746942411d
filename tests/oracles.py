"""Slow, independent reference implementations used to pin expected values.

Everything here recomputes quantities from first principles with a different
algorithm than the package uses, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, gcd
from typing import Iterable, Mapping, Sequence

from flamingo import grassmann, invariants
from flamingo.diagrams import Edge, TensorDiagram, Vertex
from flamingo.partitions import (
    BlockTooSmall,
    OrderedSetPartition,
    act_elements,
    enumerate_ordered_partitions,
    enumerate_unordered_partitions,
    perm_sign,
    permute_blocks,
    require_admissible,
    word_inversions,
)
from flamingo.polynomials import (
    ColumnCollision,
    MatrixPolynomial,
    _bit,
    _mask,
    _unpack,
    add_into,
    add_minor_product,
    extend_minor_product,
    integer_determinant,
    map_monomial,
    variable_position,
)
from flamingo.tableaux import JellyfishTableau, column_arrangement_sign, enumerate_tableaux


def monomial_key(m: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of a row-tuple monomial, increasing with the term order:
    the negated term-order positions of its variables, most significant
    first, so max() picks the leading monomial."""
    n = len(m)
    positions = sorted(variable_position(row, j + 1, n) for j, row in enumerate(m) if row)
    return tuple(-p for p in positions)


def tuple_terms(poly) -> dict[tuple[int, ...], int]:
    """The terms of a polynomial keyed by row tuples, read from its JSON
    form, so nothing here depends on how the package encodes monomials."""
    return {tuple(t["rows"]): int(t["coeff"]) for t in poly.to_json_dict()["terms"]}


def determinant_invariant(partition: OrderedSetPartition, r: int) -> dict[tuple[int, ...], int]:
    """[pi]_r = (-1)**(C(d, 2) C(r, 2)) det N_pi, keyed by row tuples as
    ``tuple_terms`` reads them, without tableaux or minors.

    N_pi is n x n: for each block in order, r rows that are matrix rows
    1..r kept only on the block's columns, then the tentacle rows
    r + 1 .. nu on every column.  Laplace expansion along the column
    groups gives the tableau sum, and the sign reorders the d r top rows
    from block-major to row-major.  The determinant is expanded by a
    dynamic program over the rows of N_pi: a state is the mask of the
    columns used so far and holds its partial products, and a row that
    takes column c past k used columns above it is signed (-1)**k.  A
    block smaller than r leaves no way to place its rows, so the result is
    empty, as the invariant is zero."""
    n, d = partition.n, partition.d
    nu = n - (d - 1) * r
    rows = [(a, block) for block in partition.blocks for a in range(1, r + 1)]
    rows += [(a, range(1, n + 1)) for a in range(r + 1, nu + 1)]
    states: dict[int, dict[tuple[int, ...], int]] = {0: {(0,) * n: 1}}
    for a, columns in rows:
        advanced: dict[int, dict[tuple[int, ...], int]] = {}
        for used, partial in states.items():
            for c in columns:
                bit = 1 << (c - 1)
                if used & bit:
                    continue
                sign = -1 if (used >> c).bit_count() % 2 else 1
                target = advanced.setdefault(used | bit, {})
                for m, coeff in partial.items():
                    key = m[: c - 1] + (a,) + m[c:]
                    target[key] = target.get(key, 0) + sign * coeff
        states = advanced
    sign = -1 if math.comb(d, 2) * math.comb(r, 2) % 2 else 1
    return {m: sign * c for m, c in states.get((1 << n) - 1, {}).items() if c}


def accumulated_invariant(partition: OrderedSetPartition, r: int) -> MatrixPolynomial:
    """[pi]_r by the walk ``invariants._invariant_cached`` had before it
    stored each term once: the same column-by-column choice of deep rows,
    but every finished product of minors is added into the dict by
    ``add_minor_product``, which looks each monomial up and drops it if
    its coefficient cancels to 0.  Without any disjointness argument the
    result is still the signed tableau sum, in the walk's term order."""
    try:
        nu = require_admissible(partition, r)
    except BlockTooSmall:
        return MatrixPolynomial.zero(partition.n, k=0)
    blocks, n = partition.blocks, partition.n
    last = len(blocks) - 1
    top = (1 << r) - 1
    cols = [_mask(block) for block in blocks]
    deep_rows = [1 << a for a in range(r, nu)]
    head_word = [block[t] for t in range(r) for block in blocks]
    entry: dict[int, int] = {}
    acc: dict = {}

    def walk(i: int, remaining: list[int], partial: list) -> None:
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
                add_minor_product(acc, partial, rows, cols[i], n, sign)

    walk(0, deep_rows, [(0, 1)])
    return MatrixPolynomial._trusted(n, acc, nu)


# The minor expansion keyed on row and column tuples and the product of two
# polynomials with its column-collision scan, as the package had them before
# index sets became masks all the way down to the minor kernel and every
# product of minors went through that kernel.


def minor_terms_by_tuples(rows: tuple[int, ...], cols: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    """Terms of the minor on the given increasing rows and columns of an
    n-column matrix, as (packed monomial, sign), expanded along the rows in
    turn, so the terms follow the permutations in lexicographic order."""
    partial = [(0, 1, cols)]
    for row in rows:
        partial = [
            (bits | 1 << _bit(row, col, n), -sign if t % 2 else sign, rest[:t] + rest[t + 1 :])
            for bits, sign, rest in partial
            for t, col in enumerate(rest)
        ]
    return tuple((bits, sign) for bits, sign, _ in partial)


@lru_cache(maxsize=None)
def minor_by_tuples(rows: tuple[int, ...], cols: tuple[int, ...], n: int) -> MatrixPolynomial:
    """The minor on the given increasing rows and columns, from
    ``minor_terms_by_tuples``; the empty minor is 1."""
    return MatrixPolynomial._trusted(n, dict(minor_terms_by_tuples(rows, cols, n)), max(rows, default=0))


def pairwise_product(p: MatrixPolynomial, q: MatrixPolynomial) -> MatrixPolynomial:
    """p * q term by term; raises ColumnCollision when the column supports
    of p and q meet, rather than squaring a variable."""
    if p.n != q.n:
        raise ValueError("column-count mismatch")
    if p.terms and q.terms:
        # some pair of terms shares a column exactly when the column
        # supports do; unpacking a union of monomials marks each column it uses
        mine, theirs = (_unpack(reduce(operator.or_, f.terms), p.n) for f in (p, q))
        for j, (a, b) in enumerate(zip(mine, theirs)):
            if a and b:
                raise ColumnCollision(f"column {j + 1} used by both factors")
    terms: dict[int, int] = {}
    for m1, c1 in p.terms.items():
        # m1 | m2 determines m2, so the products for one m1 are distinct keys
        add_into(terms, {m1 | m2: c2 for m2, c2 in q.terms.items()}, c1)
    return MatrixPolynomial._trusted(p.n, terms, max(p.k, q.k))


def product_of_minors(n: int, minors, k: int = 0) -> MatrixPolynomial:
    """The product of the minors on the given (rows, cols) pairs, taken
    pair by pair from the constant 1 with declared row count k."""
    product = MatrixPolynomial(n, {(0,) * n: 1}, k)
    for rows, cols in minors:
        product = pairwise_product(product, minor_by_tuples(tuple(rows), tuple(cols), n))
    return product


def tableau_minor_product(tableau: JellyfishTableau) -> MatrixPolynomial:
    """``JellyfishTableau.minor_product`` as it was: the column minors
    multiplied pair by pair, with k = nu = n - (d - 1) * r."""
    partition, r = tableau.partition, tableau.r
    columns = [(tableau.column_rows(i), block) for i, block in enumerate(partition.blocks, start=1)]
    return product_of_minors(partition.n, columns, partition.n - (partition.d - 1) * r)


def signed_minor_expansion(partition: OrderedSetPartition, terms) -> MatrixPolynomial:
    """``verification.signed_minor_expansion`` as it was: each signed
    product of minors taken pair by pair and summed."""
    total = MatrixPolynomial.zero(partition.n)
    for sign, row_sets in terms:
        total = total + product_of_minors(partition.n, zip(row_sets, partition.blocks)) * sign
    return total


def accumulated_expansion(partition: OrderedSetPartition, terms) -> MatrixPolynomial:
    """``verification.signed_minor_expansion`` as it was before it stored
    each term once: every signed product of minors folded through the
    kernel and added into the dict by ``add_into``, which looks each
    monomial up and drops it if its coefficient cancels to 0."""
    n = partition.n
    acc: dict = {}
    for sign, row_sets in terms:
        partial = [(0, sign)]
        for rows, block in zip(row_sets, partition.blocks):
            partial = extend_minor_product(partial, _mask(rows), _mask(block), n)
        add_into(acc, dict(partial))
    k = max((max(rows, default=0) for _, row_sets in terms for rows in row_sets), default=0)
    return MatrixPolynomial._trusted(n, acc, k)


def det_leibniz(matrix: list[list[int]]) -> int:
    """Signed permutation expansion of the determinant."""
    size = len(matrix)
    if size == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(size)):
        inv = sum(
            1
            for i in range(size)
            for j in range(i + 1, size)
            if perm[i] > perm[j]
        )
        prod = 1
        for i in range(size):
            prod *= matrix[i][perm[i]]
        total += (-1) ** inv * prod
    return total


def brute_ordered_partitions(n: int, d: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """All ordered set partitions by exhausting block assignments."""
    out = []
    for assignment in itertools.product(range(d), repeat=n):
        blocks = [tuple(x for x in range(1, n + 1) if assignment[x - 1] == i) for i in range(d)]
        if all(len(b) >= r for b in blocks):
            out.append(tuple(blocks))
    return out


def block_tuples_by_lists(elements, d: int, r: int, canonical: bool = False):
    """``partitions.block_tuples`` as it was: each block a list that grows
    and shrinks in place, so every yielded partition copies all its blocks
    into new tuples."""
    if len(elements) < r * d:
        return
    blocks: list[list[int]] = [[] for _ in range(d)]
    size = len(elements)

    def rec(i: int, deficit: int, reach: int):
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
        yield ()


def partitions_up_to_by_lists(n_max: int, r: int):
    """``partitions_up_to`` as it was: one list per (n, d) from
    ``enumerate_ordered_partitions``, yielded in turn."""
    for n in range(max(r, 1), n_max + 1):
        for d in range(1, n // r + 1):
            yield from enumerate_ordered_partitions(n, d, r)


def sign_panel_by_lists(r: int, exhaustive_n: int) -> list[OrderedSetPartition]:
    """The sign-properties panel at depth r as it was built from whole
    lists: every partition up to ``exhaustive_n``, then ``pool[:3]`` and
    ``pool[len(pool) // 2]`` of each list of ordered partitions of [n] into
    d blocks (n = 6, 7, 8, d = 2, 3), then the worked example."""
    from flamingo.verification import RUNNING_PARTITION, THREE_ROW_PARTITION

    panel = list(partitions_up_to_by_lists(exhaustive_n, r))
    for n in (6, 7, 8):
        for d in (2, 3):
            if n < r * d:
                continue
            pool = enumerate_ordered_partitions(n, d, r)
            panel.extend(pool[:3])
            panel.append(pool[len(pool) // 2])
    if r <= 2:
        panel.append(RUNNING_PARTITION)
    if r == 3:
        panel.append(THREE_ROW_PARTITION)
    return panel


def sign_properties_by_one_loop(seed: int, exhaustive_n: int) -> tuple[bool, str]:
    """``check_sign_properties`` as one loop, with no items: the 500
    translation signs drawn from ``random.Random(seed)`` first, then each
    panel partition's column swaps and column arrangements, sampled where a
    partition has more than 64 column orders from a generator seeded by the
    seed, r and the partition's text, one per partition.  It calls
    ``column_arrangement_sign`` through this module, so a spy set here sees
    every call."""
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(0, n)
        I = tuple(sorted(rng.sample(range(1, n + 1), m)))
        J = tuple(sorted(rng.sample(range(1, n + 1), m)))
        matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        big = grassmann.phi(matrix)
        K = grassmann.delta_index_set(I, J, n)
        direct = integer_determinant([[big[row][k - 1] for k in K] for row in range(n)])
        sign, I2, J2 = grassmann.delta_to_minor(K, n)
        if (I2, J2) != (I, J):
            return False, f"index split failed for K={K}"
        value = sign * integer_determinant([[matrix[i - 1][j - 1] for j in J] for i in I])
        if direct != value:
            return False, f"translation sign failed for n={n}, I={I}, J={J}"
    swap_checked = 0
    arrangement_checked = 0
    for r in (1, 2, 3):
        for partition in sign_panel_by_lists(r, exhaustive_n):
            d = partition.d
            draws = random.Random(f"{seed} {r} {partition.text()}")
            tableaux = enumerate_tableaux(partition, r)
            signs = [t.sign() for t in tableaux]
            for sigma in itertools.permutations(range(1, d + 1)):
                sgn = perm_sign(sigma) ** r
                for t, base in zip(tableaux, signs):
                    if t.permute_columns(sigma).sign() != sgn * base:
                        return False, f"column-swap sign fails for {partition}, sigma={sigma}"
                    swap_checked += 1
            for t, base in zip(tableaux, signs[: max(1, len(tableaux) // 4)]):
                orders_pool = [list(itertools.permutations(block)) for block in partition.blocks]
                if math.prod(len(p) for p in orders_pool) <= 64:
                    chosen = itertools.product(*orders_pool)
                else:
                    chosen = (
                        tuple(draws.sample(block, len(block)) for block in partition.blocks)
                        for _ in range(64)
                    )
                for orders in chosen:
                    if column_arrangement_sign(t, orders) != base:
                        return False, f"column arrangement sign varies for {partition}"
                    arrangement_checked += 1
    return True, (
        f"500 translation signs verified numerically; {swap_checked} column swaps and "
        f"{arrangement_checked} within-column arrangements keep their signs"
    )


def has_crossing_by_quadruples(blocks: tuple[tuple[int, ...], ...]) -> bool:
    """Literal scan over all quadruples a < b < c < d."""
    owner = {x: i for i, block in enumerate(blocks) for x in block}
    elements = sorted(owner)
    for a, b, c, d in itertools.combinations(elements, 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            return True
    return False


def recurrence_sweep_by_masks(n: int, r: int, prefix_min: int):
    """The recurrence sweep's (prefix, A, B, C) in the order its base-3 mask
    loop gave them: C by combinations; then each mask over the rest, first
    element least significant, sends digit 0 to A, 1 to B and 2 to the
    prefix elements; then every ordered partition of those into blocks of
    size >= prefix_min, fewest blocks first, by brute force."""
    ground = set(range(1, n + 1))
    for C in itertools.combinations(sorted(ground), r):
        rest = sorted(ground - set(C))
        for mask in range(3 ** len(rest)):
            A, B, R = set(), set(), []
            m = mask
            for x in rest:
                box = m % 3
                m //= 3
                if box == 0:
                    A.add(x)
                elif box == 1:
                    B.add(x)
                else:
                    R.append(x)
            if not A or not B:
                continue
            for d in range(len(R) // prefix_min + 1):
                for blocks in brute_ordered_partitions(len(R), d, prefix_min):
                    yield [tuple(R[x - 1] for x in block) for block in blocks], A, B, set(C)


def three_term_splits_by_masks(n: int):
    """The three-term sweep's (A, B, C) at one n in the order its bitmask
    loop gave them: C = {c} for each c, then bit i of the mask puts the i-th
    other element in A, every mask but the empty and the full one."""
    for c in range(1, n + 1):
        rest = [x for x in range(1, n + 1) if x != c]
        for mask in range(1, 2 ** len(rest) - 1):
            A = {x for i, x in enumerate(rest) if mask >> i & 1}
            yield A, set(rest) - A, {c}


def arrangement_sign_by_pairs(tableau, orders) -> int:
    """The sign of a tableau with rearranged columns, from a grid labelled
    by column and a scan over every pair of the reading word that lies in
    two distinct columns."""
    n, d = tableau.partition.n, tableau.partition.d
    labeled = [[None] * d for _ in range(n - (d - 1) * tableau.r)]
    for i, order in enumerate(orders, start=1):
        for row, element in zip(tableau.column_rows(i), order):
            labeled[row - 1][i - 1] = (element, i)
    word = [cell for row in labeled for cell in row if cell is not None]
    inv = sum(
        1
        for a, (xa, ca) in enumerate(word)
        for xb, cb in word[a + 1 :]
        if ca != cb and xa > xb
    )
    return -1 if inv % 2 else 1


def word_inversions_by_pairs(word: Sequence[int]) -> int:
    """The pairwise count that ``word_inversions`` replaced: every pair of
    positions a < b with word[a] > word[b]."""
    return sum(1 for a, wa in enumerate(word) for wb in word[a + 1 :] if wa > wb)


def grid_reading_word(tableau: JellyfishTableau) -> list[int]:
    """The reading word as ``reading_word`` used to read it: the nonempty
    cells of the grid, row by row, left to right."""
    return [x for row in tableau.grid() for x in row if x is not None]


def validated_permute_columns(tableau: JellyfishTableau, sigma: Sequence[int]) -> JellyfishTableau:
    """``permute_columns`` as it was: the permuted assignment passed
    through the validating constructor."""
    assignment = tuple(sigma[c - 1] for c in tableau.assignment)
    return JellyfishTableau(permute_blocks(sigma, tableau.partition), tableau.r, assignment)


def tableaux_cli_output(partition: OrderedSetPartition, r: int) -> tuple[str, str]:
    """What ``flamingo tableaux`` prints, as text and as ``--json``, for the
    tableaux in enumeration order, rebuilt from each tableau's grid alone:
    the columns are the rows of its nonempty cells, the word is read off
    the grid and its inversions are counted pair by pair."""
    tableaux = enumerate_tableaux(partition, r)
    text = [f"count={len(tableaux)}"]
    payload = []
    for idx, t in enumerate(tableaux, start=1):
        grid = t.grid()
        columns = [
            [row for row in range(1, len(grid) + 1) if grid[row - 1][i] is not None]
            for i in range(partition.d)
        ]
        word = grid_reading_word(t)
        inversions = word_inversions_by_pairs(word)
        sign = -1 if inversions % 2 else 1
        payload.append({"columns": columns, "word": word, "inversions": inversions, "sign": sign})
        text.append(f"-- tableau {idx}: inversions={inversions} sign={sign:+d} word={' '.join(map(str, word))}")
        text.extend("\t".join("." if x is None else str(x) for x in row) for row in grid)
    doc = json.dumps({"count": len(tableaux), "tableaux": payload})
    return "\n".join(text) + "\n", doc + "\n"


def variable(row: int, col: int, n: int) -> MatrixPolynomial:
    """The matrix entry x[row][col] as a polynomial over n columns, through
    the checking constructor: the 1 x 1 minor ``minor((row,), (col,), n)``
    without the kernel.  It was ``MatrixPolynomial.variable``."""
    if not 1 <= col <= n or not 1 <= row <= n:
        raise ValueError("variable indices out of range")
    return MatrixPolynomial(n, {tuple(row if j == col else 0 for j in range(1, n + 1)): 1})


def substitute_columns(poly: MatrixPolynomial, w: Sequence[int]) -> MatrixPolynomial:
    """``poly`` with each x[a][j] replaced by x[a][w(j)], as the removed
    ``MatrixPolynomial.substitute_columns`` gave it before the column map
    was shared: the map rebuilt on every call for the rows up to k, and
    every monomial mapped bit by bit."""
    n = poly.n
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("w must be a permutation of the columns")

    def bit(row, col):
        return n * n - 1 - variable_position(row, col, n)

    moved = [0] * (n * n)
    for row in range(1, min(poly.k, n) + 1):
        first = bit(row, 1)
        step = bit(row, 2) - first if n > 1 else 1
        for col, to in enumerate(w):
            moved[first + col * step] = 1 << (first + (to - 1) * step)
    terms = {}
    for m, c in poly.terms.items():
        image = 0
        while m:
            b = m.bit_length() - 1
            m ^= 1 << b
            image |= moved[b]
        terms[image] = c
    return MatrixPolynomial._trusted(n, terms, poly.k)


def equivariance_per_call(w: Sequence[int], partition: OrderedSetPartition, r: int) -> bool:
    """The column law w . [pi]_r == sgn(w) [w . pi]_r as the removed
    ``invariants.verify_equivariance`` first checked it: a fresh
    substitution, then the ``add_into`` signed sum with -sgn(w).  It reads
    ``jellyfish_invariant`` and ``perm_sign`` through
    ``flamingo.invariants``, so a monkeypatch there reaches it too."""
    acc = substitute_columns(invariants.jellyfish_invariant(partition, r), tuple(w)).terms
    add_into(acc, invariants.jellyfish_invariant(act_elements(w, partition), r).terms, -invariants.perm_sign(w))
    return not acc


def apply_action(action: invariants.ColumnAction, terms: Mapping[int, int]) -> dict[int, int]:
    """``ColumnAction.apply`` as it was: the terms with each monomial moved
    to its image, in a fresh dict, a monomial not met before mapped once and
    remembered in the action."""
    out = {}
    for m, c in terms.items():
        image = action.images.get(m)
        if image is None:
            image = action.images[m] = map_monomial(m, action.moved)
        out[image] = c
    return out


def holds_by_signed_sum(action: invariants.ColumnAction, partition: OrderedSetPartition, r: int) -> bool:
    """``ColumnAction.holds_for`` as it was: the moved [pi]_r and
    -sgn(w) [w . pi]_r added into one dict, which must come out empty."""
    acc = apply_action(action, invariants.jellyfish_invariant(partition, r).terms)
    add_into(acc, invariants.jellyfish_invariant(action.act(partition), r).terms, -action.sign)
    return not acc


def perm_compose(u: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """Composition u after w in one-line notation: j maps to u(w(j))."""
    return tuple(u[w[j] - 1] for j in range(len(w)))


def crossing_resolutions(partition: OrderedSetPartition):
    """The two depth-1 rewrites of ``resolve_crossing_r1`` across the least
    crossing quadruple, built without re-verifying them, so a test can
    check them against a deliberately broken invariant."""
    owner = {x: i for i, block in enumerate(partition.blocks) for x in block}
    a, b, c, d = next(
        q
        for q in itertools.combinations(range(1, partition.n + 1), 4)
        if owner[q[0]] == owner[q[2]] and owner[q[1]] == owner[q[3]] and owner[q[0]] != owner[q[1]]
    )
    i, j = owner[a] + 1, owner[b] + 1
    P, Q = set(partition.blocks[i - 1]), set(partition.blocks[j - 1])
    first = [
        (1, partition.replace_blocks({i: (P | Q) - {b}, j: {b}})),
        (1, partition.replace_blocks({i: P | {b}, j: Q - {b}})),
    ]
    second = [
        (-1, partition.replace_blocks({i: (Q | P) - {c}, j: {c}})),
        (-1, partition.replace_blocks({i: Q | {c}, j: P - {c}})),
    ]
    return first, second


@lru_cache(maxsize=None)
def syt_count_by_corners(shape: tuple[int, ...]) -> int:
    """Standard fillings counted by peeling removable corners."""
    if not shape:
        return 1
    total = 0
    for i, row in enumerate(shape):
        if i + 1 < len(shape) and shape[i + 1] == row:
            continue
        smaller = shape[:i] + ((row - 1,) if row > 1 else ()) + shape[i + 1 :]
        total += syt_count_by_corners(smaller)
    return total


def multinomial(counts: list[int]) -> int:
    total = factorial(sum(counts))
    for c in counts:
        total //= factorial(c)
    return total


def rational_rank(polys) -> int:
    """Row rank of the coefficient matrix over the rationals."""
    monomials = sorted({m for p in polys for m in p.terms})
    index = {m: j for j, m in enumerate(monomials)}
    rows = [
        [Fraction(p.terms.get(m, 0)) for m in monomials]
        for p in polys
    ]
    rank = 0
    for col in range(len(monomials)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


class LeadingTermSpan:
    """Row echelon keyed by leading monomial, reduced by leading terms only.

    The span checker the package used before it kept its echelon reduced:
    every reduction step rescans the remaining terms for the leading one.
    Kept as the reference for membership and rank; it works on row tuples
    ordered by ``monomial_key``.
    """

    def __init__(self, polys=()):
        self.pivots: dict = {}
        for p in polys:
            self.insert(p)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _gcd_normalize(terms: dict) -> dict:
        g = 0
        for c in terms.values():
            g = gcd(g, c)
        return {m: c // g for m, c in terms.items()} if g > 1 else terms

    def _reduce(self, terms: dict) -> dict:
        while terms:
            lead = max(terms, key=monomial_key)
            row = self.pivots.get(lead)
            if row is None:
                return terms
            a = row[lead]
            b = terms[lead]
            new = {}
            for m, c in terms.items():
                value = a * c - b * row.get(m, 0)
                if value:
                    new[m] = value
            for m, c in row.items():
                if m not in terms:
                    new[m] = -b * c
            terms = self._gcd_normalize(new)
        return terms

    def insert(self, p) -> bool:
        residue = self._reduce(self._gcd_normalize(tuple_terms(p)))
        if not residue:
            return False
        self.pivots[max(residue, key=monomial_key)] = residue
        return True

    def contains(self, p) -> bool:
        return not self._reduce(self._gcd_normalize(tuple_terms(p)))


def random_int_matrix(rng, height: int, width: int, lo: int = -4, hi: int = 4):
    return [[rng.randint(lo, hi) for _ in range(width)] for _ in range(height)]


def evaluate_poly(poly, matrix) -> int:
    """Direct term-by-term evaluation, bypassing the package evaluator."""
    total = 0
    for monomial, coeff in tuple_terms(poly).items():
        prod = coeff
        for col, row in enumerate(monomial):
            if row:
                prod *= matrix[row - 1][col]
        total += prod
    return total


# The diagram builder, validator and degree count as they were before the
# builder named each vertex once per diagram and the validator coloured
# endpoints from one dict, kept as references for the differential tests.
# The builder works out its tentacle rows r + 1 .. nu and tail rows
# nu + 1 .. n from n, d and r, with nu = n - (d - 1) * r, and imports no
# layout code from the package.


def build_tensor_diagram(partition: OrderedSetPartition, r: int) -> TensorDiagram:
    """The diagram whose white vertex w_i fans out to the tail range and to
    block i shifted by n, with u_i collecting the tentacle range and b_i
    balancing the weights so every interior sum is n."""
    n, d = partition.n, partition.d
    nu = n - (d - 1) * r
    S = tuple(range(r + 1, nu + 1))
    E = tuple(range(nu + 1, n + 1))
    whites = tuple(f"w{i}" for i in range(1, d + 1)) + tuple(
        f"u{i}" for i in range(1, d)
    )
    blacks = tuple(f"b{i}" for i in range(1, d))
    edges: list[Edge] = []
    for i, block in enumerate(partition.blocks, start=1):
        for e in E:
            edges.append((f"w{i}", e, 1))
        for x in block:
            edges.append((f"w{i}", x + n, 1))
    for i in range(1, d):
        for s in S:
            edges.append((f"u{i}", s, 1))
        to_w = nu - len(partition.blocks[i - 1])
        if to_w:
            edges.append((f"b{i}", f"w{i}", to_w))
        edges.append((f"b{i}", f"u{i}", r * d))
        tentacles = len(partition.blocks[i - 1]) - r
        if tentacles:
            edges.append((f"b{i}", f"w{d}", tentacles))
    return TensorDiagram(n, whites, blacks, tuple(edges))


def validate(diagram: TensorDiagram) -> list[str]:
    """Empty list when sound; otherwise human-readable violations covering
    interior weight sums, bipartiteness, weight positivity, and endpoint
    validity."""
    problems = []
    white = set(diagram.interior_white)
    black = set(diagram.interior_black)
    n2 = 2 * diagram.n
    sums = dict.fromkeys(diagram.interior_white + diagram.interior_black, 0)

    def shade(v: Vertex) -> str | None:
        if type(v) is int:
            return "black" if 1 <= v <= n2 else None
        if v in white:
            return "white"
        if v in black:
            return "black"
        return None

    for a, b, w in diagram.edges:
        ca, cb = shade(a), shade(b)
        if ca is None or cb is None:
            problems.append(f"edge ({a!r}, {b!r}) touches an unknown vertex")
            continue
        if not 1 <= w <= diagram.n:
            problems.append(f"edge ({a!r}, {b!r}) has weight {w} outside [1, {diagram.n}]")
        if ca == cb:
            problems.append(f"edge ({a!r}, {b!r}) joins two {ca} vertices")
        if a in sums:
            sums[a] += w
        if b in sums:
            sums[b] += w
    for v, total in sums.items():
        if total != diagram.n:
            problems.append(f"interior vertex {v} has weight sum {total}, expected {diagram.n}")
    return problems


def boundary_degrees(diagram: TensorDiagram) -> dict[int, int]:
    """Edges at each boundary vertex; other endpoints are not counted."""
    n2 = 2 * diagram.n
    degrees = dict.fromkeys(diagram.boundary, 0)
    for a, b, _ in diagram.edges:
        if type(a) is int and 1 <= a <= n2:
            degrees[a] += 1
        if type(b) is int and 1 <= b <= n2:
            degrees[b] += 1
    return degrees


def boundary_profile_by_ranges(partition: OrderedSetPartition, r: int, degrees: Mapping[int, int]) -> str | None:
    """The diagram check's boundary profile as ``verification`` had it
    before it compared one expected list: rows 1..r unused, the tentacle
    rows of degree d - 1, the tail rows of degree d and the columns
    n+1..2n of degree 1, walked range by range, each with its own message;
    None when every vertex fits."""
    n, d = partition.n, partition.d
    nu = n - (d - 1) * r
    for v in range(1, r + 1):
        if degrees[v] != 0:
            return f"boundary {v} should be unused for {partition}"
    for v in range(r + 1, nu + 1):
        if degrees[v] != d - 1:
            return f"boundary {v} degree {degrees[v]} != d-1 for {partition}"
    for v in range(nu + 1, n + 1):
        if degrees[v] != d:
            return f"boundary {v} degree {degrees[v]} != d for {partition}"
    for v in range(n + 1, 2 * n + 1):
        if degrees[v] != 1:
            return f"boundary {v} degree {degrees[v]} != 1 for {partition}"
    return None


# The exterior algebra, the Pluecker pull-back and the Specht spanning set
# as they were on index tuples, before index sets became int masks and the
# spanning products went through the minor-product kernel, kept as
# references for the differential tests; ``gc_jellyfish`` works out its row
# ranges from n, d and r as the diagram builder above does.  Keys here are
# tuples: an Extensor term is (sorted indices, sorted tuple of sorted
# factors).


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
    n, d = partition.n, partition.d
    nu = n - (d - 1) * r
    S = tuple(range(r + 1, nu + 1))
    E = tuple(range(nu + 1, n + 1))
    blocks_shifted = [tuple(x + n for x in block) for block in partition.blocks]
    v_S = Extensor.basis(S)
    result = Extensor.scalar_one()
    for i in range(d - 1):
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
        masks = [(sum(1 << (i - 1) for i in I), sum(1 << (j - 1) for j in J)) for _, I, J in minors]
        partial = [(0, c)]
        for I, J in masks[:-1]:
            partial = extend_minor_product(partial, I, J, n)
        add_minor_product(acc, partial, *masks[-1], n, math.prod(sign for sign, _, _ in minors))
        k = max([k] + [I[-1] for _, I, _ in minors if I])
    return MatrixPolynomial._trusted(n, acc, k)


def term_bijection_by_rows(partition: OrderedSetPartition, gc, tableaux: Sequence[JellyfishTableau]) -> str | None:
    """The running example's term bijection as ``verification`` had it
    before it compared the terms in emission order: each term of the
    package's cap-and-wedge expansion ``gc`` (factors as masks) decoded to
    the rows of its tableau through a dict of the tableaux, its pull-back
    equal to that tableau's signed minor product, and the terms emitted in
    reverse tableau order; None when everything agrees."""
    n = partition.n
    by_rows = {
        tuple(t.column_rows(i) for i in range(1, partition.d + 1)): pos for pos, t in enumerate(tableaux)
    }
    if len(gc.terms) != len(tableaux):
        return f"{len(gc.terms)} gc terms for {len(tableaux)} tableaux"
    emitted = []
    for factors, coeff in gc.terms.items():
        sets = tuple(sorted(tuple(i for i in range(1, 2 * n + 1) if K >> (i - 1) & 1) for K in factors))
        rows_by_block = {J: I for _, I, J in (delta_to_minor(K, n) for K in sets)}
        pos = by_rows.get(tuple(rows_by_block.get(b, ()) for b in partition.blocks))
        if pos is None:
            return f"gc term {sets} matches no tableau"
        t = tableaux[pos]
        if phi_star(PlueckerExpression(n, {sets: coeff})) != tableau_minor_product(t) * t.sign():
            return f"term for tableau {pos + 1} disagrees with its signed minor product"
        emitted.append(pos)
    if emitted != list(range(len(tableaux) - 1, -1, -1)):
        return f"gc terms emitted in tableau order {[p + 1 for p in emitted]}, expected reversed"
    return None


def spanning_set(shape: SpechtShape) -> list[MatrixPolynomial]:
    """Products of top-justified minors, one per set partition of [n] into
    blocks of sizes mu: the partitions into d blocks of size at least r whose
    largest block has nu elements (every other block then has r)."""
    gens = []
    for partition in enumerate_unordered_partitions(shape.n, shape.d, shape.r):
        if max(partition.block_sizes()) == shape.nu:
            columns = [(range(1, len(cols) + 1), cols) for cols in partition.blocks]
            gens.append(product_of_minors(shape.n, columns))
    return gens


def highest_weight(p: MatrixPolynomial, shape) -> bool:
    """Whether p lies in the Specht module of the shape lam = (d^r,
    1^(n - rd)), by Schur-Weyl duality instead of a spanning set; only n, d
    and r are read from ``shape``, and nothing of ``flamingo.specht``.

    GL_nu acts on the rows of the nu x n matrix, nu = n - (d - 1) r, and the
    part of the ring that is multilinear in the columns is the sum of
    V_lam (x) S^lam, so the module is the space of highest-weight vectors of
    weight lam.  p is one when every monomial has row content lam (rows
    1..r d times each, rows r + 1 .. nu once, no deeper row), and
    E_{a,a+1} p = sum_j x[a][j] d/dx[a+1][j] p is 0 for a = 1 .. nu - 1:
    on a multilinear monomial E_{a,a+1} moves one x[a+1][j] to row a."""
    n, d, r = shape.n, shape.d, shape.r
    nu = n - (d - 1) * r
    # lam's rows, one per column: a monomial of content lam uses every column
    content = sorted(list(range(1, r + 1)) * d + list(range(r + 1, nu + 1)))
    terms = tuple_terms(p)
    if any(sorted(m) != content for m in terms):
        return False
    for a in range(1, nu):
        raised: dict[tuple[int, ...], int] = {}
        for m, c in terms.items():
            for j, row in enumerate(m):
                if row == a + 1:
                    image = m[:j] + (a,) + m[j + 1 :]
                    raised[image] = raised.get(image, 0) + c
        if any(raised.values()):
            return False
    return True
