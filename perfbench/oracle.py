"""Independent reference checks for the benchmark's outputs.

Nothing here calls into flamingo's algorithms.  The invariant reference
recomputes the tableau sum numerically with its own deep-row enumeration,
its own reading-word inversion count and its own fraction-free
determinant, so agreement with the package's exact polynomial means
something.  Polynomials are only read through their public ``evaluate``
method, which keeps these checks valid across changes of the internal
monomial representation.
"""

from __future__ import annotations

import random
import re


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in rows]
    size = len(a)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def inversion_count(word: list[int]) -> int:
    """Pairs out of order, by merge sort."""
    if len(word) < 2:
        return 0
    mid = len(word) // 2
    left, right = sorted(word[:mid]), sorted(word[mid:])
    count = inversion_count(word[:mid]) + inversion_count(word[mid:])
    j = 0
    for x in left:
        while j < len(right) and right[j] < x:
            j += 1
        count += j
    return count


def deep_row_words(counts: list[int]):
    """Every word over columns 0..d-1 in which column i appears counts[i]
    times; position t of the word names the column fed by deep row t."""
    remaining = list(counts)
    word: list[int] = []
    total = sum(counts)

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for col, left in enumerate(remaining):
            if left:
                remaining[col] -= 1
                word.append(col)
                yield from rec()
                word.pop()
                remaining[col] += 1

    return rec()


def numeric_invariant(blocks: tuple[tuple[int, ...], ...], r: int, matrix: list[list[int]]) -> int:
    """Value of the depth-r jellyfish invariant of the ordered partition
    ``blocks`` at an integer matrix: the sum over tableaux of the reading
    word's sign times the product of column minors."""
    if any(len(b) < r for b in blocks):
        return 0
    total = 0
    for word in deep_row_words([len(b) - r for b in blocks]):
        column_rows = [list(range(1, r + 1)) for _ in blocks]
        for t, col in enumerate(word):
            column_rows[col].append(r + 1 + t)
        cells = sorted(
            (row, col, x)
            for col, (rows, block) in enumerate(zip(column_rows, blocks))
            for row, x in zip(rows, block)
        )
        sign = -1 if inversion_count([x for _, _, x in cells]) % 2 else 1
        product = sign
        for rows, block in zip(column_rows, blocks):
            product *= bareiss_determinant([[matrix[i - 1][j - 1] for j in block] for i in rows])
            if product == 0:
                break
        total += product
    return total


def oracle_matrix(n: int, seed: int) -> list[list[int]]:
    """An n x n matrix with nonzero entries, so that flipping any one
    coefficient of a polynomial always changes its value."""
    rng = random.Random(f"oracle-matrix-{seed}-{n}")
    return [[rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9)) for _ in range(n)] for _ in range(n)]


def boundary_profile_ok(degrees: dict[int, int], blocks: tuple[tuple[int, ...], ...], r: int) -> bool:
    """Boundary degrees 0 on rows 1..r, d-1 on the tentacle rows, d on the
    tail rows and 1 on the shifted columns n+1..2n."""
    d = len(blocks)
    n = sum(len(b) for b in blocks)
    nu = n - (d - 1) * r
    expected = {v: 0 for v in range(1, r + 1)}
    expected.update({v: d - 1 for v in range(r + 1, nu + 1)})
    expected.update({v: d for v in range(nu + 1, n + 1)})
    expected.update({v: 1 for v in range(n + 1, 2 * n + 1)})
    return degrees == expected


# Detail strings of `flamingo verify-all --json` at the seed commit, by
# --n-max.  The instance counts in them must not change; the wording may.
BATTERY_DETAILS = {
    6: {
        "running-example-depth-2": "6 tableaux, inversions 8,7,6,8,7,8, exact six-term match, depth 3 vanishes",
        "three-row-example-depth-3": "3 tableaux with signs -,+,- and exact expansion match",
        "depth-one-enumeration": "140 tableaux; the four sampled fillings carry inversions 12,13,12,9",
        "grassmann-cayley-equivalence": "5511 partitions match up to one global sign each; running example sign +1 with terms in reverse tableau order",
        "recurrence-identities": "4266 recurrence instances and 280 three-term splits hold exactly",
        "specht-membership": "35 spanning ranks match dimensions; 5511 invariants are members",
        "column-equivariance": "37780 (w, partition, depth) identities hold with exact signs",
        "noncrossing-independence": "20 noncrossing families independent by rank and by leading monomials",
        "hook-basis": "21 (n,d) hook families are bases of their modules",
        "rotation-orbit-rank": "rotation orbit of size 6 spans a 5-dimensional space",
        "independence-conjecture": "5 depth-3 families equal noncrossing and are independent; depth 4: ",
        "tensor-diagram-validation": "5511 diagrams validate with the expected boundary profile",
        "sign-properties": "500 translation signs verified numerically; 23822 column swaps and 8011 within-column arrangements keep their signs",
    },
    3: {
        "running-example-depth-2": "6 tableaux, inversions 8,7,6,8,7,8, exact six-term match, depth 3 vanishes",
        "three-row-example-depth-3": "3 tableaux with signs -,+,- and exact expansion match",
        "depth-one-enumeration": "140 tableaux; the four sampled fillings carry inversions 12,13,12,9",
        "grassmann-cayley-equivalence": "20 partitions match up to one global sign each; running example sign +1 with terms in reverse tableau order",
        "recurrence-identities": "6 recurrence instances and 6 three-term splits hold exactly",
        "specht-membership": "9 spanning ranks match dimensions; 20 invariants are members",
        "column-equivariance": "72 (w, partition, depth) identities hold with exact signs",
        "noncrossing-independence": "3 noncrossing families independent by rank and by leading monomials",
        "hook-basis": "6 (n,d) hook families are bases of their modules",
        "rotation-orbit-rank": "rotation orbit of size 6 spans a 5-dimensional space",
        "independence-conjecture": "1 depth-3 families equal noncrossing and are independent; depth 4: ",
        "tensor-diagram-validation": "20 diagrams validate with the expected boundary profile",
        "sign-properties": "500 translation signs verified numerically; 1192 column swaps and 5515 within-column arrangements keep their signs",
    },
}


def instance_counts(detail: str) -> list[int]:
    return [int(x) for x in re.findall(r"\d+", detail)]


def battery_entry_ok(entry: dict, expected_detail: str) -> bool:
    return entry.get("ok") is True and instance_counts(str(entry.get("detail", ""))) == instance_counts(
        expected_detail
    )
