import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flamingo.partitions import BlockTooSmall, parse_partition, partitions_up_to
from flamingo.polynomials import minor
from flamingo.tableaux import (
    JellyfishTableau,
    column_arrangement_sign,
    enumerate_tableaux,
    iter_tableaux,
    tableau_count,
    top_justified_tableau,
)

from oracles import (
    arrangement_sign_by_pairs,
    grid_reading_word,
    multinomial,
    pairwise_product,
    validated_permute_columns,
)

# golden data for the ten-element example partition, depth 2:
# all six fillings with their reading-word inversion counts and signs
EXAMPLE = "2 3 6 10|5 7 8 9|1 4"
EXAMPLE_COLUMNS = [
    (((1, 2, 3, 4), (1, 2, 5, 6), (1, 2)), 8, 1),
    (((1, 2, 3, 5), (1, 2, 4, 6), (1, 2)), 7, -1),
    (((1, 2, 3, 6), (1, 2, 4, 5), (1, 2)), 6, 1),
    (((1, 2, 4, 5), (1, 2, 3, 6), (1, 2)), 8, 1),
    (((1, 2, 4, 6), (1, 2, 3, 5), (1, 2)), 7, -1),
    (((1, 2, 5, 6), (1, 2, 3, 4), (1, 2)), 8, 1),
]

# a three-block example where one block contributes no deep rows
DEEP = "2 3 6 7 12|1 8 10|4 5 9 11"
DEEP_COLUMNS = [
    (((1, 2, 3, 4, 5), (1, 2, 3), (1, 2, 3, 6)), 9, -1),
    (((1, 2, 3, 4, 6), (1, 2, 3), (1, 2, 3, 5)), 8, 1),
    (((1, 2, 3, 5, 6), (1, 2, 3), (1, 2, 3, 4)), 9, -1),
]


class TestEnumeration:
    def test_example_fillings_exact(self):
        p = parse_partition(EXAMPLE)
        tableaux = enumerate_tableaux(p, 2)
        got = [
            (tuple(t.column_rows(i) for i in range(1, 4)), t.inversion_number(), t.sign())
            for t in tableaux
        ]
        assert got == EXAMPLE_COLUMNS

    def test_deep_fillings_exact(self):
        p = parse_partition(DEEP)
        tableaux = enumerate_tableaux(p, 3)
        got = [
            (tuple(t.column_rows(i) for i in range(1, 4)), t.inversion_number(), t.sign())
            for t in tableaux
        ]
        assert got == DEEP_COLUMNS

    def test_example_depth_one_count(self):
        p = parse_partition(EXAMPLE)
        assert len(enumerate_tableaux(p, 1)) == 140

    def test_count_formula(self):
        p = parse_partition(EXAMPLE)
        # nu - r = 4 deep rows split 2, 2, 0 across the columns
        assert tableau_count(p, 2) == multinomial([2, 2, 0]) == 6
        assert tableau_count(p, 1) == multinomial([3, 3, 1]) == 140

    def test_iter_matches_list(self):
        p = parse_partition("1 2 5|3 4 6")
        assert list(iter_tableaux(p, 2)) == enumerate_tableaux(p, 2)

    def test_inadmissible_rejected(self):
        p = parse_partition("1 2|3")
        with pytest.raises(BlockTooSmall):
            enumerate_tableaux(p, 2)
        with pytest.raises(BlockTooSmall):
            tableau_count(p, 2)

    @given(st.sampled_from(["1 3|2 4", "1 2 5|3 4 6", "1 4 5|2 3 6", "2 3|1 4 5 6"]))
    def test_assignments_are_distinct(self, text):
        p = parse_partition(text)
        tableaux = enumerate_tableaux(p, 1)
        assert len({t.assignment for t in tableaux}) == len(tableaux)
        assert len(tableaux) == tableau_count(p, 1)


class TestStructure:
    def test_rejects_wrong_assignment_counts(self):
        p = parse_partition("1 3|2 4")
        with pytest.raises(ValueError):
            JellyfishTableau(p, 1, (1, 1))  # column 2 never fed

    def test_rejects_an_assignment_that_is_not_a_tuple(self):
        # a list would compare unequal to the (1,) tableau and not hash
        with pytest.raises(ValueError, match="must be a tuple"):
            JellyfishTableau(parse_partition("1 2|3"), 1, [1])

    @pytest.mark.parametrize("column", [True, 1.0], ids=["bool", "float"])
    def test_rejects_a_column_that_is_not_an_int(self, column):
        # True and 1.0 count as column 1, so the tableau would pass for (1,)
        with pytest.raises(ValueError, match="int column"):
            JellyfishTableau(parse_partition("1 2|3"), 1, (column,))

    def test_grid_shape(self):
        p = parse_partition(EXAMPLE)
        t = enumerate_tableaux(p, 2)[0]
        grid = t.grid()
        assert len(grid) == 6
        assert all(len(row) == 3 for row in grid)
        assert all(x is not None for x in grid[0] + grid[1])
        for row in grid[2:]:
            assert sum(x is not None for x in row) == 1

    def test_column_entries_are_the_block(self):
        p = parse_partition(EXAMPLE)
        for t in enumerate_tableaux(p, 2):
            grid = t.grid()
            for i, block in enumerate(p.blocks):
                col = tuple(grid[row][i] for row in range(6) if grid[row][i] is not None)
                assert col == block

    def test_reading_word_row_major(self):
        p = parse_partition("1 3|2 4")
        t = JellyfishTableau(p, 1, (1, 2))
        assert t.reading_word() == [1, 2, 3, 4]
        assert t.sign() == 1

    def test_sign_is_inversion_parity(self):
        p = parse_partition(EXAMPLE)
        for t in enumerate_tableaux(p, 2):
            assert t.sign() == (-1) ** t.inversion_number()

    def test_top_justified_fills_columns_in_order(self):
        p = parse_partition(EXAMPLE)
        t = top_justified_tableau(p, 2)
        assert t.column_rows(1) == (1, 2, 3, 4)
        assert t.column_rows(2) == (1, 2, 5, 6)
        assert t.column_rows(3) == (1, 2)

    def test_render_text_marks_gaps(self):
        p = parse_partition("1 3|2 4")
        text = JellyfishTableau(p, 1, (1, 2)).render_text()
        assert "." in text
        assert text.count("\n") == 2


class TestMinorProduct:
    def test_matches_explicit_minors(self):
        p = parse_partition("1 2 5|3 4 6")
        t = enumerate_tableaux(p, 2)[0]
        expected = pairwise_product(minor(t.column_rows(1), (1, 2, 5), 6), minor(t.column_rows(2), (3, 4, 6), 6))
        assert t.minor_product() == expected

    def test_product_k_is_nu(self):
        p = parse_partition(EXAMPLE)
        t = enumerate_tableaux(p, 2)[0]
        assert t.minor_product().k == 6


class TestColumnPermutation:
    def test_permute_columns_moves_blocks_and_rows(self):
        p = parse_partition("1 2 5|3 4 6")
        t = enumerate_tableaux(p, 2)[1]
        swapped = t.permute_columns((2, 1))
        assert swapped.partition.blocks == ((3, 4, 6), (1, 2, 5))
        assert swapped.column_rows(1) == t.column_rows(2)
        assert swapped.column_rows(2) == t.column_rows(1)

    def test_arrangement_sign_identity_order(self):
        p = parse_partition("1 2 5|3 4 6")
        for t in enumerate_tableaux(p, 2):
            assert column_arrangement_sign(t, t.partition.blocks) in (1, -1)

    def test_arrangement_sign_counts_cross_column_inversions(self):
        p = parse_partition("1 3|2 4")
        t = JellyfishTableau(p, 1, (1, 2))
        # word 1 2 3 4 has no inversions at all
        assert column_arrangement_sign(t, t.partition.blocks) == 1

    def test_arrangement_sign_matches_pair_count(self):
        rng = random.Random(12)
        checked = 0
        for text, r in [("2 3 6 10|5 7 8 9|1 4", 1), ("2 3 6 10|5 7 8 9|1 4", 2), ("2 3 6 7 12|1 8 10|4 5 9 11", 3)]:
            for t in enumerate_tableaux(parse_partition(text), r):
                for _ in range(4):
                    orders = [rng.sample(block, len(block)) for block in t.partition.blocks]
                    assert column_arrangement_sign(t, orders) == arrangement_sign_by_pairs(t, orders)
                    checked += 1
        assert checked == 4 * (140 + 6 + 3)

    def test_arrangement_sign_rejects_an_order_that_is_no_rearrangement(self):
        t = JellyfishTableau(parse_partition("1 3|2 4"), 1, (1, 2))
        with pytest.raises(ValueError, match="must rearrange block 2"):
            column_arrangement_sign(t, [(3, 1), (2, 2)])

    @pytest.mark.parametrize(
        "orders, block",
        [(((True, 2), (3, 4)), 1), (((1.0, 2), (3, 4)), 1), (((2, 1), (4.0, 3)), 2)],
        ids=["bool", "float", "float-in-block-2"],
    )
    def test_arrangement_sign_rejects_an_element_that_is_not_an_int(self, orders, block):
        # each order sorts like a rearrangement of its block, as its int twin would
        for t in enumerate_tableaux(parse_partition("1 2|3 4"), 1):
            with pytest.raises(ValueError, match=f"must rearrange block {block}$"):
                column_arrangement_sign(t, orders)


class TestAgainstReplacedCode:
    """The word read from the assignment and the permutation adopted
    without validation, against the grid and the validating constructor
    they replaced (``oracles``)."""

    @pytest.mark.parametrize("r, total", [(1, 102183), (2, 1074), (3, 95)])
    def test_reading_word_is_the_grid_word_up_to_seven(self, r, total):
        checked = 0
        for partition in partitions_up_to(7, r):
            for t in iter_tableaux(partition, r):
                assert t.reading_word() == grid_reading_word(t)
                checked += 1
        assert checked == total

    def test_permute_columns_is_the_validated_tableau(self):
        panel = [(p, r) for r in (1, 2, 3) for p in partitions_up_to(5, r)]
        panel += [(parse_partition(EXAMPLE), 1), (parse_partition(EXAMPLE), 2), (parse_partition(DEEP), 3)]
        checked = 0
        for partition, r in panel:
            for t in iter_tableaux(partition, r):
                for sigma in itertools.permutations(range(1, partition.d + 1)):
                    permuted = t.permute_columns(sigma)
                    reference = validated_permute_columns(t, sigma)
                    assert permuted == reference
                    assert permuted.reading_word() == grid_reading_word(reference)
                    checked += 1
        assert checked == 23582

    def test_the_walk_gives_the_checked_tableaux(self):
        # iter_tableaux adopts each tableau unchecked; every one at n <= 6
        # and those of a seeded sample of partitions at n = 7 must equal the
        # tableau the checking constructor builds from its assignment
        rng = random.Random(2024)
        checked = 0
        for r in (1, 2, 3):
            panel = list(partitions_up_to(6, r))
            sevens = [p for p in partitions_up_to(7, r) if p.n == 7]
            for partition in panel + rng.sample(sevens, min(300, len(sevens))):
                walked = list(iter_tableaux(partition, r))
                assert len(walked) == tableau_count(partition, r)
                for t in walked:
                    reference = JellyfishTableau(partition, r, t.assignment)
                    assert t == reference and t.nu == reference.nu
                    checked += 1
        assert checked == 9096

    def test_permute_columns_still_rejects_a_bad_sigma(self):
        t = JellyfishTableau(parse_partition("1 3|2 4"), 1, (1, 2))
        with pytest.raises(ValueError, match="sigma must be a permutation"):
            t.permute_columns((1, 1))
