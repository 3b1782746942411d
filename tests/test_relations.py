import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import is_noncrossing, parse_partition
from flamingo.polynomials import MatrixPolynomial
from flamingo.relations import (
    conjecture_family,
    conjecture_report,
    expand_to_noncrossing,
    recurrence_left,
    recurrence_terms,
    resolve_crossing_r1,
    smallest_crossing_quadruple,
    verify_conjecture,
    verify_recurrence,
    verify_three_term,
)
from flamingo.verification import _ordered_partitions_of, check_conjecture

from oracles import brute_ordered_partitions


class TestRecurrence:
    def test_term_count_is_power_of_two(self):
        terms = recurrence_terms([], {1, 2}, {3, 4}, {5, 6}, 2)
        assert len(terms) == 4

    def test_signs_follow_subset_parity(self):
        terms = recurrence_terms([], {1, 2}, {3, 4}, {5, 6}, 2)
        # empty subset first, then singletons, then the full subset
        assert [s for s, _ in terms] == [1, -1, -1, 1]

    def test_left_side_blocks(self):
        left = recurrence_left([(7,)], {1, 2}, {3, 4}, {5, 6})
        assert left.blocks == ((7,), (1, 2, 3, 4), (5, 6))

    def test_identity_holds_exactly(self):
        assert verify_recurrence([], {1, 2}, {3, 4}, {5, 6}, 2)
        assert verify_recurrence([], {1, 3}, {2, 5}, {4, 6}, 2)
        assert verify_recurrence([(1, 2)], {3, 4}, {5}, {6}, 1)
        assert verify_recurrence([], {1}, {2, 3}, {4}, 1)

    def test_depth_three_instance(self):
        assert verify_recurrence([], {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, 3)

    def test_requires_c_of_size_r(self):
        with pytest.raises(ValueError):
            recurrence_terms([], {1, 2}, {3, 4}, {5, 6}, 1)

    def test_requires_disjoint_cover(self):
        with pytest.raises(ValueError):
            recurrence_terms([], {1, 2}, {2, 3}, {4}, 1)

    def test_three_term_symmetric_form(self):
        assert verify_three_term({1, 2}, {3, 4}, {5})
        assert verify_three_term({2, 4}, {1, 5}, {3})

    @given(st.randoms(use_true_random=False))
    def test_random_small_instances(self, rng):
        n = rng.choice([4, 5])
        r = 1
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        a_size = rng.randint(1, n - 2)
        b_size = rng.randint(1, n - 1 - a_size)
        A = set(elements[:a_size])
        B = set(elements[a_size : a_size + b_size])
        C = set(elements[a_size + b_size :])
        if len(C) != r:
            return
        assert verify_recurrence([], A, B, C, r)

    @pytest.mark.parametrize("min_size", [1, 2, 3])
    def test_sweep_prefixes_are_every_ordered_partition_once(self, min_size):
        # the recurrence sweep's prefixes over the leftover elements
        elements = [2, 3, 5, 7, 8]
        ours = list(_ordered_partitions_of(elements, min_size))
        expected = [
            [tuple(elements[x - 1] for x in block) for block in blocks]
            for d in range(1, len(elements) + 1)
            for blocks in brute_ordered_partitions(len(elements), d, min_size)
        ]
        assert sorted(ours) == sorted(expected)
        assert list(_ordered_partitions_of([], min_size)) == [[]]


class TestCrossingResolution:
    def test_smallest_quadruple(self):
        p = parse_partition("1 3|2 4")
        assert smallest_crossing_quadruple(p) == (1, 2, 3, 4)

    def test_noncrossing_has_none(self):
        assert smallest_crossing_quadruple(parse_partition("1 2|3 4")) is None

    def test_both_resolutions_verify(self):
        p = parse_partition("1 3|2 4")
        first, second = resolve_crossing_r1(p)
        target = jellyfish_invariant(p, 1)
        for combo in (first, second):
            total = MatrixPolynomial.zero(p.n)
            for sign, q in combo:
                total = total + jellyfish_invariant(q, 1) * sign
            assert total == target

    def test_resolutions_on_three_blocks(self):
        p = parse_partition("1 4|2 5|3 6")
        first, second = resolve_crossing_r1(p)
        assert len(first) == 2 and len(second) == 2

    def test_rejects_noncrossing_input(self):
        with pytest.raises(ValueError):
            resolve_crossing_r1(parse_partition("1 2|3 4"))

    @pytest.mark.parametrize("text", ["1 3|2 4", "1 4|2 5|3 6", "1 3 5|2 4 6", "1 4 5|2 3 6"])
    def test_expansion_is_exact_and_noncrossing(self, text):
        p = parse_partition(text)
        combo = expand_to_noncrossing(p)
        assert all(is_noncrossing(q) for q in combo)
        total = MatrixPolynomial.zero(p.n)
        for q, c in combo.items():
            total = total + jellyfish_invariant(q, 1) * c
        assert total == jellyfish_invariant(p, 1)

    def test_noncrossing_expands_to_itself(self):
        p = parse_partition("1 2|3 4")
        assert expand_to_noncrossing(p) == {p: 1}


class TestConjecture:
    def test_family_requires_depth_three(self):
        with pytest.raises(ValueError):
            conjecture_family(6, 2, 2)

    def test_depth_three_family_is_noncrossing(self):
        from flamingo.partitions import enumerate_noncrossing

        family = conjecture_family(6, 2, 3)
        assert family == enumerate_noncrossing(6, 2, 3)

    def test_depth_three_reports(self):
        size, rank = conjecture_report(6, 2, 3)
        assert (size, rank) == (3, 3)
        assert verify_conjecture(6, 2, 3)

    def test_depth_four_allows_one_transposition(self):
        family = conjecture_family(8, 2, 4)
        assert len(family) == 11
        crossing = [p for p in family if not is_noncrossing(p)]
        assert crossing, "one-step partitions should appear at depth 4"

    def test_depth_four_rank_matches(self):
        size, rank = conjecture_report(8, 2, 4)
        assert size == rank == 11

    def test_check_says_when_depth_four_is_not_run(self):
        result = check_conjecture(n_max=6)
        assert result.ok
        assert result.detail.endswith("depth 4: not run at this --n-max")
