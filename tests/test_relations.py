import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flamingo import relations
from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import OrderedSetPartition, is_noncrossing, parse_partition
from flamingo.polynomials import MatrixPolynomial
from flamingo.relations import (
    conjecture_family,
    conjecture_report,
    recurrence_left,
    recurrence_terms,
    resolve_crossing_r1,
    smallest_crossing_quadruple,
    verify_recurrence,
    verify_three_term,
)
from flamingo.verification import DEPTHS, _abc_instances, _ordered_partitions_of, check_conjecture

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: recurrence_left([], [1, 1], [2], [3]),
            lambda: recurrence_left([[4, 4]], [1], [2], [3]),
            lambda: recurrence_terms([], [1], [2, 2], [3], 1),
            lambda: recurrence_terms([[4, 4]], [1], [2], [3], 1),
            lambda: verify_recurrence([], [1], [2], [3, 3], 1),
            lambda: verify_three_term([1, 1], [2], [3]),
        ],
        ids=["left-A", "left-prefix", "terms-B", "terms-prefix", "verify-C", "three-term-A"],
    )
    def test_repeated_element_is_rejected_not_dropped(self, call):
        with pytest.raises(ValueError, match="repeated"):
            call()

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


ENTRY_POINTS = {
    "verify_recurrence": lambda prefix, A, B, C, r: verify_recurrence(prefix, A, B, C, r),
    "recurrence_terms": lambda prefix, A, B, C, r: recurrence_terms(prefix, A, B, C, r),
    "recurrence_left": lambda prefix, A, B, C, r: recurrence_left(prefix, A, B, C),
    "verify_three_term": lambda prefix, A, B, C, r: verify_three_term(A, B, C),
}
EVERY = tuple(ENTRY_POINTS)
WITH_R = ("verify_recurrence", "recurrence_terms", "verify_three_term")

# (name, (prefix, A, B, C, r), the entry points that reject it).  The left
# side takes no r and needs only A union B nonempty; the three-term relation
# has no prefix and needs |C| = 1.
INVALID = [
    ("repeated-element", ([], {1, 2}, {2, 3}, {4}, 1), EVERY),
    ("gap", ([], {1}, {2}, {4}, 1), EVERY),
    ("non-int-element", ([], {1.0}, {2}, {3}, 1), EVERY),
    ("empty-prefix-block", ([()], {1}, {2}, {3}, 1), EVERY[:3]),
    ("c-size-not-r", ([], {1}, {2}, {3, 4}, 1), WITH_R),
    ("empty-a", ([], set(), {1, 2}, {3}, 1), WITH_R),
    ("empty-b", ([], {1, 2}, set(), {3}, 1), WITH_R),
    ("empty-c", ([], {1}, {2}, set(), 0), EVERY),
]


@pytest.mark.parametrize(
    "entry, instance",
    [pytest.param(entry, instance, id=f"{name}-{entry}") for name, instance, entries in INVALID for entry in entries],
)
def test_invalid_instance_is_rejected(entry, instance):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](*instance)


def test_built_partitions_equal_their_validated_rebuilds(monkeypatch):
    """Every partition the identity checks build unchecked, over every
    recurrence instance and three-term split at n <= 5, equals the
    partition ``OrderedSetPartition.from_blocks`` validates and rebuilds."""
    built = []

    def recording(partition, r):
        built.append(partition)
        return jellyfish_invariant(partition, r)

    monkeypatch.setattr(relations, "jellyfish_invariant", recording)
    instances = 0
    for n in range(3, 6):
        for r in DEPTHS:
            if r > n - 2:
                continue
            for prefix, A, B, C in _abc_instances(n, r, prefix_min=r):
                assert verify_recurrence(prefix, A, B, C, r)
                assert built[-(2**r + 1)] == recurrence_left(prefix, A, B, C)
                assert built[-(2**r) :] == [q for _, q in recurrence_terms(prefix, A, B, C, r)]
                instances += 1
        for c in range(1, n + 1):
            rest = [x for x in range(1, n + 1) if x != c]
            for size in range(1, len(rest)):
                for A in itertools.combinations(rest, size):
                    assert verify_three_term(set(A), set(rest) - set(A), {c})
    assert instances > 0
    assert built
    for partition in built:
        assert partition == OrderedSetPartition.from_blocks(partition.blocks)


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
