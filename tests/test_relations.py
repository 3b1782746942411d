import collections
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flamingo import invariants, verification
from flamingo.invariants import jellyfish_invariant, relation_holds, verify_block_reorder
from flamingo.partitions import OrderedSetPartition, is_noncrossing, parse_partition
from flamingo.polynomials import MatrixPolynomial
from flamingo.relations import (
    conjecture_family,
    conjecture_report,
    recurrence_terms,
    resolve_crossing_r1,
    smallest_crossing_quadruple,
    verify_recurrence,
    verify_three_term,
)
from flamingo.verification import DEPTHS, _abc_instances, check_conjecture, check_recurrence

from oracles import brute_ordered_partitions, recurrence_sweep_by_masks, three_term_splits_by_masks


class TestRelationHolds:
    @pytest.mark.parametrize(
        "text, r, zero",
        [("1 3|2 4", 1, False), ("1 2 5|3 4 6", 2, False), ("1 2|3", 2, True)],
        ids=["depth-1", "depth-2", "undersized-block"],
    )
    def test_left_against_itself(self, text, r, zero):
        # [p] = [p] always; [p] = -[p] and [p] = 0 only when [p] vanishes
        p = parse_partition(text)
        assert jellyfish_invariant(p, r).is_zero is zero
        assert relation_holds(p, [(1, p)], r)
        assert relation_holds(p, iter([(2, p), (-1, p)]), r)
        assert relation_holds(p, [(-1, p)], r) is zero
        assert relation_holds(p, [], r) is zero

    @pytest.mark.parametrize("r", [True, None])
    def test_rejects_a_depth_that_is_not_an_int(self, r):
        # the block-reorder law builds its term before [pi]_r checks r
        p = parse_partition("1 3|2 4")
        with pytest.raises(ValueError, match="r must be an int"):
            relation_holds(p, [(1, p)], r)
        with pytest.raises(ValueError, match="r must be an int"):
            verify_block_reorder((2, 1), p, r)


class TestRecurrence:
    def test_term_count_is_power_of_two(self):
        _, terms = recurrence_terms([], {1, 2}, {3, 4}, {5, 6}, 2)
        assert len(terms) == 4

    def test_signs_follow_subset_parity(self):
        _, terms = recurrence_terms([], {1, 2}, {3, 4}, {5, 6}, 2)
        # empty subset first, then singletons, then the full subset
        assert [s for s, _ in terms] == [1, -1, -1, 1]

    def test_left_side_blocks(self):
        left, _ = recurrence_terms([(7,)], {1, 2}, {3, 4}, {5, 6}, 2)
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
            lambda: recurrence_terms([], [1, 1], [2], [3], 1)[0],
            lambda: recurrence_terms([[4, 4]], [1], [2], [3], 1)[0],
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
        # for each split (A, B, C) of [6] the recurrence sweep's prefixes are
        # the ordered partitions of the leftover elements, each once
        n, r = 6, 1
        ours = collections.defaultdict(list)
        for prefix, A, B, C in _abc_instances(n, r, prefix_min=min_size):
            ours[frozenset(A), frozenset(B), frozenset(C)].append(prefix)
        expected = {}
        for boxes in itertools.product("ABCR", repeat=n):
            part = {box: [x for x, b in enumerate(boxes, start=1) if b == box] for box in "ABCR"}
            if part["A"] and part["B"] and len(part["C"]) == r:
                rest = part["R"]
                prefixes = [
                    [tuple(rest[x - 1] for x in block) for block in blocks]
                    for d in range(len(rest) + 1)
                    for blocks in brute_ordered_partitions(len(rest), d, min_size)
                ]
                if prefixes:
                    expected[frozenset(part["A"]), frozenset(part["B"]), frozenset(part["C"])] = sorted(prefixes)
        assert {split: sorted(prefixes) for split, prefixes in ours.items()} == expected


def _failing_at(k):
    """A stand-in for an identity check that fails on its k-th call only."""
    calls = itertools.count(1)
    return lambda *args: next(calls) != k


def _mask_order_recurrences():
    """(n, prefix, A, B, C, r) for every recurrence instance of
    ``check_recurrence(n_max=7)``, in the order of the mask loops."""
    return [
        (n, *instance, r)
        for n in range(3, 8)
        for r in DEPTHS
        if r <= n - 2
        for instance in recurrence_sweep_by_masks(n, r, r)
    ]


def _failing_on(*instances):
    """A stand-in for ``verify_recurrence`` that fails on the given
    (n, prefix, A, B, C, r) instances only, keyed by their arguments, so it
    fails there in whichever process checks them."""
    failing = [(prefix, A, B, C, r) for _, prefix, A, B, C, r in instances]
    return lambda *args: args not in failing


class TestSweepOrder:
    """The recurrence and three-term sweeps visit their instances in the
    order of the mask loops in ``oracles``, so a failure names the same
    instance.  The spies count calls in this process, so these tests run
    the sweeps as one shard; their two-shard twins plant failures keyed by
    the instance."""

    def test_check_sweeps_in_mask_order(self, monkeypatch, one_cpu):
        recurrence, three = [], []
        monkeypatch.setattr(verification, "verify_recurrence", lambda *args: recurrence.append(args) or True)
        monkeypatch.setattr(verification, "verify_three_term", lambda *args: three.append(args) or True)
        assert check_recurrence(n_max=7).detail == "39840 recurrence instances and 280 three-term splits hold exactly"
        assert recurrence == [
            (*instance, r)
            for n in range(3, 8)
            for r in DEPTHS
            if r <= n - 2
            for instance in recurrence_sweep_by_masks(n, r, r)
        ]
        assert three == [split for n in range(3, 7) for split in three_term_splits_by_masks(n)]

    def test_recurrence_failure_names_its_instance(self, monkeypatch, one_cpu):
        monkeypatch.setattr(verification, "verify_recurrence", _failing_at(20000))
        result = check_recurrence(n_max=7)
        assert not result.ok
        assert result.detail == "failed at n=7, r=1, prefix=[(3,), (1,), (2, 6)], A={5}, B={7}, C={4}"

    def test_recurrence_failure_names_its_instance_in_two_shards(self, monkeypatch, two_cpus):
        # the instance the serial run names, failing in whichever shard checks it
        instance = _mask_order_recurrences()[20000 - 1]
        assert instance == (7, [(3,), (1,), (2, 6)], {5}, {7}, {4}, 1)
        monkeypatch.setattr(verification, "verify_recurrence", _failing_on(instance))
        result = check_recurrence(n_max=7)
        assert not result.ok
        assert result.detail == "failed at n=7, r=1, prefix=[(3,), (1,), (2, 6)], A={5}, B={7}, C={4}"

    @pytest.mark.parametrize("first, second", [(19999, 20000), (20000, 20001), (1, 39840), (2, 3)])
    def test_two_shards_name_the_first_failure_in_mask_order(self, monkeypatch, two_cpus, first, second):
        # two failures, one in each shard: the one earlier in the mask
        # order is named, as the serial loop names it
        instances = _mask_order_recurrences()
        assert len(instances) == 39840
        n, prefix, A, B, C, r = instances[first - 1]
        monkeypatch.setattr(verification, "verify_recurrence", _failing_on(instances[first - 1], instances[second - 1]))
        result = check_recurrence(n_max=7)
        assert not result.ok
        assert result.detail == f"failed at n={n}, r={r}, prefix={prefix}, A={A}, B={B}, C={C}"

    def test_three_term_failure_names_its_split(self, monkeypatch):
        monkeypatch.setattr(verification, "verify_recurrence", lambda *args: True)
        monkeypatch.setattr(verification, "verify_three_term", _failing_at(150))
        result = check_recurrence(n_max=7)
        assert not result.ok
        assert result.detail == "three-term failed at A={4, 6}, B={1, 3, 5}, C={2}"


ENTRY_POINTS = {
    "verify_recurrence": lambda prefix, A, B, C, r: verify_recurrence(prefix, A, B, C, r),
    "recurrence_terms": lambda prefix, A, B, C, r: recurrence_terms(prefix, A, B, C, r),
    "verify_three_term": lambda prefix, A, B, C, r: verify_three_term(A, B, C),
}
EVERY = tuple(ENTRY_POINTS)

# (name, (prefix, A, B, C, r), the entry points that reject it).  The
# three-term relation has no prefix and needs |C| = 1.
INVALID = [
    ("repeated-element", ([], {1, 2}, {2, 3}, {4}, 1), EVERY),
    ("gap", ([], {1}, {2}, {4}, 1), EVERY),
    ("non-int-element", ([], {1.0}, {2}, {3}, 1), EVERY),
    ("empty-prefix-block", ([()], {1}, {2}, {3}, 1), EVERY[:2]),
    ("c-size-not-r", ([], {1}, {2}, {3, 4}, 1), EVERY),
    ("empty-a", ([], set(), {1, 2}, {3}, 1), EVERY),
    ("empty-b", ([], {1, 2}, set(), {3}, 1), EVERY),
    ("empty-c", ([], {1}, {2}, set(), 0), EVERY),
    # True and 1.0 equal |C| = 1; the invariants reject them, the terms must too
    ("bool-r", ([], {1}, {2}, {3}, True), ("recurrence_terms",)),
    ("float-r", ([], {1}, {2}, {3}, 1.0), ("recurrence_terms",)),
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

    monkeypatch.setattr(invariants, "jellyfish_invariant", recording)
    instances = 0
    for n in range(3, 6):
        for r in DEPTHS:
            if r > n - 2:
                continue
            for prefix, A, B, C in _abc_instances(n, r, prefix_min=r):
                assert verify_recurrence(prefix, A, B, C, r)
                assert built[-(2**r + 1)] == OrderedSetPartition.from_blocks([*prefix, [*A, *B], C])
                assert built[-(2**r) :] == [q for _, q in recurrence_terms(prefix, A, B, C, r)[1]]
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
