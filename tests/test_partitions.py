import inspect
import itertools
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flamingo.partitions import (
    BlockTooSmall,
    OrderedSetPartition,
    act_elements,
    enumerate_noncrossing,
    enumerate_ordered_partitions,
    enumerate_unordered_partitions,
    is_noncrossing,
    long_cycle,
    longest_permutation,
    parse_partition,
    partitions_up_to,
    perm_inverse,
    perm_sign,
    permute_blocks,
    require_admissible,
    require_depth,
    rotate,
    simple_transposition,
    transposition_distance_to_noncrossing,
    word_inversions,
)
from flamingo.relations import conjecture_family

from oracles import (
    brute_ordered_partitions,
    has_crossing_by_quadruples,
    partitions_up_to_by_lists,
    perm_compose,
    word_inversions_by_pairs,
)


def partitions_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        d = draw(st.integers(min_value=1, max_value=n))
        assignment = draw(
            st.lists(st.integers(min_value=0, max_value=d - 1), min_size=n, max_size=n).filter(
                lambda a: len(set(a)) == d
            )
        )
        blocks = tuple(
            tuple(x for x in range(1, n + 1) if assignment[x - 1] == i) for i in range(d)
        )
        return OrderedSetPartition(n, blocks)

    return build()


class TestConstruction:
    def test_round_trip_text(self):
        p = parse_partition("2 3 6 10|5 7 8 9|1 4")
        assert p.n == 10
        assert p.d == 3
        assert p.blocks == ((2, 3, 6, 10), (5, 7, 8, 9), (1, 4))
        assert parse_partition(p.text()) == p

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            parse_partition("1 2|4")

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            parse_partition("1 2|2 3")

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            parse_partition("1 2||3")

    @pytest.mark.parametrize(
        "blocks",
        # the blocks must be a tuple of tuples: a list would not hash, so the
        # first cached call would fail, and a range would not equal its tuple
        [((True,), (2,)), ((1.0,), (2,)), ((1,), ("2",)), [(1,), (2,)], ([1], (2,)), ((1,), range(2, 3))],
        ids=["bool-element", "float-element", "str-element", "list-of-blocks", "list-block", "range-block"],
    )
    def test_rejects_element_that_is_not_an_int(self, blocks):
        with pytest.raises(ValueError):
            OrderedSetPartition(2, blocks)

    @pytest.mark.parametrize(
        "n, blocks",
        [(2.0, ((1,), (2,))), (True, ((1,),)), ("2", ((1,), (2,))), (None, ())],
        ids=["float-n", "bool-n", "str-n", "none-n"],
    )
    def test_rejects_n_that_is_not_an_int(self, n, blocks):
        # a float or bool n would equal and hash like its int twin
        with pytest.raises(ValueError):
            OrderedSetPartition(n, blocks)

    def test_block_of(self):
        p = parse_partition("2 3|1 4")
        assert p.block_of(1) == 2
        assert p.block_of(2) == 1

    def test_canonical_orders_by_minimum(self):
        p = parse_partition("2 3 6 10|5 7 8 9|1 4")
        assert p.canonical().blocks == ((1, 4), (2, 3, 6, 10), (5, 7, 8, 9))

    @given(partitions_strategy())
    def test_blocks_partition_ground_set(self, p):
        seen = sorted(x for block in p.blocks for x in block)
        assert seen == list(range(1, p.n + 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: p.block_of(True), "True not in [1, 4]"),
        (lambda p: p.block_of(1.0), "1.0 not in [1, 4]"),
        (lambda p: simple_transposition(4, True), "need 1 <= i < n, got i=True, n=4"),
        (lambda p: simple_transposition(4, 2.0), "need 1 <= i < n, got i=2.0, n=4"),
        (lambda p: transposition_distance_to_noncrossing(p, True), "k must be a nonnegative int, got True"),
        (lambda p: transposition_distance_to_noncrossing(p, 1.0), "k must be a nonnegative int, got 1.0"),
        (lambda p: list(partitions_up_to(True, 1)), "n_max must be an int, got True"),
        (lambda p: list(partitions_up_to(7.5, 1)), "n_max must be an int, got 7.5"),
        (lambda p: long_cycle(True), "n must be an int of at least 1, got True"),
        (lambda p: long_cycle(2.0), "n must be an int of at least 1, got 2.0"),
        (lambda p: longest_permutation(True), "n must be an int of at least 1, got True"),
        (lambda p: longest_permutation(2.0), "n must be an int of at least 1, got 2.0"),
    ],
    ids=[
        "block-of-bool",
        "block-of-float",
        "transposition-bool",
        "transposition-float",
        "distance-bool",
        "distance-float",
        "up-to-bool",
        "up-to-float",
        "long-cycle-bool",
        "long-cycle-float",
        "longest-bool",
        "longest-float",
    ],
)
def test_rejects_the_bool_or_float_twin_of_an_int(call, message):
    # True and 1.0 equal and hash like 1, so only an explicit int test rejects them
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(parse_partition("1 2|3 4"))


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,d,r",
        [(4, 2, 1), (4, 2, 2), (5, 2, 2), (6, 3, 1), (6, 3, 2), (6, 2, 3), (7, 3, 2)],
    )
    def test_matches_brute_force(self, n, d, r):
        ours = {p.blocks for p in enumerate_ordered_partitions(n, d, r)}
        assert ours == set(brute_ordered_partitions(n, d, r))

    def test_counts_without_size_floor(self):
        # ordered set partitions of [n] into d nonempty blocks: d! S(n,d)
        assert len(enumerate_ordered_partitions(4, 2, 1)) == 14
        assert len(enumerate_ordered_partitions(5, 3, 1)) == 150

    def test_empty_when_too_small(self):
        assert enumerate_ordered_partitions(3, 2, 2) == []

    def test_enumerators_build_valid_partitions(self):
        # The enumerators skip validation; every partition must survive it.
        for n in range(1, 8):
            for d in range(1, n + 1):
                for r in (1, 2, 3):
                    for enumerate_partitions in (
                        enumerate_ordered_partitions,
                        enumerate_unordered_partitions,
                    ):
                        built = enumerate_partitions(n, d, r)
                        assert built == [OrderedSetPartition(p.n, p.blocks) for p in built]

    @pytest.mark.parametrize(
        "n,d,r",
        [(n, d, r) for n in range(1, 8) for d in range(1, n + 1) for r in (1, 2, 3)],
    )
    def test_unordered_are_canonical_and_complete(self, n, d, r):
        unordered = enumerate_unordered_partitions(n, d, r)
        assert all(p.canonical() == p for p in unordered)
        ordered = {p.canonical() for p in enumerate_ordered_partitions(n, d, r)}
        assert set(unordered) == ordered
        assert len(unordered) == len(ordered)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_partitions_up_to_streams_the_lists_in_order(self, r):
        streamed = partitions_up_to(7, r)
        assert inspect.isgenerator(streamed)
        streamed = list(streamed)
        assert streamed == list(partitions_up_to_by_lists(7, r))
        assert streamed == [OrderedSetPartition(p.n, p.blocks) for p in streamed]

    @pytest.mark.parametrize(
        "make, size, bad",
        [
            pytest.param(make, size, bad, id=f"{make.__name__}-{size}-{bad}")
            for make in (
                enumerate_ordered_partitions,
                enumerate_unordered_partitions,
                enumerate_noncrossing,
                conjecture_family,
            )
            # the conjecture family answers a bad r with its own r >= 3 rule
            for size in (("n", "d") if make is conjecture_family else ("n", "d", "r"))
            for bad in (True, 1.5, 0)
        ],
    )
    def test_rejects_bad_arguments(self, make, size, bad):
        # a bool or float size would run as an int one
        sizes = {"n": 6, "d": 2, "r": 3, size: bad}
        if size == "r":
            message = f"r must be an int of at least 1, got {bad!r}"
        else:
            message = f"n and d must be ints of at least 1, got n = {sizes['n']!r}, d = {sizes['d']!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(sizes["n"], sizes["d"], sizes["r"])


class TestNoncrossing:
    @given(partitions_strategy())
    def test_matches_quadruple_scan(self, p):
        assert is_noncrossing(p) == (not has_crossing_by_quadruples(p.blocks))

    def test_matches_quadruple_scan_on_every_partition_up_to_eight(self):
        # every set partition of [n], n <= 8, with its blocks in both orders
        checked = 0
        for n in range(1, 9):
            for d in range(1, n + 1):
                for p in enumerate_unordered_partitions(n, d, 1):
                    expected = not has_crossing_by_quadruples(p.blocks)
                    assert is_noncrossing(p) == expected
                    assert is_noncrossing(permute_blocks(longest_permutation(d), p)) == expected
                    checked += 1
        assert checked == 4140 + 877 + 203 + 52 + 15 + 5 + 2 + 1

    def test_noncrossing_narayana_count(self):
        # noncrossing partitions of [n] into d blocks: Narayana N(n, d)
        assert len(enumerate_noncrossing(5, 2, 1)) == 10
        assert len(enumerate_noncrossing(5, 3, 1)) == 20
        assert sum(len(enumerate_noncrossing(5, d, 1)) for d in range(1, 6)) == 42
        assert len(enumerate_noncrossing(6, 2, 2)) == 9

    def test_distance_zero_is_noncrossing(self):
        p = parse_partition("1 3|2 4")
        assert not transposition_distance_to_noncrossing(p, 0)
        assert transposition_distance_to_noncrossing(p, 1)


class TestGroupActions:
    @given(partitions_strategy(), st.randoms(use_true_random=False))
    def test_element_action_is_a_group_action(self, p, rng):
        w = list(range(1, p.n + 1))
        rng.shuffle(w)
        w = tuple(w)
        u = list(range(1, p.n + 1))
        rng.shuffle(u)
        u = tuple(u)
        assert act_elements(perm_compose(u, w), p) == act_elements(u, act_elements(w, p))

    def test_rotate_matches_long_cycle(self):
        p = parse_partition("1 3|2 4")
        assert rotate(p) == act_elements(long_cycle(4), p)

    @given(st.integers(min_value=1, max_value=8))
    def test_sign_closed_forms(self, n):
        assert perm_sign(long_cycle(n)) == (-1) ** (n - 1)
        assert perm_sign(longest_permutation(n)) == (-1) ** (n * (n - 1) // 2)
        if n > 1:
            assert perm_sign(simple_transposition(n, 1)) == -1

    @example([])
    @example([2, 2])
    @example([3, 1, 3, 1, 2, 2])
    @given(st.lists(st.integers(min_value=-2, max_value=5), max_size=14))
    def test_word_inversions_matches_pair_count(self, word):
        # strict inversions: a repeated letter is never out of order with itself
        assert word_inversions(word) == word_inversions_by_pairs(word)

    @given(partitions_strategy())
    def test_permute_blocks_relabels_positions(self, p):
        if p.d < 2:
            return
        sigma = tuple(range(2, p.d + 1)) + (1,)
        q = permute_blocks(sigma, p)
        # block that was at position i lands at position sigma(i)
        for i in range(1, p.d + 1):
            assert q.blocks[sigma[i - 1] - 1] == p.blocks[i - 1]

    def test_perm_inverse_compose(self):
        w = (3, 1, 4, 2)
        assert perm_compose(w, perm_inverse(w)) == (1, 2, 3, 4)

    # The actions adopt their images unchecked, so the permutation check is
    # the only guard: a non-permutation must be rejected before it acts.

    @pytest.mark.parametrize(
        "w",
        [(1, 1, 3, 4), (0, 1, 2, 3), (2, 1, 3), (2, 1, 3, 4, 5), (1.0, 2, 3, 4), (2, True, 4, 3)],
        ids=["repeated-image", "image-zero", "too-short", "too-long", "float-image", "bool-image"],
    )
    def test_act_elements_rejects_non_permutation(self, w):
        with pytest.raises(ValueError):
            act_elements(w, parse_partition("1 3|2 4"))

    @pytest.mark.parametrize(
        "sigma",
        [(1, 1, 3), (0, 1, 2), (2, 1), (2, 1, 3, 4), (1.0, 2, 3), (2, True, 3)],
        ids=["repeated-image", "image-zero", "too-short", "too-long", "float-image", "bool-image"],
    )
    def test_permute_blocks_rejects_non_permutation(self, sigma):
        with pytest.raises(ValueError):
            permute_blocks(sigma, parse_partition("1 3|2|4"))

    def test_images_equal_their_validated_rebuilds(self):
        """Every image of act_elements, permute_blocks and canonical over
        all partitions with n <= 5, under every permutation of [n] and of
        the blocks, equals the partition from_blocks validates and rebuilds."""
        for n in range(1, 6):
            elements = list(itertools.permutations(range(1, n + 1)))
            for d in range(1, n + 1):
                positions = list(itertools.permutations(range(1, d + 1)))
                for p in enumerate_ordered_partitions(n, d, 1):
                    images = [p.canonical()]
                    images += [act_elements(w, p) for w in elements]
                    images += [permute_blocks(sigma, p) for sigma in positions]
                    for q in images:
                        assert q == OrderedSetPartition.from_blocks(q.blocks)


class TestContext:
    """``require_admissible``: the depth rule, the block-size rule and the
    height nu of the tableau row layout."""

    def test_running_example_rows(self):
        # blocks of 4, 4 and 2 at depth 2: rows 1..2 full, 3..6 tentacles, 7..10 tail
        p = parse_partition("2 3 6 10|5 7 8 9|1 4")
        assert require_admissible(p, 2) == 6

    def test_inadmissible_when_blocks_small(self):
        p = parse_partition("1 2|3")
        with pytest.raises(BlockTooSmall, match="^every block needs at least r = 2 elements, the smallest has 1$"):
            require_admissible(p, 2)

    @pytest.mark.parametrize("r", [1.0, True, 2.0, "1", 0, -1], ids=repr)
    def test_depth_must_be_a_positive_int(self, r):
        p = parse_partition("1 2|3 4")
        message = f"^r must be an int of at least 1, got {re.escape(repr(r))}$"
        with pytest.raises(ValueError, match=message) as raised:
            require_admissible(p, r)
        assert type(raised.value) is ValueError
        with pytest.raises(ValueError, match=message):
            require_depth(r)
        with pytest.raises(ValueError, match=message):
            list(partitions_up_to(4, r))

    @given(partitions_strategy())
    def test_nu_consistency(self, p):
        for r in (1, 2):
            if min(p.block_sizes()) >= r:
                assert require_admissible(p, r) == r + sum(size - r for size in p.block_sizes())
