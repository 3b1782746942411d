import itertools
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flamingo import invariants
from flamingo.diagrams import build_tensor_diagram
from flamingo.grassmann import gc_jellyfish, predicted_global_sign
from flamingo.invariants import ColumnAction, jellyfish_invariant, verify_block_reorder
from flamingo.partitions import (
    OrderedSetPartition,
    act_elements,
    enumerate_ordered_partitions,
    long_cycle,
    longest_permutation,
    parse_partition,
    partitions_up_to,
    simple_transposition,
)
from flamingo.polynomials import MatrixPolynomial, _unpack
from flamingo.tableaux import (
    JellyfishTableau,
    enumerate_tableaux,
    iter_tableaux,
    tableau_count,
    top_justified_tableau,
)

from oracles import (
    apply_action,
    det_leibniz,
    determinant_invariant,
    holds_by_signed_sum,
    perm_compose,
    random_int_matrix,
    tableau_minor_product,
    tuple_terms,
)

EXAMPLE = parse_partition("2 3 6 10|5 7 8 9|1 4")

SMALL_PARTITIONS = [
    "1 2|3 4",
    "1 3|2 4",
    "1 4|2 3",
    "1 2 3|4 5",
    "1 3 5|2 4",
    "1 2 5|3 4 6",
    "1 4 5|2 3 6",
]


class TestConstruction:
    def test_zero_when_a_block_is_small(self):
        p = parse_partition("1 2|3")
        zero = jellyfish_invariant(p, 2)
        assert zero.is_zero and zero.k == 0
        assert jellyfish_invariant(p, 2) is zero

    def test_positive_depth_required(self):
        with pytest.raises(ValueError):
            jellyfish_invariant(EXAMPLE, 0)

    def test_signed_sum_over_tableaux(self):
        p = parse_partition("1 2 5|3 4 6")
        total = MatrixPolynomial.zero(6)
        for t in enumerate_tableaux(p, 2):
            total = total + tableau_minor_product(t) * t.sign()
        assert jellyfish_invariant(p, 2) == total

    def test_term_count_is_tableaux_times_block_factorials(self):
        # a monomial fixes the row set of each block's columns, so no two
        # tableaux share one and nothing cancels: each tableau gives the
        # prod |pi_i|! terms of its minor product; a kernel that drops or
        # merges terms breaks the count
        pairs = 0
        for r in range(1, 7):
            for p in partitions_up_to(6, r):
                per_tableau = math.prod(math.factorial(len(block)) for block in p.blocks)
                assert len(jellyfish_invariant(p, r).terms) == tableau_count(p, r) * per_tableau
                pairs += 1
        assert pairs == 5517

    def test_example_depth_three_vanishes(self):
        # one block has only two elements, so depth 3 kills the whole sum
        assert jellyfish_invariant(EXAMPLE, 3).is_zero

    def test_cached_instance_reused(self):
        invariants._invariant_cached.cache_clear()
        a = jellyfish_invariant(EXAMPLE, 1)
        b = jellyfish_invariant(EXAMPLE, 1)
        assert a is b

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("r", [1.0, True], ids=["float", "bool"])
    def test_rejects_depth_that_is_not_an_int(self, r, warm):
        # 1.0 and True hash like 1, so a cached (p, 1) must not answer them
        invariants._invariant_cached.cache_clear()
        if warm:
            jellyfish_invariant(EXAMPLE, 1)
        with pytest.raises(ValueError):
            jellyfish_invariant(EXAMPLE, r)

    @pytest.mark.parametrize("r", [1.0, True, 0, -1], ids=["float", "bool", "zero", "negative"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda p, r: list(iter_tableaux(p, r)),
            tableau_count,
            gc_jellyfish,
            build_tensor_diagram,
            jellyfish_invariant,
            top_justified_tableau,
            predicted_global_sign,
            lambda p, r: JellyfishTableau(p, r, ()),
        ],
        ids=[
            "tableaux",
            "tableau-count",
            "grassmann-cayley",
            "diagram",
            "invariant",
            "top-justified-tableau",
            "predicted-global-sign",
            "tableau-constructor",
        ],
    )
    def test_every_depth_entry_rejects_a_depth_that_is_not_an_int(self, build, r):
        # one rule, one message, wherever a depth comes in
        with pytest.raises(ValueError, match=f"^r must be an int of at least 1, got {re.escape(repr(r))}$"):
            build(EXAMPLE, r)

    @pytest.mark.parametrize("text", SMALL_PARTITIONS)
    def test_numeric_cross_check(self, text):
        # evaluate the polynomial and the defining sum on random matrices
        p = parse_partition(text)
        rng = random.Random(hash(text) & 0xFFFF)
        for r in (1, 2):
            if min(p.block_sizes()) < r:
                continue
            poly = jellyfish_invariant(p, r)
            matrix = random_int_matrix(rng, poly.k, p.n)
            direct = 0
            for t in enumerate_tableaux(p, r):
                prod = t.sign()
                for i, block in enumerate(p.blocks, start=1):
                    rows = t.column_rows(i)
                    sub = [[matrix[a - 1][b - 1] for b in block] for a in rows]
                    prod *= det_leibniz(sub)
                direct += prod
            assert poly.evaluate(matrix) == direct


class TestEquivariance:
    @pytest.mark.parametrize("text", SMALL_PARTITIONS)
    def test_simple_transpositions(self, text):
        p = parse_partition(text)
        for r in (1, 2):
            if min(p.block_sizes()) < r:
                continue
            for i in range(1, p.n):
                assert ColumnAction(simple_transposition(p.n, i), p.n).holds_for(p, r)

    def test_rotation_and_reflection(self):
        p = parse_partition("1 2 5|3 4 6")
        for r in (1, 2):
            assert ColumnAction(long_cycle(p.n), p.n).holds_for(p, r)
            assert ColumnAction(longest_permutation(p.n), p.n).holds_for(p, r)

    def test_action_composes(self):
        p = parse_partition("1 3|2 4")
        w = long_cycle(4)
        terms = jellyfish_invariant(p, 1).terms
        action = ColumnAction(w, 4)
        twice = apply_action(action, apply_action(action, terms))
        assert twice == apply_action(ColumnAction(perm_compose(w, w), 4), terms)

    @pytest.mark.parametrize("w", [(True, 2), (2.0, 1.0), (1, 1), (1, 2, 3), (2,)])
    def test_rejects_what_is_not_a_permutation_of_the_columns(self, w):
        with pytest.raises(ValueError, match="permutation of the columns"):
            ColumnAction(w, 2)

    @given(st.data())
    def test_remembered_images_are_the_column_substitution(self, data):
        # each term unpacked to its row tuple, the rows moved to w's columns
        # and packed again; an action applied to several polynomials, some
        # twice, must give that every time
        n = data.draw(st.integers(1, 5))
        w = tuple(data.draw(st.permutations(range(1, n + 1))))
        monomial = st.tuples(*[st.integers(0, n)] * n)
        polys = data.draw(
            st.lists(st.builds(MatrixPolynomial, st.just(n), st.dictionaries(monomial, st.integers(-3, 3))), max_size=4)
        )
        action = ColumnAction(w, n)
        for poly in polys + polys:
            moved = {}
            for m, c in poly.terms.items():
                image = [0] * n
                for j, row in enumerate(_unpack(m, n)):
                    image[w[j] - 1] = row
                moved[tuple(image)] = c
            assert apply_action(action, poly.terms) == MatrixPolynomial(n, moved).terms
        assert action.images.keys() == {m for poly in polys for m in poly.terms}

    def test_act_is_act_elements(self):
        # every generator x partition x depth of the column-equivariance sweep
        # at n <= 6; the image must also pass the checking constructor
        images = 0
        for n in range(2, 7):
            generators = [simple_transposition(n, i) for i in range(1, n)]
            actions = [ColumnAction(w, n) for w in generators + [long_cycle(n), longest_permutation(n)]]
            for r in (1, 2, 3):
                for d in range(1, n // r + 1):
                    for p in enumerate_ordered_partitions(n, d, r):
                        for action in actions:
                            image = action.act(p)
                            assert image == act_elements(action.w, p)
                            assert image == OrderedSetPartition(image.n, image.blocks)
                            images += 1
        assert images == 37780

    def test_in_place_comparison_is_the_signed_sum(self):
        # every generator x partition x depth of the column-equivariance
        # sweep at n <= 6, each side with its own actions
        outcomes = []
        for n, r, p, actions, others in _equivariance_sweep(6):
            outcomes += [(a.holds_for(p, r), holds_by_signed_sum(b, p, r)) for a, b in zip(actions, others)]
        assert len(outcomes) == 37780
        assert all(ours and theirs for ours, theirs in outcomes)

    @pytest.mark.parametrize("plant", ["flipped-sign", "dropped-term", "extra-term"])
    def test_in_place_comparison_fails_on_a_planted_target(self, monkeypatch, plant):
        # [w . pi]_r changed in one term, for every identity at n <= 5 whose
        # w moves pi: both comparisons must fail
        original = invariants.jellyfish_invariant
        planted = {}
        monkeypatch.setattr(
            invariants, "jellyfish_invariant", lambda q, s: planted[q, s] if (q, s) in planted else original(q, s)
        )
        cases = 0
        for n, r, p, actions, others in _equivariance_sweep(5):
            for a, b in zip(actions, others):
                target = a.act(p)
                if target == p:
                    continue
                terms = dict(original(target, r).terms)
                first = next(iter(terms))
                if plant == "flipped-sign":
                    terms[first] = -terms[first]
                elif plant == "dropped-term":
                    del terms[first]
                else:
                    keys = (_packed(n, rows) for rows in itertools.product(range(1, n + 1), repeat=n))
                    extra = next(m for m in keys if m not in terms)
                    terms[extra] = 1
                planted.clear()
                planted[target, r] = MatrixPolynomial._trusted(n, terms, n)
                assert not a.holds_for(p, r)
                assert not holds_by_signed_sum(b, p, r)
                cases += 1
        assert cases == 3418

    def test_act_rejects_a_partition_of_another_n(self):
        with pytest.raises(ValueError):
            ColumnAction((2, 1, 3), 3).act(parse_partition("1|2"))

    @pytest.mark.parametrize("r", [1, 2])
    def test_block_reorder_sign_power(self, r):
        p = parse_partition("1 2 5|3 4 6")
        swap = (2, 1)
        assert verify_block_reorder(swap, p, r)
        # depth parity decides whether the swap flips the invariant
        from flamingo.partitions import permute_blocks

        q = permute_blocks(swap, p)
        lhs = jellyfish_invariant(p, r)
        rhs = jellyfish_invariant(q, r)
        assert lhs == rhs * ((-1) ** r)

    def test_all_depth_one_partitions_reorder_freely(self):
        for p in enumerate_ordered_partitions(5, 2, 2):
            assert verify_block_reorder((2, 1), p, 2)


def _equivariance_sweep(n_max: int):
    """(n, r, partition, actions, other actions) in the order of the
    column-equivariance check: two lists of actions for the same generators,
    so two comparisons can each fill their own."""
    for n in range(2, n_max + 1):
        generators = [simple_transposition(n, i) for i in range(1, n)] + [long_cycle(n), longest_permutation(n)]
        actions = [ColumnAction(w, n) for w in generators]
        others = [ColumnAction(w, n) for w in generators]
        for r in (1, 2, 3):
            for d in range(1, n // r + 1):
                for p in enumerate_ordered_partitions(n, d, r):
                    yield n, r, p, actions, others


def _packed(n: int, rows: tuple[int, ...]) -> int:
    """The packed key of the monomial with row rows[j] in column j + 1."""
    (key,) = MatrixPolynomial(n, {rows: 1}).terms
    return key


def _random_partition(rng: random.Random, n: int, d: int, r: int) -> OrderedSetPartition:
    """A random ordered partition of [n] into d blocks of at least r
    elements each."""
    sizes = [r] * d
    for _ in range(n - d * r):
        sizes[rng.randrange(d)] += 1
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    cuts = [sum(sizes[:i]) for i in range(d + 1)]
    return OrderedSetPartition.from_blocks(elements[cuts[i] : cuts[i + 1]] for i in range(d))


class TestDeterminantOracle:
    """Against ``oracles.determinant_invariant``, one n x n determinant per
    pair, which shares no tableau, reading word or minor expansion with the
    package; terms are compared by the row tuples of the JSON form."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_pair_up_to_six(self, r):
        for p in partitions_up_to(6, r):
            assert determinant_invariant(p, r) == tuple_terms(jellyfish_invariant(p, r))

    def test_seeded_sample_at_eight(self):
        # d = 1 has one partition, the full determinant, which the sweep
        # above meets at every n <= 6; at n = 8 it alone would take 0.4 s
        rng = random.Random(8)
        for _ in range(200):
            r = rng.choice((1, 2, 3))
            p = _random_partition(rng, 8, rng.randint(2, 8 // r), r)
            assert determinant_invariant(p, r) == tuple_terms(jellyfish_invariant(p, r))

    @pytest.mark.parametrize("text,r", [("1 2|3", 2), ("1|2 3 4", 2), ("1 2 3|4 5", 3), ("1 2|3 4", 3)])
    def test_zero_when_a_block_is_small(self, text, r):
        p = parse_partition(text)
        assert determinant_invariant(p, r) == {} and jellyfish_invariant(p, r).is_zero
