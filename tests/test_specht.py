import copy
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flamingo import specht
from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import enumerate_noncrossing, enumerate_ordered_partitions, parse_partition, partitions_up_to
from flamingo.polynomials import MatrixPolynomial, minor
from flamingo.specht import (
    SpanChecker,
    SpechtShape,
    conjugate_partition,
    exact_rank,
    hook_basis,
    hook_family,
    membership_test,
    spanning_rank,
    spanning_set,
    syt_count,
)
from flamingo.tableaux import enumerate_tableaux

from oracles import LeadingTermSpan, highest_weight, rational_rank, syt_count_by_corners


class TestShapes:
    def test_conjugate(self):
        assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate_partition((2, 2, 1, 1)) == (4, 2)

    def test_conjugate_involutes(self):
        for lam in [(3, 1), (4, 4, 2), (5, 3, 3, 1), (2, 2, 2)]:
            assert conjugate_partition(conjugate_partition(lam)) == lam

    def test_shape_lambda_mu(self):
        shape = SpechtShape(10, 3, 2)
        assert shape.lam == (3, 3, 1, 1, 1, 1)
        assert shape.nu == 6

    def test_shape_requires_room(self):
        with pytest.raises(ValueError):
            SpechtShape(5, 2, 3)

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize(
        "sizes", [(4.0, 2, 1), (4, True, 1), (4, 2, 1.0), (4, 2, True)], ids=["float-n", "bool-d", "float-r", "bool-r"]
    )
    def test_rejects_a_size_that_is_not_an_int(self, sizes, warm):
        # 4.0 and True hash like 4 and 1, so the cached span of the int
        # twin must not answer for them
        specht._span_checker.cache_clear()
        if warm:
            spanning_rank(SpechtShape(*map(int, sizes)))
        with pytest.raises(ValueError, match="^n, d and r must be ints, got "):
            spanning_rank(SpechtShape(*sizes))

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
    )
    def test_dimension_matches_corner_recursion(self, d, r, extra):
        n = d * r + extra
        shape = SpechtShape(n, d, r)
        assert shape.dimension() == syt_count_by_corners(shape.lam)

    def test_hook_lengths_hand_checked(self):
        # lambda = (2, 2): hooks 3, 2, 2, 1 so dim = 24 / 12 = 2
        assert syt_count((2, 2)) == 2
        assert syt_count((3, 1)) == 3
        assert syt_count((1,)) == 1

    def test_syt_count_validates_shape(self):
        with pytest.raises(ValueError):
            syt_count((1, 3))


class TestSpanChecker:
    def test_rank_counts_independent_rows(self):
        checker = SpanChecker()
        p = minor((1,), (1,), 2)
        q = minor((1,), (2,), 2)
        assert checker.insert(p)
        assert checker.insert(q)
        assert not checker.insert(p + q)
        assert checker.rank == 2

    def test_contains_after_insert(self):
        checker = SpanChecker()
        p = minor((1, 2), (1, 2), 3)
        checker.insert(p)
        assert checker.contains(p * 5)
        assert not checker.contains(minor((1, 2), (1, 3), 3))

    def test_zero_handling(self):
        checker = SpanChecker()
        assert checker.contains(MatrixPolynomial.zero(3))
        assert not checker.insert(MatrixPolynomial.zero(3))

    def test_rejects_mixed_widths(self):
        checker = SpanChecker()
        checker.insert(minor((1,), (1,), 2))
        with pytest.raises(ValueError):
            checker.insert(minor((1,), (1,), 3))

    def test_contains_rejects_another_width(self):
        checker = SpanChecker()
        checker.insert(minor((1,), (1,), 2))
        with pytest.raises(ValueError, match="^mixed column counts$"):
            checker.contains(minor((1,), (1,), 3))


class TestExactRank:
    @pytest.mark.parametrize(
        "n,d,r",
        [(4, 2, 1), (5, 2, 2), (6, 2, 2), (6, 3, 1)],
    )
    def test_matches_rational_elimination(self, n, d, r):
        polys = [jellyfish_invariant(p, r) for p in enumerate_noncrossing(n, d, r)]
        assert exact_rank(polys) == rational_rank(polys)

    def test_independent_pair_has_full_rank(self):
        assert exact_rank([minor((1,), (1,), 2), minor((1,), (2,), 2)]) == 2

    def test_duplicates_do_not_inflate_rank(self):
        p = minor((1, 2), (1, 2), 3)
        assert exact_rank([p, p, p * 2]) == 1


class TestSpanningSet:
    def test_column_tuples_sizes(self):
        shape = SpechtShape(4, 2, 1)
        for poly in spanning_set(shape):
            assert poly.n == 4

    def test_each_product_appears_once(self):
        gens = spanning_set(SpechtShape(7, 3, 2))
        assert len(gens) == 105
        assert len({frozenset(p.terms.items()) for p in gens}) == 105

    def test_spanning_rank_equals_dimension_small(self):
        for n, d, r in [(4, 2, 1), (4, 2, 2), (5, 2, 2), (6, 3, 1), (6, 2, 3)]:
            shape = SpechtShape(n, d, r)
            assert spanning_rank(shape) == shape.dimension()


class TestMembership:
    @pytest.mark.parametrize(
        "text,r",
        [("1 2|3 4", 1), ("1 3|2 4", 1), ("1 2 5|3 4 6", 2), ("1 3 5|2 4 6", 2)],
    )
    def test_invariants_are_members(self, text, r):
        p = parse_partition(text)
        shape = SpechtShape(p.n, p.d, r)
        assert membership_test(jellyfish_invariant(p, r), shape)

    def test_non_member_rejected(self):
        shape = SpechtShape(4, 2, 1)
        stray = minor((1,), (1,), 4)
        assert not membership_test(stray, shape)

    def test_zero_is_member(self):
        shape = SpechtShape(4, 2, 1)
        assert membership_test(MatrixPolynomial.zero(4), shape)


class TestHookBasis:
    def test_family_size_binomial(self):
        from math import comb

        for n in range(2, 8):
            for d in range(1, n + 1):
                assert len(hook_family(n, d)) == comb(n - 1, d - 1)

    def test_members_are_intervals(self):
        for p in hook_family(6, 3):
            for block in p.blocks:
                assert block == tuple(range(block[0], block[-1] + 1))

    @pytest.mark.parametrize("n, d", [(4, True), (4, 2.0), (4.0, 2)], ids=["bool-d", "float-d", "float-n"])
    def test_family_rejects_a_size_that_is_not_an_int(self, n, d):
        # True would run as d = 1
        message = f"need 1 <= d <= n, got n = {n}, d = {d}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hook_family(n, d)

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (6, 3), (7, 4)])
    def test_basis_verified(self, n, d):
        assert hook_basis(n, d).basis


SHAPES_UP_TO_6 = [
    SpechtShape(n, d, r) for n in range(1, 7) for r in (1, 2, 3) for d in range(1, n // r + 1)
]


def _perturbed(p: MatrixPolynomial) -> MatrixPolynomial:
    """p with the coefficient of its leading term raised by one."""
    doc = p.to_json_dict()
    doc["terms"][0]["coeff"] = str(int(doc["terms"][0]["coeff"]) + 1)
    return MatrixPolynomial.from_json_dict(doc)


class TestReducedEchelon:
    @pytest.mark.parametrize("shape", SHAPES_UP_TO_6, ids=lambda s: f"{s.n}-{s.d}-{s.r}")
    def test_membership_matches_references(self, shape):
        """Every invariant of the shape and a perturbed copy of each: the
        same verdict as the leading-term echelon and as the highest-weight
        test, which needs no spanning set, and, once per invariant up to
        sign, as the rank over the rationals."""
        gens = spanning_set(shape)
        assert all(highest_weight(g, shape) for g in gens)
        reference = LeadingTermSpan(gens)
        rank = spanning_rank(shape)
        assert rank == reference.rank == shape.dimension()
        up_to_sign = {}
        for partition in enumerate_ordered_partitions(shape.n, shape.d, shape.r):
            invariant = jellyfish_invariant(partition, shape.r)
            assert membership_test(invariant, shape) and highest_weight(invariant, shape)
            for p in (invariant, _perturbed(invariant)):
                assert membership_test(p, shape) == reference.contains(p) == highest_weight(p, shape)
            if frozenset((m, -c) for m, c in invariant.terms.items()) not in up_to_sign:
                up_to_sign.setdefault(frozenset(invariant.terms.items()), invariant)
        for invariant in up_to_sign.values():
            for p in (invariant, _perturbed(invariant)):
                assert membership_test(p, shape) == (rational_rank(gens + [p]) == rank)

    def test_reduced_form_under_random_inserts(self):
        """After every insert: each pivot occurs in its own row only and
        leads it, the rank is the rational rank, and contains(q) holds
        exactly when inserting q would leave the rank unchanged.  Non-unit
        coefficients make some pivot coefficient exceed 1, so the lcm D of
        the pivot coefficients exceeds 1 in at least one run."""
        monomials = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)
        coefficients = st.integers(min_value=-4, max_value=4).filter(bool)
        polys = st.builds(
            lambda terms: MatrixPolynomial(3, terms),
            st.dictionaries(monomials, coefficients, max_size=5),
        )
        largest_d = []

        @settings(derandomize=True, max_examples=100)
        @given(st.lists(st.tuples(polys, polys), min_size=1, max_size=8))
        def run(steps):
            checker = SpanChecker()
            inserted = []
            for p, noise in steps:
                checker.insert(p)
                inserted.append(p)
                for m, row in checker.pivots.items():
                    assert max(row) == m
                    assert not any(other in row for other in checker.pivots if other != m)
                assert checker.rank == rational_rank(inserted)
                member = sum(inserted[1:], inserted[0] * 3)
                for q in (member, member + noise):
                    trial = copy.deepcopy(checker)
                    assert checker.contains(q) == (not trial.insert(q))
                    assert checker.contains(q) == (rational_rank(inserted + [q]) == checker.rank)
            largest_d.append(math.lcm(*(row[m] for m, row in checker.pivots.items())))

        run()
        assert max(largest_d) > 1


class TestHighestWeightOracle:
    """``oracles.highest_weight`` decides membership as a highest-weight
    vector of weight lam, from no spanning set and no echelon; it must
    agree with ``membership_test`` (every invariant at n <= 6 is in
    ``TestReducedEchelon``)."""

    def test_a_seeded_sample_of_invariants_at_seven(self):
        rng = random.Random(2024)
        for r in (1, 2, 3):
            pool = [p for d in range(1, 7 // r + 1) for p in enumerate_ordered_partitions(7, d, r)]
            for p in rng.sample(pool, min(100, len(pool))):
                invariant, shape = jellyfish_invariant(p, r), SpechtShape(7, p.d, r)
                assert highest_weight(invariant, shape)
                assert membership_test(invariant, shape)

    def test_single_tableau_products(self):
        # one seeded tableau of each partition at n <= 6: its minor product
        # has row content lam, but where two blocks exceed r some deep row
        # a + 1 feeds a column that row a does not, and E_{a,a+1} keeps that
        # term; adding the invariant keeps such a product out of the module
        rng = random.Random(2024)
        planted = members = 0
        for r in (1, 2, 3):
            for p in partitions_up_to(6, r):
                shape = SpechtShape(p.n, p.d, r)
                product = rng.choice(enumerate_tableaux(p, r)).minor_product()
                if sum(len(block) > r for block in p.blocks) < 2:
                    # one tableau, the top-justified one: a generator up to sign
                    assert highest_weight(product, shape) and membership_test(product, shape)
                    members += 1
                    continue
                for q in (product, jellyfish_invariant(p, r) + product):
                    assert not highest_weight(q, shape)
                    assert not membership_test(q, shape)
                planted += 1
        assert (planted, members) == (1716, 3795)

    def test_wrong_row_content_is_rejected(self):
        # a stray variable, an invariant of another depth, and one whose
        # rows run past nu
        shape = SpechtShape(4, 2, 1)
        invariant = jellyfish_invariant(parse_partition("1 3|2 4"), 1)
        assert highest_weight(invariant, shape)
        other_depth = jellyfish_invariant(parse_partition("1 2|3 4"), 2)
        for q in (minor((1,), (1,), 4), other_depth, minor((1, 2, 3, 4), (1, 2, 3, 4), 4)):
            assert not highest_weight(q, shape)
            assert not membership_test(q, shape)
