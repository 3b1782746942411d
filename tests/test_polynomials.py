import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flamingo.invariants import ColumnAction
from flamingo.partitions import parse_partition
from flamingo.polynomials import (
    ColumnCollision,
    MatrixPolynomial,
    add_into,
    column_map,
    integer_determinant,
    map_monomial,
    minor,
    variable_position,
)

from oracles import (
    det_leibniz,
    evaluate_poly,
    monomial_key,
    pairwise_product,
    random_int_matrix,
    substitute_columns,
    tuple_terms,
    variable,
)


def packed(m):
    """The package's encoding of the row-tuple monomial m."""
    [key] = MatrixPolynomial(len(m), {m: 1}).terms
    return key


class TestTermOrder:
    def test_row_one_beats_row_two(self):
        # x[1,n] still precedes every row-2 entry
        n = 4
        assert variable_position(1, 4, n) < variable_position(2, 1, n)
        assert variable_position(1, 4, n) < variable_position(2, 4, n)

    def test_row_two_runs_backwards(self):
        n = 4
        assert variable_position(2, 4, n) < variable_position(2, 3, n)
        assert variable_position(2, 1, n) > variable_position(2, 4, n)

    def test_row_three_runs_forwards(self):
        n = 4
        assert variable_position(3, 1, n) < variable_position(3, 2, n)

    def test_positions_are_distinct(self):
        n = 5
        seen = {variable_position(a, j, n) for a in range(1, 4) for j in range(1, n + 1)}
        assert len(seen) == 15

    def test_term_compare_prefix(self):
        # (1,1,0) uses a strict subset of (1,1,2)'s variables, so it is smaller
        assert packed((1, 1, 0)) < packed((1, 1, 2))
        assert packed((1, 1, 2)) == packed((1, 1, 2))

    def test_monomial_key_sorts_like_compare(self):
        monomials = [(1, 2, 0), (2, 1, 0), (0, 1, 2), (1, 1, 2), (1, 1, 0)]
        assert sorted(monomials, key=packed) == sorted(monomials, key=monomial_key)


def _monomials(n):
    """Row-tuple monomials over n columns, rows in [0, n]."""
    return st.tuples(*[st.integers(0, n)] * n)


@st.composite
def _monomial_pairs(draw):
    """Two monomials over one n <= 8: independent, equal, the empty
    monomial and another, or the second a prefix extension of the first
    (some of its absent columns filled in)."""
    n = draw(st.integers(0, 8))
    m1 = draw(_monomials(n))
    kind = draw(st.sampled_from(["independent", "equal", "extension", "empty"]))
    if kind == "independent":
        return m1, draw(_monomials(n))
    if kind == "equal":
        return m1, m1
    if kind == "empty":
        return (0,) * n, m1
    fill = draw(_monomials(n))
    return m1, tuple(row or extra for row, extra in zip(m1, fill))


class TestPackedMonomials:
    @settings(derandomize=True, max_examples=400)
    @given(_monomial_pairs())
    def test_integer_order_is_the_term_order(self, pair):
        m1, m2 = pair
        k1, k2 = monomial_key(m1), monomial_key(m2)
        p1, p2 = packed(m1), packed(m2)
        assert (p1 < p2, p1 == p2, p1 > p2) == (k1 < k2, k1 == k2, k1 > k2)

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(0, 8).flatmap(_monomials), st.integers(-5, 5).filter(bool))
    def test_packing_round_trips(self, m, c):
        p = MatrixPolynomial(len(m), {m: c})
        assert tuple_terms(p) == {m: c}
        assert MatrixPolynomial.from_json_dict(p.to_json_dict()).terms == p.terms

    def test_empty_monomial_is_zero_and_smallest(self):
        assert packed((0, 0, 0)) == 0
        assert packed((0, 0, 0)) < packed((0, 0, 3))

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: MatrixPolynomial(2, {(3, 0): 1}), "row indices", id="init-row-above-n"),
            pytest.param(lambda: MatrixPolynomial(2, {(True, 0): 1}), "row indices", id="init-bool-row"),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [0, 3], "coeff": "1"}]}),
                "row indices",
                id="json-row-above-n",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [1.9, True], "coeff": "1"}]}),
                "row indices",
                id="json-non-integral-rows",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [1, 0], "coeff": 2.7}]}),
                "coeff",
                id="json-float-coeff",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [1, 0], "coeff": True}]}),
                "coeff",
                id="json-bool-coeff",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [1, 0], "coeff": "2.7"}]}),
                "coeff must be a decimal string",
                id="json-non-decimal-coeff",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2.5, "terms": []}),
                "JSON integers",
                id="json-float-n",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "k": True, "terms": []}),
                "JSON integers",
                id="json-bool-k",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [-1, 0], "coeff": "1"}]}),
                "row indices",
                id="json-negative-row",
            ),
            pytest.param(
                lambda: MatrixPolynomial.from_json_dict({"n": 2, "terms": [{"rows": [1], "coeff": "1"}]}),
                "length",
                id="json-wrong-length",
            ),
            pytest.param(lambda: minor((3,), (1,), 2), "row indices", id="variable-row-above-n"),
            pytest.param(lambda: minor((-1,), (1,), 2), "row indices", id="variable-negative-row"),
            pytest.param(lambda: minor((1,), (3,), 2), "column indices", id="variable-column-above-n"),
            pytest.param(lambda: minor((1, 3), (1, 2), 2), "row indices", id="minor-row-above-n"),
            pytest.param(lambda: minor((-1, 1), (1, 2), 2), "row indices", id="minor-negative-row"),
            pytest.param(lambda: minor((1.0,), (1,), 2), "must be ints", id="minor-float-row"),
            pytest.param(lambda: minor((1,), (1.0,), 2), "must be ints", id="minor-float-column"),
            pytest.param(lambda: minor((True,), (1,), 2), "must be ints", id="minor-bool-row"),
            pytest.param(lambda: minor((1,), (True,), 2), "must be ints", id="minor-bool-column"),
            # 1.0 == 1 and True == 1 hash alike, so a warm cache must not answer for them
            pytest.param(lambda: (minor((1,), (1,), 2), minor((1.0,), (1,), 2)), "must be ints", id="minor-float-row-warm"),
            pytest.param(lambda: (minor((1,), (1,), 2), minor((1,), (True,), 2)), "must be ints", id="minor-bool-column-warm"),
            # two equal rows or columns make a determinant 0, not a smaller minor
            pytest.param(lambda: minor((1, 1), (2, 2), 2), "must not repeat", id="minor-repeated-index"),
            pytest.param(lambda: minor((1, 2), (2, 2), 2), "must not repeat", id="minor-repeated-column"),
            # a bool n would run as n = 1 and export "n": true; a float n fails past the checks
            pytest.param(lambda: minor((1,), (1,), True), "must be ints", id="minor-bool-n"),
            pytest.param(lambda: minor((1,), (1,), 2.0), "must be ints", id="minor-float-n"),
            pytest.param(lambda: MatrixPolynomial(True, {(1,): 1}), "nonnegative int", id="bool-n"),
            pytest.param(lambda: MatrixPolynomial(2.0, {}), "nonnegative int", id="float-n"),
            pytest.param(lambda: MatrixPolynomial.zero(True), "nonnegative int", id="zero-bool-n"),
            # a bool or float k would export "k": true or "k": 1.5, which from_json_dict rejects
            pytest.param(lambda: MatrixPolynomial(1, {}, True), "k must be an int", id="bool-k"),
            pytest.param(lambda: MatrixPolynomial.zero(2, k=1.5), "k must be an int", id="zero-float-k"),
        ],
    )
    def test_rejects_rows_outside_0_to_n(self, build, message):
        # the constructor's negative-row and wrong-length cases are in
        # TestValidationBoundary; the message shows the range check fired,
        # not an accident of packing (a row above n has a negative bit)
        with pytest.raises(ValueError, match=message):
            build()


class TestArithmetic:
    """The product of two polynomials lives in ``oracles`` as the reference
    for the minor-product kernel; a polynomial itself scales only by an int."""

    def test_monomial_multiply_disjoint(self):
        product = pairwise_product(MatrixPolynomial(3, {(1, 0, 0): 1}), MatrixPolynomial(3, {(0, 2, 0): 1}))
        assert product == MatrixPolynomial(3, {(1, 2, 0): 1})

    def test_monomial_multiply_collision(self):
        with pytest.raises(ColumnCollision):
            pairwise_product(MatrixPolynomial(2, {(1, 0): 1}), MatrixPolynomial(2, {(2, 0): 1}))

    def test_collision_of_one_pair_among_many(self):
        # only x[1,2] * x[2,2] collides; every other pair is disjoint
        p = MatrixPolynomial(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
        q = MatrixPolynomial(4, {(0, 0, 2, 0): 1, (0, 2, 0, 0): 1})
        with pytest.raises(ColumnCollision):
            pairwise_product(p, q)
        with pytest.raises(ColumnCollision):
            pairwise_product(q, p)

    def test_zero_factor_never_collides(self):
        p = variable(1, 1, 2)
        assert pairwise_product(p, MatrixPolynomial.zero(2)).is_zero
        assert pairwise_product(MatrixPolynomial.zero(2), p).is_zero

    def test_product_collision_propagates(self):
        p = variable(1, 1, 2)
        q = variable(2, 1, 2)
        with pytest.raises(ColumnCollision):
            pairwise_product(p, q)

    @pytest.mark.parametrize(
        "multiply",
        [
            pytest.param(lambda p: p * True, id="times-true"),
            pytest.param(lambda p: True * p, id="true-times"),
            pytest.param(lambda p: p * False, id="times-false"),
            pytest.param(lambda p: p * 2.0, id="times-float"),
            pytest.param(lambda p: p * variable(2, 2, 2), id="times-polynomial"),
            pytest.param(lambda p: variable(2, 2, 2) * p, id="polynomial-times"),
        ],
    )
    def test_scales_only_by_an_int(self, multiply):
        with pytest.raises(TypeError):
            multiply(variable(1, 1, 2))

    def test_addition_cancels(self):
        p = variable(1, 1, 3)
        assert (p - p).is_zero
        assert not (p + p).is_zero

    def test_scalar_multiplication(self):
        p = variable(2, 3, 3)
        assert 3 * p == MatrixPolynomial(3, {(0, 0, 2): 3})
        assert (p * 0).is_zero

    def test_k_tracks_observed_rows(self):
        p = MatrixPolynomial(4, {(0, 4, 1, 0): 1}, k=2)
        assert p.k == 4

    def test_equality_ignores_k(self):
        a = MatrixPolynomial(3, {(1, 0, 0): 2}, k=1)
        b = MatrixPolynomial(3, {(1, 0, 0): 2}, k=3)
        assert a == b

    @given(st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
    def test_ring_laws_on_random_sums(self, n, rng):
        def rand_poly():
            terms = {}
            for _ in range(3):
                m = tuple(rng.randint(0, n) for _ in range(n))
                terms[m] = rng.randint(-3, 3)
            return MatrixPolynomial(n, terms)

        p, q, s = rand_poly(), rand_poly(), rand_poly()
        assert p + q == q + p
        assert (p + q) + s == p + (q + s)
        assert p - p == MatrixPolynomial.zero(n)


class TestMinor:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_evaluation_matches_leibniz(self, size):
        rng = random.Random(711 + size)
        n = size + 1
        rows = tuple(range(1, size + 1))
        cols = tuple(range(2, size + 2))
        p = minor(rows, cols, n)
        for _ in range(5):
            matrix = random_int_matrix(rng, size, n)
            sub = [[matrix[i][j - 1] for j in cols] for i in range(size)]
            assert p.evaluate(matrix) == det_leibniz(sub)

    def test_empty_minor_is_one(self):
        assert minor((), (), 3) == MatrixPolynomial(3, {(0, 0, 0): 1})

    def test_one_by_one_minor_is_the_matrix_entry(self):
        for n in range(1, 6):
            for row in range(1, n + 1):
                for col in range(1, n + 1):
                    entry = minor((row,), (col,), n)
                    assert (entry, entry.k) == (variable(row, col, n), row)
                    assert tuple_terms(entry) == {tuple(row if j == col else 0 for j in range(1, n + 1)): 1}

    def test_term_count_is_factorial(self):
        assert len(minor((1, 2, 3), (1, 2, 4), 4).terms) == 6

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            minor((1, 2), (1,), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            minor((1,), (5,), 4)

    def test_evaluate_requires_enough_rows(self):
        p = minor((1, 2), (1, 2), 2)
        with pytest.raises(ValueError):
            p.evaluate([[1, 0]])

    @given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
    def test_evaluate_agrees_with_direct_expansion(self, size, rng):
        n = size
        p = minor(tuple(range(1, size + 1)), tuple(range(1, size + 1)), n)
        matrix = random_int_matrix(rng, size, n)
        assert p.evaluate(matrix) == evaluate_poly(p, matrix)

    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_evaluate_is_the_submatrix_determinant(self, n, rng):
        # any rows and columns of an n x n matrix, the empty minor included
        size = rng.randint(0, n)
        rows = sorted(rng.sample(range(1, n + 1), size))
        cols = sorted(rng.sample(range(1, n + 1), size))
        matrix = random_int_matrix(rng, n, n)
        sub = [[matrix[i - 1][j - 1] for j in cols] for i in rows]
        assert minor(rows, cols, n).evaluate(matrix) == integer_determinant(sub)


class TestIntegerDeterminant:
    @given(st.integers(min_value=0, max_value=5), st.randoms(use_true_random=False))
    def test_matches_leibniz(self, size, rng):
        matrix = random_int_matrix(rng, size, size)
        assert integer_determinant(matrix) == det_leibniz(matrix)

    def test_singular(self):
        assert integer_determinant([[1, 2], [2, 4]]) == 0


class TestSerialization:
    def test_schema_fields(self):
        p = minor((1, 2), (1, 3), 3)
        doc = json.loads(p.to_json())
        assert set(doc) == {"n", "k", "terms"}
        assert doc["n"] == 3 and doc["k"] == 2
        assert all(set(t) == {"rows", "coeff"} for t in doc["terms"])
        assert all(isinstance(t["coeff"], str) for t in doc["terms"])

    def test_terms_sorted_descending(self):
        p = minor((1, 2), (1, 3), 3)
        doc = json.loads(p.to_json())
        keys = [monomial_key(tuple(t["rows"])) for t in doc["terms"]]
        assert keys == sorted(keys, reverse=True)

    def test_round_trip(self):
        p = minor((1, 2, 3), (1, 2, 4), 5) * 7 - minor((1, 2, 3), (2, 3, 5), 5)
        assert MatrixPolynomial.from_json(p.to_json()) == p

    def test_round_trip_preserves_k(self):
        p = MatrixPolynomial(2, {(2, 0): 1}, k=5)
        q = MatrixPolynomial.from_json(p.to_json())
        assert q.k == 5

    def test_big_coefficients_survive(self):
        big = 10**40
        p = MatrixPolynomial(2, {(1, 0): big})
        assert MatrixPolynomial.from_json(p.to_json()) == MatrixPolynomial(2, {(1, 0): big})


class TestLeadingTerm:
    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            MatrixPolynomial.zero(2).leading_term()

    def test_leading_term_is_maximal(self):
        p = minor((1, 2), (1, 2), 2)
        lead, c = p.leading_term()
        [lead_rows] = tuple_terms(MatrixPolynomial._trusted(p.n, {lead: c}, p.k))
        assert lead_rows == max(tuple_terms(p), key=monomial_key)


# keys of three unrelated kinds: monomials, strings and frozensets
_KEYS = st.one_of(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.text(alphabet="ab", max_size=2),
    st.frozensets(st.integers(1, 3), max_size=2),
)
_TERMS = st.dictionaries(_KEYS, st.integers(-3, 3).filter(bool), max_size=6)


class TestAddInto:
    @given(_TERMS, _TERMS, st.integers(-3, 3))
    def test_matches_naive_sum(self, a, b, factor):
        acc = dict(a)
        b_before = dict(b)
        add_into(acc, b, factor)
        naive = {key: a.get(key, 0) + factor * b.get(key, 0) for key in a.keys() | b.keys()}
        assert acc == {key: c for key, c in naive.items() if c}
        assert b == b_before

    @given(_TERMS, _TERMS)
    def test_zero_factor_leaves_acc_unchanged(self, a, b):
        acc = dict(a)
        add_into(acc, b, 0)
        assert acc == a

    @given(_TERMS, st.integers(1, 3))
    def test_full_cancellation_empties(self, a, factor):
        acc = {key: factor * c for key, c in a.items()}
        add_into(acc, a, -factor)
        assert acc == {}

    def test_partition_keys(self):
        p, q = parse_partition("1 3|2 4"), parse_partition("1 2|3 4")
        acc = {p: 1}
        add_into(acc, {p: 1, q: 2}, -1)
        assert acc == {q: -2}


def _polys(n):
    """Polynomials over n columns, some declared k, zero coefficients included."""
    monomial = st.tuples(*[st.integers(0, n)] * n)
    terms = st.dictionaries(monomial, st.integers(-3, 3), max_size=5)
    return st.builds(MatrixPolynomial, st.just(n), terms, st.integers(0, 4))


class TestSubstituteColumns:
    """x[a][j] -> x[a][w(j)] as the package does it, on packed monomials
    through ``column_map`` and ``map_monomial``, which
    ``invariants.ColumnAction`` holds per w."""

    @given(st.data())
    def test_moves_each_variable_to_its_image_column(self, data):
        # x[a][j] -> x[a][w(j)], read on the row tuples of the JSON form
        n = data.draw(st.integers(1, 5))
        p = data.draw(_polys(n))
        w = data.draw(st.permutations(range(1, n + 1)))
        moved = {}
        for m, c in tuple_terms(p).items():
            image = [0] * n
            for j, row in enumerate(m):
                image[w[j] - 1] = row
            moved[tuple(image)] = c
        bits = column_map(w, n)
        image = MatrixPolynomial._trusted(n, {map_monomial(m, bits): c for m, c in p.terms.items()}, p.k)
        assert tuple_terms(image) == moved == tuple_terms(substitute_columns(p, w))

    @pytest.mark.parametrize(
        "w, n",
        [((True, 2), 2), ((2.0, 1.0), 2), ((1, 1), 2), ((1, 2, 3), 2), ((2,), 2), ((1,), True), ((2, 1), 2.0)],
        ids=["w0", "w1", "w2", "w3", "w4", "bool-n", "float-n"],
    )
    def test_rejects_what_is_not_a_permutation_of_the_columns(self, w, n):
        message = f"^{re.escape(f'w must be a permutation of the columns [1, n] of an int n, got n = {n!r}')}$"
        with pytest.raises(ValueError, match=message):
            column_map(w, n)
        with pytest.raises(ValueError, match=message):
            ColumnAction(w, n)


class TestValidationBoundary:
    def test_rejects_wrong_length_monomial(self):
        with pytest.raises(ValueError):
            MatrixPolynomial(3, {(1, 0): 1})

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            MatrixPolynomial(2, {(-1, 0): 1})

    @pytest.mark.parametrize("coeff", [1.0, "1", None, True])
    def test_rejects_non_int_coefficient(self, coeff):
        with pytest.raises(TypeError):
            MatrixPolynomial(2, {(1, 0): coeff})

    def test_drops_zero_coefficients(self):
        p = MatrixPolynomial(2, {(3, 0): 0, (0, 1): 2})
        assert p == MatrixPolynomial(2, {(0, 1): 2})
        assert p.k == 1

    # the constructor rejected n < 0 but took any int k
    @pytest.mark.parametrize("terms", [{}, {(1, 0): 1}], ids=["no-terms", "one-term"])
    def test_rejects_a_negative_k(self, terms):
        with pytest.raises(ValueError, match=f"^{re.escape('k must be an int >= 0, got -1')}$"):
            MatrixPolynomial(2, terms, k=-1)

    # it read back with k 1, or with no terms kept k = -1
    @pytest.mark.parametrize("terms", [[], [{"rows": [1, 0], "coeff": "1"}]], ids=["no-terms", "one-term"])
    def test_from_json_rejects_a_negative_k(self, terms):
        with pytest.raises(ValueError, match=f"^{re.escape('k must be an int >= 0, got -1')}$"):
            MatrixPolynomial.from_json(json.dumps({"n": 2, "k": -1, "terms": terms}))

    # to_json_dict never writes a zero coefficient; the reader dropped the term
    @pytest.mark.parametrize("coeff", [0, "0", "-0", "00"], ids=["integer", "string", "minus", "two-zeros"])
    def test_from_json_rejects_a_zero_coeff(self, coeff):
        term = {"rows": [1, 0], "coeff": coeff}
        doc = {"n": 2, "terms": [{"rows": [0, 1], "coeff": "1"}, term]}
        with pytest.raises(ValueError, match=f"^{re.escape(f'coeff must not be zero, got the term {term!r}')}$"):
            MatrixPolynomial.from_json(json.dumps(doc))

    @pytest.mark.parametrize("coeff", ["-12", -12], ids=["string", "integer"])
    def test_from_json_reads_decimal_string_or_integer_coeff(self, coeff):
        doc = {"n": 2, "terms": [{"rows": [1, 0], "coeff": coeff}]}
        assert MatrixPolynomial.from_json_dict(doc) == MatrixPolynomial(2, {(1, 0): -12})

    @pytest.mark.parametrize(
        "terms", ["ab", {"rows": [1], "coeff": "1"}, ["ab"], [[1]]], ids=["string", "object", "string-term", "list-term"]
    )
    def test_from_json_takes_terms_only_as_an_array_of_objects(self, terms):
        with pytest.raises(ValueError, match=re.escape(f"terms must be a JSON array of objects, got {terms!r}")):
            MatrixPolynomial.from_json_dict({"n": 1, "terms": terms})

    # a number, null or a bool raised TypeError from tuple(), and a string
    # was read as its characters
    @pytest.mark.parametrize("rows", [1, None, True, "12"], ids=["number", "null", "bool", "string"])
    def test_from_json_takes_rows_only_as_an_array(self, rows):
        doc = {"n": 2, "terms": [{"rows": rows, "coeff": "1"}]}
        with pytest.raises(ValueError, match=f"^{re.escape(f'rows must be a JSON array, got {rows!r}')}$"):
            MatrixPolynomial.from_json(json.dumps(doc))

    # int() read these as 10, 7, 1 and 1
    @pytest.mark.parametrize("coeff", ["1_0", " 7 ", "+1", "\u0661"], ids=["underscore", "spaces", "plus", "arabic-indic"])
    def test_from_json_takes_a_coeff_string_only_as_ascii_digits(self, coeff):
        doc = {"n": 2, "terms": [{"rows": [1, 0], "coeff": coeff}]}
        message = f"coeff must be a decimal string -?[0-9]+ or a JSON integer, got {coeff!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MatrixPolynomial.from_json(json.dumps(doc))

    # a missing key raised KeyError and a document that is no object TypeError
    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "a polynomial must be a JSON object with n and terms, got [1]"),
            ("ab", "a polynomial must be a JSON object with n and terms, got 'ab'"),
            ({"terms": []}, "a polynomial must be a JSON object with n and terms, got {'terms': []}"),
            ({"n": 1}, "a polynomial must be a JSON object with n and terms, got {'n': 1}"),
            ({"n": 1, "terms": [{"coeff": "1"}]}, "every term needs rows and coeff, got {'coeff': '1'}"),
            ({"n": 1, "terms": [{"rows": [1]}]}, "every term needs rows and coeff, got {'rows': [1]}"),
        ],
        ids=["array", "string", "no-n", "no-terms", "no-rows", "no-coeff"],
    )
    def test_from_json_needs_an_object_with_every_key(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MatrixPolynomial.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: MatrixPolynomial(2, {(1, 0): 1}) + MatrixPolynomial(3, {(1, 0, 0): 1}), "column-count mismatch"),
            (lambda: MatrixPolynomial(2, {(1, 0): 1}).evaluate([[1], [2]]), "every row must have 2 entries"),
            (lambda: integer_determinant([[1, 2]]), "matrix must be square"),
        ],
        ids=["add-across-widths", "evaluate-narrow-rows", "determinant-not-square"],
    )
    def test_rejects_mismatched_shapes(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_truth_is_having_terms(self):
        assert not MatrixPolynomial.zero(2)
        assert MatrixPolynomial(2, {(1, 0): 1})

    def test_from_json_rejects_duplicate_monomial(self):
        doc = {"n": 2, "terms": [{"rows": [1, 0], "coeff": "1"}, {"rows": [1, 0], "coeff": "2"}]}
        with pytest.raises(ValueError):
            MatrixPolynomial.from_json_dict(doc)

    @given(st.data())
    def test_ring_results_pass_the_constructor_unchanged(self, data):
        n = data.draw(st.integers(1, 4))
        p, q = data.draw(_polys(n)), data.draw(_polys(n))
        c = data.draw(st.integers(-3, 3))
        moved = column_map(data.draw(st.permutations(range(1, n + 1))), n)
        results = [
            (p + q, max(p.k, q.k)),
            (p - q, max(p.k, q.k)),
            (-p, p.k),
            (p * c, p.k),
            (c * p, p.k),
            # the column action's images must be packed monomials too
            (MatrixPolynomial._trusted(n, {map_monomial(m, moved): c for m, c in p.terms.items()}, p.k), p.k),
        ]
        for result, k in results:
            assert (result.n, result.k) == (n, k)
            again = MatrixPolynomial.from_json_dict(result.to_json_dict())
            assert (again.terms, again.k) == (result.terms, result.k)
