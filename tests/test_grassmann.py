import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flamingo import grassmann, verification
from flamingo.grassmann import (
    Extensor,
    alternating_diagonal,
    cap,
    compare_up_to_sign,
    delta_index_set,
    delta_to_minor,
    gc_jellyfish,
    index_set,
    phi,
    phi_star,
    predicted_global_sign,
    resolved_global_sign,
    translation_sign,
)
from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import enumerate_ordered_partitions, parse_partition, require_admissible
from flamingo.specht import SpechtShape, spanning_set
from flamingo.tableaux import enumerate_tableaux
from flamingo.verification import partitions_up_to

import oracles
from oracles import det_leibniz, random_int_matrix

EXAMPLE = parse_partition("2 3 6 10|5 7 8 9|1 4")


def decoded(extensor):
    """An Extensor's terms keyed by index tuples, each term as (sorted
    indices, sorted tuple of sorted factors), in emission order."""
    return {
        (index_set(idx), tuple(sorted(map(index_set, factors)))): c
        for (idx, factors), c in extensor.terms.items()
    }


def scaled(extensor, c):
    """c times an Extensor, through the constructor, which drops the zero
    coefficients that c = 0 gives."""
    return Extensor({key: c * v for key, v in extensor.terms.items()})


class TestExtensor:
    def test_basis_sorts_with_sign(self):
        assert decoded(Extensor.basis((2, 1))) == {((1, 2), ()): -1}

    def test_basis_kills_repeats(self):
        assert decoded(Extensor.basis((1, 1))) == {}

    def test_basis_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError, match="positive"):
            Extensor.basis((0, 1))

    def test_wedge_anticommutes(self):
        e1, e2 = Extensor.basis((1,)), Extensor.basis((2,))
        assert e1.wedge(e2) == scaled(e2.wedge(e1), -1)

    def test_wedge_squares_to_zero(self):
        e1 = Extensor.basis((1,))
        assert e1.wedge(e1) == Extensor()

    def test_wedge_associates(self):
        a, b, c = (Extensor.basis((i,)) for i in (2, 4, 1))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_sum_collects_terms(self):
        s = Extensor.basis((1,)) + Extensor.basis((1,))
        assert decoded(s) == {((1,), ()): 2}

    def test_cancellation_drops_term(self):
        s = Extensor.basis((1,)) + scaled(Extensor.basis((1,)), -1)
        assert decoded(s) == {}

    def test_zero_scale_is_the_empty_extensor(self):
        assert scaled(Extensor.basis((1, 2)), 0) == Extensor()
        assert Extensor({(1, ()): 0, (2, ()): 3}).terms == {(2, ()): 3}

    def test_degrees(self):
        w = Extensor.basis((1, 3)) + Extensor.basis((2, 4))
        assert w.degrees() == {2}


class TestCap:
    # cap of the full wedge e3^e4^e5^e6 against e1^e2 in rank 4: all six
    # two-index extractions, with the shuffle sign
    def test_worked_expansion(self):
        out = cap(Extensor.basis((3, 4, 5, 6)), Extensor.basis((1, 2)), 4)
        assert decoded(out) == {
            ((3, 4), ((1, 2, 5, 6),)): 1,
            ((3, 5), ((1, 2, 4, 6),)): -1,
            ((3, 6), ((1, 2, 4, 5),)): 1,
            ((4, 5), ((1, 2, 3, 6),)): 1,
            ((4, 6), ((1, 2, 3, 5),)): -1,
            ((5, 6), ((1, 2, 3, 4),)): 1,
        }

    def test_full_contraction_leaves_scalar_factor(self):
        out = cap(Extensor.basis((1, 2)), Extensor.basis((3, 4)), 4)
        assert decoded(out) == {((), ((1, 2, 3, 4),)): 1}

    def test_overlapping_supports_drop_out(self):
        # moving an index already present in y gives a repeated-column factor
        out = cap(Extensor.basis((1, 2)), Extensor.basis((1, 4)), 4)
        assert decoded(out) == {}

    def test_cap_rejects_inhomogeneous(self):
        x = Extensor.basis((1, 2, 3)) + Extensor.basis((1,))
        with pytest.raises(ValueError):
            cap(x, Extensor.basis((2, 3)), 3)

    def test_cap_scalar_linearity(self):
        x = Extensor.basis((3, 4, 5, 6))
        y = Extensor.basis((2, 4))
        assert cap(scaled(x, 3), y, 4) == scaled(cap(x, y, 4), 3)

    def test_full_rank_y_moves_nothing(self):
        x = Extensor.basis((5, 6))
        y = Extensor.basis((1, 2, 3, 4))
        out = cap(x, y, 4)
        assert decoded(out) == {((5, 6), ((1, 2, 3, 4),)): 1}


class TestTranslation:
    def test_phi_prepends_signed_identity(self):
        m = [[5, 6], [7, 8]]
        assert phi(m) == [[1, 0, 5, 6], [0, -1, 7, 8]]

    def test_alternating_diagonal(self):
        assert alternating_diagonal(3) == [[1, 0, 0], [0, -1, 0], [0, 0, 1]]

    def test_delta_index_set(self):
        assert delta_index_set((1, 3), (2, 4), 4) == (2, 4, 6, 8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_delta_to_minor_numeric(self, n):
        # Delta_K(phi(M)) == sign * minor_{I,J}(M) on random integer matrices
        rng = random.Random(97 + n)
        for _ in range(25):
            k = rng.randint(1, n)
            rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
            cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
            K = delta_index_set(rows, cols, n)
            sign, I, J = delta_to_minor(K, n)
            assert (I, J) == (rows, cols)
            assert sign in (1, -1)
            matrix = random_int_matrix(rng, n, n)
            big = phi(matrix)
            delta = det_leibniz([[big[i][c - 1] for c in K] for i in range(n)])
            sub = [[matrix[i - 1][j - 1] for j in cols] for i in rows]
            assert delta == sign * det_leibniz(sub)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: Extensor.basis((True, 2)), id="basis-bool"),
            pytest.param(lambda: Extensor.basis((1.0, 2)), id="basis-float"),
            pytest.param(lambda: delta_index_set((True,), (1,), 2), id="delta-index-set-bool-row"),
            pytest.param(lambda: delta_index_set((1,), (True,), 2), id="delta-index-set-bool-column"),
            pytest.param(lambda: delta_index_set((1.0,), (1,), 2), id="delta-index-set-float-row"),
            pytest.param(lambda: delta_index_set((3,), (1,), 2), id="delta-index-set-row-above-n"),
            pytest.param(lambda: delta_to_minor((True, 4), 2), id="delta-to-minor-bool"),
            pytest.param(lambda: delta_to_minor((1.0, 4), 2), id="delta-to-minor-float"),
            pytest.param(lambda: delta_to_minor((1, 5), 2), id="delta-to-minor-above-2n"),
            pytest.param(lambda: translation_sign((True,), 2), id="translation-sign-bool"),
            # a repeated index is not a set: the constructor's rule rejects it
            pytest.param(lambda: delta_to_minor((1, 1, 3), 2), id="delta-to-minor-repeat"),
            pytest.param(lambda: delta_index_set((1, 1), (2, 2), 3), id="delta-index-set-repeat"),
            pytest.param(lambda: translation_sign((2, 2), 3), id="translation-sign-repeat"),
            # a bool n runs as n = 1, a float n fails past the checks
            pytest.param(lambda: delta_index_set((1,), (1,), True), id="delta-index-set-bool-n"),
            pytest.param(lambda: delta_index_set((1,), (1,), 2.0), id="delta-index-set-float-n"),
            pytest.param(lambda: translation_sign((1,), True), id="translation-sign-bool-n"),
            pytest.param(lambda: translation_sign((1,), 2.0), id="translation-sign-float-n"),
            pytest.param(lambda: delta_to_minor((2,), True), id="delta-to-minor-bool-n"),
            pytest.param(lambda: delta_to_minor((1, 4), 2.0), id="delta-to-minor-float-n"),
        ],
    )
    def test_indices_must_be_ints_in_range(self, call):
        # the partition constructor's rule: a bool is not index 1
        with pytest.raises(ValueError, match="ints"):
            call()

    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_translation_sign_is_a_sign(self, n, rng):
        kept = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        assert translation_sign(kept, n) in (1, -1)


class TestGrassmannCayley:
    def test_example_sign_positive(self):
        assert resolved_global_sign(EXAMPLE, 2) == 1

    def test_example_term_bijection_reversed(self):
        # every cap-and-wedge term equals one tableau's signed minor product,
        # and the terms come out in reverse tableau order
        from flamingo.grassmann import PlueckerExpression
        from flamingo.tableaux import enumerate_tableaux

        n = EXAMPLE.n
        tableaux = enumerate_tableaux(EXAMPLE, 2)
        by_rows = {
            tuple(t.column_rows(i) for i in range(1, 4)): pos
            for pos, t in enumerate(tableaux)
        }
        gc = gc_jellyfish(EXAMPLE, 2)
        assert len(gc.terms) == 6
        emitted = []
        for factors, coeff in gc.terms.items():
            rows_by_block = {}
            for K in map(index_set, factors):
                block = tuple(j - n for j in K if j > n)
                inside = {j for j in K if j <= n}
                rows_by_block[block] = tuple(
                    x for x in range(1, n + 1) if x not in inside
                )
            cols = tuple(rows_by_block[b] for b in EXAMPLE.blocks)
            pos = by_rows[cols]
            t = tableaux[pos]
            single = phi_star(PlueckerExpression(n, {factors: coeff}))
            assert single == oracles.tableau_minor_product(t) * t.sign()
            emitted.append(pos)
        assert emitted == [5, 4, 3, 2, 1, 0]

    @pytest.mark.parametrize(
        "plant, ours, theirs",
        [
            pytest.param(
                "reversed",
                "gc term 1 differs from the signed minor product of tableau 6",
                "gc terms emitted in tableau order [1, 2, 3, 4, 5, 6], expected reversed",
                id="reversed",
            ),
            pytest.param(
                "negated",
                "gc term 3 differs from the signed minor product of tableau 4",
                "term for tableau 4 disagrees with its signed minor product",
                id="negated",
            ),
            pytest.param("dropped", "5 gc terms for 6 tableaux", "5 gc terms for 6 tableaux", id="dropped"),
        ],
    )
    def test_a_planted_term_fails_both_bijections(self, monkeypatch, plant, ours, theirs):
        # the running example's expansion with its terms reversed, its third
        # term negated or its third term dropped, against the check and
        # against the row-decoding bijection it replaced, kept in oracles
        gc = gc_jellyfish(EXAMPLE, 2)
        terms = list(gc.terms.items())
        if plant == "reversed":
            terms.reverse()
        elif plant == "negated":
            terms[2] = (terms[2][0], -terms[2][1])
        else:
            del terms[2]
        planted = grassmann.PlueckerExpression(gc.n, dict(terms))
        tableaux = enumerate_tableaux(EXAMPLE, 2)
        assert oracles.term_bijection_by_rows(EXAMPLE, gc, tableaux) is None
        assert oracles.term_bijection_by_rows(EXAMPLE, planted, tableaux) == theirs
        monkeypatch.setattr(verification, "gc_jellyfish", lambda partition, r: planted)
        result = verification.check_gc_equivalence(n_max=4)
        assert not result.ok
        assert result.detail == ours

    @pytest.mark.parametrize(
        "n,d,r",
        [(4, 2, 1), (5, 2, 1), (5, 2, 2), (6, 3, 1), (6, 2, 2), (6, 2, 3)],
    )
    def test_proportional_everywhere(self, n, d, r):
        for p in enumerate_ordered_partitions(n, d, r):
            lhs = phi_star(gc_jellyfish(p, r))
            rhs = jellyfish_invariant(p, r)
            assert compare_up_to_sign(lhs, rhs) in (1, -1)

    def test_predicted_sign_is_a_sign(self):
        for p in enumerate_ordered_partitions(5, 2, 2):
            assert predicted_global_sign(p, 2) in (1, -1)

    def test_compare_detects_non_proportional(self):
        p = jellyfish_invariant(parse_partition("1 2|3 4"), 1)
        q = jellyfish_invariant(parse_partition("1 3|2 4"), 1)
        assert compare_up_to_sign(p, q) is None

    def test_compare_detects_negation(self):
        p = jellyfish_invariant(parse_partition("1 2|3 4"), 1)
        assert compare_up_to_sign(p * (-1), p) == -1

    def test_compare_zero_zero_is_plus_one(self):
        from flamingo.polynomials import MatrixPolynomial

        z = MatrixPolynomial.zero(3)
        assert compare_up_to_sign(z, z) == 1
        assert compare_up_to_sign(z, oracles.variable(1, 1, 3)) is None

    def test_gc_rejects_underfilled_top_wedge(self):
        with pytest.raises(ValueError):
            gc_jellyfish(parse_partition("1 2|3"), 2)

    @pytest.mark.parametrize("text, r", [("1 2|3", 2), ("1 2 3|4 5", 3), ("1 2|3 4", 0), ("1 2|3 4", -1)])
    def test_gc_rejects_what_the_context_rejects(self, text, r):
        # the same exception type and message as partitions.require_admissible
        p = parse_partition(text)
        with pytest.raises(ValueError) as expected:
            require_admissible(p, r)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            gc_jellyfish(p, r)


class TestCapTable:
    """``gc_jellyfish`` with one cap table shared by a sweep, as
    ``check_gc_equivalence`` keeps it."""

    def test_shared_table_gives_the_fresh_terms(self):
        # one table across all three depths, in the check's order
        caps = {}
        for r in (1, 2, 3):
            for partition in partitions_up_to(6, r):
                shared = gc_jellyfish(partition, r, caps)
                assert list(shared.terms.items()) == list(gc_jellyfish(partition, r).terms.items())
        # each piece is still the cap of the inputs it is keyed by
        for (n, tentacles, top), piece in caps.items():
            fresh = cap(Extensor.basis(index_set(tentacles)), Extensor.basis(index_set(top)), n)
            assert list(piece.terms.items()) == list(fresh.terms.items())

    def test_the_check_builds_each_piece_once(self, monkeypatch):
        tables, built = [], []
        original_sign, original_cap = verification.resolved_global_sign, grassmann.cap

        def spy_sign(partition, r, caps=None):
            tables.append(caps)
            return original_sign(partition, r, caps)

        def spy_cap(x, y, n):
            built.append(n)
            return original_cap(x, y, n)

        monkeypatch.setattr(verification, "resolved_global_sign", spy_sign)
        monkeypatch.setattr(grassmann, "cap", spy_cap)
        assert verification.check_gc_equivalence(n_max=6).ok
        # the last call is the running example's, with a fresh table
        *sweep, (running) = tables
        assert running is None
        assert len(sweep) == 5511 and all(table is sweep[0] for table in sweep)
        inputs = set()
        for r in verification.DEPTHS:
            for p in partitions_up_to(6, r):
                nu = p.n - (p.d - 1) * r
                tentacles, tail = tuple(range(r + 1, nu + 1)), tuple(range(nu + 1, p.n + 1))
                for block in p.blocks[:-1]:
                    inputs.add((p.n, tentacles, tail + tuple(x + p.n for x in block)))
        assert len(inputs) == 411
        assert len(sweep[0]) == len(inputs)
        # and the running example caps its first d - 1 blocks twice: for its
        # sign and for its term bijection
        assert len(built) == len(inputs) + 2 * (verification.RUNNING_PARTITION.d - 1)

    def test_a_corrupted_piece_fails_the_check_where_it_did_unshared(self, monkeypatch):
        # a cap that drops its first term whenever it caps onto tail row 6
        # and block {1, 3, 5} at n = 6; the detail is the one the check gave
        # when every partition built its own pieces
        target = Extensor.basis((6, 7, 9, 11))
        original = grassmann.cap

        def corrupted(x, y, n):
            out = original(x, y, n)
            if y == target:
                first = next(iter(out.terms))
                return Extensor({key: c for key, c in out.terms.items() if key != first})
            return out

        monkeypatch.setattr(grassmann, "cap", corrupted)
        result = verification.check_gc_equivalence(n_max=6)
        assert not result.ok
        assert result.detail == "no global sign for (1 3 5|2 4 6) at depth 1"


# -- differential tests against the algebra on index tuples -----------------


def outcome(make, decode):
    """("ok", decoded result as a list in emission order) or ("error", the
    ValueError's message)."""
    try:
        return "ok", list(decode(make()).items())
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def extensor_pairs(draw, n, homogeneous=True):
    """The same random sum of basis wedges over [2n], built by the package
    and by the tuple reference.  Each index word comes shuffled, so the
    basis sign is exercised, and now and then repeats an index.  Without
    ``homogeneous`` the terms draw their degrees independently."""
    degree = draw(st.integers(min_value=0, max_value=min(2 * n, n + 1)))
    new, old = Extensor(), oracles.Extensor()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        size = degree if homogeneous else draw(st.integers(min_value=0, max_value=2 * n))
        unique = draw(st.integers(min_value=0, max_value=4)) > 0
        indices = st.integers(min_value=1, max_value=2 * n)
        word = draw(st.lists(indices, min_size=size, max_size=size, unique=unique))
        c = draw(st.integers(min_value=-3, max_value=3))
        new = new + scaled(Extensor.basis(word), c)
        old = old + oracles.Extensor.basis(word).scale(c)
    return new, old


class TestAgainstTupleReference:
    """The mask algebra against ``oracles``, the same algebra on index
    tuples: equal terms in the same emission order, and equal errors."""

    @settings(max_examples=300)
    @given(st.data())
    def test_wedge_and_cap(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        x, x_old = data.draw(extensor_pairs(n))
        y, y_old = data.draw(extensor_pairs(n))
        # x and y are sums of scaled basis wedges, zero scales among them
        results = [x, y, x.wedge(y), x + scaled(x, -1)]
        assert list(decoded(x).items()) == list(x_old.terms.items())
        assert list(decoded(x.wedge(y)).items()) == list(x_old.wedge(y_old).terms.items())
        met = outcome(lambda: cap(x, y, n), decoded)
        assert met == outcome(lambda: oracles.cap(x_old, y_old, n), lambda e: e.terms)
        if met[0] == "ok":
            # caps carry factors into later wedges and caps
            z, z_old = cap(x, y, n), oracles.cap(x_old, y_old, n)
            assert list(decoded(z.wedge(x)).items()) == list(z_old.wedge(x_old).terms.items())
            assert outcome(lambda: cap(z, y, n), decoded) == outcome(
                lambda: oracles.cap(z_old, y_old, n), lambda e: e.terms
            )
            results += [z, z.wedge(x), z + scaled(z, -1)]
        # results adopt their dicts unfiltered, so none may keep a cancelled term
        assert all(0 not in e.terms.values() for e in results)

    @given(st.data())
    def test_cap_errors(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        x, x_old = data.draw(extensor_pairs(n, homogeneous=False))
        y, y_old = data.draw(extensor_pairs(n, homogeneous=False))
        assert outcome(lambda: cap(x, y, n), decoded) == outcome(
            lambda: oracles.cap(x_old, y_old, n), lambda e: e.terms
        )

    def test_cap_error_messages(self):
        inhomogeneous = Extensor.basis((1, 2, 3)) + Extensor.basis((1,))
        with pytest.raises(ValueError, match="cap needs homogeneous inputs"):
            cap(inhomogeneous, Extensor.basis((2, 3)), 3)
        with pytest.raises(ValueError, match="degree mismatch in cap"):
            cap(Extensor.basis((1,)), Extensor.basis((2,)), 3)  # moves 2 of 1 index
        with pytest.raises(ValueError, match="degree mismatch in cap"):
            cap(Extensor.basis((1,)), Extensor.basis((2, 3, 4)), 2)  # y above top degree

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_pair_up_to_six(self, r):
        for partition in partitions_up_to(6, r):
            expr = gc_jellyfish(partition, r)
            reference = oracles.gc_jellyfish(partition, r)
            assert len(expr) == len(reference.terms)
            assert list(expr.terms.values()) == list(reference.terms.values())
            assert [sorted(map(index_set, factors)) for factors in expr.terms] == [
                sorted(factors) for factors in reference.terms
            ]
            pulled, pulled_old = phi_star(expr), oracles.phi_star(reference)
            assert pulled == pulled_old and pulled.k == pulled_old.k

    def test_translation_sign_matches_laplace_expansion(self):
        for n in range(7):
            for size in range(n + 1):
                for rows in itertools.combinations(range(1, n + 1), size):
                    assert translation_sign(rows, n) == oracles.translation_sign(rows, n)

    def test_spanning_sets_up_to_seven(self):
        for n in range(1, 8):
            for r in (1, 2, 3):
                for d in range(1, n // r + 1):
                    shape = SpechtShape(n, d, r)
                    new, old = spanning_set(shape), oracles.spanning_set(shape)
                    assert [(p.terms, p.k) for p in new] == [(p.terms, p.k) for p in old]
