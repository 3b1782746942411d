"""Differential tests of the minor-product kernel behind the invariants,
phi_star, the tableau products and the worked examples, against the
tuple-keyed minor expansion and the pairwise product of ``oracles``."""

import itertools
import random

import pytest

from flamingo import verification
from flamingo.grassmann import PlueckerExpression, delta_to_minor, gc_jellyfish, index_set, phi_star
from flamingo.invariants import jellyfish_invariant
from flamingo.polynomials import ColumnCollision, MatrixPolynomial, _mask, _minor_terms
from flamingo.tableaux import iter_tableaux
from flamingo.verification import partitions_up_to

import oracles
from oracles import minor_by_tuples, minor_terms_by_tuples, pairwise_product, tableau_minor_product


def tableau_sum(partition, r):
    total = MatrixPolynomial.zero(partition.n)
    for tableau in iter_tableaux(partition, r):
        total = total + tableau_minor_product(tableau) * tableau.sign()
    return total


def factor_by_factor(expr):
    n = expr.n
    total = MatrixPolynomial.zero(n)
    for factors, c in expr.terms.items():
        term = MatrixPolynomial(n, {(0,) * n: c})
        for K in factors:
            sign, I, J = delta_to_minor(index_set(K), n)
            term = pairwise_product(term, minor_by_tuples(I, J, n) * sign)
        total = total + term
    return total


def assert_same(p, q):
    assert p == q
    assert p.k == q.k
    rebuilt = MatrixPolynomial.from_json_dict(p.to_json_dict())
    assert rebuilt == p and rebuilt.k == p.k


@pytest.mark.parametrize("r", [1, 2, 3])
def test_invariant_equals_tableau_sum(r):
    for partition in partitions_up_to(6, r):
        assert_same(jellyfish_invariant(partition, r), tableau_sum(partition, r))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_phi_star_equals_factor_by_factor_product(r):
    for partition in partitions_up_to(6, r):
        expr = gc_jellyfish(partition, r)
        assert_same(phi_star(expr), factor_by_factor(expr))


def mask(*indices):
    """The Pluecker factor on the given indices, bit i - 1 for index i."""
    return sum(1 << (i - 1) for i in indices)


@pytest.mark.parametrize(
    "n, terms",
    [
        (3, {(mask(1, 2, 4),): 1}),  # one column of three covered
        (3, {(mask(1, 2, 4), mask(1, 3, 5)): -2, (mask(2, 3, 6),): 5}),
        (1, {(mask(2),): 3}),
        (2, {(): 4, (mask(1, 2),): -1}),  # a constant and an empty minor
    ],
)
def test_phi_star_fills_uncovered_columns_with_zero(n, terms):
    expr = PlueckerExpression(n, terms)
    assert_same(phi_star(expr), factor_by_factor(expr))


def test_phi_star_rejects_factors_sharing_a_column():
    # (1, 3) and (2, 3) both pull back to minors on column 1
    expr = PlueckerExpression(2, {(mask(1, 3), mask(2, 3)): 1})
    with pytest.raises(ColumnCollision):
        phi_star(expr)
    with pytest.raises(ColumnCollision):
        factor_by_factor(expr)


def _index_sets(n):
    return [I for size in range(n + 1) for I in itertools.combinations(range(1, n + 1), size)]


@pytest.mark.parametrize("n", range(7))
def test_mask_keyed_minor_terms_equal_the_tuple_keyed_ones(n):
    # every (I, J), unequal sizes and the empty minor included, term for
    # term and in the same order
    checked = 0
    for I, J in itertools.product(_index_sets(n), repeat=2):
        assert _minor_terms(_mask(I), _mask(J), n) == minor_terms_by_tuples(I, J, n)
        checked += 1
    assert checked == 4**n


@pytest.mark.parametrize("n", [7, 8, 10, 12])
def test_minor_terms_equal_the_tuple_keyed_ones_on_seeded_pairs(n):
    # up to 7 x 7 minors of wider matrices; the three-row example has n = 12
    rng = random.Random(n)
    for _ in range(60):
        size = rng.randint(0, 7)
        I = tuple(sorted(rng.sample(range(1, n + 1), size)))
        J = tuple(sorted(rng.sample(range(1, n + 1), size)))
        assert _minor_terms(_mask(I), _mask(J), n) == minor_terms_by_tuples(I, J, n)


def test_minor_terms_built_from_a_cold_cache_in_any_order():
    # each table is built from cached sub-tables; asked for in a shuffled
    # order from an empty cache, a sub-table keyed with the wrong n or mask
    # would surface in a later table
    pairs = [(I, J, n) for n in range(6) for I, J in itertools.product(_index_sets(n), repeat=2)]
    random.Random(2024).shuffle(pairs)
    _minor_terms.cache_clear()
    for I, J, n in pairs:
        assert _minor_terms(_mask(I), _mask(J), n) == minor_terms_by_tuples(I, J, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_minor_product_equals_the_pairwise_product(r):
    for partition in partitions_up_to(6, r):
        for tableau in iter_tableaux(partition, r):
            assert_same(tableau.minor_product(), tableau_minor_product(tableau))


@pytest.mark.parametrize(
    "partition, terms",
    [
        (verification.RUNNING_PARTITION, verification.RUNNING_R2_TERMS),
        (verification.THREE_ROW_PARTITION, verification.THREE_ROW_TERMS),
    ],
    ids=["running-example", "three-row-example"],
)
def test_signed_minor_expansion_equals_the_pairwise_product(partition, terms):
    assert_same(
        verification.signed_minor_expansion(partition, terms), oracles.signed_minor_expansion(partition, terms)
    )
