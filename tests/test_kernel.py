"""Differential tests of the minor-product kernel behind the invariants and
phi_star, against the generic tableau and polynomial arithmetic."""

import pytest

from flamingo.grassmann import PlueckerExpression, delta_to_minor, gc_jellyfish, index_set, phi_star
from flamingo.invariants import jellyfish_invariant
from flamingo.polynomials import ColumnCollision, MatrixPolynomial, minor
from flamingo.tableaux import iter_tableaux
from flamingo.verification import partitions_up_to


def tableau_sum(partition, r):
    total = MatrixPolynomial.zero(partition.n)
    for tableau in iter_tableaux(partition, r):
        total = total + tableau.minor_product() * tableau.sign()
    return total


def factor_by_factor(expr):
    n = expr.n
    total = MatrixPolynomial.zero(n)
    for factors, c in expr.terms.items():
        term = MatrixPolynomial.one(n) * c
        for K in factors:
            sign, I, J = delta_to_minor(index_set(K), n)
            term = term * (minor(I, J, n) * sign)
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
