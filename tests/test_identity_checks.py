"""The exact identity checks, each an in-place signed sum that must come out
empty, against the generic ring operations (``+``, ``*``, ``==``) and
against deliberately flipped signs."""

import itertools
import os

import pytest

from flamingo import invariants, relations, verification
from flamingo.invariants import ColumnAction, verify_block_reorder
from flamingo.partitions import (
    OrderedSetPartition,
    act_elements,
    enumerate_ordered_partitions,
    is_noncrossing,
    long_cycle,
    longest_permutation,
    parse_partition,
    permute_blocks,
    simple_transposition,
)
from flamingo.polynomials import MatrixPolynomial
from flamingo.relations import resolve_crossing_r1, verify_recurrence, verify_three_term
from flamingo.tableaux import JellyfishTableau
from flamingo.verification import _abc_instances

from oracles import crossing_resolutions, equivariance_per_call, sign_panel_by_lists, substitute_columns


def _partitions(n_max, depths):
    for n in range(1, n_max + 1):
        for r in depths:
            for d in range(1, n // r + 1):
                for partition in enumerate_ordered_partitions(n, d, r):
                    yield partition, r


# -- the generic formulas the signed sums replace -----------------------------
#
# Each reads ``jellyfish_invariant`` and ``perm_sign`` through the module the
# check under test reads them from, so a monkeypatch breaks both alike.


def generic_recurrence(prefix, A, B, C, r):
    left = invariants.jellyfish_invariant(OrderedSetPartition.from_blocks([*prefix, [*A, *B], C]), r)
    total = MatrixPolynomial.zero(left.n)
    for sign, partition in relations.recurrence_terms(prefix, A, B, C, r)[1]:
        total = total + invariants.jellyfish_invariant(partition, r) * sign
    return left == total


def generic_three_term(A, B, C, n):
    def inv(x, y):
        return invariants.jellyfish_invariant(OrderedSetPartition(n, (tuple(sorted(x)), tuple(sorted(y)))), 1)

    return (inv(A | B, C) + inv(A | C, B) + inv(B | C, A)).is_zero


def generic_resolutions_hold(partition):
    first, second = crossing_resolutions(partition)
    target = invariants.jellyfish_invariant(partition, 1)
    for resolution in (first, second):
        total = MatrixPolynomial.zero(partition.n)
        for sign, q in resolution:
            total = total + invariants.jellyfish_invariant(q, 1) * sign
        if total != target:
            return False
    return True


def generic_equivariance(w, partition, r):
    lhs = substitute_columns(invariants.jellyfish_invariant(partition, r), w)
    rhs = invariants.jellyfish_invariant(act_elements(w, partition), r) * invariants.perm_sign(w)
    return lhs == rhs


def generic_block_reorder(sigma, partition, r):
    lhs = invariants.jellyfish_invariant(partition, r)
    sign = invariants.perm_sign(sigma) ** r
    return lhs == invariants.jellyfish_invariant(permute_blocks(sigma, partition), r) * sign


def _resolution_check_passes(partition):
    try:
        resolve_crossing_r1(partition)
    except AssertionError:
        return False
    return True


@pytest.fixture(params=[False, True], ids=["exact", "broken"])
def broken(request, monkeypatch):
    """When broken, [pi]_r is negated whenever n lies in pi's last block, for
    the checks and the generic formulas alike; some instances then fail."""
    if request.param:
        original = invariants.jellyfish_invariant

        def flipped(partition, r):
            poly = original(partition, r)
            return -poly if partition.n in partition.blocks[-1] else poly

        monkeypatch.setattr(invariants, "jellyfish_invariant", flipped)
    return request.param


def _assert_agree(outcomes, broken):
    """Every (check, generic) pair agrees; all hold unless broken, and
    breaking makes some fail."""
    assert outcomes
    assert all(check == generic for check, generic in outcomes)
    assert all(check for check, _ in outcomes) is not broken


class TestAgreesWithGenericSum:
    def test_every_recurrence_instance(self, broken):
        outcomes = [
            (verify_recurrence(prefix, A, B, C, r), generic_recurrence(prefix, A, B, C, r))
            for n in range(3, 6)
            for r in (1, 2, 3)
            if r <= n - 2
            for prefix, A, B, C in _abc_instances(n, r, prefix_min=r)
        ]
        _assert_agree(outcomes, broken)

    def test_every_three_term_split(self, broken):
        outcomes = []
        for n in range(3, 6):
            ground = set(range(1, n + 1))
            for c in ground:
                rest = sorted(ground - {c})
                for size in range(1, len(rest)):
                    for A in map(set, itertools.combinations(rest, size)):
                        B = set(rest) - A
                        outcomes.append((verify_three_term(A, B, {c}), generic_three_term(A, B, {c}, n)))
        _assert_agree(outcomes, broken)

    def test_both_resolutions_of_every_crossing_partition(self, broken):
        outcomes = [
            (_resolution_check_passes(p), generic_resolutions_hold(p))
            for p, _ in _partitions(5, (1,))
            if not is_noncrossing(p)
        ]
        _assert_agree(outcomes, broken)

    def test_every_equivariance_instance(self, broken):
        outcomes = [
            (ColumnAction(w, p.n).holds_for(p, r), generic_equivariance(w, p, r))
            for p, r in _partitions(4, (1, 2, 3))
            for w in itertools.permutations(range(1, p.n + 1))
        ]
        _assert_agree(outcomes, broken)

    def test_shared_column_actions_agree_with_the_per_call_path(self, broken):
        # the check's sweep: every generator x partition x depth at n <= 6,
        # one action per generator and n, against a fresh substitution each
        outcomes = []
        for n in range(2, 7):
            generators = [simple_transposition(n, i) for i in range(1, n)]
            generators += [long_cycle(n), longest_permutation(n)]
            actions = [ColumnAction(w, n) for w in generators]
            for r in verification.DEPTHS:
                for d in range(1, n // r + 1):
                    for p in enumerate_ordered_partitions(n, d, r):
                        outcomes += [(a.holds_for(p, r), equivariance_per_call(a.w, p, r)) for a in actions]
            for action in actions:
                # every remembered image is the one a fresh substitution gives
                labels = {m: i for i, m in enumerate(action.images, start=1)}
                probe = MatrixPolynomial._trusted(n, labels, n)
                assert substitute_columns(probe, action.w).terms == {
                    action.images[m]: i for m, i in labels.items()
                }
        assert len(outcomes) == 37780
        _assert_agree(outcomes, broken)

    def test_every_block_reorder(self, broken):
        outcomes = [
            (verify_block_reorder(sigma, p, r), generic_block_reorder(sigma, p, r))
            for p, r in _partitions(5, (1, 2))
            for sigma in itertools.permutations(range(1, p.d + 1))
        ]
        _assert_agree(outcomes, broken)


class TestFlippedSignFails:
    def test_recurrence(self, monkeypatch):
        original = relations.recurrence_terms

        def flip_first(*args):
            left, ((sign, partition), *rest) = original(*args)
            return left, [(-sign, partition)] + rest

        args = ([], {1, 2}, {3, 4}, {5, 6}, 2)
        assert verify_recurrence(*args)
        monkeypatch.setattr(relations, "recurrence_terms", flip_first)
        assert not verify_recurrence(*args)

    def test_three_term(self, monkeypatch):
        original = invariants.jellyfish_invariant
        C = (5,)

        def flip_last_c(partition, r):
            poly = original(partition, r)
            return -poly if partition.blocks[-1] == C else poly

        assert verify_three_term({1, 2}, {3, 4}, set(C))
        monkeypatch.setattr(invariants, "jellyfish_invariant", flip_last_c)
        assert not verify_three_term({1, 2}, {3, 4}, set(C))

    def test_crossing_resolution_raises(self, monkeypatch):
        p = parse_partition("1 3|2 4")
        original = invariants.jellyfish_invariant
        monkeypatch.setattr(
            invariants, "jellyfish_invariant", lambda q, r: -original(q, r) if q == p else original(q, r)
        )
        with pytest.raises(AssertionError):
            resolve_crossing_r1(p)

    def test_equivariance(self, monkeypatch):
        p = parse_partition("1 3|2 4")
        w = (2, 1, 3, 4)
        assert invariants.jellyfish_invariant(p, 1) and invariants.perm_sign(w) == -1
        assert ColumnAction(w, p.n).holds_for(p, 1)
        original = invariants.perm_sign
        monkeypatch.setattr(invariants, "perm_sign", lambda v: -original(v))
        assert not ColumnAction(w, p.n).holds_for(p, 1)

    @pytest.mark.parametrize(
        "flipped, r, n_max, detail",
        [
            ("1 3|2 4", 1, 4, "equivariance failed for w=(1, 3, 2, 4), (1 2|3 4), r=1"),
            ("1 2 5|3 4 6", 2, 6, "equivariance failed for w=(1, 2, 3, 5, 4, 6), (1 2 4|3 5 6), r=2"),
        ],
    )
    def test_equivariance_check_with_one_flipped_invariant(self, monkeypatch, flipped, r, n_max, detail):
        # one invariant negated; the shared actions must fail the check at
        # the identity, and with the detail, that the per-call path gave
        target = (parse_partition(flipped), r)
        original = invariants.jellyfish_invariant
        monkeypatch.setattr(
            invariants, "jellyfish_invariant", lambda q, s: -original(q, s) if (q, s) == target else original(q, s)
        )
        result = verification.check_equivariance(n_max=n_max)
        assert not result.ok
        assert result.detail == detail

    def test_block_reorder(self, monkeypatch):
        p = parse_partition("1 2 5|3 4 6")
        assert verify_block_reorder((2, 1), p, 1)
        original = invariants.perm_sign
        monkeypatch.setattr(invariants, "perm_sign", lambda v: -original(v))
        assert not verify_block_reorder((2, 1), p, 1)

    def test_sign_properties_with_unpermuted_assignment(self, monkeypatch):
        # a permute_columns that moves the blocks but not their deep rows;
        # the check must still catch it with each tableau's sign taken once,
        # with the detail it gave when that sign was taken once per sigma,
        # whether its partitions run in one shard or in two
        def forget_assignment(self, sigma):
            return JellyfishTableau._trusted(permute_blocks(sigma, self.partition), self.r, self.assignment)

        monkeypatch.setattr(JellyfishTableau, "permute_columns", forget_assignment)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            result = verification.check_sign_properties(seed=2024, exhaustive_n=5)
            assert not result.ok
            assert result.detail == "column-swap sign fails for (1 2|3), sigma=(2, 1)"


@pytest.mark.parametrize("exhaustive_n", [0, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_streamed_sign_panel_equals_the_list_based_one(r, exhaustive_n):
    # each pool is counted and read up to its middle, never listed
    assert verification._sign_panel(r, exhaustive_n) == sign_panel_by_lists(r, exhaustive_n)
