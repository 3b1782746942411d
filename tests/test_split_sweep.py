"""The two-shard sweeps of ``flamingo.verification``: the column-equivariance,
recurrence, diagram and sign-properties checks give the serial outcome,
detail for detail, whether their items run as one shard in this process or
split with one forked child, and no child outlives a check."""

import os
import time
from collections import Counter

import pytest

import oracles
from flamingo import invariants, verification
from flamingo.diagrams import build_tensor_diagram
from flamingo.partitions import parse_partition, partitions_up_to
from flamingo.verification import (
    DEPTHS,
    _sign_panel,
    _split_sweep,
    check_diagrams,
    check_equivariance,
    check_recurrence,
    check_sign_properties,
)

SMALL_CHECKS = [
    pytest.param(lambda: check_equivariance(n_max=5), id="column-equivariance"),
    pytest.param(lambda: check_recurrence(n_max=6), id="recurrence-identities"),
    pytest.param(lambda: check_diagrams(n_max=6), id="tensor-diagram-validation"),
    pytest.param(lambda: check_sign_properties(seed=2024, exhaustive_n=5), id="sign-properties"),
]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _plant_in_validate(monkeypatch, position, outcome):
    """``validate`` gives ``outcome`` for the diagram sweep's item at
    ``position`` at n <= 6: a list of problems, or an exception to raise."""
    partition, r = [(p, r) for r in DEPTHS for p in partitions_up_to(6, r)][position]
    target = build_tensor_diagram(partition, r)
    original = verification.validate

    def planted(diagram):
        if diagram == target:
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome
        return original(diagram)

    monkeypatch.setattr(verification, "validate", planted)
    return partition, r


@pytest.mark.parametrize("check", SMALL_CHECKS)
def test_one_shard_and_two_shards_agree(monkeypatch, check):
    _cpus(monkeypatch, 1)
    serial = check()
    _cpus(monkeypatch, 2)
    split = check()
    assert split.ok and serial.ok
    assert (split.name, split.detail) == (serial.name, serial.detail)
    _no_child_left()


@pytest.mark.parametrize("position", [10, 11], ids=["this-process", "child"])
def test_a_planted_failure_gives_the_serial_detail(monkeypatch, position):
    # the even positions are this process's shard, the odd ones the child's
    partition, r = _plant_in_validate(monkeypatch, position, ["planted problem"])
    expected = f"{partition} at depth {r}: planted problem"
    _cpus(monkeypatch, 1)
    serial = check_diagrams(n_max=6)
    _cpus(monkeypatch, 2)
    split = check_diagrams(n_max=6)
    assert not serial.ok and not split.ok
    assert serial.detail == split.detail == expected
    _no_child_left()


@pytest.mark.parametrize("first, second", [(40, 41), (41, 42), (7, 3000)])
def test_the_failure_at_the_lesser_position_is_named(first, second):
    def check(i):
        return f"failed at {i}" if i in (first, second) else 1

    for count in (1, 2):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _cpus(monkeypatch, count)
            assert _split_sweep(range(4000), check)[1] == f"failed at {first}"
    _no_child_left()


def test_counts_add_up_across_shards(two_cpus):
    assert _split_sweep(range(1001), lambda i: i % 3) == (sum(i % 3 for i in range(1001)), None)
    assert _split_sweep([], lambda i: 1) == (0, None)
    assert _split_sweep([5], lambda i: i) == (5, None)
    _no_child_left()


def test_named_counts_add_up_across_shards(two_cpus):
    def check(i):
        return Counter(items=1, thirds=i % 3)

    assert _split_sweep(range(1001), check, Counter()) == (Counter(items=1001, thirds=1000), None)
    assert _split_sweep([], check, Counter()) == (Counter(), None)
    assert _split_sweep([5], check, Counter()) == (Counter(items=1, thirds=2), None)
    _no_child_left()


@pytest.mark.parametrize(
    "position",
    [10, 11, 652, 653],
    ids=["this-process", "child", "this-process-drawn", "child-drawn"],
)
def test_a_planted_arrangement_failure_gives_the_serial_detail(monkeypatch, position):
    # the failure is planted on one column order of the item at position;
    # at 652 and 653, partitions of [8], that order was drawn, so a shard
    # that drew other orders than the serial loop would miss it
    r, partition = [(r, p) for r in (1, 2, 3) for p in _sign_panel(r, 5)][position]
    original = verification.column_arrangement_sign
    orders_met = []

    def spy(t, orders):
        if (t.partition, t.r) == (partition, r):
            orders_met.append(orders)
        return original(t, orders)

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(verification, "column_arrangement_sign", spy)
    assert check_sign_properties(seed=2024, exhaustive_n=5).ok
    target = orders_met[len(orders_met) // 2]
    monkeypatch.setattr(
        verification,
        "column_arrangement_sign",
        lambda t, orders: -original(t, orders) if (t.partition, t.r, orders) == (partition, r, target) else original(t, orders),
    )
    expected = f"column arrangement sign varies for {partition}"
    serial = check_sign_properties(seed=2024, exhaustive_n=5)
    _cpus(monkeypatch, 2)
    split = check_sign_properties(seed=2024, exhaustive_n=5)
    assert not serial.ok and not split.ok
    assert serial.detail == split.detail == expected
    _no_child_left()


@pytest.mark.parametrize("seed", [2024, 7])
def test_the_arrangements_are_the_one_loop_draws(monkeypatch, one_cpu, seed):
    # the (partition, orders) passed to column_arrangement_sign, in order,
    # against the loop that drew them before the sweep split into items
    def spy(calls, sign):
        def recorded(t, orders):
            calls.append((t.partition, t.r, t.assignment, orders))
            return sign(t, orders)

        return recorded

    ours, theirs = [], []
    monkeypatch.setattr(verification, "column_arrangement_sign", spy(ours, verification.column_arrangement_sign))
    monkeypatch.setattr(oracles, "column_arrangement_sign", spy(theirs, oracles.column_arrangement_sign))
    result = check_sign_properties(seed=seed, exhaustive_n=5)
    assert (result.ok, result.detail) == oracles.sign_properties_by_one_loop(seed, 5)
    assert len(ours) == 8011
    assert ours == theirs


@pytest.mark.parametrize("position", [10, 11], ids=["this-process", "child"])
def test_an_exception_reaches_the_caller_with_its_type(monkeypatch, two_cpus, position):
    _plant_in_validate(monkeypatch, position, ZeroDivisionError("planted"))
    with pytest.raises(ZeroDivisionError, match="^planted$"):
        check_diagrams(n_max=6)
    _no_child_left()


def test_an_exception_here_stops_the_child(two_cpus):
    # this process's shard raises at once while the child's would sleep:
    # the call must kill the child rather than wait for it
    def check(i):
        if i == 0:
            raise ValueError("planted")
        time.sleep(30)
        return 1

    start = time.monotonic()
    with pytest.raises(ValueError, match="^planted$"):
        _split_sweep(range(2), check)
    assert time.monotonic() - start < 10
    _no_child_left()


def test_a_child_exception_that_cannot_be_sent_is_reported(monkeypatch, two_cpus):
    class Local(Exception):
        """Defined in a function, so pickle cannot send it."""

    _plant_in_validate(monkeypatch, 11, Local("planted"))
    with pytest.raises(ChildProcessError, match="second shard"):
        check_diagrams(n_max=6)
    _no_child_left()


def test_the_child_writes_nothing(two_cpus, capfd):
    assert check_diagrams(n_max=5).ok
    assert capfd.readouterr() == ("", "")
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "flipped, detail",
    [
        ("1 3|2 4 5", "long cycle sign is off"),
        ("1 3|2", "equivariance failed for w=(1, 3, 2), (1 2|3), r=1"),
    ],
)
def test_a_sign_law_fails_before_the_identities_at_its_n(monkeypatch, cpus, flipped, detail):
    # the long-cycle sign misread at n = 4 and one invariant negated: an
    # identity at n = 5 comes after the sign law at n = 4, one at n = 3
    # before it; both details are the ones the serial loop gave
    _cpus(monkeypatch, cpus)
    sign, cycle = verification.perm_sign, verification.long_cycle(4)
    monkeypatch.setattr(verification, "perm_sign", lambda w: -sign(w) if w == cycle else sign(w))
    target = parse_partition(flipped)
    original = invariants.jellyfish_invariant
    monkeypatch.setattr(
        invariants, "jellyfish_invariant", lambda q, r: -original(q, r) if (q, r) == (target, 1) else original(q, r)
    )
    result = check_equivariance(n_max=5)
    assert not result.ok
    assert result.detail == detail
    _no_child_left()


@pytest.mark.parametrize("check", SMALL_CHECKS)
def test_nothing_forks_with_one_cpu(monkeypatch, one_cpu, check):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert check().ok


def test_nothing_forks_without_an_affinity_set(monkeypatch):
    def no_fork():
        raise AssertionError("forked without an affinity set")

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert check_diagrams(n_max=5).ok
