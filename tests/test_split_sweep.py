"""The two-process sweeps of ``flamingo.verification``: the column-equivariance,
recurrence, diagram and sign-properties checks give the serial outcome,
detail for detail, whether their items run as one shard in this process or
split with one forked child; the Grassmann-Cayley check gives it whether its
pulled-back side runs here or in a forked child, and builds every invariant
here either way; and no child outlives a check."""

import os
import time
from collections import Counter

import pytest

import oracles
from flamingo import invariants, verification
from flamingo.diagrams import build_tensor_diagram
from flamingo.partitions import parse_partition, partitions_up_to
from flamingo.polynomials import ColumnCollision
from flamingo.tableaux import enumerate_tableaux
from flamingo.verification import (
    DEPTHS,
    _sign_panel,
    _split_sweep,
    check_diagrams,
    check_equivariance,
    check_gc_equivalence,
    check_recurrence,
    check_sign_properties,
)

SMALL_CHECKS = [
    pytest.param(lambda: check_equivariance(n_max=5), id="column-equivariance"),
    pytest.param(lambda: check_recurrence(n_max=6), id="recurrence-identities"),
    pytest.param(lambda: check_diagrams(n_max=6), id="tensor-diagram-validation"),
    pytest.param(lambda: check_sign_properties(seed=2024, exhaustive_n=5), id="sign-properties"),
    pytest.param(lambda: check_gc_equivalence(n_max=5), id="grassmann-cayley-equivalence-5"),
    pytest.param(lambda: check_gc_equivalence(n_max=6), id="grassmann-cayley-equivalence-6"),
]
SIGN_DETAIL = (
    "500 translation signs verified numerically; 23822 column swaps and "
    "8011 within-column arrangements keep their signs"
)


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


@pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
@pytest.mark.parametrize("position", [10, 11], ids=["this-process", "child"])
def test_a_planted_boundary_degree_gives_the_serial_detail(monkeypatch, request, cpus, position):
    # vertex n of the item at position gets one edge too many; the check
    # and the four-range walk it replaced both name that vertex
    request.getfixturevalue(cpus)
    partition, r = [(p, r) for r in DEPTHS for p in partitions_up_to(6, r)][position]
    target, v = build_tensor_diagram(partition, r), partition.n
    original = verification.boundary_degrees

    def planted(diagram):
        degrees = original(diagram)
        if diagram == target:
            degrees[v] += 1
        return degrees

    monkeypatch.setattr(verification, "boundary_degrees", planted)
    degree = original(target)[v]
    result = check_diagrams(n_max=6)
    assert not result.ok
    assert result.detail == f"boundary {v} degree {degree + 1} != {degree} for {partition}"
    assert oracles.boundary_profile_by_ranges(partition, r, planted(target)).startswith(f"boundary {v} ")
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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "failed, raised, reported",
    [(0, 1, "failure"), (1, 2, "failure"), (3, 2, "exception"), (2, 1, "exception")],
    ids=["fails-here-raises-in-child", "fails-in-child-raises-here", "raises-here-first", "raises-in-child-first"],
)
def test_a_failure_and_an_exception_give_the_serial_outcome(monkeypatch, cpus, failed, raised, reported):
    # with two CPUs the two fall in different shards; the one at the lesser
    # position is the outcome, as in one loop over the items
    _cpus(monkeypatch, cpus)

    def check(i):
        if i == raised:
            raise ZeroDivisionError(f"raised at {i}")
        return f"failed at {i}" if i == failed else 1

    if reported == "failure":
        assert _split_sweep(range(10), check)[1] == f"failed at {failed}"
    else:
        with pytest.raises(ZeroDivisionError, match=f"^raised at {raised}$"):
            _split_sweep(range(10), check)
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


@pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
@pytest.mark.parametrize("position, count", [(95, 3), (635, 4)], ids=["child", "this-process"])
@pytest.mark.parametrize("index, ok", [(0, False), (1, True)], ids=["last-checked", "first-past"])
def test_an_exhaustive_item_checks_its_first_quarter_of_tableaux(monkeypatch, request, cpus, position, count, index, ok):
    # the items at 95 and 635 have at most 64 column orders, all checked,
    # on the first max(1, count // 4) = 1 tableau: a wrong sign planted on
    # it fails the check, and one planted on the tableau after it is never met
    request.getfixturevalue(cpus)
    r, partition = [(r, p) for r in DEPTHS for p in _sign_panel(r, 5)][position]
    tableaux = enumerate_tableaux(partition, r)
    assert len(tableaux) == count
    planted = (partition, r, tableaux[index].assignment)
    original = verification.column_arrangement_sign
    monkeypatch.setattr(
        verification,
        "column_arrangement_sign",
        lambda t, orders: -original(t, orders) if (t.partition, t.r, t.assignment) == planted else original(t, orders),
    )
    result = check_sign_properties(seed=2024, exhaustive_n=5)
    assert (result.ok, result.detail) == (ok, SIGN_DETAIL if ok else f"column arrangement sign varies for {partition}")
    _no_child_left()


@pytest.mark.parametrize("seed", [2024, 7])
def test_the_arrangements_are_the_one_loop_draws(monkeypatch, one_cpu, seed):
    # the (partition, orders) passed to column_arrangement_sign, in order,
    # against one loop over the panel that makes no items
    ours, theirs = [], []
    monkeypatch.setattr(verification, "column_arrangement_sign", _spy(ours, verification.column_arrangement_sign))
    monkeypatch.setattr(oracles, "column_arrangement_sign", _spy(theirs, oracles.column_arrangement_sign))
    result = check_sign_properties(seed=seed, exhaustive_n=5)
    assert (result.ok, result.detail) == oracles.sign_properties_by_one_loop(seed, 5)
    assert len(ours) == 8011
    assert ours == theirs


def _spy(calls, sign):
    """``sign`` that first records its tableau and column orders in calls."""

    def recorded(t, orders):
        calls.append((t.partition, t.r, t.assignment, orders))
        return sign(t, orders)

    return recorded


def test_this_shard_makes_the_one_loop_draws_of_its_own_items(monkeypatch, two_cpus):
    # this process checks the even positions, and draws for them alone
    # what one loop over every item draws
    position = {item: i for i, item in enumerate((r, p) for r in DEPTHS for p in _sign_panel(r, 5))}
    ours, theirs = [], []
    monkeypatch.setattr(verification, "column_arrangement_sign", _spy(ours, verification.column_arrangement_sign))
    monkeypatch.setattr(oracles, "column_arrangement_sign", _spy(theirs, oracles.column_arrangement_sign))
    assert check_sign_properties(seed=2024, exhaustive_n=5).detail == SIGN_DETAIL
    oracles.sign_properties_by_one_loop(2024, 5)
    assert ours == [call for call in theirs if position[call[1], call[0]] % 2 == 0]
    assert 0 < len(ours) < 8011
    _no_child_left()


def test_a_drawn_item_draws_the_same_alone_and_in_the_sweep(monkeypatch, one_cpu):
    # the item at 653, a partition of [8] with more than 64 column orders,
    # gets the same orders checked alone as in the whole check, and other
    # ones at another seed
    item = [(r, p) for r in DEPTHS for p in _sign_panel(r, 5)][653]
    original = verification.column_arrangement_sign
    calls = {}
    for seed in (2024, 7):
        alone, swept = [], []
        monkeypatch.setattr(verification, "column_arrangement_sign", _spy(alone, original))
        verification._sign_holds(seed, item)
        monkeypatch.setattr(verification, "column_arrangement_sign", _spy(swept, original))
        assert check_sign_properties(seed=seed, exhaustive_n=5).detail == SIGN_DETAIL
        assert len(alone) == 64 * max(1, len(enumerate_tableaux(item[1], item[0])) // 4)
        assert alone == [call for call in swept if call[:2] == (item[1], item[0])]
        calls[seed] = alone
    assert calls[2024] != calls[7]


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


@pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
def test_the_reversal_sign_law_is_checked_at_its_n(monkeypatch, request, cpus):
    # the reversal's sign misread at n = 3: the sign laws are the first item
    # of each n, so the check fails there, with the serial detail
    request.getfixturevalue(cpus)
    sign, reversal = verification.perm_sign, verification.longest_permutation(3)
    monkeypatch.setattr(verification, "perm_sign", lambda w: -sign(w) if w == reversal else sign(w))
    result = check_equivariance(n_max=5)
    assert not result.ok
    assert result.detail == "reversal sign is off"
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


# -- the Grassmann-Cayley layer sweep ---------------------------------------

GC_ITEMS = [(p, r) for r in DEPTHS for p in partitions_up_to(6, r)]  # the sweep's items at n <= 6
PULLED, BUILT = "pulled_back_gc", "jellyfish_invariant"  # the child's side and this process's


def _plant_in_gc(monkeypatch, side, position, outcome=None):
    """``verification.<side>`` gives twice its value for the Grassmann-Cayley
    sweep's item at ``position`` at n <= 6, so the two sides differ beyond
    sign there, or raises ``outcome``; the detail the check gives for a
    mismatch there."""
    partition, r = GC_ITEMS[position]
    original = getattr(verification, side)

    def planted(q, depth, *rest):
        if (q, depth) != (partition, r):
            return original(q, depth, *rest)
        if outcome is not None:
            raise outcome
        value = original(q, depth, *rest)
        assert not value.is_zero
        return value * 2

    monkeypatch.setattr(verification, side, planted)
    return f"no global sign for {partition} at depth {r}"


@pytest.mark.parametrize("side", [PULLED, BUILT], ids=["child", "this-process"])
@pytest.mark.parametrize("position", [0, 127, 128, 3000, 5510])
def test_a_planted_gc_mismatch_gives_the_serial_detail(monkeypatch, side, position):
    # 127 and 128 end and start a chunk of the child's results
    expected = _plant_in_gc(monkeypatch, side, position)
    _cpus(monkeypatch, 1)
    serial = check_gc_equivalence(n_max=6)
    _cpus(monkeypatch, 2)
    split = check_gc_equivalence(n_max=6)
    assert not serial.ok and not split.ok
    assert serial.detail == split.detail == expected
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("pulled, built", [(40, 300), (300, 40), (40, 41), (41, 40)])
def test_the_lesser_of_a_mismatch_on_each_side_is_named(monkeypatch, cpus, pulled, built):
    expected = {pulled: _plant_in_gc(monkeypatch, PULLED, pulled), built: _plant_in_gc(monkeypatch, BUILT, built)}
    _cpus(monkeypatch, cpus)
    result = check_gc_equivalence(n_max=6)
    assert not result.ok
    assert result.detail == expected[min(pulled, built)]
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("position", [40, 200])
def test_a_column_collision_in_the_child_is_raised_here(monkeypatch, cpus, position):
    _plant_in_gc(monkeypatch, PULLED, position, ColumnCollision("planted"))
    _cpus(monkeypatch, cpus)
    with pytest.raises(ColumnCollision, match="^planted$"):
        check_gc_equivalence(n_max=6)
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("built", [41, 300])
def test_an_invariant_exception_after_a_mismatch_gives_the_mismatch(monkeypatch, cpus, built):
    expected = _plant_in_gc(monkeypatch, PULLED, 40)
    _plant_in_gc(monkeypatch, BUILT, built, ZeroDivisionError("planted"))
    _cpus(monkeypatch, cpus)
    result = check_gc_equivalence(n_max=6)
    assert (result.ok, result.detail) == (False, expected)
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "pulled, built, raised",
    [(40, 40, ColumnCollision), (40, 41, ColumnCollision), (41, 40, ZeroDivisionError), (300, 40, ZeroDivisionError)],
)
def test_the_exception_at_the_lesser_position_is_raised(monkeypatch, cpus, pulled, built, raised):
    # at one position the pulled-back side runs first, as in
    # resolved_global_sign, so its exception is the one raised
    _plant_in_gc(monkeypatch, PULLED, pulled, ColumnCollision("planted"))
    _plant_in_gc(monkeypatch, BUILT, built, ZeroDivisionError("planted"))
    _cpus(monkeypatch, cpus)
    with pytest.raises(raised, match="^planted$"):
        check_gc_equivalence(n_max=6)
    _no_child_left()


def test_the_gc_check_forks_once_with_two_cpus(monkeypatch, two_cpus):
    forks, original = [], os.fork

    def spy():
        forks.append(os.getpid())
        return original()

    monkeypatch.setattr(os, "fork", spy)
    assert check_gc_equivalence(n_max=5).ok
    assert forks == [os.getpid()]
    _no_child_left()


def test_every_sweep_invariant_is_cached_here_after_a_split_run(two_cpus):
    invariants._invariant_cached.cache_clear()
    assert check_gc_equivalence(n_max=6).ok
    before = invariants._invariant_cached.cache_info()
    for partition, r in GC_ITEMS:
        invariants.jellyfish_invariant(partition, r)
    after = invariants._invariant_cached.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(GC_ITEMS), 0) == (5511, 0)
    _no_child_left()
