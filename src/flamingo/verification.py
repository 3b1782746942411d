"""Batch verification drivers behind ``flamingo verify-all`` and the
acceptance suite.

Each check returns a CheckResult carrying a stable name, a boolean, and a
human-readable detail string with instance counts, so failures are
diagnosable from the summary line alone.  Sweeps cover the full
advertised ranges; ``n_max`` trims them for faster smoke runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import random
import signal
import time
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

from .diagrams import boundary_degrees, build_tensor_diagram, validate
from .grassmann import (
    PlueckerExpression,
    compare_up_to_sign,
    delta_index_set,
    delta_to_minor,
    gc_jellyfish,
    phi,
    phi_star,
    pulled_back_gc,
    resolved_global_sign,
)
from .invariants import ColumnAction, jellyfish_invariant
from .partitions import (
    OrderedSetPartition,
    block_tuples,
    enumerate_noncrossing,
    enumerate_ordered_partitions,
    long_cycle,
    longest_permutation,
    partitions_up_to,
    perm_sign,
    require_admissible,
    rotation_orbit,
    simple_transposition,
)
from .polynomials import MatrixPolynomial, _mask, add_into, extend_minor_product, integer_determinant
from .relations import (
    conjecture_family,
    conjecture_report,
    verify_recurrence,
    verify_three_term,
)
from .specht import (
    SpechtShape,
    exact_rank,
    hook_basis,
    membership_test,
    spanning_rank,
)
from .tableaux import column_arrangement_sign, enumerate_tableaux, tableau_count

RUNNING_PARTITION = OrderedSetPartition.from_blocks([(2, 3, 6, 10), (5, 7, 8, 9), (1, 4)])
THREE_ROW_PARTITION = OrderedSetPartition.from_blocks(
    [(2, 3, 6, 7, 12), (1, 8, 10), (4, 5, 9, 11)]
)
ORBIT_PARTITION = OrderedSetPartition.from_blocks([(1, 2, 3, 5), (4, 6)])
DEPTHS = (1, 2, 3)

# Signed minor-product expansions copied from the worked examples: each term
# is (sign, row sets per column).
RUNNING_R2_TERMS = (
    (+1, ((1, 2, 3, 4), (1, 2, 5, 6), (1, 2))),
    (-1, ((1, 2, 3, 5), (1, 2, 4, 6), (1, 2))),
    (+1, ((1, 2, 3, 6), (1, 2, 4, 5), (1, 2))),
    (+1, ((1, 2, 4, 5), (1, 2, 3, 6), (1, 2))),
    (-1, ((1, 2, 4, 6), (1, 2, 3, 5), (1, 2))),
    (+1, ((1, 2, 5, 6), (1, 2, 3, 4), (1, 2))),
)
RUNNING_R2_INVERSIONS = (8, 7, 6, 8, 7, 8)
THREE_ROW_TERMS = (
    (-1, ((1, 2, 3, 4, 5), (1, 2, 3), (1, 2, 3, 6))),
    (+1, ((1, 2, 3, 4, 6), (1, 2, 3), (1, 2, 3, 5))),
    (-1, ((1, 2, 3, 5, 6), (1, 2, 3), (1, 2, 3, 4))),
)
THREE_ROW_INVERSIONS = (9, 8, 9)
RUNNING_R1_SAMPLES = (
    (((1, 2, 6, 7), (1, 3, 4, 5), (1, 8)), 12),
    (((1, 3, 6, 7), (1, 2, 4, 5), (1, 8)), 13),
    (((1, 5, 7, 8), (1, 2, 3, 6), (1, 4)), 12),
    (((1, 4, 6, 7), (1, 3, 5, 8), (1, 2)), 9),
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _check(name: str) -> Callable[[Callable[..., tuple[bool, str]]], Callable[..., CheckResult]]:
    """Turn a check body returning (ok, detail) into a check returning the
    timed CheckResult under ``name``."""

    def decorate(body: Callable[..., tuple[bool, str]]) -> Callable[..., CheckResult]:
        @functools.wraps(body)
        def timed(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            ok, detail = body(*args, **kwargs)
            return CheckResult(name, ok, detail, time.perf_counter() - start)

        return timed

    return decorate


def signed_minor_expansion(
    partition: OrderedSetPartition, terms: Sequence[tuple[int, tuple[tuple[int, ...], ...]]]
) -> MatrixPolynomial:
    """Assemble a signed sum of minor products from explicit row sets, each
    product folded through the minor-product kernel."""
    n = partition.n
    acc: dict = {}
    for sign, row_sets in terms:
        partial = [(0, sign)]
        for rows, block in zip(row_sets, partition.blocks):
            partial = extend_minor_product(partial, _mask(rows), _mask(block), n)
        add_into(acc, dict(partial))
    k = max((max(rows, default=0) for _, row_sets in terms for rows in row_sets), default=0)
    return MatrixPolynomial._trusted(n, acc, k)


Item = TypeVar("Item")
Count = TypeVar("Count", int, Counter)
Result = TypeVar("Result")


def _shard(
    items: Iterable[Item], check: Callable[[Item], Count | str], start: int, step: int, zero: Count
) -> tuple[Count, tuple[int, str | Exception] | None]:
    """Check the items at positions start, start + step, ...: their instance
    counts summed from ``zero`` (which stays as it was), and the position of
    the first that fails or raises, with its detail or exception.  An
    exception at position 0 is raised at once: nothing comes before it."""
    count, position = zero, start
    try:
        for item in itertools.islice(items, start, None, step):
            outcome = check(item)
            if isinstance(outcome, str):
                return count, (position, outcome)
            count = count + outcome
            position += step
    except Exception as exc:
        if position == 0:
            raise
        return count, (position, exc)
    return count, None


def _fork_child(send: Callable[[BinaryIO], object], receive: Callable[[BinaryIO], Result]) -> Result:
    """``receive`` run here on a pipe that one forked child writes by ``send``;
    an exception that escapes ``send`` ends what the child writes.  The
    child leaves by ``os._exit``, and is then killed if still running and
    reaped.  No thread runs, so forking is safe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: send, then out
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                send(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            return receive(pipe)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _one_cpu() -> bool:
    """True when this process may run on one CPU only, or cannot tell."""
    return len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) < 2


def _split_sweep(
    items: Iterable[Item], check: Callable[[Item], Count | str], zero: Count = 0
) -> tuple[Count, str | None]:
    """Check every item of a sweep whose items are independent: the summed
    instance counts, and the detail of the first failure in item order or
    None; an exception that comes first in item order is raised instead.
    ``check`` returns an item's instance count, or a Counter of its named
    counts summed from ``zero=Counter()``, or its failure's detail.

    With two or more CPUs in this process's affinity set, the items split
    into two interleaved shards: this process checks the even positions and
    one forked child the odd ones, each up to its own first failure or
    exception.  The one at the lesser position is the one reported, so the
    outcome is the serial loop's.  With one CPU the one shard runs here and
    nothing forks.  The child returns only its result through a pipe, so
    what it adds to a cache is lost: a sweep splits by position only where
    no later check needs its cache entries.  Where one does, it splits by
    layer, as ``_gc_layers`` does, and the layer that fills the cache runs
    here.
    """
    if _one_cpu():
        shards = [_shard(items, check, 0, 1, zero)]
    else:
        shards = _fork_child(
            lambda pipe: pipe.write(pickle.dumps(_shard(items, check, 1, 2, zero))),
            lambda pipe: [_shard(items, check, 0, 2, zero), _received(pipe)],
        )
    events = [event for _, event in shards if event]
    first = min(events)[1] if events else None  # the shards' positions differ
    if isinstance(first, Exception):
        raise first
    return sum((count for count, _ in shards), zero), first


def _received(pipe: BinaryIO) -> object:
    """The next object a forked child pickled into the pipe."""
    try:
        return pickle.load(pipe)
    except EOFError:
        raise ChildProcessError("the sweep's second shard or layer ended without a result") from None


LAYER_CHUNK = 128  # items per message from the child of the layer sweep


def _gc_layers(n_max: int) -> tuple[int, str | None]:
    """Compare the pulled-back cap-and-wedge side with the invariant of
    every (partition, r), r outermost, as the serial loop does: the count
    that match up to sign and the first failure's detail or None, or the
    first exception.  With two or more CPUs one forked child pulls back
    every item and sends its results, or its exception, in chunks of
    LAYER_CHUNK, while this process builds the invariants in item order, so
    what it caches is the serial loop's.  With one CPU nothing forks."""
    caps: dict = {}  # one cap table for the pulled-back side: each piece is built once
    items = ((partition, r) for r in DEPTHS for partition in partitions_up_to(n_max, r))
    chunks = iter(lambda: list(itertools.islice(items, LAYER_CHUNK)), [])

    def compare(pulled_back: Callable[[list], Iterable]) -> tuple[int, str | None]:
        count = 0
        for chunk in chunks:
            for (partition, r), pulled in zip(chunk, pulled_back(chunk)):
                if isinstance(pulled, BaseException):
                    raise pulled
                if compare_up_to_sign(pulled, jellyfish_invariant(partition, r)) is None:
                    return count, f"no global sign for {partition} at depth {r}"
                count += 1
        return count, None

    if _one_cpu():
        return compare(lambda chunk: (pulled_back_gc(*item, caps) for item in chunk))

    def send(pipe: BinaryIO) -> None:
        for chunk in chunks:
            done: list = []
            try:
                done.extend(pulled_back_gc(*item, caps) for item in chunk)
            except BaseException as exc:
                done.append(exc)
            pipe.write(pickle.dumps(done))
            pipe.flush()

    return _fork_child(send, lambda pipe: compare(lambda chunk: _received(pipe)))


# -- the thirteen checks ----------------------------------------------------


@_check("running-example-depth-2")
def check_running_example() -> tuple[bool, str]:
    inversions = [t.inversion_number() for t in enumerate_tableaux(RUNNING_PARTITION, 2)]
    if tuple(inversions) != RUNNING_R2_INVERSIONS:
        return False, f"inversions {inversions}"
    expected = signed_minor_expansion(RUNNING_PARTITION, RUNNING_R2_TERMS)
    if jellyfish_invariant(RUNNING_PARTITION, 2) != expected:
        return False, "depth-2 invariant differs from the six-term expansion"
    if not jellyfish_invariant(RUNNING_PARTITION, 3).is_zero:
        return False, "depth-3 invariant should vanish"
    return True, "6 tableaux, inversions 8,7,6,8,7,8, exact six-term match, depth 3 vanishes"


@_check("three-row-example-depth-3")
def check_three_row_example() -> tuple[bool, str]:
    inversions = [t.inversion_number() for t in enumerate_tableaux(THREE_ROW_PARTITION, 3)]
    if tuple(inversions) != THREE_ROW_INVERSIONS:
        return False, f"inversions {inversions}"
    expected = signed_minor_expansion(THREE_ROW_PARTITION, THREE_ROW_TERMS)
    if jellyfish_invariant(THREE_ROW_PARTITION, 3) != expected:
        return False, "depth-3 invariant differs from the three-term expansion"
    return True, "3 tableaux with signs -,+,- and exact expansion match"


@_check("depth-one-enumeration")
def check_depth_one_enumeration() -> tuple[bool, str]:
    if tableau_count(RUNNING_PARTITION, 1) != 140:
        return False, "count formula disagrees with 140"
    tableaux = enumerate_tableaux(RUNNING_PARTITION, 1)
    if len(tableaux) != 140:
        return False, f"enumerated {len(tableaux)} tableaux"
    by_rows = {
        tuple(t.column_rows(i) for i in range(1, 4)): t.inversion_number()
        for t in tableaux
    }
    for rows, inv in RUNNING_R1_SAMPLES:
        if by_rows.get(rows) != inv:
            return False, f"tableau with rows {rows} has inversions {by_rows.get(rows)}, expected {inv}"
    return True, "140 tableaux; the four sampled fillings carry inversions 12,13,12,9"


def _running_example_term_bijection() -> str | None:
    """Pull the terms of the cap-and-wedge expansion of the ten-element
    example back one at a time, in emission order, and require each to
    equal the signed minor product of its tableau, the tableaux taken in
    reverse order.  None when everything agrees."""
    tableaux = enumerate_tableaux(RUNNING_PARTITION, 2)
    gc = gc_jellyfish(RUNNING_PARTITION, 2)
    if len(gc.terms) != len(tableaux):
        return f"{len(gc.terms)} gc terms for {len(tableaux)} tableaux"
    for k, ((factors, coeff), t) in enumerate(zip(gc.terms.items(), reversed(tableaux)), start=1):
        if phi_star(PlueckerExpression(gc.n, {factors: coeff})) != t.minor_product() * t.sign():
            return f"gc term {k} differs from the signed minor product of tableau {len(tableaux) + 1 - k}"
    return None


@_check("grassmann-cayley-equivalence")
def check_gc_equivalence(n_max: int = 7) -> tuple[bool, str]:
    checked, failure = _gc_layers(n_max)
    if failure:
        return False, failure
    sign = resolved_global_sign(RUNNING_PARTITION, 2)
    if sign != 1:
        return False, f"running example resolved sign {sign}, expected +1"
    mismatch = _running_example_term_bijection()
    if mismatch:
        return False, mismatch
    return True, (
        f"{checked} partitions match up to one global sign each; running example "
        "sign +1 with terms in reverse tableau order"
    )


def _abc_instances(n: int, r: int, prefix_min: int) -> Iterator[tuple[list, set, set, set]]:
    """All (prefix, A, B, C): C an r-subset, A, B nonempty, prefix an ordered
    partition of the rest into blocks of size >= prefix_min.  The elements
    go to block_tuples reversed, so the largest varies slowest."""
    for C in itertools.combinations(range(1, n + 1), r):
        rest = [x for x in range(1, n + 1) if x not in C]
        for A, B, R in block_tuples(rest[::-1], 3, 0):
            if A and B:
                for d in range(len(R) // prefix_min + 1):
                    for prefix in block_tuples(R[::-1], d, prefix_min):
                        yield list(prefix), set(A), set(B), set(C)


def _recurrence_items(n_max: int) -> Iterator[tuple]:
    for n in range(3, n_max + 1):
        for r in DEPTHS:
            if r <= n - 2:
                for prefix, A, B, C in _abc_instances(n, r, prefix_min=r):
                    yield n, r, prefix, A, B, C


def _recurrence_holds(item: tuple) -> int | str:
    n, r, prefix, A, B, C = item
    if not verify_recurrence(prefix, A, B, C, r):
        return f"failed at n={n}, r={r}, prefix={prefix}, A={A}, B={B}, C={C}"
    return 1


@_check("recurrence-identities")
def check_recurrence(n_max: int = 7) -> tuple[bool, str]:
    checked, failure = _split_sweep(_recurrence_items(n_max), _recurrence_holds)
    if failure:
        return False, failure
    three = 0
    for n in range(3, min(n_max, 6) + 1):
        ground = list(range(1, n + 1))
        for c in ground:
            rest = [x for x in ground if x != c]
            for B, A in block_tuples(rest[::-1], 2, 1):
                A, B = set(A), set(B)
                if not verify_three_term(A, B, {c}):
                    return False, f"three-term failed at A={A}, B={B}, C={{{c}}}"
                three += 1
    return True, f"{checked} recurrence instances and {three} three-term splits hold exactly"


@_check("specht-membership")
def check_specht_membership(n_max: int = 7) -> tuple[bool, str]:
    shapes = 0
    members = 0
    for n in range(1, n_max + 1):
        for r in DEPTHS:
            for d in range(1, n // r + 1):
                shape = SpechtShape(n, d, r)
                if spanning_rank(shape) != shape.dimension():
                    return False, f"spanning rank mismatch for shape {shape.lam}"
                shapes += 1
                for partition in enumerate_ordered_partitions(n, d, r):
                    if not membership_test(jellyfish_invariant(partition, r), shape):
                        return False, f"{partition} falls outside its module at depth {r}"
                    members += 1
    return True, f"{shapes} spanning ranks match dimensions; {members} invariants are members"


def _equivariance_items(n_max: int) -> Iterator[tuple]:
    """For n = 2..n_max: (n,), whose item checks the signs of the long
    cycle and the reversal, then (partition, r, actions) for every
    partition of [n] at each depth, with one action per generator of the n
    shared by them all."""
    for n in range(2, n_max + 1):
        yield (n,)
        generators = [simple_transposition(n, i) for i in range(1, n)]
        generators += [long_cycle(n), longest_permutation(n)]
        actions = [ColumnAction(w, n) for w in generators]
        for r in DEPTHS:
            for d in range(1, n // r + 1):
                for partition in enumerate_ordered_partitions(n, d, r):
                    yield partition, r, actions


def _equivariance_holds(item: tuple) -> int | str:
    if len(item) == 1:
        (n,) = item
        if perm_sign(long_cycle(n)) != (-1) ** (n - 1):
            return "long cycle sign is off"
        if perm_sign(longest_permutation(n)) != (-1) ** (n * (n - 1) // 2):
            return "reversal sign is off"
        return 0
    partition, r, actions = item
    for action in actions:
        if not action.holds_for(partition, r):
            return f"equivariance failed for w={action.w}, {partition}, r={r}"
    return len(actions)


@_check("column-equivariance")
def check_equivariance(n_max: int = 6) -> tuple[bool, str]:
    checked, failure = _split_sweep(_equivariance_items(n_max), _equivariance_holds)
    if failure:
        return False, failure
    return True, f"{checked} (w, partition, depth) identities hold with exact signs"


@_check("noncrossing-independence")
def check_independence(n_max: int = 8) -> tuple[bool, str]:
    families = 0
    for n in range(2, n_max + 1):
        for r in range(2, n + 1):
            for d in range(1, n // r + 1):
                family = enumerate_noncrossing(n, d, r)
                if not family:
                    continue
                invariants = [jellyfish_invariant(p, r) for p in family]
                rank = exact_rank(invariants)
                if rank != len(family):
                    return False, f"rank {rank} < {len(family)} at (n,d,r)=({n},{d},{r})"
                leads = {inv.leading_term()[0] for inv in invariants}
                if len(leads) != len(family):
                    return False, f"leading monomials collide at (n,d,r)=({n},{d},{r})"
                families += 1
    return True, f"{families} noncrossing families independent by rank and by leading monomials"


@_check("hook-basis")
def check_hook_basis(n_max: int = 8) -> tuple[bool, str]:
    cases = 0
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            if not hook_basis(n, d).basis:
                return False, f"hook basis fails at (n,d)=({n},{d})"
            cases += 1
    return True, f"{cases} (n,d) hook families are bases of their modules"


@_check("rotation-orbit-rank")
def check_orbit_rank() -> tuple[bool, str]:
    orbit = rotation_orbit(ORBIT_PARTITION)
    if len(orbit) != 6:
        return False, f"orbit size {len(orbit)}"
    rank = exact_rank([jellyfish_invariant(p, 2) for p in orbit])
    if rank != 5:
        return False, f"rank {rank}"
    return True, "rotation orbit of size 6 spans a 5-dimensional space"


@_check("independence-conjecture")
def check_conjecture(n_max: int = 8) -> tuple[bool, str]:
    agree = 0
    for n in range(3, n_max + 1):
        for d in range(1, n // 3 + 1):
            family = conjecture_family(n, d, 3)
            reference = enumerate_noncrossing(n, d, 3)
            if [p.blocks for p in family] != [p.blocks for p in reference]:
                return False, f"depth-3 family differs from noncrossing at (n,d)=({n},{d})"
            rank = exact_rank([jellyfish_invariant(p, 3) for p in family])
            if rank != len(family):
                return False, f"depth-3 dependence at (n,d)=({n},{d}): {len(family)} vs rank {rank}"
            agree += 1
    depth_four = "not run at this --n-max"
    n, d = 8, 2
    if n <= n_max:
        size, rank = conjecture_report(n, d, 4)
        depth_four = f"(n={n},d={d}): size={size} rank={rank}"
        if size != rank:
            return False, depth_four
    return True, f"{agree} depth-3 families equal noncrossing and are independent; depth 4: {depth_four}"


def _diagram_holds(item: tuple[OrderedSetPartition, int]) -> int | str:
    """1 when the item's diagram validates and the degrees of its boundary
    vertices 1..2n, read in order, are the expected list; else the first
    problem, or the first vertex whose degree differs."""
    partition, r = item
    diagram = build_tensor_diagram(partition, r)
    problems = validate(diagram)
    if problems:
        return f"{partition} at depth {r}: {problems[0]}"
    degrees = boundary_degrees(diagram)
    n, d, nu = partition.n, partition.d, require_admissible(partition, r)
    expected = [0] * r + [d - 1] * (nu - r) + [d] * (n - nu) + [1] * n
    got = [degrees[v] for v in range(1, 2 * n + 1)]
    if got != expected:
        v = next(v for v, (a, b) in enumerate(zip(got, expected), start=1) if a != b)
        return f"boundary {v} degree {got[v - 1]} != {expected[v - 1]} for {partition}"
    return 1


@_check("tensor-diagram-validation")
def check_diagrams(n_max: int = 8) -> tuple[bool, str]:
    items = ((partition, r) for r in DEPTHS for partition in partitions_up_to(n_max, r))
    built, failure = _split_sweep(items, _diagram_holds)
    if failure:
        return False, failure
    return True, f"{built} diagrams validate with the expected boundary profile"


def _sign_panel(r: int, exhaustive_n: int) -> list[OrderedSetPartition]:
    """The partitions whose tableau signs the sign-properties check tests
    at depth r: every one up to ``exhaustive_n``; from each pool of the
    ordered partitions of [n] into d blocks (n = 6, 7, 8, d = 2, 3), in the
    order of ``enumerate_ordered_partitions``, its first three and its
    middle one; then the worked example of that depth.  A pool's size is
    the sum of the multinomials of its block sizes, and the pool is read
    only up to its middle, so no pool is held."""
    panel = list(partitions_up_to(exhaustive_n, r))
    for n in (6, 7, 8):
        for d in (2, 3):
            size = sum(
                math.factorial(n) // math.prod(map(math.factorial, sizes))
                for sizes in itertools.product(range(r, n + 1), repeat=d)
                if sum(sizes) == n
            )
            if not size:
                continue
            pool = block_tuples(range(1, n + 1), d, r)
            picked = list(itertools.islice(pool, 3))
            # a pool of [n >= 6] into two or more blocks holds at least 20,
            # so its middle lies past the first three
            picked.append(next(itertools.islice(pool, size // 2 - 3, None)))
            panel.extend(OrderedSetPartition._trusted(n, blocks) for blocks in picked)
    if r <= 2:
        panel.append(RUNNING_PARTITION)
    if r == 3:
        panel.append(THREE_ROW_PARTITION)
    return panel


def _sign_holds(seed: int, item: tuple[int, OrderedSetPartition]) -> Counter | str:
    """The (r, partition) item's swap and arrangement counts, or its first
    failure: each tableau with its columns reordered by sigma has
    sgn(sigma)^r times its sign, for every sigma; then each of the first
    max(1, count // 4) tableaux keeps its sign under every order of its
    columns where it has at most 64, else under 64 drawn from a generator
    seeded by the seed, r and the partition alone."""
    r, partition = item
    blocks = partition.blocks
    tableaux = enumerate_tableaux(partition, r)
    signs = [t.sign() for t in tableaux]
    swaps = 0
    for sigma in itertools.permutations(range(1, partition.d + 1)):
        sgn = perm_sign(sigma) ** r
        for t, base in zip(tableaux, signs):
            if t.permute_columns(sigma).sign() != sgn * base:
                return f"column-swap sign fails for {partition}, sigma={sigma}"
            swaps += 1
    draws = random.Random(f"{seed} {r} {partition.text()}")
    every = math.prod(math.factorial(len(block)) for block in blocks) <= 64
    arrangements = 0
    for t, base in zip(tableaux, signs[: max(1, len(tableaux) // 4)]):
        if every:
            chosen = itertools.product(*map(itertools.permutations, blocks))
        else:
            chosen = (tuple(draws.sample(b, len(b)) for b in blocks) for _ in range(64))
        for order in chosen:
            if column_arrangement_sign(t, order) != base:
                return f"column arrangement sign varies for {partition}"
            arrangements += 1
    return Counter(swaps=swaps, arrangements=arrangements)


@_check("sign-properties")
def check_sign_properties(seed: int = 2024, exhaustive_n: int = 5) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(0, n)
        I = tuple(sorted(rng.sample(range(1, n + 1), m)))
        J = tuple(sorted(rng.sample(range(1, n + 1), m)))
        matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        big = phi(matrix)
        K = delta_index_set(I, J, n)
        direct = integer_determinant([[big[row][k - 1] for k in K] for row in range(n)])
        sign, I2, J2 = delta_to_minor(K, n)
        if (I2, J2) != (I, J):
            return False, f"index split failed for K={K}"
        value = sign * integer_determinant([[matrix[i - 1][j - 1] for j in J] for i in I])
        if direct != value:
            return False, f"translation sign failed for n={n}, I={I}, J={J}"
    items = ((r, partition) for r in DEPTHS for partition in _sign_panel(r, exhaustive_n))
    counts, failure = _split_sweep(items, functools.partial(_sign_holds, seed), Counter())
    if failure:
        return False, failure
    return True, (
        f"500 translation signs verified numerically; {counts['swaps']} column swaps and "
        f"{counts['arrangements']} within-column arrangements keep their signs"
    )


def battery(n_max: int, seed: int) -> list[tuple[str, Callable[[], CheckResult]]]:
    """The checks behind ``flamingo verify-all`` in their fixed order: each
    check's name with a call that runs it, every sweep clamped to sizes
    <= n_max and the random draws seeded with seed.

    Each call looks its ``check_*`` function up in this module when it runs,
    so a wrapper installed later with setattr is the one called.
    """
    return [
        ("running-example-depth-2", lambda: check_running_example()),
        ("three-row-example-depth-3", lambda: check_three_row_example()),
        ("depth-one-enumeration", lambda: check_depth_one_enumeration()),
        ("grassmann-cayley-equivalence", lambda: check_gc_equivalence(n_max=min(7, n_max))),
        ("recurrence-identities", lambda: check_recurrence(n_max=min(7, n_max))),
        ("specht-membership", lambda: check_specht_membership(n_max=min(7, n_max))),
        ("column-equivariance", lambda: check_equivariance(n_max=min(6, n_max))),
        ("noncrossing-independence", lambda: check_independence(n_max=min(8, n_max))),
        ("hook-basis", lambda: check_hook_basis(n_max=min(8, n_max))),
        ("rotation-orbit-rank", lambda: check_orbit_rank()),
        ("independence-conjecture", lambda: check_conjecture(n_max=min(8, n_max))),
        ("tensor-diagram-validation", lambda: check_diagrams(n_max=min(8, n_max))),
        ("sign-properties", lambda: check_sign_properties(seed=seed, exhaustive_n=min(5, n_max))),
    ]
