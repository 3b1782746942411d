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
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .diagrams import boundary_degrees, build_tensor_diagram, validate
from .grassmann import (
    PlueckerExpression,
    delta_index_set,
    delta_to_minor,
    gc_jellyfish,
    index_set,
    phi,
    phi_star,
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


def _shard(
    items: Iterable[Item], check: Callable[[Item], Count | str], start: int, step: int, zero: Count
) -> tuple[Count, tuple[int, str] | None]:
    """Check the items at positions start, start + step, ...: their instance
    counts summed from ``zero`` (which stays as it was), and the position
    and detail of the first that fails."""
    count = zero
    for position, item in zip(itertools.count(start, step), itertools.islice(items, start, None, step)):
        outcome = check(item)
        if isinstance(outcome, str):
            return count, (position, outcome)
        count = count + outcome
    return count, None


def _split_sweep(
    items: Iterable[Item], check: Callable[[Item], Count | str], zero: Count = 0
) -> tuple[Count, str | None]:
    """Check every item of a sweep whose items are independent: the summed
    instance counts, and the detail of the first failure in item order or
    None.  ``check`` returns an item's instance count, or a Counter of its
    named counts summed from ``zero=Counter()``, or its failure's detail.

    With two or more CPUs in this process's affinity set, the items split
    into two interleaved shards: this process checks the even positions and
    one forked child the odd ones, each up to its own first failure.  The
    failure at the lesser position is the one reported, so the outcome is
    the serial loop's.  With one CPU the one shard runs here and nothing
    forks.  The child returns only its result through a pipe, so what it
    adds to a cache is lost: a sweep splits only where no later check needs
    its cache entries.  The package starts no thread, so forking is safe.
    Where the items carry seeded random draws, the item generator makes
    them, in item order, and both shards run it in full from one state of
    the generator: a shard draws the other's items before it skips them, so
    every item holds the serial loop's draws.
    An exception in the child is raised here with its type; an exception
    here kills the child first; and no child outlives the call.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        shards = [_shard(items, check, 0, 1, zero)]
    else:
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: its shard's result or exception to the pipe, then out
            status = 1
            try:
                os.close(read_end)
                try:
                    result = _shard(items, check, 1, 2, zero)
                except BaseException as exc:
                    result = exc
                with os.fdopen(write_end, "wb") as pipe:
                    pickle.dump(result, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            try:
                mine = _shard(items, check, 0, 2, zero)
                sent = pipe.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                os.waitpid(pid, 0)
        if not sent:
            raise ChildProcessError("the sweep's second shard ended without a result")
        theirs = pickle.loads(sent)  # written by the child above
        if isinstance(theirs, BaseException):
            raise theirs
        shards = [mine, theirs]
    failures = [failure for _, failure in shards if failure]
    return sum((count for count, _ in shards), zero), min(failures)[1] if failures else None


# -- the thirteen checks ----------------------------------------------------


@_check("running-example-depth-2")
def check_running_example() -> tuple[bool, str]:
    tableaux = enumerate_tableaux(RUNNING_PARTITION, 2)
    if len(tableaux) != 6:
        return False, f"expected 6 tableaux, got {len(tableaux)}"
    inversions = [t.inversion_number() for t in tableaux]
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
    tableaux = enumerate_tableaux(THREE_ROW_PARTITION, 3)
    if len(tableaux) != 3:
        return False, f"expected 3 tableaux, got {len(tableaux)}"
    inversions = [t.inversion_number() for t in tableaux]
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
    """Match each term of the cap-and-wedge expansion of the ten-element
    example with its tableau, requiring equal signed minor products term by
    term and the reversed emission order.  None when everything agrees."""
    partition, r, n = RUNNING_PARTITION, 2, RUNNING_PARTITION.n
    tableaux = enumerate_tableaux(partition, r)
    by_rows = {
        tuple(t.column_rows(i) for i in range(1, partition.d + 1)): pos
        for pos, t in enumerate(tableaux)
    }
    gc = gc_jellyfish(partition, r)
    if len(gc.terms) != len(tableaux):
        return f"{len(gc.terms)} gc terms for {len(tableaux)} tableaux"
    emitted: list[int] = []
    for factors, coeff in gc.terms.items():
        rows_by_block = {J: I for _, I, J in (delta_to_minor(index_set(K), n) for K in factors)}
        cols = tuple(rows_by_block.get(b, ()) for b in partition.blocks)
        pos = by_rows.get(cols)
        if pos is None:
            return f"gc term {tuple(sorted(map(index_set, factors)))} matches no tableau"
        t = tableaux[pos]
        single = phi_star(PlueckerExpression(n, {factors: coeff}))
        if single != t.minor_product() * t.sign():
            return f"term for tableau {pos + 1} disagrees with its signed minor product"
        emitted.append(pos)
    if emitted != list(range(len(tableaux) - 1, -1, -1)):
        return f"gc terms emitted in tableau order {[p + 1 for p in emitted]}, expected reversed"
    return None


@_check("grassmann-cayley-equivalence")
def check_gc_equivalence(n_max: int = 7) -> tuple[bool, str]:
    checked = 0
    caps: dict = {}  # one cap table for the sweep: each piece is built once
    for r in DEPTHS:
        for partition in partitions_up_to(n_max, r):
            if resolved_global_sign(partition, r, caps) is None:
                return False, f"no global sign for {partition} at depth {r}"
            checked += 1
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
    """(partition, r, actions) for every partition of [n], n = 2..n_max, at
    each depth, with one action per generator of the n shared by them all."""
    for n in range(2, n_max + 1):
        generators = [simple_transposition(n, i) for i in range(1, n)]
        generators += [long_cycle(n), longest_permutation(n)]
        actions = [ColumnAction(w, n) for w in generators]
        for r in DEPTHS:
            for d in range(1, n // r + 1):
                for partition in enumerate_ordered_partitions(n, d, r):
                    yield partition, r, actions


def _equivariance_holds(item: tuple) -> int | str:
    partition, r, actions = item
    for action in actions:
        if not action.holds_for(partition, r):
            return f"equivariance failed for w={action.w}, {partition}, r={r}"
    return len(actions)


@_check("column-equivariance")
def check_equivariance(n_max: int = 6) -> tuple[bool, str]:
    sign_failure = None
    for n in range(2, n_max + 1):
        if perm_sign(long_cycle(n)) != (-1) ** (n - 1):
            sign_failure = "long cycle sign is off"
        elif perm_sign(longest_permutation(n)) != (-1) ** (n * (n - 1) // 2):
            sign_failure = "reversal sign is off"
        if sign_failure:
            n_max = n - 1  # the sign laws at n come before the identities at n
            break
    checked, failure = _split_sweep(_equivariance_items(n_max), _equivariance_holds)
    if failure or sign_failure:
        return False, failure or sign_failure
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
    partition, r = item
    diagram = build_tensor_diagram(partition, r)
    problems = validate(diagram)
    if problems:
        return f"{partition} at depth {r}: {problems[0]}"
    degrees = boundary_degrees(diagram)
    n, d = partition.n, partition.d
    nu = n - (d - 1) * r  # the tentacle rows are r+1..nu, the tail rows nu+1..n
    for v in range(1, r + 1):
        if degrees[v] != 0:
            return f"boundary {v} should be unused for {partition}"
    for v in range(r + 1, nu + 1):
        if degrees[v] != d - 1:
            return f"boundary {v} degree {degrees[v]} != d-1 for {partition}"
    for v in range(nu + 1, n + 1):
        if degrees[v] != d:
            return f"boundary {v} degree {degrees[v]} != d for {partition}"
    for v in range(n + 1, 2 * n + 1):
        if degrees[v] != 1:
            return f"boundary {v} degree {degrees[v]} != 1 for {partition}"
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


def _sign_items(rng: random.Random, exhaustive_n: int) -> Iterator[tuple]:
    """(r, partition, samples) for every partition of the sign panel at each
    depth r, in order.  ``samples`` is None where a tableau has at most 64
    column orders, which are all checked; otherwise it holds, for each of
    the first max(1, tableau_count // 4) tableaux, 64 orders drawn from
    ``rng`` here, as the serial loop drew them."""
    for r in (1, 2, 3):
        for partition in _sign_panel(r, exhaustive_n):
            blocks = partition.blocks
            samples = None
            if math.prod(math.factorial(len(block)) for block in blocks) > 64:
                samples = [
                    [tuple(rng.sample(block, len(block)) for block in blocks) for _ in range(64)]
                    for _ in range(max(1, tableau_count(partition, r) // 4))
                ]
            yield r, partition, samples


def _sign_holds(item: tuple) -> Counter | str:
    """The item's swap and arrangement counts, or its first failure: each
    tableau with its columns reordered by sigma has sgn(sigma)^r times its
    sign, for every sigma; then each of the first max(1, count // 4)
    tableaux keeps its sign under every column order, or under its drawn
    ones."""
    r, partition, samples = item
    tableaux = enumerate_tableaux(partition, r)
    signs = [t.sign() for t in tableaux]
    swaps = 0
    for sigma in itertools.permutations(range(1, partition.d + 1)):
        sgn = perm_sign(sigma) ** r
        for t, base in zip(tableaux, signs):
            if t.permute_columns(sigma).sign() != sgn * base:
                return f"column-swap sign fails for {partition}, sigma={sigma}"
            swaps += 1
    if samples is None:
        samples = itertools.repeat(list(itertools.product(*map(itertools.permutations, partition.blocks))))
    arrangements = 0
    for t, base, chosen in zip(tableaux, signs[: max(1, len(tableaux) // 4)], samples):
        for orders in chosen:
            if column_arrangement_sign(t, orders) != base:
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
    counts, failure = _split_sweep(_sign_items(rng, exhaustive_n), _sign_holds, Counter())
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
