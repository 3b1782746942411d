"""The benchmark's workloads.

Each workload makes all of its inputs from the seed when it is
constructed (the set-up the benchmark times), then runs rounds of fixed
work.  ``run_round`` is the timed part: one closed loop in this process,
each instance starting when the previous one returned.  ``check`` is the
oracle, run after the round and outside its timing.  ``decompose``, used
only by traced runs, splits the invariants of the round into their inner
layers and checks that the pieces add up exactly.

Samples are stratified by (n, r, block sizes): every seed gets the same
number of pairs of each shape, only different elements.  A single 8 x 8
determinant costs as much as hundreds of ordinary pairs, so an
unstratified sample would make run time depend on the seed.
"""

from __future__ import annotations

import collections
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from flamingo.diagrams import boundary_degrees, build_tensor_diagram, validate
from flamingo.grassmann import compare_up_to_sign, gc_jellyfish, phi_star
from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import OrderedSetPartition, enumerate_ordered_partitions
from flamingo.polynomials import MatrixPolynomial
from flamingo.relations import verify_recurrence
from flamingo.specht import SpechtShape, membership_test, spanning_rank
from flamingo.tableaux import iter_tableaux

import oracle
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def compositions(n: int, least: int) -> list[tuple[int, ...]]:
    """Ordered block sizes, each >= least, summing to n."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(least, n + 1) for rest in compositions(n - first, least)]


def quotas(weights: dict, k: int) -> dict:
    """Split k in proportion to the weights, rounding by largest remainder;
    the split depends only on the weights, never on the seed."""
    total = sum(weights.values())
    exact = {key: k * w / total for key, w in weights.items()}
    share = {key: int(x) for key, x in exact.items()}
    by_remainder = sorted(weights, key=lambda key: (share[key] - exact[key], key))
    for key in by_remainder[: k - sum(share.values())]:
        share[key] += 1
    return share


def random_partition(n: int, sizes: tuple[int, ...], rng: random.Random) -> OrderedSetPartition:
    """Uniform among ordered partitions of [n] with these block sizes."""
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return OrderedSetPartition(n, tuple(tuple(sorted(elements[a:b])) for a, b in zip(cuts, cuts[1:])))


def sample_pairs(n_values, r_values, k: int, rng: random.Random) -> list[tuple[OrderedSetPartition, int]]:
    """k distinct (partition, r) pairs, uniform over every ordered partition
    of [n] with blocks of size >= r, in seeded order.

    The sample is stratified by (n, r, block sizes), each stratum getting
    its proportional share, so every seed does the same mix of shapes.
    """
    strata = {
        (n, r, sizes): math.factorial(n) // math.prod(math.factorial(s) for s in sizes)
        for r in r_values
        for n in n_values
        for sizes in compositions(n, r)
    }
    chosen = []
    for (n, r, sizes), quota in sorted(quotas(strata, k).items()):
        picked: dict[OrderedSetPartition, None] = {}
        while len(picked) < quota:
            picked[random_partition(n, sizes, rng)] = None
        chosen.extend((p, r) for p in picked)
    rng.shuffle(chosen)
    return chosen


def _accumulate(total: MatrixPolynomial, term: MatrixPolynomial, sign: int) -> MatrixPolynomial:
    return total + (term if sign > 0 else -term)


def decompose_invariant(partition: OrderedSetPartition, r: int, probe) -> MatrixPolynomial:
    """The tableau sum of the invariant, with the enumeration, the signs,
    the minor products and the accumulation each called separately."""
    total = MatrixPolynomial.zero(partition.n)
    tableaux = iter_tableaux(partition, r)
    while (tableau := probe.call("tableaux.iter", next, tableaux, None)) is not None:
        probe.count("tableaux.count")
        sign = probe.call("tableaux.sign", tableau.sign)
        term = probe.call("polynomials.minor_product", tableau.minor_product)
        total = probe.call("polynomials.accumulate", _accumulate, total, term, sign)
    probe.count("polynomials.terms", len(total))
    return total


class Battery:
    """`flamingo verify-all --n-max 6 --json` as a user runs it, with the
    calibrations of ``verify_all.py`` made while it runs."""

    name = "battery"
    external = True  # the work runs in a child process
    min_rounds = 2

    def __init__(self, seed: int, tiny: bool) -> None:
        self.n_max = 3 if tiny else 6
        self.seed = seed
        self.expected = oracle.BATTERY_DETAILS[self.n_max]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("FLAMINGO_JOBS", None)  # the default --jobs

    def _verify_all(self) -> subprocess.CompletedProcess:
        cmd = [
            sys.executable, str(HERE / "verify_all.py"), "verify-all",
            "--n-max", str(self.n_max), "--json", "--seed", str(self.seed),
        ]
        try:
            return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            return subprocess.CompletedProcess(cmd, -1, "", "verify-all timed out")

    def run_round(self, probe) -> None:
        start = time.perf_counter_ns()
        proc = probe.call("cli.verify_all", self._verify_all)
        end = time.perf_counter_ns()
        try:
            entries = {e["name"]: e for e in json.loads(proc.stdout)}
            pace_line = proc.stderr.strip().splitlines()[-1]
            calibrated = json.loads(pace_line.removeprefix("pace "))
        except (ValueError, TypeError, KeyError, IndexError):
            entries, calibrated = {}, None
        if proc.returncode != 0 or not entries or calibrated is None:
            print(f"verify-all exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            for _ in self.expected:
                probe.record_item(0.0, False)
            return
        calibrations = sorted(map(tuple, calibrated["calibrations"]))
        spans, checks_ns = [], 0.0
        for name, detail in self.expected.items():
            entry = entries.get(name)
            interval = calibrated["checks"].get(name)
            if entry is None or interval is None:
                probe.record_item(0.0, False)
                continue
            spans.append((f"verification.{name}", float(entry.get("seconds", 0.0))))
            ns = pace.reference_ns(*interval, calibrations)
            checks_ns += ns
            probe.record_item(ns, oracle.battery_entry_ok(entry, detail))
        # The process's time outside its checks (start-up, import, output)
        # counts in run_s, which so covers the whole command, but it is no
        # instance: the 13 checks are.
        whole_ns = pace.reference_ns(start, end, calibrations)
        probe.record_rest(max(0.0, whole_ns - checks_ns))
        probe.sub_spans(spans)

    def check(self, outputs, probe) -> None:
        pass

    def decompose(self, outputs, probe) -> None:
        pass


class InvariantBuild:
    """Each pair built once from a cleared cache: tableaux and polynomial
    arithmetic do the work and the cache only inserts."""

    name = "invariant-build"
    external = False
    min_rounds = 2

    def __init__(self, seed: int, tiny: bool, build=jellyfish_invariant) -> None:
        n = 6 if tiny else 8
        rng = random.Random(seed)
        self.pairs = sample_pairs([n], (2, 3), 40 if tiny else 1000, rng)
        self.matrix = oracle.oracle_matrix(n, seed)
        self.expected: list[int] | None = None
        self.build = build

    def run_round(self, probe) -> list:
        outputs = []
        for partition, r in self.pairs:
            poly = None
            with probe.item():
                poly = probe.call("invariants.build", self.build, partition, r)
            outputs.append(poly)
        return outputs

    def check(self, outputs, probe) -> None:
        if self.expected is None:
            self.expected = [oracle.numeric_invariant(p.blocks, r, self.matrix) for p, r in self.pairs]
        for poly, want in zip(outputs, self.expected):
            if poly is not None and poly.evaluate(self.matrix) != want:
                probe.fail()

    def decompose(self, outputs, probe) -> None:
        for (partition, r), poly in zip(self.pairs, outputs):
            with probe.span("bench.decompose"):
                if decompose_invariant(partition, r, probe) != poly:
                    probe.fail()


def recurrence_instance(n: int, r: int, sizes: random.Random, rng: random.Random):
    """(prefix, A, B, C, r) on [n]: C of size r, A and B nonempty, the rest
    cut into prefix blocks of size >= r, as in the battery's sweep.  The
    set sizes come from ``sizes`` and the elements from ``rng``."""
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    C, rest = set(elements[:r]), elements[r:]
    a = sizes.randint(1, len(rest) - 1)
    b = sizes.randint(1, len(rest) - a)
    A, B, remaining = set(rest[:a]), set(rest[a : a + b]), rest[a + b :]
    prefix = []
    while len(remaining) >= r:
        left = len(remaining)
        size = sizes.choice([s for s in range(r, left + 1) if left - s == 0 or left - s >= r])
        prefix.append(tuple(sorted(remaining[:size])))
        remaining = remaining[size:]
    A |= set(remaining)
    return prefix, A, B, C, r


class IdentitySweep:
    """The battery's three heaviest invariant consumers, in battery order,
    over one seeded pool, with the invariant cache overrun in between.

    In the full battery the Grassmann-Cayley check builds 53,618
    invariants, so the 16,384-entry LRU cache has evicted each of them
    before the Specht check asks for it again.  A pool that large takes half
    a minute per round, too long to repeat in one run on a shared machine,
    so the pool is smaller and the rest of the sweep is stood in for by
    16,384 further cached invariants built between the two passes: those
    of partitions with a singleton block at depth 2, which vanish, as the
    recurrence check's undersized terms do.  This relies on vanishing
    invariants being cached like any other.
    """

    name = "identity-sweep"
    external = False
    min_rounds = 2
    STAND_IN = 16384

    def __init__(self, seed: int, tiny: bool) -> None:
        n_max = 5 if tiny else 7
        rng = random.Random(seed)
        self.pool = sample_pairs(range(1, n_max + 1), (1, 2, 3), 60 if tiny else 600, rng)
        self.shapes = {key: SpechtShape(*key) for key in sorted({(p.n, p.d, r) for p, r in self.pool})}
        self.stand_in = [
            (p, 2) for d in (n_max, n_max - 1) for p in enumerate_ordered_partitions(n_max, d, 1)
        ][: 50 if tiny else self.STAND_IN]
        ground_sets = collections.Counter((p.n, r) for p, r in self.pool if p.n >= r + 2)
        # Every seed gets the same set sizes, whose cost differs by a factor
        # of two, and differs only in the elements, as in sample_pairs.
        sizes = random.Random(0)
        self.recurrences = [
            recurrence_instance(n, r, sizes, rng)
            for (n, r), quota in sorted(quotas(ground_sets, 20 if tiny else 50).items())
            for _ in range(quota)
        ]
        rng.shuffle(self.recurrences)

    def run_round(self, probe) -> None:
        for partition, r in self.pool:
            with probe.item():
                expr = probe.call("grassmann.gc", gc_jellyfish, partition, r)
                probe.count("grassmann.pluecker_terms", len(expr))
                pulled = probe.call("grassmann.phi_star", phi_star, expr)
                invariant = probe.call("invariants.build", jellyfish_invariant, partition, r)
                probe.expect(probe.call("grassmann.compare", compare_up_to_sign, pulled, invariant) in (1, -1))
        with probe.item():
            for partition, r in self.stand_in:
                probe.call("invariants.build", jellyfish_invariant, partition, r)
        for shape in self.shapes.values():
            with probe.item():
                probe.expect(probe.call("specht.span_build", spanning_rank, shape) == shape.dimension())
        for partition, r in self.pool:
            with probe.item():
                invariant = probe.call("invariants.build", jellyfish_invariant, partition, r)
                shape = self.shapes[partition.n, partition.d, r]
                probe.expect(probe.call("specht.contains", membership_test, invariant, shape) is True)
        for prefix, A, B, C, r in self.recurrences:
            with probe.item():
                probe.expect(probe.call("relations.recurrence", verify_recurrence, prefix, A, B, C, r) is True)

    def check(self, outputs, probe) -> None:
        pass  # every output is checked inline: signs, memberships, recurrences

    def decompose(self, outputs, probe) -> None:
        for partition, r in self.pool:
            with probe.span("bench.decompose"):
                if decompose_invariant(partition, r, probe) != jellyfish_invariant(partition, r):
                    probe.fail()


class DiagramSweep:
    """Every diagram at n <= 7 plus a seeded n = 8 sample, built, validated
    and boundary-checked as the battery does; no polynomial work."""

    name = "diagram-sweep"
    external = False
    min_rounds = 2

    def __init__(self, seed: int, tiny: bool) -> None:
        self.n_max = 4 if tiny else 7
        self.sample = sample_pairs([5 if tiny else 8], (1, 2, 3), 10 if tiny else 3000, random.Random(seed))

    def run_round(self, probe) -> None:
        pairs = []
        for r in (1, 2, 3):
            for n in range(r, self.n_max + 1):
                for d in range(1, n // r + 1):
                    with probe.item():
                        partitions = probe.call("partitions.enumerate", enumerate_ordered_partitions, n, d, r)
                        probe.count("partitions.count", len(partitions))
                        pairs.extend((p, r) for p in partitions)
        pairs.extend(self.sample)
        for partition, r in pairs:
            with probe.item():
                diagram = probe.call("diagrams.build", build_tensor_diagram, partition, r)
                probe.count("diagrams.edges", len(diagram.edges))
                problems = probe.call("diagrams.validate", validate, diagram)
                degrees = probe.call("diagrams.degrees", boundary_degrees, diagram)
                probe.expect(not problems and oracle.boundary_profile_ok(degrees, partition.blocks, r))

    def check(self, outputs, probe) -> None:
        pass  # the boundary profile is checked inline, as the battery does

    def decompose(self, outputs, probe) -> None:
        pass


WORKLOADS = {w.name: w for w in (Battery, InvariantBuild, IdentitySweep, DiagramSweep)}
