"""Timed rounds of one workload inside the worker process, and the metrics
made from them.

An untraced run repeats rounds of the workload's fixed work until the
rounds have taken the requested seconds.  Every round starts from cleared
caches, as a fresh ``flamingo`` process would, so each is the same work.  A traced run makes one untraced round and then one
traced round of the same work, which gives the tracing overhead, and then
splits the invariants into their inner layers.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from array import array

from flamingo import invariants, polynomials, specht

from metrics import PER_LAYER
from tracing import Probe, TracedProbe


def _caches() -> dict:
    """The package's memo caches, looked up by name so that the benchmark
    still runs when one of them is renamed or removed."""
    found = {
        "invariants": getattr(invariants, "_invariant_cached", None),
        "minor_terms": getattr(polynomials, "_minor_terms", None),
        "span_checker": getattr(specht, "_span_checker", None),
    }
    return {name: fn for name, fn in found.items() if hasattr(fn, "cache_info")}


def cache_info() -> dict:
    return {name: fn.cache_info()._asdict() for name, fn in _caches().items()}


def clear_caches() -> None:
    clear = getattr(invariants, "invariant_cache_clear", None)
    if clear is not None:
        clear()
    for fn in _caches().values():
        fn.cache_clear()


def _usage(external: bool) -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_CHILDREN if external else resource.RUSAGE_SELF)


def _cpu(external: bool) -> float:
    usage = _usage(external)
    return usage.ru_utime + usage.ru_stime


def _round(workload, probe: Probe) -> tuple[float, float]:
    """Wall and CPU seconds of one round from cleared caches; the outputs
    are checked afterwards, outside both."""
    clear_caches()
    cpu_start = _cpu(workload.external)
    start = time.perf_counter()
    outputs = workload.run_round(probe)
    wall = time.perf_counter() - start
    cpu = _cpu(workload.external) - cpu_start
    workload.check(outputs, probe)
    return wall, cpu


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_untraced(workload, seconds: float) -> dict:
    """Rounds until they have taken ``seconds``, and at least
    ``workload.min_rounds``.

    Every latency is in reference ns (see ``pace``), so that the host's
    changes of speed cancel.  ``run_s`` is the median of the rounds'
    totals, instances and rest.  Each instance is taken at its median over the rounds, which
    run the same instances, and the percentiles are over those medians.
    """
    caches_before = cache_info()
    walls: list[float] = []
    totals: list[float] = []
    rounds: list[array] = []
    attempted = failed = 0
    while len(walls) < workload.min_rounds or sum(walls) < seconds:
        probe = Probe()
        walls.append(_round(workload, probe)[0])
        attempted += probe.attempted
        failed += probe.failed
        latencies = array("d", probe.finish())
        if rounds and len(latencies) != len(rounds[0]):
            raise RuntimeError("rounds of one workload must run the same instances")
        totals.append(sum(latencies) + probe.rest_ns)
        rounds.append(latencies)
        del probe, latencies  # so that peak RSS does not grow with the number of rounds
    peak_mib = _usage(workload.external).ru_maxrss / 1024
    instances = sorted(statistics.median(column) for column in zip(*rounds))
    run_s = statistics.median(totals) / 1e9
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(instances),
        "round_walls": walls,
        "round_reference_s": [t / 1e9 for t in totals],
        "caches_before": caches_before,
        "caches_after": cache_info(),
        "metrics": {
            "run_s": run_s,
            "items_per_s": len(instances) / run_s,
            "item_p50_us": percentile(instances, 0.50) / 1e3,
            "item_p99_us": percentile(instances, 0.99) / 1e3,
            "peak_rss_mib": peak_mib,
        },
    }


def run_traced(workload, spans_path) -> dict:
    """One untraced and one traced round of the same work, then the split
    of the invariants into their inner layers; the per-layer metrics."""
    reference = Probe()
    untraced_wall, cpu_s = _round(workload, reference)

    probe = TracedProbe()
    clear_caches()
    before = cache_info()
    start = time.perf_counter()
    outputs = workload.run_round(probe)
    traced_wall = time.perf_counter() - start
    after = cache_info()
    # Both rounds in reference seconds, as run_s is.
    overhead = (sum(probe.finish()) + probe.rest_ns) / (sum(reference.finish()) + reference.rest_ns) - 1
    workload.check(outputs, probe)
    workload.decompose(outputs, probe)
    if spans_path is not None:
        probe.write(spans_path)

    totals, calls, layer_self = probe.totals()

    def cache_delta(name: str, field: str) -> int:
        if name not in before:
            return 0
        return after[name][field] - before[name][field]

    hits, misses = cache_delta("invariants", "hits"), cache_delta("invariants", "misses")
    metrics = {}
    for name, _, _, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "cpu":
            value = cpu_s
        elif kind == "overhead":
            value = overhead
        elif kind == "hit_ratio":
            value = hits / (hits + misses) if hits + misses else 0.0
        elif kind == "self":
            value = layer_self.get(key, 0.0)
        elif kind == "span":
            value = totals.get(key, 0.0)
        elif kind == "calls":
            value = calls.get(key, 0)
        elif kind == "count":
            value = probe.counts.get(key, 0)
        else:
            value = cache_delta(*key.split("."))
        metrics[name] = value
    return {
        "attempted": reference.attempted + probe.attempted,
        "failed": reference.failed + probe.failed,
        "samples": len(probe.latencies),
        "round_walls": [untraced_wall, traced_wall],
        "caches_before": before,
        "caches_after": after,
        "metrics": metrics,
    }
