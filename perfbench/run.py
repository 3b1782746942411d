"""Benchmark of the flamingo package: one command runs every workload,
prints each metric by name with its unit, and checks every output.

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload identity-sweep --seed 3 --seconds 18 --trace 0

Each workload runs in fresh worker processes (``worker.py``).  Set-up is
timed from outside, from process start until the worker reports that its
inputs are ready, and is repeated so that ``setup_s`` is a median.  Every
time is in reference seconds, scaled by the host's speed as ``pace``
measures it.  With
``--trace 1`` the per-layer metrics are printed instead of the end-to-end
ones and the traced round's spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output was correct, 1 when some output was wrong, and 2 when the
benchmark could not run, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["battery", "invariant-build", "identity-sweep", "diagram-sweep"]
SETUP_REPEATS = 6  # set-up-only workers, besides the measured worker's own set-up
TIME_LIMIT_S = 170  # per workload, so that a run ends within three minutes


class BenchError(Exception):
    pass


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def start_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run worker.py to completion; (reference seconds until its ready line,
    the rest of its standard output)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    # A session of its own, so that the worker and any process it started
    # can be stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not readable:
            raise BenchError(f"worker not ready in time: {' '.join(argv)}")
        line = proc.stdout.readline()
        wall_ns = (time.perf_counter() - start) * 1e9
        word, *calibrations = line.split() or [""]
        if word != "ready" or len(calibrations) != 2:
            proc.wait()
            raise BenchError(f"worker failed during set-up (exit {proc.returncode}): {' '.join(argv)}")
        first, last = map(int, calibrations)
        # The worker's two calibrations are not set-up work.
        setup_s = pace.scale(wall_ns - first - last, first, last) / 1e9
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(argv)}") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(argv)}")
    return setup_s, out


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        common.append("--tiny")
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            setups.append(start_worker(common + ["--setup-only"], deadline)[0])
    extra = ["--trace", str(trace)]
    if trace:
        spans = HERE / "out" / f"spans-{name}-seed{seed}.csv"
        spans.parent.mkdir(exist_ok=True)
        extra += ["--spans", str(spans)]
    setup_s, out = start_worker(common + extra, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result for {name}")
    result = json.loads(lines[-1])
    setups.append(setup_s)
    result["setup_samples"] = setups
    if not trace:
        result["metrics"] = {"setup_s": statistics.median(setups), **result["metrics"]}
    return result


def report(name: str, result: dict, trace: int) -> dict:
    """Print one workload's metrics with units; return them as JSON metrics."""
    units = {m: u for m, u, *_ in PER_LAYER} if trace else dict(END_TO_END)
    values = result["metrics"]
    walls = result["round_walls"]
    print(f"== {name} ({'traced' if trace else 'untraced'}): {len(walls)} rounds of "
          f"{min(walls):.3f} to {max(walls):.3f} s")
    for metric, unit in units.items():
        note = ""
        if metric == "setup_s":
            note = f"  (median of {len(result['setup_samples'])} set-ups)"
        elif metric in ("item_p50_us", "item_p99_us"):
            note = f"  ({result['samples']} samples)"
        print(f"  {metric:<44} {values[metric]:>18.6f} {unit}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_frac':<44} {failed / attempted:>18.6f} fraction  ({failed} of {attempted} failed)")
    print(f"  caches before {json.dumps(result['caches_before'])}")
    print(f"  caches after  {json.dumps(result['caches_after'])}")
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0, help="timed seconds per run; some workloads need more")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that a running worker is stopped with us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "flamingo" / "__init__.py").is_file():
        print(f"error: no flamingo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results, metrics = {}, {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            metrics[name] = report(name, results[name], args.trace)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = loadavg()
    print(f"env {json.dumps(env)}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
