"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that work counts repeat exactly for one seed, and that an invariant
with one flipped coefficient is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_tiny(trace: int, seed: int = 5) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0.5", "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py --tiny --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_printed(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = run_tiny(trace)
        assert result["correct"] and result["failed"] == 0, result
        for workload in spec["workloads"]:
            printed = result["metrics"][workload["name"]]
            assert set(printed) == {m["name"] for m in spec[key]}, workload["name"]
            for metric in spec[key]:
                assert printed[metric["name"]]["unit"] == metric["unit"], (workload["name"], metric["name"])
        # Each metric line reads "name value unit", once per workload.
        lines = [line.split() for line in stdout.splitlines() if line.startswith("  ")]
        for metric in spec[key] + [{"name": "fail_frac", "unit": "fraction"}]:
            found = [words for words in lines if words[0] == metric["name"]]
            assert len(found) == len(spec["workloads"]), metric["name"]
            assert all(words[2] == metric["unit"] for words in found), metric["name"]


def check_counts_repeat(spec: dict) -> None:
    first = run_tiny(1)[1]["metrics"]
    second = run_tiny(1)[1]["metrics"]
    for workload, metric in (("identity-sweep", "invariants.cache_misses"),
                             ("invariant-build", "polynomials.terms"),
                             ("diagram-sweep", "diagrams.count")):
        assert first[workload][metric]["value"] > 0, (workload, metric)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in first:
        for metric in counts:
            assert first[workload][metric] == second[workload][metric], (workload, metric)


def check_flipped_coefficient_fails() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    import workloads
    from flamingo import MatrixPolynomial, jellyfish_invariant

    clean = workloads.InvariantBuild(5, tiny=True)
    victim = clean.pairs[0]

    def flip_one(partition, r):
        poly = jellyfish_invariant(partition, r)
        if (partition, r) != victim:
            return poly
        data = poly.to_json_dict()
        data["terms"][0]["coeff"] = str(-int(data["terms"][0]["coeff"]))
        return MatrixPolynomial.from_json_dict(data)

    assert harness.run_untraced(clean, 0)["failed"] == 0
    result = harness.run_untraced(workloads.InvariantBuild(5, tiny=True, build=flip_one), 0)
    rounds = len(result["round_walls"])
    assert (result["attempted"], result["failed"]) == (rounds * len(clean.pairs), rounds), result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for check in (check_metrics_printed, check_counts_repeat):
        check(spec)
        print(f"ok {check.__name__}", flush=True)
    check_flipped_coefficient_fails()
    print("ok check_flipped_coefficient_fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
