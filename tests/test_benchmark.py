"""The benchmark in ``perfbench/`` runs against the package as it stands:
it imports its harness and workloads, which import ``flamingo``, it
expects the battery's checks by name, and its oracle accepts every
battery entry.  A change to the package that would break any of these, or
make the benchmark count a battery output as incorrect, fails here."""

import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from flamingo.verification import battery

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
import json
import harness, oracle, workloads
from flamingo.verification import battery
print(json.dumps({n_max: [[name for name, _ in battery(n_max, 2024)], list(details)]
                  for n_max, details in oracle.BATTERY_DETAILS.items()}))
"""


def test_benchmark_imports_and_expects_the_battery_checks():
    # no bytecode: compiled files under perfbench/ would speed the next benchmark's setup
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    by_size = json.loads(proc.stdout)
    assert "6" in by_size
    for names, expected in by_size.values():
        assert names == expected


def _benchmark_oracle() -> types.ModuleType:
    """``perfbench/oracle.py``, executed from its source, so nothing is
    written next to it."""
    path = ROOT / "perfbench" / "oracle.py"
    module = types.ModuleType("oracle")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n_max", [3, 6])
def test_the_benchmark_oracle_accepts_every_battery_entry(monkeypatch, n_max, cpus):
    oracle = _benchmark_oracle()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    expected = oracle.BATTERY_DETAILS[n_max]
    entries = [run() for _, run in battery(n_max, 2024)]
    assert [entry.name for entry in entries] == list(expected)
    for entry in entries:
        as_json = {"name": entry.name, "ok": entry.ok, "detail": entry.detail, "seconds": entry.seconds}
        assert oracle.battery_entry_ok(as_json, expected[entry.name]), (entry.name, entry.detail)
