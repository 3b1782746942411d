"""The benchmark in ``perfbench/`` runs against the package as it stands:
it imports its harness and workloads, which import ``flamingo``, and it
expects the battery's checks by name.  A change to the package that would
break either fails here."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
import json
import harness, oracle, workloads
from flamingo.verification import battery
print(json.dumps({n_max: [[name for name, _ in battery(n_max, 2024)], list(details)]
                  for n_max, details in oracle.BATTERY_DETAILS.items()}))
"""


def test_benchmark_imports_and_expects_the_battery_checks():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    by_size = json.loads(proc.stdout)
    assert "6" in by_size
    for names, expected in by_size.values():
        assert names == expected
