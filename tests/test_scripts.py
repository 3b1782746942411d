"""Smoke runs of the experiment scripts at tiny sizes: each exits 0 and
ends with its summary line."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args,stream,last_line",
    [
        (["conjecture_scan.py", "--n-max", "5", "--r-min", "3", "--r-max", "3"], "stdout", "all families independent"),
        (["global_sign_survey.py", "--n-max", "4", "--r-max", "2"], "stdout", "row-complement shortcut: agree=210 disagree=86"),
        (["orbit_ranks.py", "--n-max", "5", "--r", "2"], "stderr", "n=5 done"),
    ],
    ids=["conjecture_scan", "global_sign_survey", "orbit_ranks"],
)
def test_script_runs(args, stream, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert getattr(proc, stream).splitlines()[-1] == last_line
