"""One workload run in a fresh process: set up, report ready, run the timed
phase, check the outputs and print the result as one JSON line.

``run.py`` starts this file and times set-up from outside, from process
start until the ``ready`` line arrives.  The worker runs the reference loop
of ``pace`` first thing and again just before that line, and reports both
times on it, ``ready <first_ns> <last_ns>``, so that ``run.py`` can take
set-up in reference seconds.  With ``--setup-only`` the worker exits after
that line, which lets ``run.py`` repeat set-up cheaply.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pace

FIRST_CALIBRATION_NS = pace.calibrate()[1]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="CSV file for the traced round's spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import flamingo
    except ImportError as exc:
        print(f"cannot import flamingo from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(flamingo.__file__).resolve().parent != (SRC / "flamingo").resolve():
        print(f"flamingo was imported from {flamingo.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    print(f"ready {FIRST_CALIBRATION_NS} {pace.calibrate()[1]}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = harness.run_traced(workload, args.spans)
    else:
        result = harness.run_untraced(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
