"""`flamingo verify-all` with host-speed calibrations made while it runs.

    PYTHONPATH=src python3 perfbench/verify_all.py verify-all --n-max 6 --json --seed 1

This runs flamingo's own command line, ``flamingo.cli.main``, as
``python -m flamingo`` does.  Meanwhile an interval timer runs the
reference loop of ``pace`` in the main thread about every
``pace.CALIBRATE_EVERY_NS``, between two bytecodes of whatever runs there,
and once more before ``import flamingo`` and at the end.  Each
``check_*`` function of ``flamingo.verification`` is wrapped to record
when it started and ended.  The calibrations and those intervals are
written to standard error as its last line,
``pace {"calibrations": [[start_ns, ns], ...], "checks": {name: [start_ns, end_ns]}}``,
so that each check, and the whole command, can be taken in reference
seconds.  Standard output and the exit code are the command's own.

The checks run one after another in the main thread at the default
``--jobs``; with more jobs the calibrations measure the main thread only.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
from time import perf_counter_ns

import pace

calibrations = [pace.calibrate()]
signal.signal(signal.SIGALRM, lambda *_: calibrations.append(pace.calibrate()))
signal.setitimer(signal.ITIMER_REAL, pace.CALIBRATE_EVERY_NS / 1e9, pace.CALIBRATE_EVERY_NS / 1e9)

from flamingo import cli, verification  # noqa: E402  (after the first calibration)

checks: dict[str, tuple[int, int]] = {}


def _timed(check):
    @functools.wraps(check)
    def run(*args, **kwargs):
        start = perf_counter_ns()
        result = check(*args, **kwargs)
        checks[result.name] = (start, perf_counter_ns())
        return result

    return run


for name, fn in list(vars(verification).items()):
    if name.startswith("check_") and callable(fn):
        setattr(verification, name, _timed(fn))

code = 2
try:
    code = cli.main(sys.argv[1:])
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
    calibrations.append(pace.calibrate())
    print("pace " + json.dumps({"calibrations": calibrations, "checks": checks}), file=sys.stderr, flush=True)
sys.exit(code)
