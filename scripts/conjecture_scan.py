"""Scan short-transposition-distance families for linear independence.

For each (n, d, r) in range with r >= 3, collect the unordered partitions
that at most r - 3 adjacent transpositions turn noncrossing, compute the
exact rank of their invariants, and report size versus rank.  Equality
everywhere supports the independence conjecture; any strict inequality
would be a counterexample and is flagged loudly.
"""

from __future__ import annotations

import argparse
import sys

from flamingo.relations import conjecture_report


def scan(args: argparse.Namespace) -> int:
    failures = 0
    print(f"{'n':>3} {'d':>3} {'r':>3} {'size':>6} {'rank':>6} verdict")
    for n in range(args.r_min, args.n_max + 1):
        for r in range(args.r_min, args.r_max + 1):
            for d in range(1, n // r + 1):
                size, rank = conjecture_report(n, d, r)
                verdict = "ok" if size == rank else "COUNTEREXAMPLE"
                if size != rank:
                    failures += 1
                print(f"{n:>3} {d:>3} {r:>3} {size:>6} {rank:>6} {verdict}")
            print(f"n={n} r={r} done", file=sys.stderr, flush=True)
    if failures:
        print(f"{failures} rank-deficient families found", file=sys.stderr)
        return 1
    print("all families independent")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--r-min", type=int, default=3)
    parser.add_argument("--r-max", type=int, default=4)
    args = parser.parse_args()
    return scan(args)


if __name__ == "__main__":
    sys.exit(main())
