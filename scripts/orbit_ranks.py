"""Tabulate rotation-orbit sizes against the rank of the orbit's invariants.

Rotating a partition multiplies its invariant by a predictable sign, so an
orbit of size m can span anywhere between 1 and m dimensions.  The script
walks all unordered partitions for each (n, d, r) in range and records the
(orbit size, rank) pairs, printing one line per orbit representative.
Rank-deficient orbits reveal linear relations among rotated invariants.
"""

from __future__ import annotations

import argparse
import sys

from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import enumerate_unordered_partitions, rotation_orbit
from flamingo.specht import exact_rank


def scan(args: argparse.Namespace) -> int:
    r = args.r
    print(f"{'n':>3} {'d':>3} {'orbit':>6} {'rank':>5}  representative")
    for n in range(2 * r, args.n_max + 1):
        seen: set = set()
        for d in range(1, n // r + 1):
            for partition in enumerate_unordered_partitions(n, d, r):
                if partition in seen:
                    continue
                orbit = rotation_orbit(partition)
                seen.update(orbit)
                rank = exact_rank([jellyfish_invariant(p, r) for p in orbit])
                if args.deficient_only and rank == len(orbit):
                    continue
                print(f"{n:>3} {d:>3} {len(orbit):>6} {rank:>5}  {partition.text()}")
        print(f"n={n} done", file=sys.stderr, flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--deficient-only", action="store_true")
    args = parser.parse_args()
    return scan(args)


if __name__ == "__main__":
    sys.exit(main())
