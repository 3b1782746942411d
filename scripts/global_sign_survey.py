"""Survey the global sign relating the cap-and-wedge expansion to the
tableau sum.

For every partition in range the script resolves the actual sign by exact
polynomial comparison, compares it with the closed-form prediction from the
top-justified filling, and tabulates where the two differ.  It also counts,
over every Pluecker factor it pulls back, how often the naive
row-complement shortcut (-1)**|I| agrees with the exact translation sign.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from flamingo.grassmann import (
    compare_up_to_sign,
    delta_to_minor,
    gc_jellyfish,
    index_set,
    phi_star,
    predicted_global_sign,
)
from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import enumerate_ordered_partitions


def survey(args: argparse.Namespace) -> int:
    mismatches: Counter[tuple[int, int, int]] = Counter()
    totals: Counter[tuple[int, int, int]] = Counter()
    shortcut: Counter[bool] = Counter()
    caps: dict = {}  # one cap table for the sweep, as the Grassmann-Cayley check keeps
    for n in range(2, args.n_max + 1):
        for r in range(1, args.r_max + 1):
            for d in range(1, n // r + 1):
                for partition in enumerate_ordered_partitions(n, d, r):
                    expr = gc_jellyfish(partition, r, caps)
                    actual = compare_up_to_sign(phi_star(expr), jellyfish_invariant(partition, r))
                    for factors in expr.terms:
                        for K in factors:
                            sign, I, _ = delta_to_minor(index_set(K), n)
                            shortcut[sign == (-1) ** len(I)] += 1
                    predicted = predicted_global_sign(partition, r)
                    key = (n, d, r)
                    totals[key] += 1
                    if actual != predicted:
                        mismatches[key] += 1
                        if args.verbose:
                            print(
                                f"  predicted {predicted:+d} actual {actual:+d}"
                                f"  ({partition.text()}) r={r}",
                                file=sys.stderr,
                            )
        print(f"n={n} done", file=sys.stderr, flush=True)

    print(f"{'n':>3} {'d':>3} {'r':>3} {'cases':>8} {'mismatch':>9}")
    for key in sorted(totals):
        n, d, r = key
        print(f"{n:>3} {d:>3} {r:>3} {totals[key]:>8} {mismatches.get(key, 0):>9}")
    print(f"row-complement shortcut: agree={shortcut[True]} disagree={shortcut[False]}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--r-max", type=int, default=3)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    return survey(args)


if __name__ == "__main__":
    sys.exit(main())
