"""Command-line surface for the invariant calculator.

Every subcommand prints deterministic output: identical invocations give
byte-identical results.  Exit status 0 means success or verified, 1 means
a verification failed, 2 means the invocation itself was unusable.
Randomized numeric spot checks accept --seed and default to a fixed one.

The front end restates no input rule of the library: arguments become
library objects through :func:`_usage`, which turns the ``ValueError`` of
a rejected argument into exit 2.  A ``ValueError`` from inside a rank, an
invariant or ``verify-all`` is a fault and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Sequence, TypeVar

from . import verification
from .diagrams import build_tensor_diagram, export
from .grassmann import predicted_global_sign, resolved_global_sign
from .invariants import jellyfish_invariant, relation_holds
from .partitions import (
    OrderedSetPartition,
    enumerate_noncrossing,
    parse_partition,
    require_admissible,
    require_depth,
    rotation_orbit,
)
from .relations import conjecture_family, recurrence_terms
from .specht import SpechtShape, exact_rank, hook_basis, hook_family, membership_test
from .tableaux import enumerate_tableaux

T = TypeVar("T")


class UsageError(Exception):
    pass


def _usage(make: Callable[..., T], *args) -> T:
    """``make(*args)``: a library call that makes an object out of command
    arguments, with the ValueError it raises for arguments that break the
    library's rules turned into a UsageError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _filled(text: str, r: int) -> OrderedSetPartition:
    """The partition, when every block fills the r top rows of a tableau."""
    partition = _usage(parse_partition, text)
    _usage(require_admissible, partition, r)
    return partition


def _elements(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split()]
    except ValueError as exc:
        raise UsageError(f"bad element list {text!r}") from exc


def _prefix_blocks(text: str | None) -> list[list[int]]:
    if not text or not text.strip():
        return []
    return [_elements(chunk) for chunk in text.split("|")]


def _rank(family: Sequence[OrderedSetPartition], r: int) -> int:
    return exact_rank([jellyfish_invariant(p, r) for p in family])


# -- subcommand handlers (return process exit codes) -------------------------


def cmd_invariant(args) -> int:
    partition = _usage(parse_partition, args.partition)
    _usage(require_depth, args.r)
    poly = jellyfish_invariant(partition, args.r)
    if args.pretty:
        print(poly)
    else:
        print(poly.to_json())
    return 0


def cmd_tableaux(args) -> int:
    partition = _filled(args.partition, args.r)
    tableaux = enumerate_tableaux(partition, args.r)
    if args.json:
        payload = [
            {
                "columns": [list(t.column_rows(i)) for i in range(1, partition.d + 1)],
                "word": t.reading_word(),
                "inversions": t.inversion_number(),
                "sign": t.sign(),
            }
            for t in tableaux
        ]
        print(json.dumps({"count": len(tableaux), "tableaux": payload}))
        return 0
    print(f"count={len(tableaux)}")
    for idx, t in enumerate(tableaux, start=1):
        word = " ".join(str(x) for x in t.reading_word())
        print(f"-- tableau {idx}: inversions={t.inversion_number()} sign={t.sign():+d} word={word}")
        print(t.render_text())
    return 0


def cmd_recurrence(args) -> int:
    prefix = _prefix_blocks(args.prefix)
    A, B, C = _elements(args.A), _elements(args.B), _elements(args.C)
    left, terms = _usage(recurrence_terms, prefix, A, B, C, args.r)
    ok = relation_holds(left, terms, args.r)
    if args.json:
        print(
            json.dumps(
                {
                    "left": left.text(),
                    "terms": [{"sign": s, "partition": p.text()} for s, p in terms],
                    "verified": ok,
                }
            )
        )
    else:
        print(f"left: ({left.text()})")
        for sign, p in terms:
            print(f"  {'+' if sign > 0 else '-'} ({p.text()})")
        print("VERIFIED" if ok else "FAILED")
    return 0 if ok else 1


def cmd_independence(args) -> int:
    if args.family == "orbit":
        if not args.partition or args.r is None:
            raise UsageError("--family orbit needs --partition and --r")
        family, r = rotation_orbit(_filled(args.partition, args.r)), args.r
    elif args.family == "hook":
        if args.n is None or args.d is None:
            raise UsageError("--family hook needs --n and --d")
        family, r = _usage(hook_family, args.n, args.d), 1
    else:
        if args.n is None or args.d is None or args.r is None:
            raise UsageError(f"--family {args.family} needs --n, --d, --r")
        _usage(SpechtShape, args.n, args.d, args.r)  # the family's module needs n >= r*d
        make = enumerate_noncrossing if args.family == "nc" else conjecture_family
        family, r = _usage(make, args.n, args.d, args.r), args.r
    rank = _rank(family, r)
    if args.json:
        print(
            json.dumps(
                {
                    "family": args.family,
                    "size": len(family),
                    "rank": rank,
                    "members": [p.text() for p in family],
                }
            )
        )
    else:
        print(f"size={len(family)} rank={rank}")
    return 0 if rank == len(family) else 1


def cmd_specht_check(args) -> int:
    partition = _usage(parse_partition, args.partition)
    shape = _usage(SpechtShape, partition.n, partition.d, args.r)
    poly = jellyfish_invariant(partition, args.r)
    ok = membership_test(poly, shape)
    if args.json:
        print(json.dumps({"partition": partition.text(), "r": args.r, "member": ok}))
    else:
        print(f"member={'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_gc_compare(args) -> int:
    partition = _filled(args.partition, args.r)
    sign = resolved_global_sign(partition, args.r)
    predicted = predicted_global_sign(partition, args.r)
    if args.json:
        print(json.dumps({"sign": sign, "predicted": predicted}))
        return 0 if sign is not None else 1
    if sign is None:
        print("NOT PROPORTIONAL")
        return 1
    print(f"{sign:+d} (predicted {predicted:+d})")
    return 0


def cmd_diagram(args) -> int:
    partition = _filled(args.partition, args.r)
    diagram = build_tensor_diagram(partition, args.r)
    text = export(diagram, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return 0


def cmd_hook_basis(args) -> int:
    _usage(hook_family, args.n, args.d)
    report = hook_basis(args.n, args.d)
    if args.json:
        print(json.dumps({**dataclasses.asdict(report), "basis": report.basis}))
    else:
        print(
            f"family={report.family} rank={report.rank} dimension={report.dimension} "
            f"basis={'true' if report.basis else 'false'}"
        )
    return 0 if report.basis else 1


def cmd_conjecture(args) -> int:
    _usage(SpechtShape, args.n, args.d, args.r)
    family = _usage(conjecture_family, args.n, args.d, args.r)
    size, rank = len(family), _rank(family, args.r)
    if args.json:
        print(json.dumps({"n": args.n, "d": args.d, "r": args.r, "size": size, "rank": rank}))
    else:
        print(f"size={size} rank={rank}")
    return 0 if size == rank else 1


def cmd_orbit_rank(args) -> int:
    orbit = rotation_orbit(_filled(args.partition, args.r))
    print(f"orbit={len(orbit)} rank={_rank(orbit, args.r)}")
    return 0


def cmd_verify_all(args) -> int:
    if args.n_max < 3:
        raise UsageError(f"--n-max must be at least 3, got {args.n_max}")
    results = []
    for name, check in verification.battery(args.n_max, args.seed):
        print(f"running {name} ...", file=sys.stderr, flush=True)
        results.append(check())
    if args.json:
        print(
            json.dumps(
                [
                    {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": round(r.seconds, 3)}
                    for r in results
                ]
            )
        )
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.ok for r in results) else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flamingo",
        description="Exact jellyfish invariants of ordered set partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_partition(p):
        p.add_argument("--partition", required=True)
        p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("invariant", help="expand an invariant in matrix entries")
    add_partition(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=cmd_invariant)

    p = sub.add_parser("tableaux", help="enumerate jellyfish tableaux")
    add_partition(p)
    add_json(p)
    p.set_defaults(handler=cmd_tableaux)

    p = sub.add_parser("recurrence", help="verify one recurrence instance")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--prefix", default="")
    add_json(p)
    p.set_defaults(handler=cmd_recurrence)

    p = sub.add_parser("independence", help="rank of an invariant family")
    p.add_argument("--family", choices=["nc", "hook", "orbit", "conjecture"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--partition")
    add_json(p)
    p.set_defaults(handler=cmd_independence)

    p = sub.add_parser("specht-check", help="membership of an invariant in its module")
    add_partition(p)
    add_json(p)
    p.set_defaults(handler=cmd_specht_check)

    p = sub.add_parser("gc-compare", help="compare the cap-and-wedge expansion with the tableau sum")
    add_partition(p)
    add_json(p)
    p.set_defaults(handler=cmd_gc_compare)

    p = sub.add_parser("diagram", help="export the tensor diagram")
    add_partition(p)
    p.add_argument("--format", choices=["dot", "json"], required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_diagram)

    p = sub.add_parser("hook-basis", help="verify the interval-partition basis at depth 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_json(p)
    p.set_defaults(handler=cmd_hook_basis)

    p = sub.add_parser("conjecture", help="size and rank of the short-distance family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_json(p)
    p.set_defaults(handler=cmd_conjecture)

    p = sub.add_parser("orbit-rank", help="rotation orbit size and invariant rank")
    add_partition(p)
    p.set_defaults(handler=cmd_orbit_rank)

    p = sub.add_parser("verify-all", help="run the full verification battery")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=2024)
    add_json(p)
    p.set_defaults(handler=cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
