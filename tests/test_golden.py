"""Golden invariants: ``to_json()`` of a fixed panel must not change by a byte.

The panel is the running example at r = 1, 2, the three-row example at
r = 3, every 50th ordered partition of [7] at r = 1, 2, 3 and the interval
partitions of [8] with block sizes (4, 4), (3, 5) and (2, 2, 2, 2) at r = 2.
``golden/invariants.jsonl.xz`` holds one JSON line per member, giving the
partition, r and the exact ``to_json()`` text.  It was written by the
tableau-sum code that predates the minor-product kernel; rewrite it with
``python tests/test_golden.py`` only for a deliberate change of format.
"""

import json
import lzma
from pathlib import Path

import pytest

from flamingo.invariants import jellyfish_invariant
from flamingo.partitions import OrderedSetPartition, enumerate_ordered_partitions, parse_partition
from flamingo.verification import RUNNING_PARTITION, THREE_ROW_PARTITION

GOLDEN = Path(__file__).with_name("golden") / "invariants.jsonl.xz"


def panel() -> list[tuple[OrderedSetPartition, int]]:
    pairs = [(RUNNING_PARTITION, 1), (RUNNING_PARTITION, 2), (THREE_ROW_PARTITION, 3)]
    for r in (1, 2, 3):
        every = [p for d in range(1, 7 // r + 1) for p in enumerate_ordered_partitions(7, d, r)]
        pairs.extend((p, r) for p in every[::50])
    for sizes in ((4, 4), (3, 5), (2, 2, 2, 2)):
        cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        blocks = [range(a + 1, b + 1) for a, b in zip(cuts, cuts[1:])]
        pairs.append((OrderedSetPartition.from_blocks(blocks), 2))
    return pairs


def load_golden() -> list[dict]:
    with lzma.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    with lzma.open(GOLDEN, "wt", encoding="utf-8", preset=9) as fh:
        for partition, r in panel():
            entry = {"partition": partition.text(), "r": r, "json": jellyfish_invariant(partition, r).to_json()}
            fh.write(json.dumps(entry) + "\n")


def test_golden_panel_is_the_documented_one():
    assert [(e["partition"], e["r"]) for e in load_golden()] == [(p.text(), r) for p, r in panel()]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_golden_invariants_byte_identical(r):
    for entry in load_golden():
        if entry["r"] == r:
            poly = jellyfish_invariant(parse_partition(entry["partition"]), r)
            assert poly.to_json() == entry["json"], entry["partition"]


if __name__ == "__main__":
    write_golden()
