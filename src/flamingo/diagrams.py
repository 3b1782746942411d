"""Weighted bipartite tensor diagrams attached to ordered set partitions.

A diagram of type (n, 2n) has black boundary vertices 1..2n on a disk and
an interior bipartition into white vertices w_1..w_d, u_1..u_{d-1} and
black vertices b_1..b_{d-1}.  Every interior vertex must carry incident
edge weights summing to n; weight-0 edges are simply absent.

Boundary vertices are plain integers, interior vertices strings like
"w1"; both appear verbatim in the JSON export, and the DOT export pins
the boundary clockwise on a circle.  ``validate`` and ``boundary_degrees``
share one rule: an endpoint is a boundary vertex when it is an ``int``,
not a ``bool``, in 1..2n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .partitions import FlamingoContext, OrderedSetPartition

Vertex = int | str
Edge = tuple[Vertex, Vertex, int]


@dataclass(frozen=True)
class TensorDiagram:
    n: int
    interior_white: tuple[str, ...]
    interior_black: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def boundary(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.n + 1))


def build_tensor_diagram(partition: OrderedSetPartition, r: int) -> TensorDiagram:
    """The diagram whose white vertex w_i fans out to the tail range and to
    block i shifted by n, with u_i collecting the tentacle range and b_i
    balancing the weights so every interior sum is n."""
    ctx = FlamingoContext.from_admissible(partition, r)
    n, d = partition.n, partition.d
    S = ctx.tentacle_rows
    E = ctx.tail_rows
    whites = tuple(f"w{i}" for i in range(1, d + 1)) + tuple(
        f"u{i}" for i in range(1, d)
    )
    blacks = tuple(f"b{i}" for i in range(1, d))
    edges: list[Edge] = []
    for i, block in enumerate(partition.blocks, start=1):
        for e in E:
            edges.append((f"w{i}", e, 1))
        for x in block:
            edges.append((f"w{i}", x + n, 1))
    for i in range(1, d):
        for s in S:
            edges.append((f"u{i}", s, 1))
        to_w = ctx.nu - len(partition.blocks[i - 1])
        if to_w:
            edges.append((f"b{i}", f"w{i}", to_w))
        edges.append((f"b{i}", f"u{i}", r * d))
        if ctx.tentacle_counts[i - 1]:
            edges.append((f"b{i}", f"w{d}", ctx.tentacle_counts[i - 1]))
    return TensorDiagram(n, whites, blacks, tuple(edges))


def validate(diagram: TensorDiagram) -> list[str]:
    """Empty list when sound; otherwise human-readable violations covering
    interior weight sums, bipartiteness, weight positivity, and endpoint
    validity."""
    problems = []
    white = set(diagram.interior_white)
    black = set(diagram.interior_black)
    n2 = 2 * diagram.n
    sums = dict.fromkeys(diagram.interior_white + diagram.interior_black, 0)

    def shade(v: Vertex) -> str | None:
        if type(v) is int:
            return "black" if 1 <= v <= n2 else None
        if v in white:
            return "white"
        if v in black:
            return "black"
        return None

    for a, b, w in diagram.edges:
        ca, cb = shade(a), shade(b)
        if ca is None or cb is None:
            problems.append(f"edge ({a!r}, {b!r}) touches an unknown vertex")
            continue
        if not 1 <= w <= diagram.n:
            problems.append(f"edge ({a!r}, {b!r}) has weight {w} outside [1, {diagram.n}]")
        if ca == cb:
            problems.append(f"edge ({a!r}, {b!r}) joins two {ca} vertices")
        if a in sums:
            sums[a] += w
        if b in sums:
            sums[b] += w
    for v, total in sums.items():
        if total != diagram.n:
            problems.append(f"interior vertex {v} has weight sum {total}, expected {diagram.n}")
    return problems


def boundary_degrees(diagram: TensorDiagram) -> dict[int, int]:
    """Edges at each boundary vertex; other endpoints are not counted."""
    n2 = 2 * diagram.n
    degrees = dict.fromkeys(diagram.boundary, 0)
    for a, b, _ in diagram.edges:
        if type(a) is int and 1 <= a <= n2:
            degrees[a] += 1
        if type(b) is int and 1 <= b <= n2:
            degrees[b] += 1
    return degrees


def unclasping_is_forest(diagram: TensorDiagram) -> bool:
    """True when splitting every boundary vertex into one leaf per incident
    edge leaves an acyclic graph."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    leaf = 0
    for a, b, _ in diagram.edges:
        ends = []
        for v in (a, b):
            if isinstance(v, int):
                leaf += 1
                ends.append(("leaf", leaf))
            else:
                ends.append(v)
        ra, rb = find(ends[0]), find(ends[1])
        if ra == rb:
            return False
        parent[ra] = rb
    return True


# -- export -----------------------------------------------------------------


def to_dot(diagram: TensorDiagram) -> str:
    """Graphviz text with the boundary pinned clockwise on a circle, white
    interior vertices as open circles, black vertices filled, and every
    edge labeled by its weight."""
    n2 = 2 * diagram.n
    radius = max(4.0, n2 / 4)
    lines = ["graph diagram {", "  layout=neato;", "  node [fontsize=10];"]
    for j in diagram.boundary:
        angle = math.pi / 2 - 2 * math.pi * (j - 1) / n2
        x = radius * math.cos(angle)
        y = radius * math.sin(angle)
        lines.append(
            f'  v{j} [label="{j}", shape=circle, style=filled, fillcolor=black,'
            f' fontcolor=white, width=0.3, fixedsize=true, pos="{x:.3f},{y:.3f}!"];'
        )
    for v in diagram.interior_white:
        lines.append(f'  {v} [label="{v}", shape=circle, style=solid, fillcolor=white];')
    for v in diagram.interior_black:
        lines.append(
            f'  {v} [label="{v}", shape=circle, style=filled, fillcolor=black, fontcolor=white];'
        )
    for a, b, w in diagram.edges:
        ea = f"v{a}" if isinstance(a, int) else a
        eb = f"v{b}" if isinstance(b, int) else b
        lines.append(f'  {ea} -- {eb} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(diagram: TensorDiagram) -> dict:
    return {
        "n": diagram.n,
        "boundary": list(diagram.boundary),
        "interior_white": list(diagram.interior_white),
        "interior_black": list(diagram.interior_black),
        "edges": [
            {"ends": [a, b], "weight": w} for a, b, w in diagram.edges
        ],
    }


def to_json(diagram: TensorDiagram, **kwargs) -> str:
    return json.dumps(to_json_dict(diagram), **kwargs)


def from_json_dict(data: Mapping) -> TensorDiagram:
    edges = tuple(
        (e["ends"][0], e["ends"][1], int(e["weight"])) for e in data["edges"]
    )
    return TensorDiagram(
        int(data["n"]),
        tuple(data["interior_white"]),
        tuple(data["interior_black"]),
        edges,
    )


def from_json(text: str) -> TensorDiagram:
    return from_json_dict(json.loads(text))


def export(diagram: TensorDiagram, fmt: str) -> str:
    if fmt == "dot":
        return to_dot(diagram)
    if fmt == "json":
        return to_json(diagram, indent=2)
    raise ValueError(f"unknown format {fmt!r}; expected dot or json")
