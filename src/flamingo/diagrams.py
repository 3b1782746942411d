"""Weighted bipartite tensor diagrams attached to ordered set partitions.

A diagram of type (n, 2n) has black boundary vertices 1..2n on a disk and
an interior bipartition into white vertices w_1..w_d, u_1..u_{d-1} and
black vertices b_1..b_{d-1}.  Every interior vertex must carry incident
edge weights summing to n; weight-0 edges are simply absent.

Boundary vertices are plain integers, interior vertices strings like
"w1"; both appear verbatim in the JSON export, and the DOT export pins
the boundary clockwise on a circle.  One rule tells a boundary vertex: an
``int``, not a ``bool``, in 1..2n.  ``to_dot`` and ``unclasping_is_forest``
raise ValueError on an endpoint that is neither that nor declared interior.
``from_json_dict`` raises ValueError on input that these readers and
``validate`` cannot take.

The builder slices the interior names from module-level tuples, so
diagrams share the strings, whose hashes are then cached, and format
none up to 64 blocks.  The validator keeps one cell [colour, weight sum]
per interior vertex and looks each edge end up once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .partitions import OrderedSetPartition, require_admissible

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


_TABLE = 64
_W, _U, _B = (tuple(f"{prefix}{i}" for i in range(1, _TABLE + 1)) for prefix in "wub")


def _names(table: tuple[str, ...], prefix: str, count: int) -> tuple[str, ...]:
    """prefix1 .. prefix<count>."""
    if count <= _TABLE:
        return table[:count]
    return table + tuple(f"{prefix}{i}" for i in range(_TABLE + 1, count + 1))


def build_tensor_diagram(partition: OrderedSetPartition, r: int) -> TensorDiagram:
    """The diagram whose white vertex w_i fans out to the tail range and to
    block i shifted by n, with u_i collecting the tentacle range and b_i
    balancing the weights so every interior sum is n."""
    nu = require_admissible(partition, r)
    n, d = partition.n, partition.d
    tail, tentacles = range(nu + 1, n + 1), range(r + 1, nu + 1)
    ws, us, bs = _names(_W, "w", d), _names(_U, "u", d - 1), _names(_B, "b", d - 1)
    edges: list[Edge] = []
    for w, block in zip(ws, partition.blocks):
        for e in tail:
            edges.append((w, e, 1))
        for x in block:
            edges.append((w, x + n, 1))
    for u, b, w, block in zip(us, bs, ws, partition.blocks):
        for s in tentacles:
            edges.append((u, s, 1))
        if nu - len(block):
            edges.append((b, w, nu - len(block)))
        edges.append((b, u, r * d))
        if len(block) > r:
            edges.append((b, ws[-1], len(block) - r))
    return TensorDiagram(n, ws + us, bs, tuple(edges))


def validate(diagram: TensorDiagram) -> list[str]:
    """Empty list when sound; otherwise human-readable violations covering
    interior weight sums, bipartiteness, weight positivity, and endpoint
    validity.  A name declared white and black is white.  An int end takes
    its colour from the boundary rule alone, and any end equal to a
    declared name, an int or ``True`` too, adds its weight to that name's
    sum."""
    problems = []
    n = diagram.n
    n2 = 2 * n
    cells = {v: ["white", 0] for v in diagram.interior_white}
    for v in diagram.interior_black:
        cells.setdefault(v, ["black", 0])
    get = cells.get
    for a, b, w in diagram.edges:
        cell_a, cell_b = get(a), get(b)
        ca = ("black" if 1 <= a <= n2 else None) if type(a) is int else cell_a and cell_a[0]
        cb = ("black" if 1 <= b <= n2 else None) if type(b) is int else cell_b and cell_b[0]
        if ca is None or cb is None:
            problems.append(f"edge ({a!r}, {b!r}) touches an unknown vertex")
            continue
        if ca == cb or not 1 <= w <= n:
            if not 1 <= w <= n:
                problems.append(f"edge ({a!r}, {b!r}) has weight {w} outside [1, {n}]")
            if ca == cb:
                problems.append(f"edge ({a!r}, {b!r}) joins two {ca} vertices")
        if cell_a is not None:
            cell_a[1] += w
        if cell_b is not None:
            cell_b[1] += w
    for v, (_, total) in cells.items():
        if total != n:
            problems.append(f"interior vertex {v} has weight sum {total}, expected {n}")
    return problems


def boundary_degrees(diagram: TensorDiagram) -> dict[int, int]:
    """Edges at each boundary vertex; other endpoints are not counted."""
    n2 = 2 * diagram.n
    degrees = dict.fromkeys(range(1, n2 + 1), 0)
    for a, b, _ in diagram.edges:
        if type(a) is int and 1 <= a <= n2:
            degrees[a] += 1
        if type(b) is int and 1 <= b <= n2:
            degrees[b] += 1
    return degrees


def _is_boundary(v: Vertex, n2: int, interior: set) -> bool:
    """True for a boundary vertex, False for a declared interior one."""
    if type(v) is int:
        if 1 <= v <= n2:
            return True
    elif v in interior:
        return False
    raise ValueError(f"unknown vertex {v!r}: neither a boundary vertex in 1..{n2} nor a declared interior vertex")


def unclasping_is_forest(diagram: TensorDiagram) -> bool:
    """True when splitting every boundary vertex into one leaf per incident
    edge leaves an acyclic graph."""
    n2 = 2 * diagram.n
    interior = {*diagram.interior_white, *diagram.interior_black}
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
            if _is_boundary(v, n2, interior):
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
    interior = {*diagram.interior_white, *diagram.interior_black}
    for a, b, w in diagram.edges:
        ea = f"v{a}" if _is_boundary(a, n2, interior) else a
        eb = f"v{b}" if _is_boundary(b, n2, interior) else b
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
    """Read the JSON form back: an object with ``n``, ``interior_white``,
    ``interior_black`` and ``edges``, each edge an object with ``ends`` and
    ``weight``.  ``n`` and every weight must be JSON integers, ``n`` at
    least 0; nothing is truncated, and ``true`` is not 1.  The interior
    vertices and the edges are JSON arrays, and each edge's ``ends`` an
    array of two.  Every edge end must be a JSON integer or string
    (``true`` is read, and is no vertex), and the interior vertices
    distinct strings, none both white and black."""
    if not isinstance(data, Mapping) or not data.keys() >= {"n", "interior_white", "interior_black", "edges"}:
        raise ValueError(
            f"a diagram must be a JSON object with n, interior_white, interior_black and edges, got {data!r}"
        )
    n = data["n"]
    for field in ("interior_white", "interior_black", "edges"):
        if type(data[field]) is not list:
            raise ValueError(f"{field} must be a JSON array, got {data[field]!r}")
    for e in data["edges"]:
        if type(e) is not dict or type(e.get("ends")) is not list or len(e["ends"]) != 2:
            raise ValueError(f"every edge must be an object with an array of two ends, got {e!r}")
        if "weight" not in e:
            raise ValueError(f"every edge needs a weight, got {e!r}")
    white, black = tuple(data["interior_white"]), tuple(data["interior_black"])
    edges = tuple((*e["ends"], e["weight"]) for e in data["edges"])
    for value in (n, *(w for _, _, w in edges)):
        if type(value) is not int:
            raise ValueError(f"n and every weight must be JSON integers, got {value!r}")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    for end in (v for a, b, _ in edges for v in (a, b)):
        if not isinstance(end, (int, str)):
            raise ValueError(f"every edge end must be a JSON integer or string, got {end!r}")
    seen = set()
    for name in white + black:
        if type(name) is not str:
            raise ValueError(f"every interior vertex must be a JSON string, got {name!r}")
        if name in seen:
            raise ValueError(f"interior vertex {name!r} is declared twice")
        seen.add(name)
    return TensorDiagram(n, white, black, edges)


def from_json(text: str) -> TensorDiagram:
    return from_json_dict(json.loads(text))


def export(diagram: TensorDiagram, fmt: str) -> str:
    if fmt == "dot":
        return to_dot(diagram)
    if fmt == "json":
        return to_json(diagram, indent=2)
    raise ValueError(f"unknown format {fmt!r}; expected dot or json")
