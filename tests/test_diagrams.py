import json

import pytest

from flamingo.diagrams import (
    TensorDiagram,
    boundary_degrees,
    build_tensor_diagram,
    export,
    from_json,
    from_json_dict,
    to_dot,
    unclasping_is_forest,
    validate,
)
from flamingo.partitions import FlamingoContext, enumerate_ordered_partitions, parse_partition

EXAMPLE = parse_partition("2 3 6 10|5 7 8 9|1 4")


class TestConstruction:
    def test_example_vertex_classes(self):
        diagram = build_tensor_diagram(EXAMPLE, 2)
        assert diagram.interior_white == ("w1", "w2", "w3", "u1", "u2")
        assert diagram.interior_black == ("b1", "b2")

    def test_example_validates(self):
        assert validate(build_tensor_diagram(EXAMPLE, 2)) == []

    def test_boundary_degree_profile(self):
        p = EXAMPLE
        r = 2
        diagram = build_tensor_diagram(p, r)
        ctx = FlamingoContext.from_partition(p, r)
        degrees = boundary_degrees(diagram)
        for j in range(1, r + 1):
            assert degrees[j] == 0
        for j in ctx.tentacle_rows:
            assert degrees[j] == p.d - 1
        for j in ctx.tail_rows:
            assert degrees[j] == p.d
        for block in p.blocks:
            for x in block:
                assert degrees[x + p.n] == 1

    def test_interior_weight_sums_are_n(self):
        diagram = build_tensor_diagram(EXAMPLE, 1)
        totals = {v: 0 for v in diagram.interior_white + diagram.interior_black}
        for a, b, w in diagram.edges:
            for end in (a, b):
                if end in totals:
                    totals[end] += w
        assert set(totals.values()) == {EXAMPLE.n}

    @pytest.mark.parametrize("n,d,r", [(4, 2, 1), (5, 2, 2), (6, 3, 1), (6, 2, 3)])
    def test_all_small_diagrams_validate(self, n, d, r):
        for p in enumerate_ordered_partitions(n, d, r):
            diagram = build_tensor_diagram(p, r)
            assert validate(diagram) == []
            assert unclasping_is_forest(diagram)


class TestValidate:
    def test_flags_same_color_edge(self):
        diagram = TensorDiagram(
            n=2,
            interior_white=("w1",),
            interior_black=("b1",),
            edges=(("w1", "w1", 2),),
        )
        assert any("white" in msg for msg in validate(diagram))

    def test_flags_bad_weight(self):
        diagram = TensorDiagram(
            n=2,
            interior_white=("w1",),
            interior_black=("b1",),
            edges=(("w1", "b1", 0),),
        )
        assert validate(diagram)

    def test_flags_wrong_interior_sum(self):
        diagram = TensorDiagram(
            n=2,
            interior_white=("w1",),
            interior_black=(),
            edges=(("w1", 1, 1),),
        )
        assert any("sum" in msg for msg in validate(diagram))

    def test_flags_unknown_vertex(self):
        diagram = TensorDiagram(
            n=2,
            interior_white=("w1",),
            interior_black=(),
            edges=(("w1", "ghost", 2),),
        )
        assert validate(diagram)

    # A boundary vertex is an int, not a bool, in 1..2n: validate reports
    # any other endpoint as unknown, and boundary_degrees does not count it.

    def test_int_outside_the_boundary_is_unknown(self):
        diagram = from_json_dict(
            {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [{"ends": ["w1", 9], "weight": 2}]}
        )
        assert "edge ('w1', 9) touches an unknown vertex" in validate(diagram)
        assert boundary_degrees(diagram) == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_json_true_is_not_boundary_vertex_one(self):
        diagram = from_json(
            '{"n": 2, "interior_white": ["w1"], "interior_black": [],'
            ' "edges": [{"ends": ["w1", true], "weight": 2}]}'
        )
        assert "edge ('w1', True) touches an unknown vertex" in validate(diagram)
        assert boundary_degrees(diagram) == {1: 0, 2: 0, 3: 0, 4: 0}


class TestExport:
    def test_dot_mentions_every_boundary_vertex(self):
        diagram = build_tensor_diagram(parse_partition("1 2|3 4"), 1)
        dot = to_dot(diagram)
        for j in range(1, 9):
            assert f"v{j} " in dot or f"v{j} --" in dot or f"-- v{j}" in dot

    def test_dot_pins_positions(self):
        dot = to_dot(build_tensor_diagram(parse_partition("1 2|3 4"), 1))
        assert dot.count("!") == 8

    def test_dot_deterministic(self):
        p = parse_partition("1 3|2 4")
        assert to_dot(build_tensor_diagram(p, 1)) == to_dot(build_tensor_diagram(p, 1))

    def test_json_round_trip(self):
        diagram = build_tensor_diagram(EXAMPLE, 2)
        doc = export(diagram, "json")
        assert from_json(doc) == diagram

    def test_json_fields(self):
        doc = json.loads(export(build_tensor_diagram(EXAMPLE, 2), "json"))
        assert set(doc) == {"n", "boundary", "interior_white", "interior_black", "edges"}
        assert doc["boundary"] == list(range(1, 21))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export(build_tensor_diagram(EXAMPLE, 2), "svg")


class TestUnclasping:
    def test_cycle_detected_without_splitting(self):
        # two interior vertices joined twice form a cycle even after
        # boundary splitting
        diagram = TensorDiagram(
            n=2,
            interior_white=("w1",),
            interior_black=("b1",),
            edges=(("w1", "b1", 1), ("b1", "w1", 1), ("w1", 1, 1), ("b1", 2, 1)),
        )
        assert not unclasping_is_forest(diagram)

    def test_star_through_boundary_is_forest(self):
        diagram = TensorDiagram(
            n=2,
            interior_white=("w1",),
            interior_black=("b1",),
            edges=(("w1", 1, 1), ("b1", 1, 1), ("w1", "b1", 1)),
        )
        assert unclasping_is_forest(diagram)
