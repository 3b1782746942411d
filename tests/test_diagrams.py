import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flamingo import verification
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
from flamingo.partitions import OrderedSetPartition, enumerate_ordered_partitions, parse_partition, partitions_up_to

import oracles

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
        nu = p.n - (p.d - 1) * r
        degrees = boundary_degrees(diagram)
        for j in range(1, r + 1):
            assert degrees[j] == 0
        for j in range(r + 1, nu + 1):  # the tentacle rows
            assert degrees[j] == p.d - 1
        for j in range(nu + 1, p.n + 1):  # the tail rows
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


def _pairs(n_max):
    return [(p, r) for r in (1, 2, 3) for p in partitions_up_to(n_max, r)]


@pytest.fixture(scope="module")
def diagrams_up_to_seven():
    """(p, r, diagram) for every pair of ``_pairs(7)``, in its order, built
    once for the tests that read them; a test at a smaller n takes the
    pairs with p.n up to its own bound, in the order ``_pairs`` gives them.
    The list holds about 180 MiB, so it is dropped when this module ends."""
    return [(p, r, build_tensor_diagram(p, r)) for p, r in _pairs(7)]


def _up_to(built, n_max):
    return [(p, r, diagram) for p, r, diagram in built if p.n <= n_max]


class TestBoundaryProfile:
    """The diagram check's boundary profile, one expected list compared in
    vertex order, against the four-range walk it replaced, kept in
    ``oracles``."""

    def test_a_moved_degree_fails_at_the_reference_vertex(self, monkeypatch, diagrams_up_to_seven):
        # every diagram at n <= 6 with one boundary degree moved by +1 or -1:
        # both checks name that vertex.  Building and validating are stubbed
        # out, so the sweep compares degrees and nothing else.
        degrees: dict[int, int] = {}
        monkeypatch.setattr(verification, "build_tensor_diagram", lambda p, r: None)
        monkeypatch.setattr(verification, "validate", lambda diagram: [])
        monkeypatch.setattr(verification, "boundary_degrees", lambda diagram: degrees)
        vertex = re.compile(r"boundary (\d+) ")
        cases = 0
        for p, r, diagram in _up_to(diagrams_up_to_seven, 6):
            degrees.clear()
            degrees.update(boundary_degrees(diagram))
            for v, degree in list(degrees.items()):
                for delta in (1, -1):
                    degrees[v] = degree + delta
                    ours = verification._diagram_holds((p, r))
                    reference = oracles.boundary_profile_by_ranges(p, r, degrees)
                    assert ours == f"boundary {v} degree {degree + delta} != {degree} for {p}"
                    assert vertex.match(reference).group(1) == str(v)
                    cases += 1
                degrees[v] = degree
        assert cases == 129_084

    def test_the_first_vertex_out_of_profile_is_named(self, monkeypatch, diagrams_up_to_seven):
        # every degree moved at once: both checks name vertex 1
        degrees: dict[int, int] = {}
        monkeypatch.setattr(verification, "boundary_degrees", lambda diagram: degrees)
        for p, r, diagram in _up_to(diagrams_up_to_seven, 4):
            degrees.clear()
            degrees.update((v, degree + 1) for v, degree in boundary_degrees(diagram).items())
            assert verification._diagram_holds((p, r)).startswith("boundary 1 degree ")
            assert oracles.boundary_profile_by_ranges(p, r, degrees).startswith("boundary 1 ")


class TestAgainstReference:
    """The builder, the one-pass validator and the degree count against
    the code they replaced, kept verbatim in ``oracles``."""

    def test_every_diagram_up_to_seven_is_equal_in_edge_order(self, diagrams_up_to_seven):
        assert len(diagrams_up_to_seven) == 53_618
        for p, r, diagram in diagrams_up_to_seven:
            reference = oracles.build_tensor_diagram(p, r)
            assert diagram == reference  # the edge tuples too, in order
            assert validate(diagram) == oracles.validate(reference) == []
            assert boundary_degrees(diagram) == oracles.boundary_degrees(reference)

    POOL = _pairs(5)

    @staticmethod
    def _mutate(diagram, data):
        n = diagram.n
        edges = list(diagram.edges)
        whites, blacks = list(diagram.interior_white), list(diagram.interior_black)
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            kind = data.draw(st.sampled_from(["weight", "endpoint", "swap", "copy", "declare", "drop"]), label="kind")
            if kind in ("swap", "copy"):
                v = data.draw(st.sampled_from(whites + blacks), label="vertex")
                source, target = (whites, blacks) if v in whites else (blacks, whites)
                if kind == "swap":
                    source.remove(v)
                target.append(v)
                continue
            if kind == "declare":
                # an interior vertex named like a boundary vertex, or by a number outside it
                v = data.draw(st.sampled_from([1, True, 2 * n + 1, n + 1]), label="declared")
                (whites if data.draw(st.booleans(), label="white") else blacks).append(v)
                continue
            if not edges:
                continue
            i = data.draw(st.integers(0, len(edges) - 1), label="edge")
            a, b, w = edges[i]
            if kind == "drop":
                del edges[i]
            elif kind == "weight":
                edges[i] = (a, b, data.draw(st.sampled_from([0, n + 1, -1]), label="weight"))
            else:
                # 1.0 equals and hashes like 1, so only an explicit int test rejects it
                end = data.draw(st.sampled_from([True, 0, 2 * n + 1, 1.0, "x9", n + 1]), label="end")
                edges[i] = (end, b, w) if data.draw(st.booleans(), label="first") else (a, end, w)
        return dataclasses.replace(
            diagram, interior_white=tuple(whites), interior_black=tuple(blacks), edges=tuple(edges)
        )

    @settings(max_examples=500)
    @given(st.data())
    def test_mutated_diagrams_get_the_reference_verdicts(self, data):
        p, r = data.draw(st.sampled_from(self.POOL), label="pair")
        diagram = self._mutate(build_tensor_diagram(p, r), data)
        assert validate(diagram) == oracles.validate(diagram)
        assert boundary_degrees(diagram) == oracles.boundary_degrees(diagram)

    @pytest.mark.parametrize(
        "white, black, edges",
        [
            (("w1", 3), (), ((3, "w1", 1), ("w1", 3, 1))),
            (("w1",), (True,), (("w1", True, 2), (1, True, 1))),
            (("w1", "b1"), ("b1",), (("w1", "b1", 2), ("b1", 1, 1))),
            # True and 1 hash alike: a True end takes the white cell's colour,
            # a 1 end the boundary's, and both add to that one cell's sum
            (("w1", True), (1, "b1"), (("w1", 1, 1), ("b1", True, 1), (True, 1, 1), ("w1", "b1", 1))),
            # the black vertex 2 is also boundary vertex 2: an int end adds to
            # its sum with the boundary's colour, a float end with its own
            (("w1",), (2,), (("w1", 2, 1), ("w1", 2.0, 2), (2.0, 3, 1))),
        ],
        ids=["int-named-interior", "true-named-interior", "white-and-black", "true-white-one-black", "int-interior-in-range"],
    )
    def test_odd_declarations_get_the_reference_verdicts(self, white, black, edges):
        diagram = TensorDiagram(n=2, interior_white=white, interior_black=black, edges=edges)
        assert validate(diagram) == oracles.validate(diagram)
        assert boundary_degrees(diagram) == oracles.boundary_degrees(diagram)

    def test_names_past_the_tables_are_formatted(self):
        # 65 singletons at r = 1: w65 lies past the name tables, u64 and b64 do not
        p = OrderedSetPartition(65, tuple((i,) for i in range(1, 66)))
        diagram = build_tensor_diagram(p, 1)
        reference = oracles.build_tensor_diagram(p, 1)
        assert diagram == reference  # the edge tuples too, in order
        assert diagram.interior_white[63:66] == ("w64", "w65", "u1")
        assert diagram.interior_black[-1] == "b64"
        assert validate(diagram) == oracles.validate(reference) == []
        assert boundary_degrees(diagram) == oracles.boundary_degrees(reference)

    def test_float_one_is_not_boundary_vertex_one(self):
        diagram = TensorDiagram(n=1, interior_white=("w1",), interior_black=(), edges=(("w1", 1.0, 1),))
        assert validate(diagram) == oracles.validate(diagram)
        assert validate(diagram)[0] == "edge ('w1', 1.0) touches an unknown vertex"
        assert boundary_degrees(diagram) == {1: 0, 2: 0}


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

    @pytest.mark.parametrize(
        "field, value", [("n", 2.7), ("n", True), ("weight", 1.9), ("weight", True)], ids=str
    )
    def test_json_reader_takes_only_integers(self, field, value):
        doc = {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [{"ends": ["w1", 1], "weight": 2}]}
        (doc if field == "n" else doc["edges"][0])[field] = value
        with pytest.raises(ValueError, match=f"must be JSON integers, got {value!r}"):
            from_json(json.dumps(doc))

    # the JSON reader takes only what validate, to_dot and unclasping_is_forest
    # can read: [1] as an end made validate raise TypeError, and "w1" both
    # white and black made it report no problem

    @pytest.mark.parametrize("end", [[1], {"v": 1}, 1.5, None], ids=["list", "object", "float", "null"])
    def test_json_reader_takes_only_integer_or_string_ends(self, end):
        doc = {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [{"ends": [end, 2], "weight": 2}]}
        with pytest.raises(ValueError, match=re.escape(f"must be a JSON integer or string, got {end!r}")):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "white, black, message",
        [
            (["w1", 3], [], "must be a JSON string, got 3"),
            (["w1", ["b1"]], [], "must be a JSON string, got ['b1']"),
            (["w1", "w1"], [], "interior vertex 'w1' is declared twice"),
            (["w1"], ["w1"], "interior vertex 'w1' is declared twice"),
        ],
        ids=["int", "list", "repeated", "white-and-black"],
    )
    def test_json_reader_takes_only_distinct_string_interiors(self, white, black, message):
        doc = {"n": 2, "interior_white": white, "interior_black": black, "edges": [{"ends": ["w1", 1], "weight": 2}]}
        with pytest.raises(ValueError, match=re.escape(message)):
            from_json(json.dumps(doc))

    # a string or object where an array belongs was read as its characters
    # or keys, and ends past the second were dropped
    def test_json_reader_rejects_a_string_array_and_a_third_end(self):
        doc = {
            "n": 1,
            "interior_white": "w1",
            "interior_black": [],
            "edges": [{"ends": ["w", 1], "weight": 1}, {"ends": ["1", 2, 9], "weight": 1}],
        }
        with pytest.raises(ValueError, match="^interior_white must be a JSON array, got 'w1'$"):
            from_json(json.dumps(doc))
        doc["interior_white"] = ["w", "1"]
        with pytest.raises(ValueError, match=re.escape("array of two ends, got {'ends': ['1', 2, 9], 'weight': 1}")):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [("interior_white", "w1"), ("interior_black", {"b1": 1}), ("edges", {"ends": ["w1", 1], "weight": 2}), ("edges", None)],
        ids=["white-string", "black-object", "edges-object", "edges-null"],
    )
    def test_json_reader_takes_only_arrays_of_vertices_and_edges(self, field, value):
        doc = {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [{"ends": ["w1", 1], "weight": 2}]}
        doc[field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a JSON array, got {value!r}")):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edge",
        [{"ends": ["w1"], "weight": 2}, {"ends": ["w1", 1, 2], "weight": 2}, {"ends": "w1", "weight": 2}, ["w1", 1, 2]],
        ids=["one-end", "three-ends", "string-ends", "edge-array"],
    )
    def test_json_reader_takes_only_edges_of_two_ends(self, edge):
        doc = {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [edge]}
        with pytest.raises(ValueError, match=re.escape(f"every edge must be an object with an array of two ends, got {edge!r}")):
            from_json(json.dumps(doc))

    # a missing key raised KeyError and a document that is no object TypeError
    @pytest.mark.parametrize(
        "drop", ["n", "interior_white", "interior_black", "edges", "document"], ids=str
    )
    def test_json_reader_needs_an_object_with_every_key(self, drop):
        doc = {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [{"ends": ["w1", 1], "weight": 2}]}
        doc = [doc] if drop == "document" else {k: v for k, v in doc.items() if k != drop}
        message = f"a diagram must be a JSON object with n, interior_white, interior_black and edges, got {doc!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edge, message",
        [
            ({"ends": ["w1", 1]}, "every edge needs a weight, got {'ends': ['w1', 1]}"),
            ({"weight": 2}, "every edge must be an object with an array of two ends, got {'weight': 2}"),
        ],
        ids=["no-weight", "no-ends"],
    )
    def test_json_reader_needs_ends_and_a_weight(self, edge, message):
        doc = {"n": 2, "interior_white": ["w1"], "interior_black": [], "edges": [edge]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(json.dumps(doc))

    # {"n": -3, ...} was read, and validate found nothing wrong with it
    def test_json_reader_rejects_a_negative_n(self):
        doc = {"n": -3, "interior_white": [], "interior_black": [], "edges": []}
        with pytest.raises(ValueError, match="^n must be at least 0, got -3$"):
            from_json(json.dumps(doc))
        assert from_json(json.dumps({**doc, "n": 0})) == TensorDiagram(0, (), (), ())

    def test_json_fields(self):
        doc = json.loads(export(build_tensor_diagram(EXAMPLE, 2), "json"))
        assert set(doc) == {"n", "boundary", "interior_white", "interior_black", "edges"}
        assert doc["boundary"] == list(range(1, 21))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export(build_tensor_diagram(EXAMPLE, 2), "svg")


class TestEndpointRule:
    """``to_dot`` and ``unclasping_is_forest`` take a boundary vertex by the
    rule of ``validate`` and reject an endpoint that is neither that nor a
    declared interior vertex."""

    @pytest.mark.parametrize(
        "end, named",
        [("true", "True"), ("9", "9"), ('"ghost"', "'ghost'")],
        ids=["json-true", "outside-1-to-2n", "undeclared-name"],
    )
    @pytest.mark.parametrize("reader", [to_dot, unclasping_is_forest], ids=["to_dot", "unclasping_is_forest"])
    def test_unknown_endpoint_raises(self, reader, end, named):
        diagram = from_json(
            '{"n": 2, "interior_white": ["w1"], "interior_black": [],'
            f' "edges": [{{"ends": ["w1", {end}], "weight": 2}}]}}'
        )
        with pytest.raises(ValueError, match=f"unknown vertex {named}"):
            reader(diagram)


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
