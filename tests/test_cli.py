import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import flamingo
from flamingo import verification
from flamingo.cli import main
from flamingo.diagrams import to_dot, to_json
from flamingo.partitions import parse_partition
from flamingo.polynomials import MatrixPolynomial

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m flamingo *argv`` in a child process that imports the
    package these tests imported, installed or not."""
    env = dict(os.environ)
    source = str(pathlib.Path(flamingo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "flamingo", *argv], capture_output=True, text=True, env=env)


class TestInvariant:
    def test_json_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--partition", "1 3|2 4", "--r", "1")
        assert code == 0
        poly = MatrixPolynomial.from_json(out)
        assert poly.n == 4
        assert not poly.is_zero

    def test_deterministic(self, capsys):
        argv = ("invariant", "--partition", "1 2 5|3 4 6", "--r", "2")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_pretty_mode(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--partition", "1 2|3 4", "--r", "1", "--pretty")
        assert code == 0
        assert "x[" in out

    def test_bad_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "invariant", "--partition", "1 2|2 3", "--r", "1")
        assert code == 2
        assert "error" in err


class TestTableaux:
    def test_count_line(self, capsys):
        code, out, _ = run_cli(capsys, "tableaux", "--partition", "1 2|3 4", "--r", "1")
        assert code == 0
        assert out.startswith("count=2")

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "tableaux", "--partition", "1 2|3 4", "--r", "1", "--json")
        doc = json.loads(out)
        assert doc["count"] == 2
        assert {t["sign"] for t in doc["tableaux"]} == {1, -1}


# sha256 of what ``flamingo tableaux`` printed, as text and as --json, when
# the reading word was still read off the grid
TABLEAUX_OUTPUT_SHA256 = {
    ("2 3 6 10|5 7 8 9|1 4", 1): (
        "1272834c4e7b10e53a79ab000013e8fd0507fe73579da1a06592fa7e8625ac8f",
        "d6aead87870cde1e894d21b492a3dd1bd29ae0c1380659150c908cc031680e00",
    ),
    ("2 3 6 10|5 7 8 9|1 4", 2): (
        "0f9050c16c3d74a6d40a68149e9c1e58647aae2a2821a90298bfbd1b0233319c",
        "a70298fca2d685c006e786ab80230de7aec2b2382bb427cedf7084f16a4737e1",
    ),
    ("2 3 6 7 12|1 8 10|4 5 9 11", 3): (
        "50809e43d61314e76fdaf160b731d3314e83f4e8c90de46cff4414ef4e2abad3",
        "b6996936e462898942a0ec6d9c1e34a4f45b57ae05df3305616350e8e25d8d08",
    ),
}


@pytest.mark.parametrize("partition, r", list(TABLEAUX_OUTPUT_SHA256))
def test_tableaux_output_is_pinned_and_read_off_the_grid(capsys, partition, r):
    code, text, _ = run_cli(capsys, "tableaux", "--partition", partition, "--r", str(r))
    json_code, doc, _ = run_cli(capsys, "tableaux", "--partition", partition, "--r", str(r), "--json")
    assert code == json_code == 0
    assert (text, doc) == oracles.tableaux_cli_output(parse_partition(partition), r)
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in (text, doc))
    assert digests == TABLEAUX_OUTPUT_SHA256[(partition, r)]


class TestRecurrence:
    def test_verified_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "--A", "1 2", "--B", "3", "--C", "4", "--r", "1"
        )
        assert code == 0
        assert "VERIFIED" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "recurrence", "--A", "1 2", "--B", "3 4", "--C", "5 6", "--r", "2", "--json",
        )
        doc = json.loads(out)
        assert doc["verified"] is True
        assert len(doc["terms"]) == 4

    def test_wrong_c_size_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "recurrence", "--A", "1", "--B", "2", "--C", "3 4", "--r", "1"
        )
        assert code == 2


class TestFamilies:
    def test_orbit_rank_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "orbit-rank", "--partition", "1 2 3 5|4 6", "--r", "2")
        assert code == 0
        assert out == "orbit=6 rank=5\n"

    def test_independence_nc(self, capsys):
        code, out, _ = run_cli(
            capsys, "independence", "--family", "nc", "--n", "6", "--d", "2", "--r", "2"
        )
        assert code == 0
        assert out == "size=9 rank=9\n"

    def test_independence_orbit_rank_deficient(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "independence", "--family", "orbit", "--partition", "1 2 3 5|4 6", "--r", "2",
        )
        assert code == 1
        assert out == "size=6 rank=5\n"

    def test_independence_missing_args(self, capsys):
        code, _, err = run_cli(capsys, "independence", "--family", "nc", "--n", "6")
        assert code == 2

    def test_hook_basis(self, capsys):
        code, out, _ = run_cli(capsys, "hook-basis", "--n", "6", "--d", "3")
        assert code == 0
        assert "basis=true" in out

    def test_conjecture(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--n", "6", "--d", "2", "--r", "3")
        assert code == 0
        assert out == "size=3 rank=3\n"


class TestChecks:
    def test_specht_check_member(self, capsys):
        code, out, _ = run_cli(capsys, "specht-check", "--partition", "1 3 5|2 4 6", "--r", "2")
        assert code == 0
        assert out == "member=true\n"

    def test_gc_compare_running_sign(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc-compare", "--partition", "2 3 6 10|5 7 8 9|1 4", "--r", "2"
        )
        assert code == 0
        assert out.startswith("+1")


class TestDiagram:
    def test_dot_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagram", "--partition", "1 2|3 4", "--r", "1", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph ")

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "diagram.json"
        code, out, _ = run_cli(
            capsys,
            "diagram", "--partition", "1 2|3 4", "--r", "1",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["n"] == 4

    # r, partition: d = 1 at every depth, n = 8 at every depth, n = 10 at r = 2
    EXPORT_PANEL = [
        (1, "1"), (1, "1 2 3"), (1, "1|2"), (1, "2|1"), (1, "1 3|2 4"), (1, "1 4|2 5 7|3 6"),
        (1, "1|2|3|4"), (1, "1 5|2 6|3 7|4 8"), (1, "1 2 3 4 5 6 7 8"),
        (2, "1 2"), (2, "1 3|2 4"), (2, "1 2 5|3 4 6"), (2, "5 6|1 4|2 3"), (2, "1 3 5 7|2 4 6 8"),
        (2, "1 2 3 4 5 6 7"), (2, "2 3 6 10|5 7 8 9|1 4"),
        (3, "1 2 3"), (3, "1 2 3|4 5 6"), (3, "2 4 6|1 3 5"), (3, "1 4 7|2 5 8|3 6 9"),
        (3, "2 3 5 8|1 4 6 7"), (3, "1 2 3 4 5 6 7 8"),
    ]

    @pytest.mark.parametrize("r, text", EXPORT_PANEL)
    def test_exports_match_the_reference_build(self, capsys, r, text):
        reference = oracles.build_tensor_diagram(parse_partition(text), r)
        for fmt, expected in (("dot", to_dot(reference)), ("json", to_json(reference, indent=2) + "\n")):
            code, out, _ = run_cli(capsys, "diagram", "--partition", text, "--r", str(r), "--format", fmt)
            assert code == 0
            assert out == expected

    def test_missing_out_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "d.dot"
        code, out, err = run_cli(
            capsys,
            "diagram", "--partition", "1 2|3 4", "--r", "1",
            "--format", "dot", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()


class TestVerifyAll:
    def test_small_battery(self, capsys):
        code, out, err = run_cli(capsys, "verify-all", "--n-max", "4")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 13
        assert all(line.startswith("[PASS]") for line in lines)

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all", "--n-max", "4", "--json")
        doc = json.loads(out)
        assert len(doc) == 13
        assert all(entry["ok"] for entry in doc)

    def test_registry_holds_every_check_once(self, monkeypatch):
        calls = []
        for name in dir(verification):
            if name.startswith("check_"):
                monkeypatch.setattr(
                    verification, name, lambda *a, _name=name, **kw: calls.append(_name)
                )
        for _, check in verification.battery(3, 2024):
            check()
        checks = sorted(name for name in dir(verification) if name.startswith("check_"))
        assert sorted(calls) == checks
        assert len(calls) == 13

    def test_json_names_follow_registry(self, capsys):
        code, out, err = run_cli(capsys, "verify-all", "--n-max", "3", "--json")
        names = [name for name, _ in verification.battery(3, 2024)]
        assert code == 0
        assert [entry["name"] for entry in json.loads(out)] == names
        assert err.splitlines() == [f"running {name} ..." for name in names]

    def test_checks_are_looked_up_when_called(self, capsys, monkeypatch):
        # perfbench/verify_all.py times the battery by wrapping each check_*
        # function after import; the CLI must call the wrapped functions.
        original = verification.check_orbit_rank
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verification, "check_orbit_rank", wrapper)
        code, _, _ = run_cli(capsys, "verify-all", "--n-max", "3", "--json")
        assert code == 0
        assert len(calls) == 1

    def test_fault_inside_a_check_is_not_a_usage_error(self, monkeypatch):
        # only the calls that turn arguments into library objects map a
        # ValueError to exit 2; one raised inside a check is a fault
        def broken(*args, **kwargs):
            raise ValueError("fault inside the check")

        monkeypatch.setattr(verification, "check_orbit_rank", broken)
        with pytest.raises(ValueError, match="fault inside the check"):
            main(["verify-all", "--n-max", "3", "--json"])


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("orbit-rank", "--partition", "1 2 3 5|4 6", "--r", "2")
        assert proc.returncode == 0
        assert proc.stdout == "orbit=6 rank=5\n"

    def test_no_command_is_usage_error(self):
        assert run_module().returncode == 2

    def test_unknown_command_is_usage_error(self):
        assert run_module("bogus").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--partition", "1|2", "--r", "0"),
        ("tableaux", "--partition", "1|2 3", "--r", "2"),
        ("diagram", "--partition", "1|2 3", "--r", "2", "--format", "dot"),
        ("gc-compare", "--partition", "1|2 3", "--r", "2"),
        ("hook-basis", "--n", "0", "--d", "1"),
        ("specht-check", "--partition", "1 2|3", "--r", "2"),
        ("independence", "--family", "nc", "--n", "4", "--d", "0", "--r", "1"),
        pytest.param(
            ("independence", "--family", "nc", "--n", "4", "--d", "3", "--r", "2"),
            id="independence-nc-n-below-rd",
        ),
        pytest.param(
            ("independence", "--family", "orbit", "--partition", "1 2|3", "--r", "2"),
            id="independence-orbit-block-below-r",
        ),
        ("orbit-rank", "--partition", "1 2|3", "--r", "2"),
        ("conjecture", "--n", "4", "--d", "3", "--r", "3"),
        pytest.param(
            ("independence", "--family", "conjecture", "--n", "4", "--d", "3", "--r", "3"),
            id="independence-conjecture-n-below-rd",
        ),
        ("verify-all", "--n-max", "2"),
        # rules that only the library checks: the shape's r >= 1, the hook
        # family's d <= n, the conjecture's r >= 3, a repeated element and
        # an empty block
        pytest.param(("specht-check", "--partition", "1 2|3 4", "--r", "0"), id="specht-check-r-below-1"),
        pytest.param(("independence", "--family", "hook", "--n", "2", "--d", "3"), id="independence-hook-d-above-n"),
        pytest.param(("conjecture", "--n", "6", "--d", "2", "--r", "2"), id="conjecture-r-below-3"),
        pytest.param(
            ("recurrence", "--A", "1 2", "--B", "2 3", "--C", "4", "--r", "1"), id="recurrence-shared-element"
        ),
        pytest.param(("invariant", "--partition", "1 2||3", "--r", "1"), id="invariant-empty-block"),
        pytest.param(("recurrence", "--A", "1 1", "--B", "2", "--C", "3", "--r", "1"), id="recurrence-repeat-in-A"),
        pytest.param(
            ("recurrence", "--A", "1", "--B", "2", "--C", "3", "--r", "1", "--prefix", "4 4"),
            id="recurrence-repeat-in-prefix",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_range_argument_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, values",
    [
        (("tableaux", "--partition", "1|2 3", "--r", "2"), "r = 2 elements, the smallest has 1"),
        (("hook-basis", "--n", "2", "--d", "3"), "got n = 2, d = 3"),
        (("conjecture", "--n", "4", "--d", "3", "--r", "3"), "got n = 4, d = 3, r = 3, r*d = 9"),
        # two faults, an empty B and the gap at 2: the left side (A+B | C) is checked first
        (("recurrence", "--A", "1", "--B", "", "--C", "3", "--r", "1"), "error: element 3 outside [1, 2]\n"),
    ],
    ids=["block-too-small", "hook-family", "specht-shape", "recurrence-left-side-first"],
)
def test_usage_error_names_the_rejected_values(capsys, argv, values):
    # the library's messages carry the values, so every caller reports them
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert values in err
