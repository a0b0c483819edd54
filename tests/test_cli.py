"""Command line tests: exit codes, exact output, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from golden.commands import golden_commands

from orbidisk.cli import main

FANS = Path(__file__).resolve().parent.parent / "fans"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.sha256"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_quotient_plane(capsys):
    code, out, _ = run(capsys, "validate", str(FANS / "p2z3.json"))
    assert code == 0
    assert "6 of age 1" in out
    assert "PASS semi-fano" in out


def test_validate_rejects_f3(capsys):
    code, out, _ = run(capsys, "validate", str(FANS / "f3.json"))
    assert code == 1
    assert "FAIL semi-fano" in out and "-1" in out


def test_validate_reports_dependent_generators(capsys, tmp_path):
    # the cone {0, 1} of (1,0) and (2,0) has no coordinates; the box scan at
    # fan resolution skips it, and validation reports it and its overlaps
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rays": [[1, 0], [2, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "extra_vectors": "auto-age1",
    }))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert out.splitlines() == [
        "FAIL validation: cone (0, 1) is not simplicial (generators dependent)",
        "FAIL validation: cones (0, 1) and (1, 2) do not intersect in a common face",
        "FAIL validation: cones (0, 1) and (0, 3) do not intersect in a common face",
        "FAIL validation: cones (1, 2) and (0, 3) do not intersect in a common face",
    ]


@pytest.mark.parametrize("extras", [[], "auto-age1"])
def test_lower_dimensional_cone_exits_1(capsys, tmp_path, extras):
    # the lone ray (-1, 0) is a maximal cone of fewer than 2 rays: validate
    # reports it, and the age-one scan of auto-age1, box and potential refuse it
    path = tmp_path / "lone_ray.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, 0]],
        "max_cones": [[0, 1], [2]],
        "extra_vectors": extras,
    }))
    for argv in (["validate"], ["box"], ["potential", "--order", "2"]):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1, argv
        assert "cone (2,) is not full-dimensional" in out + err, argv


def test_repeated_extra_vector_exits_1(capsys, tmp_path):
    # p2z3 with its six age-one points and (1, 0) once more: the two copies
    # would be one tau variable, so every check refuses the fan
    doc = json.loads((FANS / "p2z3.json").read_text())
    doc["extra_vectors"] = [[-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0], [1, 0]]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    line = "FAIL validation: extra vector (1, 0) is listed more than once"
    code, out, _ = run(capsys, "validate", str(path))
    assert (code, out.splitlines()) == (1, [line])
    for argv in (
        ["invariants", "--class", "box:1,0", "--order", "2"],
        ["potential", "--order", "2"],
    ):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err.splitlines()) == (1, "", [line]), argv


def test_validate_skips_nef_test_on_charts(capsys):
    code, out, _ = run(capsys, "validate", str(FANS / "c2z3_chart.json"))
    assert code == 0
    assert "SKIP semi-fano" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


def test_box_command(capsys):
    code, out, _ = run(capsys, "box", str(FANS / "p2z3.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ages = [e["age"] for e in payload]
    assert ages.count("1") == 6 and ages.count("0") == 1


def test_suborbifold_command(capsys):
    code, out, _ = run(
        capsys, "suborbifold", str(FANS / "p2z3.json"), "--class", "box:1,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rays"] == [[2, -1], [-1, 2]]
    assert payload["support_vector"] == [1, 1]
    assert sorted(payload["extra_vectors"]) == [[0, 1], [1, 0]]


def test_invariants_command_table_entry(capsys):
    code, out, _ = run(
        capsys,
        "invariants",
        str(FANS / "p2z3.json"),
        "--class",
        "box:0,-1",
        "--order",
        "4",
    )
    assert code == 0
    payload = json.loads(out)
    values = {
        tuple(sorted(e["insertions"].items())): e["value"]
        for e in payload["entries"]
    }
    assert values[(("1,-1", 2),)] == "1/6"
    assert values[(("0,-1", 2), ("1,-1", 1))] == "-1/18"


def test_invariants_smooth_class_p2(capsys):
    code, out, _ = run(
        capsys, "invariants", str(FANS / "p2.json"), "--class", "ray:0",
        "--order", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {"alpha": ["0", "0", "0"], "insertions": {}, "value": "1"}
    ]


def test_invariants_f2_exceptional_series(capsys):
    code, out, _ = run(
        capsys, "invariants", str(FANS / "f2.json"), "--class", "ray:1",
        "--order", "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {"alpha": ["0", "0", "0", "0"], "insertions": {}, "value": "1"},
        {"alpha": ["1", "-2", "1", "0"], "insertions": {}, "value": "1"},
    ]


def test_potential_p2(capsys):
    code, out, _ = run(
        capsys, "potential", str(FANS / "p2.json"), "--order", "4"
    )
    assert code == 0
    payload = json.loads(out)
    zs = [tuple(e["z"]) for e in payload["entries"]]
    assert zs == [(-1, -1), (0, 1), (1, 0)]
    by_z = {tuple(e["z"]): e for e in payload["entries"]}
    assert by_z[(-1, -1)]["series"] == [
        {"q": ["1"], "insertions": {}, "value": "1"}
    ]


def test_potential_quotient_plane_fractional_areas(capsys):
    code, out, _ = run(
        capsys, "potential", str(FANS / "p2z3.json"), "--order", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 9
    by_z = {tuple(e["z"]): e for e in payload["entries"]}
    assert by_z[(1, 0)]["area"] == ["1/3"]
    assert by_z[(0, 1)]["area"] == ["2/3"]
    assert by_z[(-1, 2)]["area"] == ["1"]


def test_potential_bad_cone_exit(capsys):
    code, _, err = run(
        capsys, "potential", str(FANS / "p2.json"), "--cone", "9"
    )
    assert code == 2
    assert "no maximal cone number 9" in err


@pytest.mark.parametrize(
    "argv, words",
    [
        (["potential", "p2.json", "--cone", "99"], "no maximal cone number 99"),
        (["potential", "p2.json", "--cone", "-1"], "no maximal cone number -1"),
        (["verify-p2z3", "--amax", "-1", "--bmax", "2"],
         "--amax must be nonnegative (got -1)"),
        (["verify-p2z3", "--amax", "2", "--bmax", "-3"],
         "--bmax must be nonnegative (got -3)"),
        (["invariants", "p2z3.json", "--class", "box:1,1"], "box point (1, 1)"),
        (["invariants", "p2z3.json", "--class", "box:0,0"], "box point (0, 0)"),
        (["invariants", "p2z3.json", "--class", "box:2,-1"], "box point (2, -1)"),
        (["suborbifold", "p2z3.json", "--class", "box:1,1"], "box point (1, 1)"),
        (["invariants", "p2z3.json", "--class", "box:1,0", "--facet", "7,8"],
         "no facet with vertices (7, 8)"),
        (["suborbifold", "p2z3.json", "--class", "box:1,0", "--facet", "8,7"],
         "no facet with vertices (7, 8)"),
        # f3 fails its semi-Fano check, which runs after the options parse
        (["invariants", "f3.json", "--class", "nope"],
         "class must be ray:IDX or box:X,Y (got 'nope')"),
        (["potential", "f3.json", "--cone", "99"], "no maximal cone number 99"),
    ],
)
def test_option_naming_nothing_is_a_parse_error(capsys, argv, words):
    # a cone number, box point or facet the fan lacks, or a negative window,
    # whether or not the fan passes its checks
    argv = [str(FANS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and words in err


def test_disk_counting_fails_the_lines_validate_fails(capsys):
    # invariants and potential print on stderr the FAIL lines of validate
    _, out, _ = run(capsys, "validate", str(FANS / "f3.json"))
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL semi-fano: wall (1,) has anticanonical degree -1"]
    for argv in (["potential"], ["invariants", "--class", "ray:0"]):
        code, out, err = run(capsys, argv[0], str(FANS / "f3.json"), *argv[1:])
        assert (code, out, err.splitlines()) == (1, "", fails)


def test_invariants_deterministic(capsys):
    args = (
        "invariants",
        str(FANS / "p2z3.json"),
        "--class",
        "box:0,-1",
        "--order",
        "5",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_formats(capsys):
    for fmt in ("csv", "markdown"):
        code, out, _ = run(
            capsys,
            "invariants",
            str(FANS / "p2z3.json"),
            "--class",
            "box:0,-1",
            "--order",
            "3",
            "--format",
            fmt,
        )
        assert code == 0
        assert "1/6" in out


def test_csv_rows_parse_into_as_many_fields_as_the_header(capsys):
    # lattice points print as "x,y", and the insertions and series columns
    # hold them too: each such field must be quoted
    import csv

    p2z3 = str(FANS / "p2z3.json")
    for argv in (
        ("box", p2z3),
        ("invariants", p2z3, "--class", "box:0,-1", "--order", "4"),
        ("potential", p2z3, "--order", "3"),
    ):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) > 2, argv
        assert all(len(row) == len(rows[0]) for row in rows), argv
        assert any("," in field for row in rows for field in row), argv


def test_bad_class_spec(capsys):
    code, _, err = run(
        capsys, "invariants", str(FANS / "p2.json"), "--class", "nope"
    )
    assert code == 2


@pytest.mark.parametrize(
    "command, fan, order, code",
    [
        ("invariants", "p2z3.json", "abc", 2),
        ("invariants", "p2z3.json", "3/2", 0),
        ("potential", "p2.json", "1/0", 2),
        ("potential", "p2.json", "-1", 2),
        ("potential", "p2.json", "0", 0),
        ("potential", "p2.json", "3/2", 0),
    ],
)
def test_order_parse(capsys, command, fan, order, code):
    # a bad order is a parse error that names the value, for both commands
    spec = ["--class", "box:0,-1"] if command == "invariants" else []
    got, _, err = run(capsys, command, str(FANS / fan), *spec, "--order", order)
    assert got == code
    assert (repr(order) in err) == (code == 2)


def test_verify_small_window(capsys):
    for k in ("3", "0"):
        code, out, _ = run(capsys, "verify-p2z3", "--amax", k, "--bmax", k)
        assert code == 0
        assert "FAIL" not in out


def test_invariant_output_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "invariants",
        str(FANS / "p2z3.json"),
        "--class",
        "box:0,-1",
        "--order",
        "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload
    # every value is an exact integer or p/q string, never a float
    for entry in payload["entries"]:
        assert "." not in entry["value"]
        assert all("." not in a for a in entry["alpha"])


def test_invariants_refuses_non_semifano(capsys):
    code, _, err = run(
        capsys, "invariants", str(FANS / "f3.json"), "--class", "ray:0"
    )
    assert code == 1 and "anticanonical degree" in err


def test_invariants_refuses_charts(capsys):
    code, _, err = run(
        capsys,
        "invariants",
        str(FANS / "c2z3_chart.json"),
        "--class",
        "box:1,0",
    )
    assert code == 1 and "not complete" in err


def test_potential_with_explicit_basis(tmp_path, capsys):
    # carry over the automatically found basis and pin it in the file
    from orbidisk.fanfile import parse_fan_file
    from orbidisk.stacky import fan_sequence

    ff = parse_fan_file(FANS / "p2z3.json")
    seq = fan_sequence(ff.resolve_fan())
    doc = {
        "dim": 2,
        "rays": [list(v) for v in ff.rays],
        "max_cones": [list(c) for c in ff.max_cones],
        "extra_vectors": "auto-age1",
        "basis_p": [list(v) for v in seq.basis_p],
        "normalization_cone": 0,
    }
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps(doc))
    _, with_basis, _ = run(capsys, "potential", str(pinned), "--order", "2")
    _, auto, _ = run(capsys, "potential", str(FANS / "p2z3.json"), "--order", "2")
    assert with_basis == auto
    # a bad pinned basis is a computation error
    doc["basis_p"] = [[1, 0, 0, 0, 0, 0, 0]] * 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "potential", str(bad), "--order", "2")
    assert code == 1 and "basis_p must hold r' = 1 nef rows of length 7" in err


def test_invalid_facet_exit(capsys):
    code, _, err = run(
        capsys,
        "invariants",
        str(FANS / "p2z3.json"),
        "--class",
        "box:1,0",
        "--facet",
        "0,1",
    )
    assert code == 1 and "facet" in err


def test_cli_outputs_match_golden_digests(capsys):
    want = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    cmds = golden_commands(FANS.parent)
    assert set(want) == set(cmds)
    changed = []
    for name, argv in sorted(cmds.items()):
        code, out, _ = run(capsys, *argv)
        assert code == 0, name
        if hashlib.sha256(out.encode()).hexdigest() != want[name]:
            changed.append(name)
    assert changed == []


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that closed stdout before the command wrote (`| head` that
    has already quit) ends the command with the SIGPIPE status 141 and no
    traceback, also through the interpreter's flush at exit."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(FANS.parent / "src"), env.get("PYTHONPATH")])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orbidisk.cli", "box", str(FANS / "p2z3.json"),
             "--format", "csv"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 141
