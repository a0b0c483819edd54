"""Command line tests: exit codes, exact output, determinism."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

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
    assert code == 3


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


def test_bad_class_spec(capsys):
    code, _, err = run(
        capsys, "invariants", str(FANS / "p2.json"), "--class", "nope"
    )
    assert code == 2


def test_verify_small_window(capsys):
    code, out, _ = run(capsys, "verify-p2z3", "--amax", "3", "--bmax", "3")
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
