"""Frozen records (`orbidisk._record.frozen`) and the package's import footprint."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations

import pytest
from conftest import REPO, p2_fan

from orbidisk import _record, fanfile, mirror, oracle, stacky, suborbifold
from orbidisk.fanfile import FanFile
from orbidisk.stacky import DiskClassSymbol, FanSequenceData, StackyFan, fan_sequence

RECORDS = sorted(
    (
        obj
        for module in (stacky, mirror, suborbifold, oracle, fanfile)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and obj.__setattr__ is _record._refuse_set
    ),
    key=lambda cls: cls.__name__,
)


def fields(cls) -> list[str]:
    return list(cls.__annotations__)


def test_every_record_class_is_found():
    assert [cls.__name__ for cls in RECORDS] == [
        "BoxElement", "Cyclotomic", "CyclotomicSeries", "DiskClassSymbol",
        "DiskGeneratingFunction", "DualClassData", "FanFile", "FanSequenceData",
        "GorensteinResult", "GridPoint", "PolytopeFacet", "PotentialData",
        "PotentialEntry", "SemiFanoResult", "StackyFan", "Suborbifold",
        "ValidationReport", "WallClass",
    ]  # fmt: skip


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    names = fields(cls)
    values = tuple((cls.__name__, i) for i in range(len(names)))
    rec = cls(*values)
    assert tuple(getattr(rec, n) for n in names) == values
    assert cls(**dict(zip(names, values))) == rec
    assert hash(rec) == hash(values)
    assert rec != values and rec.__eq__(values) is NotImplemented
    assert rec != cls(*values[:-1], "other")
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)
    ) + ")"
    with pytest.raises(TypeError):
        cls()
    for name in (names[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, n) for n in names) == values


def test_records_of_different_classes_never_equal():
    for a, b in combinations(RECORDS, 2):
        if len(fields(a)) == len(fields(b)):
            values = tuple(range(len(fields(a))))
            assert a(*values) != b(*values)
    fan = p2_fan()
    as_tuple = (fan.dim, fan.stacky_vectors, fan.extra_vectors, fan.max_cones)
    assert fan != as_tuple and as_tuple != fan
    same = FanFile(
        fan.dim, fan.stacky_vectors, fan.max_cones, fan.extra_vectors, None, None
    )
    assert fan != same and same.resolve_fan() == fan


def test_defaults_and_pinned_reprs():
    assert DiskClassSymbol("ray") == DiskClassSymbol("ray", None, None)
    assert repr(DiskClassSymbol.smooth(0)) == (
        "DiskClassSymbol(kind='ray', ray=0, point=None)"
    )
    assert repr(DiskClassSymbol.orbi([1, 0])) == (
        "DiskClassSymbol(kind='box', ray=None, point=(1, 0))"
    )
    assert repr(stacky.validate(p2_fan())) == "ValidationReport(ok=True, issues=())"
    bad = StackyFan.make(2, [(1, 0, 0), (0, 1)], [(0, 1)])
    assert repr(stacky.validate(bad)) == (
        "ValidationReport(ok=False, "
        "issues=('vector (1, 0, 0) does not have 2 coordinates',))"
    )
    assert repr(p2_fan()) == (
        "StackyFan(dim=2, stacky_vectors=((1, 0), (0, 1), (-1, -1)), "
        "extra_vectors=(), max_cones=((0, 1), (1, 2), (0, 2)))"
    )


def test_binding_errors_and_keyword_defaults():
    """Calls bind as the signature `(kind, ray=None, point=None)` would."""
    with pytest.raises(TypeError, match="multiple values"):
        DiskClassSymbol("box", kind="ray")
    with pytest.raises(TypeError, match="unexpected keyword"):
        DiskClassSymbol("box", colour=1)
    with pytest.raises(TypeError, match="positional"):
        DiskClassSymbol("box", None, (1, 0), "extra")
    with pytest.raises(TypeError, match="missing"):
        DiskClassSymbol(ray=0)
    with pytest.raises(TypeError, match="missing"):
        StackyFan(2, (), ())
    assert DiskClassSymbol("box", point=(1, 0)) == DiskClassSymbol("box", None, (1, 0))
    assert DiskClassSymbol(point=(1, 0), kind="box") == DiskClassSymbol.orbi((1, 0))
    assert StackyFan(2, (), max_cones=(), extra_vectors=()) == StackyFan(2, (), (), ())


def test_a_default_before_a_required_field_is_refused():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(TypeError):
        _record.frozen(Bad)


def test_cached_property_is_computed_once(monkeypatch):
    seq = fan_sequence(p2_fan())
    fresh = FanSequenceData(*(getattr(seq, n) for n in fields(FanSequenceData)))
    assert "_pcoords_map" not in vars(fresh)
    calls = []
    eliminate = stacky._eliminate
    monkeypatch.setattr(
        stacky, "_eliminate", lambda *a: calls.append(1) or eliminate(*a)
    )
    first = fresh._pcoords_map
    assert fresh._pcoords_map is first
    fresh.pcoords_from_ambient(seq.kernel_basis[0])
    assert calls == [1]
    # the cached value is not a field: equality and hash ignore it
    assert fresh == seq and hash(fresh) == hash(seq)


def test_import_footprint():
    """`import orbidisk.cli` adds none of the modules that cost set-up time.

    Measured as the modules a fresh interpreter gains on the import, so
    whatever the host's site hooks load beforehand does not count.
    """
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import orbidisk.cli as cli\n"
        "new = sorted(set(sys.modules) - before)\n"
        "argv = ['potential', 'f.json', '--order', '4']\n"
        "args = cli.build_parser().parse_args(argv)\n"
        "print(json.dumps([new, args.command, args.order]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    new, command, order = json.loads(out)
    assert "orbidisk.cli" in new
    assert not {"dataclasses", "inspect", "argparse", "typing"} & set(new)
    assert (command, order) == ("potential", "4")


def test_import_compiles_no_generated_source():
    """`import orbidisk.cli` compiles no source from a string: the record
    methods are closures, not code generated per class.

    `fractions` is imported before the hook because its `decimal` import
    compiles a named tuple.
    """
    probe = (
        "import fractions, json, sys\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and args[1] == '<string>':\n"
        "        seen.append(event)\n"
        "sys.addaudithook(hook)\n"
        "import orbidisk.cli\n"
        "print(json.dumps(len(seen)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == 0
