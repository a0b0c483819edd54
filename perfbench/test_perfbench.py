"""Tests of the benchmark's own parts: closed form, input fans and checks.

    python3 -m pytest -q perfbench/test_perfbench.py

The check tests run small jobs of the program in-process (with `src` on the
path), show that each check passes on the real output, and that it fails
when one coefficient is flipped or one term is dropped.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import job  # noqa: E402
import polygons  # noqa: E402
from closed_form import sector_series  # noqa: E402


# -- closed form ----------------------------------------------------------------


def test_z2_sector_is_two_sin_half():
    want = {
        (k,): Fraction(2 * (-1) ** (k // 2), 2**k * factorial(k))
        for k in range(1, 13, 2)
    }
    assert sector_series(2, 12)[1] == want


def test_z3_sector_matches_quotient_plane_table():
    # n_(a,b) of the quotient projective plane (coefficient of t1^a t2^b)
    table = {
        (1, 0): Fraction(1), (4, 0): Fraction(1, 648), (2, 1): Fraction(-1, 18),
        (0, 2): Fraction(1, 6), (3, 2): Fraction(1, 972), (1, 3): Fraction(-1, 162),
        (5, 1): Fraction(-1, 29160), (0, 5): Fraction(-1, 9720),
    }
    g = sector_series(3, 6)[1]
    for key, value in table.items():
        assert g[key] == value
    assert (1, 1) not in g and (3, 3) not in g  # diagonal entries vanish


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sectors_swap_under_edge_reflection(n):
    s = sector_series(n, 6)
    for m in range(1, n):
        mirrored = {tuple(reversed(k)): v for k, v in s[n - m].items()}
        assert s[m] == mirrored


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_leading_term(n):
    for m, g in sector_series(n, 4).items():
        unit = tuple(int(r == m) for r in range(1, n))
        assert g[unit] == 1
        assert all(sum(k) >= 1 for k in g)


# -- input fans -----------------------------------------------------------------


def _stored_polygons():
    out = []
    for path in sorted((HERE / "fans").glob("r*.json")):
        doc = json.loads(path.read_text())
        out.append((path.stem, doc, tuple(tuple(v) for v in doc["rays"])))
    return out


def test_sixteen_reflexive_fans_pairwise_inequivalent():
    stored = _stored_polygons()
    assert len(stored) == 16
    forms = set()
    for name, doc, rays in stored:
        assert polygons.convex_hull(rays) == rays, name  # rays are the vertices
        interior, _ = polygons.lattice_points(rays)
        assert interior == [(0, 0)], name
        assert all(polygons.edge_height(a, b) == 1 for a, b in polygons.edges(rays)), name
        forms.add(polygons.normal_form(rays))
    assert len(forms) == 16


def test_stored_fans_are_rederived():
    derived = polygons.reflexive_polygons()
    for i, (name, doc, rays) in enumerate(_stored_polygons(), 1):
        assert name == polygons.fan_name(i, derived[i - 1])
        assert doc == polygons.fan_document(derived[i - 1])
    for n in polygons.LOCAL_ORDERS:
        doc = json.loads((HERE / "fans" / f"c2z{n}.json").read_text())
        assert doc == polygons.local_chart_document(n)


def test_normal_form_sees_through_gl2z():
    square = ((-1, -1), (1, -1), (1, 1), (-1, 1))
    sheared = tuple((x + 2 * y, y) for x, y in square)
    flipped = tuple((y, x) for x, y in square)
    form = polygons.normal_form(square)
    assert polygons.normal_form(polygons.convex_hull(sheared)) == form
    assert polygons.normal_form(polygons.convex_hull(flipped)) == form
    assert polygons.normal_form(((-1, -1), (1, 0), (0, 1))) != form


# -- checks on real output ------------------------------------------------------

CASES = {
    "potential r03": ({"kind": "potential", "fan": "perfbench/fans/r03_v3_b6.json", "order": "6"},
                      lambda r, fan: checks.check_potential(r, fan)),
    "potential f2": ({"kind": "potential", "fan": "fans/f2.json", "order": "6"},
                     lambda r, fan: checks.check_potential(r, fan)),
    "chart c2z3": ({"kind": "chart", "fan": "perfbench/fans/c2z3.json", "order": "6"},
                   lambda r, fan: checks.check_chart(r, fan)),
    "chart c2z2": ({"kind": "chart", "fan": "perfbench/fans/c2z2.json", "order": "6"},
                   lambda r, fan: checks.check_chart(r, fan)),
    "invariants box": ({"kind": "invariants", "fan": "fans/p2z3.json", "class": "box:0,-1",
                        "order": "8"},
                       lambda r, fan: checks.check_invariants(r, fan, "box:0,-1")),
    "invariants ray": ({"kind": "invariants", "fan": "fans/p2z3.json", "class": "ray:1",
                        "order": "8"},
                       lambda r, fan: checks.check_invariants(r, fan, "ray:1")),
}


@pytest.fixture(scope="module")
def outputs():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out = {}
        for name, (spec, _) in CASES.items():
            report = job.run_job(spec)
            assert "error" not in report, report
            out[name] = (report["result"], checks.read_fan_json(spec["fan"]))
        verify = job.run_job({"kind": "verify", "k": 3})
        out["verify"] = verify["result"]
        return out
    finally:
        os.chdir(cwd)


def _term_lists(result):
    """Every list of [exponents, coefficient] terms inside a result."""
    if "entries" in result:
        return [e["terms"] for e in result["entries"]]
    if "sectors" in result:
        return [s["terms"] for s in result["sectors"].values()]
    return [result["rows"]]


def _mutants(result):
    """(label, mutated copy): each term flipped in sign, and each dropped."""
    for li, terms in enumerate(_term_lists(result)):
        for ti in range(len(terms)):
            for how in ("flip", "drop"):
                bad = copy.deepcopy(result)
                bad_terms = _term_lists(bad)[li]
                if how == "drop":
                    del bad_terms[ti]
                else:
                    bad_terms[ti][-1] = str(-Fraction(bad_terms[ti][-1]))
                yield f"{how} term {ti} of list {li}", bad


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_passes_on_program_output(outputs, case):
    result, fan = outputs[case]
    assert CASES[case][1](result, fan) > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_fails_on_flipped_or_dropped_term(outputs, case):
    result, fan = outputs[case]
    check = CASES[case][1]
    n = 0
    for label, bad in _mutants(result):
        with pytest.raises(checks.CheckError):
            check(bad, fan)
        n += 1
    assert n >= 2


def test_potential_check_fails_on_wrong_area(outputs):
    result, fan = outputs["potential r03"]
    for i in range(len(result["entries"])):
        bad = copy.deepcopy(result)
        entry = bad["entries"][i]
        entry["area"][0] = str(Fraction(entry["area"][0]) + 1)
        with pytest.raises(checks.CheckError):
            checks.check_potential(bad, fan)


def test_potential_check_needs_every_boundary_point(outputs):
    result, fan = outputs["potential r03"]
    bad = copy.deepcopy(result)
    del bad["entries"][0]
    with pytest.raises(checks.CheckError):
        checks.check_potential(bad, fan)


def test_chart_check_needs_round_trip(outputs):
    result, fan = outputs["chart c2z3"]
    bad = dict(result, round_trip=False)
    with pytest.raises(checks.CheckError):
        checks.check_chart(bad, fan)


def test_verify_check(outputs):
    result = outputs["verify"]
    assert checks.check_verify(result) == 0
    bad = copy.deepcopy(result)
    bad["lines"][2] = "FAIL" + bad["lines"][2][4:]
    with pytest.raises(checks.CheckError):
        checks.check_verify(bad)
    with pytest.raises(checks.CheckError):
        checks.check_verify(dict(result, ok=False))


# -- run.py -------------------------------------------------------------------------


def test_known_fault_is_the_hexagon_basis_search():
    import run

    hexagon = next(s for s in run.WORKLOADS["potential-reflexive"] if s["id"] == run.KNOWN_FAULT["id"])
    doc = json.loads((ROOT / hexagon["fan"]).read_text())
    assert len(doc["rays"]) == 6 and polygons.lattice_points(tuple(map(tuple, doc["rays"])))[1] \
        == sorted(map(tuple, doc["rays"]))  # smooth hexagon: every boundary point a ray
    report = job.run_job(dict(hexagon, fan=str(ROOT / hexagon["fan"])))
    assert report["error"]["type"] == run.KNOWN_FAULT["type"]
    assert run.KNOWN_FAULT["message"] in report["error"]["message"]


def test_self_times_subtract_direct_children():
    import run

    spans = [["job", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert run.self_times(spans) == {"job": 6.0, "a": 3.0, "b": 1.0}


# -- speed.py -----------------------------------------------------------------------


def test_sampler_times_the_loop_while_a_job_runs():
    import time

    import speed

    with speed.Sampler() as sampler:
        end = time.monotonic() + 0.4
        while time.monotonic() < end:
            speed.loop(50)
    # every 50 ms: start, loop time, and the handler time that contains it
    assert len(sampler.samples) >= 4
    assert all(h >= t > 0 for _, t, h in sampler.samples)
    starts = [t0 for t0, _, _ in sampler.samples]
    assert starts == sorted(starts)




def test_self_times_leave_out_sampler_time():
    import run

    spans = [["job", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1]]
    samples = [[0.5, 0.1, 0.2], [2.5, 0.1, 0.25], [3.5, 0.1, 0.5], [11.0, 0.1, 1.0]]
    own = run.self_times(spans, samples)
    assert own == pytest.approx({"job": 6.8, "a": 1.5, "b": 0.75})
