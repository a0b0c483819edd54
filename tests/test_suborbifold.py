"""Tests for the Calabi-Yau chart construction."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

import pytest
from conftest import (
    cut_chart_by_cone_solves,
    example_fans,
    f2_fan,
    outcome,
    p2_fan,
    p2z3_extended,
    partial_resolutions,
    support_by_fractions,
)

from orbidisk import stacky, suborbifold
from orbidisk.lattice import cone_contains
from orbidisk.mirror import potential_symbols
from orbidisk.stacky import (
    DiskClassSymbol,
    FanError,
    StackyFan,
    fan_polytope_facets,
    facets_containing,
    is_complete,
    validate,
)
from orbidisk.suborbifold import (
    CalabiYauError,
    InvalidFacetError,
    build_suborbifold,
    push_class_pairings,
)


def test_chart_at_edge_sector():
    fan = p2z3_extended()
    sub = build_suborbifold(fan, DiskClassSymbol.orbi((1, 0)))
    assert sub.fan.stacky_vectors == ((2, -1), (-1, 2))
    assert sub.fan.extra_vectors == ((0, 1), (1, 0))
    assert sub.fan.max_cones == ((0, 1),)
    assert sub.facet.normal == (1, 1)
    assert validate(sub.fan).ok


def test_chart_at_vertex_has_two_facets():
    fan = p2z3_extended()
    facets = facets_containing(fan, (-1, 2))
    assert len(facets) == 2
    for f in facets:
        sub = build_suborbifold(fan, DiskClassSymbol.smooth(2), f)
        # both charts are the same quotient singularity: 2 rays, 2 sectors
        assert len(sub.fan.stacky_vectors) == 2
        assert len(sub.fan.extra_vectors) == 2
        assert support_by_fractions(sub.fan) == f.normal
    # default pick is the lexicographically least facet
    sub = build_suborbifold(fan, DiskClassSymbol.smooth(2))
    assert sub.facet.vertices == min(f.vertices for f in facets)


def test_chart_invalid_facet_rejected():
    fan = p2z3_extended()
    facets = facets_containing(fan, (1, 0))
    other = [
        f for f in facets_containing(fan, (-1, 0)) if f not in facets
    ][0]
    before = suborbifold._cut_chart.cache_info()
    with pytest.raises(InvalidFacetError):
        build_suborbifold(fan, DiskClassSymbol.orbi((1, 0)), other)
    # raised before the chart cache is looked up
    assert suborbifold._cut_chart.cache_info() == before


def test_chart_needs_a_facet_through_the_vector():
    # the origin lies inside the fan polytope, (1, 1) outside it
    fan = p2z3_extended()
    for pt in ((0, 0), (1, 1)):
        with pytest.raises(FanError, match=re.escape(f"{pt} lies on no facet")):
            build_suborbifold(fan, DiskClassSymbol.orbi(pt))


def test_chart_f2_midpoint_ray():
    sub = build_suborbifold(f2_fan(), DiskClassSymbol.smooth(1))
    assert sub.fan.stacky_vectors == ((1, 0), (0, 1), (-1, 2))
    assert sub.fan.extra_vectors == ()
    assert sub.fan.max_cones == ((0, 1), (1, 2))
    assert sub.facet.normal == (1, 1)


def test_chart_smooth_vertex():
    sub = build_suborbifold(p2_fan(), DiskClassSymbol.smooth(0))
    assert sub.fan.stacky_vectors == ((1, 0), (0, 1))
    assert sub.fan.extra_vectors == ()
    assert sub.facet.normal == (1, 1)


def test_push_zero_and_relations():
    fan = p2z3_extended()
    sub = build_suborbifold(fan, DiskClassSymbol.orbi((1, 0)))
    zero = push_class_pairings(sub, (0, 0, 0, 0))
    assert zero == (Fraction(0),) * 9
    # chart relation 2 b0 + b1 = 3 * (1,0)-sector, padded upstairs
    rel = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(3))
    pushed = push_class_pairings(sub, rel)
    total = [0, 0]
    for i, c in enumerate(pushed):
        for t in range(2):
            total[t] += c * fan.vectors[i][t]
    assert total == [0, 0]
    # a non-relation is rejected
    with pytest.raises(FanError):
        push_class_pairings(sub, (1, 0, 0, 0))


def test_push_f2_exceptional_class():
    sub = build_suborbifold(f2_fan(), DiskClassSymbol.smooth(1))
    pushed = push_class_pairings(sub, (Fraction(1), Fraction(-2), Fraction(1)))
    assert pushed == (Fraction(1), Fraction(-2), Fraction(1), Fraction(0))


def test_chart_vectors_inside_facet_cone():
    from orbidisk.lattice import cone_contains

    fan = p2z3_extended()
    for pt in ((1, 0), (0, -1), (-1, 1)):
        sub = build_suborbifold(fan, DiskClassSymbol.orbi(pt))
        gens = [list(v) for v in sub.fan.stacky_vectors]
        for v in sub.fan.extra_vectors:
            ok, _ = cone_contains(gens, v)
            assert ok
        # the facet cut agrees with the facet's normal
        u = sub.facet.normal
        for v in sub.fan.vectors:
            assert sum(a * b for a, b in zip(u, v)) == 1


def _clear_chart_caches():
    fan_polytope_facets.cache_clear()
    suborbifold._cut_chart.cache_clear()


def _complete_example_fans():
    return [(name, fan) for name, fan in example_fans() if is_complete(fan)]


def test_chart_cache_matches_a_fresh_cut():
    """Every basic class of every complete example fan: classes sharing a
    facet share one chart object, and each chart equals a cut made with the
    caches cleared.  A class with no chart (f3: a ray lies inside the facet
    cone of ray 1) is skipped."""
    for name, fan in _complete_example_fans():
        charts = {}
        for sym in potential_symbols(fan):
            try:
                charts[sym] = build_suborbifold(fan, sym)
            except FanError:
                continue
        by_facet = {}
        for sub in charts.values():
            assert by_facet.setdefault(sub.facet, sub) is sub, name
        for sym, sub in charts.items():
            _clear_chart_caches()
            fresh = build_suborbifold(fan, sym)
            assert fresh is not sub and fresh == sub, (name, sym)


def test_validate_runs_once_per_distinct_chart(monkeypatch):
    """The disk potentials of the 16 reflexive orbifolds and f2 cut 100
    charts over 53 distinct facets; each of the 53 is validated once."""
    calls = []

    def counting_validate(fan):
        calls.append(fan)
        return validate(fan)

    monkeypatch.setattr(suborbifold, "validate", counting_validate)
    _clear_chart_caches()
    cuts = []
    for name, fan in _complete_example_fans():
        if name == "f2" or name.startswith("r"):
            for sym in potential_symbols(fan):
                cuts.append((fan, build_suborbifold(fan, sym).facet))
    assert len(cuts) == 100
    assert len(set(cuts)) == 53
    assert len(calls) == 53


def test_chart_cut_matches_cone_solves():
    """The facet-inequality cut and its Calabi-Yau test give the chart, or
    the error, of `cone_contains` on every vector plus a Fraction solve for
    the support vector:
    every facet of every complete fan in fans/, perfbench/fans/ and the
    partial-resolution census."""
    for name, fan in _complete_example_fans() + partial_resolutions():
        for facet in fan_polytope_facets(fan):
            got = outcome(suborbifold._cut_chart.__wrapped__, fan, facet)
            assert got == outcome(cut_chart_by_cone_solves, fan, facet), (name, facet)


@pytest.mark.parametrize(
    "fan, vertices, error, words",
    [
        # (1, 1) is a ray inside the triangle of (3, 0), (0, 3), (-1, -1)
        (
            StackyFan.make(2, [(3, 0), (1, 1), (0, 3), (-1, -1)],
                           [(0, 1), (1, 2), (2, 3), (0, 3)]),
            (0, 2), FanError, "rays [1] lie inside the facet cone",
        ),
        # the extra vector (1, 1) pairs to 2 with the facet normal (1, 1)
        (
            StackyFan.make(2, [(1, 0), (0, 1), (-1, -1)],
                           [(0, 1), (1, 2), (0, 2)], [(1, 1)]),
            (0, 1), CalabiYauError, "chart is not Calabi-Yau",
        ),
        # (2, 0) and (0, 1) span an index-2 sublattice
        (
            StackyFan.make(2, [(2, 0), (0, 1), (-1, -1)],
                           [(0, 1), (1, 2), (0, 2)]),
            (0, 1), FanError, "chart fan is not valid: ('vectors do not generate",
        ),
    ],
)
def test_chart_cut_error_paths(fan, vertices, error, words):
    (facet,) = [f for f in fan_polytope_facets(fan) if f.vertices == vertices]
    with pytest.raises(error, match=re.escape(words)):
        suborbifold._cut_chart.__wrapped__(fan, facet)
    assert outcome(cut_chart_by_cone_solves, fan, facet)[0] == error.__name__


def test_chart_cut_and_validate_solve_no_cone(monkeypatch):
    """On valid fans the chart cut solves no cone, and validate calls
    `cone_contains` only from the common-face test."""
    callers = []

    def recording_cone_contains(gens, point):
        callers.append(sys._getframe(1).f_code.co_name)
        return cone_contains(gens, point)

    monkeypatch.setattr(stacky, "cone_contains", recording_cone_contains)
    assert not hasattr(suborbifold, "cone_contains")
    for name, fan in example_fans():
        assert validate(fan).ok, name
        if is_complete(fan):
            for facet in fan_polytope_facets(fan):
                outcome(suborbifold._cut_chart.__wrapped__, fan, facet)
    assert callers and set(callers) == {"_meet_in_common_face"}
