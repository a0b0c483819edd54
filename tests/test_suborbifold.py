"""Tests for the Calabi-Yau chart construction."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from conftest import example_fans, f2_fan, p2_fan, p2z3_extended

from orbidisk import suborbifold
from orbidisk.mirror import potential_symbols
from orbidisk.stacky import (
    DiskClassSymbol,
    FanError,
    fan_polytope_facets,
    facets_containing,
    is_complete,
    validate,
)
from orbidisk.suborbifold import (
    InvalidFacetError,
    build_suborbifold,
    cy_support_vector,
    push_class_pairings,
)


def test_chart_at_edge_sector():
    fan = p2z3_extended()
    sub = build_suborbifold(fan, DiskClassSymbol.orbi((1, 0)))
    assert sub.fan.stacky_vectors == ((2, -1), (-1, 2))
    assert sub.fan.extra_vectors == ((0, 1), (1, 0))
    assert sub.fan.max_cones == ((0, 1),)
    assert sub.support_vector == (1, 1)
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
        assert cy_support_vector(sub.fan) is not None
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
    assert sub.support_vector == (1, 1)


def test_chart_smooth_vertex():
    sub = build_suborbifold(p2_fan(), DiskClassSymbol.smooth(0))
    assert sub.fan.stacky_vectors == ((1, 0), (0, 1))
    assert sub.fan.extra_vectors == ()
    assert sub.support_vector == (1, 1)


def test_cy_support_examples():
    from conftest import c2z3_chart, om2_chart

    assert cy_support_vector(c2z3_chart()) == (1, 1)
    assert cy_support_vector(om2_chart()) == (1, 1)
    assert cy_support_vector(p2_fan()) is None


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
        # the facet cut agrees with the support vector
        u = sub.support_vector
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
