"""Tests for the mirror pipeline: omega sets, correction series, inversion,
generating functions, and the disk potential."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    assert_grid_is_brute_force,
    basic_class_charts,
    c2z3_chart,
    c3z3_chart,
    example_fans,
    f2_fan,
    om2_chart,
    p1xp1_fan,
    p2_fan,
    p2z3_extended,
)

from orbidisk.mirror import (
    ChartPipeline,
    ComputationError,
    OrderTooLowError,
    UnsupportedInsertionsError,
    assemble_potential,
    disk_generating_function,
    extract_invariant,
    potential_symbols,
    ratio_factor,
    tau_zero_slice,
)
from orbidisk.series import exp_series
from orbidisk.stacky import DiskClassSymbol, StackyFan


# -- building blocks ---------------------------------------------------------


def test_ratio_factor():
    assert ratio_factor(Fraction(0)) == 1
    assert ratio_factor(Fraction(1)) == 1
    assert ratio_factor(Fraction(3)) == Fraction(1, 6)
    assert ratio_factor(Fraction(-1)) == 0  # negative integers vanish
    assert ratio_factor(Fraction(-2, 3)) == 1
    assert ratio_factor(Fraction(-4, 3)) == Fraction(-1, 3)
    assert ratio_factor(Fraction(-7, 3)) == Fraction(-4, 3) * Fraction(-1, 3)


def test_omega_sets_smooth_chart():
    chart = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    pipe = ChartPipeline(chart, 6)
    assert pipe.omega(0) == [] and pipe.omega(1) == []
    g = pipe.generating_function(DiskClassSymbol.smooth(0))
    assert g == pipe.qt_ring.one()


def test_omega_set_quotient_chart():
    pipe = ChartPipeline(c2z3_chart(), 4)
    om = pipe.omega(2)
    pairs = {gp.pairings for gp in om}
    assert (Fraction(-2, 3), Fraction(-1, 3), Fraction(1), Fraction(0)) in pairs
    for gp in om:
        # never a negative integer pairing, and the box point matches
        for c in gp.pairings:
            assert not (c.denominator == 1 and c < 0)
        assert gp.nu == (1, 0)


def test_omega_set_om2():
    pipe = ChartPipeline(om2_chart(), 5)
    om = pipe.omega(1)
    assert [gp.pairings for gp in om] == [
        (Fraction(d), Fraction(-2 * d), Fraction(d)) for d in range(1, 6)
    ]
    assert pipe.omega(0) == [] and pipe.omega(2) == []


def test_a_series_om2():
    pipe = ChartPipeline(om2_chart(), 4)
    a1 = pipe.a_series(1)
    assert [a1.coefficient((d,)) for d in range(1, 5)] == [
        Fraction(-1),
        Fraction(-3, 2),
        Fraction(-10, 3),
        Fraction(-35, 4),
    ]


def test_a_series_leading_coefficient_one():
    for chart in (c2z3_chart(), c3z3_chart()):
        pipe = ChartPipeline(chart, 4)
        for jdx, j in enumerate(pipe.extras):
            a = pipe.a_series(j)
            assert a.coefficient(pipe.duals[jdx].pcoords) == 1


def test_forward_map_om2():
    pipe = ChartPipeline(om2_chart(), 4)
    q = pipe.forward_q()[0]
    y = pipe.y_ring.variable(0)
    assert q == y * exp_series(pipe.a_series(1) * (-2))
    assert [q.coefficient((d,)) for d in range(1, 5)] == [1, 2, 5, 14]


def test_inverse_map_om2():
    # independent derivation: y(q) solves q = y exp(-2 A(y)); iterate the
    # contraction y <- q exp(2 A(y)) with plain dense univariate arithmetic
    order = 8
    import math

    a = [Fraction(0)] * (order + 1)
    for d in range(1, order + 1):
        a[d] = -Fraction(math.factorial(2 * d - 1), math.factorial(d) ** 2)
    two_a = [2 * c for c in a]

    def mul(f, g):
        out = [Fraction(0)] * (order + 1)
        for i, x in enumerate(f):
            if x:
                for j, z in enumerate(g):
                    if z and i + j <= order:
                        out[i + j] += x * z
        return out

    def exp(f):
        out = [Fraction(0)] * (order + 1)
        out[0] = Fraction(1)
        power = list(out)
        for k in range(1, order + 1):
            power = mul(power, f)
            for i, x in enumerate(power):
                out[i] += x / math.factorial(k)
        return out

    y = [Fraction(0)] * (order + 1)
    for _ in range(order + 2):
        ay = [Fraction(0)] * (order + 1)
        for d in range(1, order + 1):
            # compose 2A with the current y
            power = [Fraction(0)] * (order + 1)
            power[0] = Fraction(1)
            for _i in range(d):
                power = mul(power, y)
            for i, x in enumerate(power):
                ay[i] += two_a[d] * x
        e = exp(ay)
        new = [Fraction(0)] * (order + 1)
        for i, x in enumerate(e):
            if i + 1 <= order:
                new[i + 1] = x
        if new == y:
            break
        y = new
    pipe = ChartPipeline(om2_chart(), order)
    yq = pipe.solve_against(pipe.y_ring.variable(0))
    got = [yq.coefficient((d,)) for d in range(order + 1)]
    assert got == y
    assert got[1:5] == [1, -2, 3, -4]


def test_round_trips():
    assert ChartPipeline(c2z3_chart(), 4).round_trip_identity()
    assert ChartPipeline(om2_chart(), 8).round_trip_identity()
    assert ChartPipeline(c3z3_chart(), 2).round_trip_identity()


def test_inversion_of_multi_variable_monomials():
    # f = X(forward(y)) built with plain series arithmetic from the forward
    # coordinates; solve_against must give X back.  c2z3 mixes its two
    # tau's, om2 raises q to powers, the mixed chart multiplies q and tau's
    cases = [
        (
            c2z3_chart(),
            6,
            {(0, 0): 1, (2, 1): 2, (1, 3): Fraction(-1, 5), (3, 3): 7, (0, 4): 1},
        ),
        (om2_chart(), 8, {(2,): 3, (5,): -1, (8,): Fraction(1, 2)}),
        (
            mixed_chart(),
            6,
            {(1, 1, 0): 1, (1, 0, 1): 2, (2, 1, 1): -3, (0, 1, 2): 1, (3, 0, 4): 5},
        ),
    ]
    for chart, order, poly in cases:
        pipe = ChartPipeline(chart, order)
        coords = pipe.forward_q() + [pipe.a_series(j) for j in pipe.extras]
        f = pipe.y_ring.zero()
        x = pipe.qt_ring.zero()
        for exps, c in poly.items():
            term = pipe.y_ring.scalar(c)
            for coord, e in zip(coords, exps):
                term = term * coord**e
            f = f + term
            x = x + pipe.qt_ring.monomial(exps, c)
        assert len(list(x.terms())) == len(poly)
        assert pipe.solve_against(f) == x


def test_trivial_inverse_when_no_corrections():
    chart = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    pipe = ChartPipeline(chart, 4)
    assert pipe.r_prime == 0 and pipe.extras == []


def test_inverse_is_plain_q_for_projective_plane_chart():
    # the chart of the plane at a vertex has no corrections at all, so the
    # generating function is identically 1
    for i in range(3):
        dgf = disk_generating_function(p2_fan(), DiskClassSymbol.smooth(i), 6)
        assert dgf.series == dgf.series.ring.one()


# -- generating functions and extraction ---------------------------------------


def test_quotient_plane_generating_function(quotient_plane_tables):
    fan, g112, g122 = quotient_plane_tables
    zero = (Fraction(0),) * 9
    assert extract_invariant(g112, zero, {(0, -1): 1}) == 1
    assert extract_invariant(g112, zero, {(1, -1): 2}) == Fraction(1, 6)
    assert extract_invariant(g112, zero, {(0, -1): 2, (1, -1): 1}) == Fraction(-1, 18)
    assert extract_invariant(g112, zero, {(0, -1): 4}) == Fraction(1, 648)
    # leading normalization of the orbi class
    assert g112.series.coefficient((1, 0)) == 1
    assert g112.series.coefficient((0, 0)) == 0


def test_extract_errors(quotient_plane_tables):
    fan, g112, _ = quotient_plane_tables
    zero = (Fraction(0),) * 9
    with pytest.raises(UnsupportedInsertionsError):
        extract_invariant(g112, zero, {(1, 0): 1})  # sector of another chart
    with pytest.raises(OrderTooLowError):
        extract_invariant(g112, zero, {(0, -1): 99})
    sphere = tuple(Fraction(x) for x in (1, 1, 1, 0, 0, 0, 0, 0, 0))
    with pytest.raises(UnsupportedInsertionsError):
        extract_invariant(g112, sphere, {(0, -1): 1})


def test_f2_generating_function():
    dgf = disk_generating_function(f2_fan(), DiskClassSymbol.smooth(1), 8)
    assert len(dgf.q_classes) == 1
    assert dgf.q_classes[0] == (Fraction(1), Fraction(-2), Fraction(1), Fraction(0))
    series = {tuple(e): c for e, c in dgf.series.terms()}
    assert series == {(0,): Fraction(1), (1,): Fraction(1)}
    assert extract_invariant(dgf, (0, 0, 0, 0), {}) == 1
    assert extract_invariant(dgf, (1, -2, 1, 0), {}) == 1
    assert extract_invariant(dgf, (2, -4, 2, 0), {}) == 0


def test_smooth_basic_normalization():
    for fan in (p2_fan(), p1xp1_fan(), p2z3_extended()):
        for i in range(fan.n_rays):
            dgf = disk_generating_function(fan, DiskClassSymbol.smooth(i), 4)
            assert extract_invariant(
                dgf, (Fraction(0),) * fan.n_vectors, {}
            ) == 1


def test_orbi_basic_normalization():
    fan = p2z3_extended()
    for pt in ((0, -1), (1, -1), (1, 0), (0, 1), (-1, 0), (-1, 1)):
        dgf = disk_generating_function(fan, DiskClassSymbol.orbi(pt), 4)
        assert extract_invariant(dgf, (Fraction(0),) * 9, {pt: 1}) == 1


def test_facet_independence_at_vertex():
    from orbidisk.stacky import facets_containing

    fan = p2z3_extended()
    facets = facets_containing(fan, (-1, 2))
    slices = []
    for f in facets:
        dgf = disk_generating_function(fan, DiskClassSymbol.smooth(2), 6, f)
        sliced = tau_zero_slice(dgf.series, 0)
        slices.append({tuple(e): c for e, c in sliced.terms()})
    # both charts give the constant series 1 once the sectors are off
    assert slices[0] == slices[1]
    for s in slices:
        assert list(s.items()) == [((Fraction(0), Fraction(0)), Fraction(1))]


def untwisted_invariants(dgf):
    """(ambient class, value) of every invariant without insertions."""
    return sorted((alpha, v) for alpha, ins, v in dgf.invariants() if not ins)


def test_facet_independence_every_vertex_class():
    # every ray on several facets gets the same untwisted invariants from
    # each facet's chart; f3's long edge holds the ray (0,1) inside its cone
    # off the facet, so that edge gives no chart
    from orbidisk.stacky import FanError, facets_containing, is_complete

    compared = 0
    for name, fan in example_fans(bench=False):
        if not is_complete(fan):
            continue
        for i, b in enumerate(fan.stacky_vectors):
            facets = facets_containing(fan, b)
            if len(facets) < 2:
                continue
            found = []
            for f in facets:
                try:
                    dgf = disk_generating_function(
                        fan, DiskClassSymbol.smooth(i), 6, f
                    )
                except FanError:
                    continue
                found.append(untwisted_invariants(dgf))
            assert found, f"no chart for ray {i} of {name}"
            zero = (Fraction(0),) * fan.n_vectors
            assert (zero, 1) in found[0]
            assert all(x == found[0] for x in found), f"ray {i} of {name}"
            compared += len(found) - 1
    assert compared >= 14


def test_smooth_generating_functions_are_one():
    from orbidisk.stacky import facets_containing

    fans = dict(example_fans())
    for name in ("p2", "p1xp1"):
        fan = fans[name]
        for sym in potential_symbols(fan):
            for f in facets_containing(fan, fan.stacky_vectors[sym.ray]):
                dgf = disk_generating_function(fan, sym, 6, f)
                assert dgf.series == dgf.series.ring.one(), (name, sym, f)


def test_f2_invariants_per_class():
    # only the mid-edge ray (0,1) carries the 1 + q correction, q the
    # degree-zero exceptional curve (pairings (1,-2,1,0))
    fan = dict(example_fans())["f2"]
    zero = (Fraction(0),) * 4
    curve = tuple(Fraction(x) for x in (1, -2, 1, 0))
    for sym in potential_symbols(fan):
        dgf = disk_generating_function(fan, sym, 6)
        want = [(zero, 1)]
        if fan.stacky_vectors[sym.ray] == (0, 1):
            want = sorted([(zero, 1), (curve, 1)])
        assert untwisted_invariants(dgf) == want, sym
        assert [ins for _, ins, _ in dgf.invariants()] == [{}] * len(want)


def test_denominator_support(quotient_plane_tables):
    # denominators of extracted values only involve the chart torsion and
    # insertion factorials: every prime factor divides M * l!
    import math

    fan, g112, _ = quotient_plane_tables
    for exps, coeff in g112.series.terms():
        total = int(sum(exps))
        bound = 3 * math.factorial(max(total, 1))
        assert all(bound % p == 0 for p in _prime_factors(coeff.denominator))


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# -- potential -----------------------------------------------------------------


def test_potential_p2():
    data = assemble_potential(p2_fan(), 0, 4)
    assert [e.z_monomial for e in data.entries] == [(-1, -1), (0, 1), (1, 0)]
    by_z = {e.z_monomial: e for e in data.entries}
    assert by_z[(1, 0)].area == (Fraction(0),)
    assert by_z[(0, 1)].area == (Fraction(0),)
    assert by_z[(-1, -1)].area == (Fraction(1),)
    for e in data.entries:
        terms = list(e.series.terms())
        assert len(terms) == 1 and terms[0][1] == 1
        assert terms[0][0] == (e.area[0],)


def test_potential_quotient_plane():
    fan = p2z3_extended()
    data = assemble_potential(fan, 0, 4)
    assert len(data.entries) == 9
    by_z = {e.z_monomial: e for e in data.entries}
    # areas follow the fractional sphere splitting
    assert by_z[(1, 0)].area == (Fraction(1, 3),)
    assert by_z[(0, 1)].area == (Fraction(2, 3),)
    assert by_z[(-1, 2)].area == (Fraction(1),)
    assert by_z[(0, -1)].area == (Fraction(0),)
    assert by_z[(1, -1)].area == (Fraction(0),)
    # switching the sectors off leaves exactly the basic smooth terms
    for e in data.entries:
        sliced = tau_zero_slice(e.series, 1)
        terms = list(sliced.terms())
        if e.symbol.kind == "ray":
            assert len(terms) == 1 and terms[0][1] == 1
            assert terms[0][0][0] == e.area[0]
        else:
            assert terms == []


def test_potential_symbols_cover_all_basic_classes():
    fan = p2z3_extended()
    syms = potential_symbols(fan)
    assert len(syms) == 9
    assert sum(1 for s in syms if s.kind == "ray") == 3


def test_potential_lists_box_elements_once(monkeypatch):
    from orbidisk import mirror
    from orbidisk.stacky import fan_sequence

    fan = p2z3_extended()
    calls = []
    real = mirror.box_elements

    def counting(parent):
        calls.append(parent)
        return real(parent)

    monkeypatch.setattr(mirror, "box_elements", counting)
    data = assemble_potential(fan, 0, 4)
    assert calls == [fan]
    # an entry built on its own looks its box element up and agrees
    seq = fan_sequence(fan)
    for e in data.entries:
        assert mirror.potential_entry(fan, seq, 0, e.symbol, 4) == e


def test_potential_bad_cone():
    from orbidisk.mirror import NormalizationConeError

    with pytest.raises(NormalizationConeError):
        assemble_potential(p2_fan(), 7, 3)


# -- independent second geometry: the Z2 quotient plane -------------------------


def p112_extended() -> StackyFan:
    from orbidisk.stacky import age_one_box_points

    base = StackyFan.make(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    return StackyFan.make(
        2, base.stacky_vectors, base.max_cones, age_one_box_points(base)
    )


def half_sine_coefficient(k: int) -> Fraction:
    """Coefficient of t^k in 2 sin(t/2), the Z2 sector closed form."""
    import math

    if k % 2 == 0:
        return Fraction(0)
    j = (k - 1) // 2
    return Fraction((-1) ** j, 4 ** j * math.factorial(k))


def test_z2_sector_matches_closed_form():
    fan = p112_extended()
    assert fan.extra_vectors == ((0, -1),)
    dgf = disk_generating_function(fan, DiskClassSymbol.orbi((0, -1)), 9)
    got = {int(e[0]): c for e, c in dgf.series.terms()}
    # weighted order 9 at sector weight 1/2 covers degrees up to 18
    want = {
        k: half_sine_coefficient(k)
        for k in range(19)
        if half_sine_coefficient(k) != 0
    }
    assert got == want


def test_z2_quotient_plane_normalizations_and_potential():
    from orbidisk.mirror import assemble_potential
    from orbidisk.stacky import gorenstein_check, semifano_check

    fan = p112_extended()
    assert gorenstein_check(fan).ok and semifano_check(fan).ok
    zero = (Fraction(0),) * fan.n_vectors
    for i in range(3):
        dgf = disk_generating_function(fan, DiskClassSymbol.smooth(i), 3)
        assert extract_invariant(dgf, zero, {}) == 1
    pot = assemble_potential(fan, 0, 3)
    by_z = {e.z_monomial: e for e in pot.entries}
    assert set(by_z) == {(1, 0), (0, 1), (-1, -2), (0, -1)}
    assert by_z[(0, -1)].area == (Fraction(1, 2),)
    assert by_z[(-1, -2)].area == (Fraction(1),)
    assert by_z[(1, 0)].area == (Fraction(0),)


# -- a chart mixing curve classes and twisted sectors ---------------------------


def mixed_chart() -> StackyFan:
    return StackyFan.make(
        3,
        [(0, 0, 1), (1, 0, 1), (0, 2, 1), (1, 2, 1)],
        [(0, 1, 2), (1, 2, 3)],
        [(0, 1, 1), (1, 1, 1)],
    )


def test_mixed_chart_pipeline():
    from orbidisk.suborbifold import cy_support_vector

    fan = mixed_chart()
    assert cy_support_vector(fan) == (0, 0, 1)
    pipe = ChartPipeline(fan, 6)
    assert pipe.r == 3 and pipe.r_prime == 1
    assert pipe.round_trip_identity()
    # both sectors reproduce the Z2 closed form transverse to their loci
    g1 = pipe.generating_function(DiskClassSymbol.orbi((0, 1, 1)))
    got1 = {
        int(e[1]): c for e, c in g1.terms() if e[0] == 0 and e[2] == 0
    }
    assert got1 == {1: Fraction(1), 3: Fraction(-1, 24)}
    assert len(list(g1.terms())) == 2
    g2 = pipe.generating_function(DiskClassSymbol.orbi((1, 1, 1)))
    got2 = {int(e[2]): c for e, c in g2.terms() if e[0] == 0 and e[1] == 0}
    assert got2 == {
        k: half_sine_coefficient(k)
        for k in range(1, 12)
        if half_sine_coefficient(k) != 0
    }
    assert len(list(g2.terms())) == len(got2)


def test_grid_matches_brute_force_scan():
    # the cone-by-cone enumeration finds exactly the effective points of the
    # exponent simplex; the Z5 chart runs at order 3 to keep the scan short
    charts = {}
    for _, fan in example_fans():
        for chart in basic_class_charts(fan):
            charts[chart] = 3 if len(chart.extra_vectors) >= 4 else 6
    for chart in basic_class_charts(p2z3_extended()):
        charts[chart] = 20
    for chart in list(random_segment_charts()) + list(random_triangle_charts()):
        charts.setdefault(chart, 2)
    assert len(charts) > 40
    for chart, order in charts.items():
        assert assert_grid_is_brute_force(chart, order) >= 1


def test_potential_f2_exceptional_correction():
    data = assemble_potential(f2_fan(), 0, 6)
    by_z = {e.z_monomial: e for e in data.entries}
    assert set(by_z) == {(1, 0), (0, 1), (-1, 2), (0, -1)}
    # only the mid-edge ray picks up a correction: 1 + q over the
    # degree-zero exceptional curve; the others are bare area monomials
    mid = {tuple(e): c for e, c in by_z[(0, 1)].series.terms()}
    assert mid == {
        (Fraction(0), Fraction(0)): Fraction(1),
        (Fraction(1), Fraction(0)): Fraction(1),
    }
    for z in ((1, 0), (-1, 2), (0, -1)):
        terms = list(by_z[z].series.terms())
        assert len(terms) == 1 and terms[0][1] == 1
        assert terms[0][0] == by_z[z].area


def test_potential_hexagon_is_bare_areas():
    # smooth dP6: its grading basis needs a sum of three ray divisors
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    fan = StackyFan.make(2, rays, [(i, (i + 1) % 6) for i in range(6)])
    data = assemble_potential(fan, 0, 6)
    assert sorted(e.z_monomial for e in data.entries) == sorted(rays)
    for e in data.entries:
        assert list(e.series.terms()) == [(e.area, 1)]


def random_segment_charts():
    """Cones over height-one segments with every interior point a sector."""
    import random

    from orbidisk.stacky import validate

    rng = random.Random(77)
    for _ in range(10):
        a = rng.randint(-4, 2)
        b = a + rng.randint(1, 5)
        rays = [(a, 1), (b, 1)]
        extras = [(c, 1) for c in range(a + 1, b)]
        fan = StackyFan.make(2, rays, [(0, 1)], extras)
        if validate(fan).ok:  # always valid here
            yield fan


def random_triangle_charts():
    """Cones over four height-one lattice triangles; the sectors are the
    interior and edge points of the triangle."""
    import random

    from orbidisk.stacky import box_elements, validate

    rng = random.Random(99)
    built = 0
    while built < 4:
        corners = [
            (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)
        ]
        area2 = abs(
            (corners[1][0] - corners[0][0]) * (corners[2][1] - corners[0][1])
            - (corners[2][0] - corners[0][0]) * (corners[1][1] - corners[0][1])
        )
        if area2 == 0 or area2 > 6:
            continue
        rays = [(x, y, 1) for x, y in corners]
        base = StackyFan.make(3, rays, [(0, 1, 2)])
        extras = [b.point for b in box_elements(base) if b.age == 1]
        fan = StackyFan.make(3, rays, [(0, 1, 2)], extras)
        if not validate(fan).ok:
            continue
        built += 1
        yield fan


def test_random_cy_charts_round_trip():
    from orbidisk.suborbifold import cy_support_vector

    for fan in random_segment_charts():
        assert cy_support_vector(fan) == (0, 1)
        pipe = ChartPipeline(fan, 2)
        assert pipe.round_trip_identity()
        for jdx, j in enumerate(pipe.extras):
            g = pipe.generating_function(
                DiskClassSymbol.orbi(fan.vectors[j])
            )
            lead = tuple(
                Fraction(1) if t == pipe.r_prime + jdx else Fraction(0)
                for t in range(pipe.qt_ring.nvars)
            )
            assert g.coefficient(lead) == 1


def test_random_3d_triangle_charts():
    for fan in random_triangle_charts():
        pipe = ChartPipeline(fan, 2)
        assert pipe.round_trip_identity()
        # sector normalization wherever the order reaches the sector weight
        for jdx, j in enumerate(pipe.extras):
            if pipe.tau_weights[jdx] <= 2:
                g = pipe.generating_function(
                    DiskClassSymbol.orbi(fan.vectors[j])
                )
                lead = tuple(
                    Fraction(1) if t == pipe.r_prime + jdx else Fraction(0)
                    for t in range(pipe.qt_ring.nvars)
                )
                assert g.coefficient(lead) == 1


def test_grid_guards():
    from dataclasses import replace

    from orbidisk.stacky import fan_sequence

    fan = c2z3_chart()
    seq = fan_sequence(fan)
    # negated dual basis: every enumeration weight turns negative
    flipped = replace(
        seq, gamma_basis=tuple(tuple(-g for g in row) for row in seq.gamma_basis)
    )
    with pytest.raises(ComputationError, match="nonpositive enumeration weight"):
        ChartPipeline(fan, 4, flipped).grid()
    # no anticone at all: the enumerated classes fail their classification
    pipe = ChartPipeline(fan, 4)
    pipe._anticones = set()
    with pytest.raises(ComputationError, match="not effective"):
        pipe.grid()
    # a lower-dimensional maximal cone leaves more than r vectors outside it
    lopsided = StackyFan.make(2, [(0, 1), (1, 1), (2, 1)], [(0, 1), (2,)])
    with pytest.raises(ComputationError, match="not full-dimensional"):
        ChartPipeline(lopsided, 3).grid()
