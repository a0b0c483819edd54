"""Tests for the mirror pipeline: omega sets, correction series, inversion,
generating functions, and the disk potential."""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

import pytest
from conftest import (
    BIG_PRIMES,
    REPO,
    assert_grid_is_brute_force,
    basic_class_charts,
    box_point,
    c2z3_chart,
    c3z3_chart,
    example_fans,
    f2_fan,
    om2_chart,
    omega_from_grid,
    p1xp1_fan,
    p2_fan,
    p2z3_extended,
    pairings_from_key,
    ratio_factor,
    solve_against_by_fractions,
    solve_against_by_images,
    support_by_fractions,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbidisk.mirror import (
    ChartPipeline,
    ComputationError,
    OrderTooLowError,
    UnsupportedInsertionsError,
    _sector_ratio,
    assemble_potential,
    disk_generating_function,
    extract_invariant,
    potential_symbols,
    tau_zero_slice,
)
from orbidisk.series import exp_series
from orbidisk.stacky import DiskClassSymbol, FanError, StackyFan


# -- building blocks ---------------------------------------------------------


def test_ratio_factor():
    assert ratio_factor(Fraction(0)) == 1
    assert ratio_factor(Fraction(1)) == 1
    assert ratio_factor(Fraction(3)) == Fraction(1, 6)
    assert ratio_factor(Fraction(-1)) == 0  # negative integers vanish
    assert ratio_factor(Fraction(-2, 3)) == 1
    assert ratio_factor(Fraction(-4, 3)) == Fraction(-1, 3)
    assert ratio_factor(Fraction(-7, 3)) == Fraction(-4, 3) * Fraction(-1, 3)


@settings(max_examples=400)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=4), st.integers(1, 12))
@example([0], 1)
@example([0, 5, -9], 3)  # zero, a non-integer, a negative integer
@example([-7, -2, 14], 3)
def test_sector_ratio_matches_ratio_factor(nums, m):
    num, den = _sector_ratio(nums, m)
    want = Fraction(1)
    for p in nums:
        want *= ratio_factor(Fraction(p, m))
    assert Fraction(num, den) == want


def pairings(pipe, gp) -> tuple[Fraction, ...]:
    """A grid class's divisor pairings: its numerators over M^2."""
    return tuple(Fraction(p, pipe.modulus**2) for p in gp.nums)


def _fraction_reference(pipe, j):
    """omega(j) keys and A_j scaled terms of a chart, decided on the Fraction
    pairings of each grid key (`pairings_from_key`)."""
    fan = pipe.fan
    keys, terms = [], {}
    for key in sorted(pipe.grid()):
        if not any(key):
            continue
        cs = pairings_from_key(pipe, key)
        nu = tuple(
            sum(math.ceil(c) * v[k] for c, v in zip(cs, fan.vectors))
            for k in range(fan.dim)
        )
        whole = [c.denominator == 1 for c in cs]
        if j < fan.n_rays:
            if not (whole[j] and cs[j] < 0) or any(nu):
                continue
            others = [(c, w) for i, (c, w) in enumerate(zip(cs, whole)) if i != j]
            if any(c < 0 or not w for c, w in others):
                continue
            cj = int(cs[j])
            coeff = Fraction((-1) ** (-cj - 1) * math.factorial(-cj - 1))
            for i, c in enumerate(cs):
                if i != j:
                    coeff /= math.factorial(int(c))
        else:
            if any(w and c < 0 for c, w in zip(cs, whole)) or nu != fan.vectors[j]:
                continue
            coeff = math.prod((ratio_factor(c) for c in cs), start=Fraction(1))
        keys.append(key)
        if coeff:
            terms[key] = coeff
    return keys, terms


def test_integer_classes_match_fraction_reference():
    # every chart of every example fan but mq, the C2/Z_n charts among them
    fans = dict(example_fans(max_extras=12))
    charts = []
    for fan in fans.values():
        charts += [c for c in basic_class_charts(fan) if c not in charts]
    assert all(fans[f"c2z{n}"] in charts for n in range(2, 6))
    for chart in charts:
        pipe = ChartPipeline(chart, 6)
        for key, gp in pipe.grid().items():
            assert pairings(pipe, gp) == pairings_from_key(pipe, key), (chart, key)
        for j in range(chart.n_vectors):
            keys, terms = _fraction_reference(pipe, j)
            assert [gp.key for gp in pipe.omega(j)] == keys, (chart, j)
            assert pipe.a_series(j).scaled_terms() == terms, (chart, j)


def test_sector_data_matches_the_fraction_dual_classes():
    # the integer triples (carrier, y, d) a pipeline keeps per extra vector,
    # against conftest.dual_class_data on every chart of the example fans
    # and the census fans with a nef block and on C2/Z_n, n = 2..8: the
    # carriers, the cone each sector is walked on, the pairing columns and
    # every sector's target series.  (1,1) over the smooth cone is no box
    # element: it gets no target, and its generating function is refused
    from conftest import dual_class_data, local_chart, partial_resolutions

    from orbidisk.stacky import NoValidBasisError

    charts: dict[StackyFan, None] = {}
    for _, fan in example_fans() + partial_resolutions():
        for chart in basic_class_charts(fan):
            charts[chart] = None
    for n in range(2, 9):
        charts[local_chart(n)] = None
    charts[StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)], [(1, 1)])] = None
    compared = targets = refused = 0
    for chart in charts:
        try:
            pipe = ChartPipeline(chart, 2)
        except NoValidBasisError:
            continue
        compared += 1
        duals = [dual_class_data(chart, j) for j in pipe.extras]
        assert [c for c, _, _ in pipe.duals] == [d.carrier for d in duals], chart
        classes = list(pipe.seq.gamma_basis) + [d.pairings for d in duals]
        assert pipe._gamma_cols == tuple(
            tuple(c[i] * pipe.modulus for c in classes) for i in range(chart.n_vectors)
        ), chart
        cones = [set(cone) for cone in chart.max_cones]
        walked: list[list[int]] = [[] for _ in cones]
        for jdx, (j, d) in enumerate(zip(pipe.extras, duals)):
            if any(c >= 1 for c in d.cone_coeffs):
                symbol = DiskClassSymbol.orbi(chart.vectors[j])
                with pytest.raises(ComputationError, match="not a box element"):
                    pipe.generating_function(symbol)
                refused += 1
                continue
            at = next(k for k, cone in enumerate(cones) if set(d.carrier) <= cone)
            walked[at].append(j)
            acc = pipe.y_ring.zero()
            for i, c in zip(d.carrier, d.cone_coeffs):
                acc = acc + pipe.a_series(i) * c
            mono = pipe.y_ring.variable(pipe.r_prime + jdx)
            assert pipe._target(j) == mono * exp_series(-acc), (chart, j)
            targets += 1
        assert [sectors for _, sectors in pipe._targets()] == walked, chart
    # 97 charts, 129 targets
    assert compared > 90 and targets > 120 and refused == 1, (compared, targets)


def test_omega_sets_smooth_chart():
    chart = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    pipe = ChartPipeline(chart, 6)
    assert pipe.omega(0) == [] and pipe.omega(1) == []
    g = pipe.generating_function(DiskClassSymbol.smooth(0))
    assert g == pipe.qt_ring.one()


def test_omega_set_quotient_chart():
    pipe = ChartPipeline(c2z3_chart(), 4)
    om = pipe.omega(2)
    pairs = {pairings(pipe, gp) for gp in om}
    assert (Fraction(-2, 3), Fraction(-1, 3), Fraction(1), Fraction(0)) in pairs
    for gp in om:
        # never a negative integer pairing, and the box point matches
        for c in pairings(pipe, gp):
            assert not (c.denominator == 1 and c < 0)
        assert box_point(pipe.fan, gp.nums, pipe._den) == (1, 0)


def test_omega_set_om2():
    pipe = ChartPipeline(om2_chart(), 5)
    om = pipe.omega(1)
    assert [pairings(pipe, gp) for gp in om] == [
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
            lead = [int(t == pipe.r_prime + jdx) for t in range(pipe.r)]
            assert a.coefficient(lead) == 1


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


def forward_of(pipe, poly):
    """f = X(forward(y)) by plain series arithmetic on the forward coordinates,
    and X itself, for the polynomial X given as integer exponents -> coeff."""
    coords = pipe.forward_q() + [pipe.a_series(j) for j in pipe.extras]
    f = pipe.y_ring.zero()
    x = pipe.qt_ring.zero()
    for exps, c in poly.items():
        term = pipe.y_ring.scalar(c)
        for coord, e in zip(coords, exps):
            term = term * coord**e
        f = f + term
        x = x + pipe.qt_ring.monomial(exps, c)
    return f, x


def test_inversion_of_multi_variable_monomials():
    # solve_against must give X back from X(forward(y)).  c2z3 mixes its two
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
            {(1, 1, 0): 1, (1, 0, 1): 2, (2, 1, 1): -3, (0, 1, 2): 1, (2, 0, 4): 5},
        ),
    ]
    for chart, order, poly in cases:
        pipe = ChartPipeline(chart, order)
        f, x = forward_of(pipe, poly)
        assert len(list(x.terms())) == len(poly)
        assert pipe.solve_against(f) == x


@functools.cache
def inversion_pipes() -> list[ChartPipeline]:
    """The c2z3, om2, mixed and c3z3 charts and every basic-class chart of
    the example fans but mq, one pipeline each, kept across examples so that
    their power and relabel caches are reused."""
    charts = [(c2z3_chart(), 6), (om2_chart(), 8), (mixed_chart(), 6), (c3z3_chart(), 3)]
    for _, fan in example_fans(max_extras=12):
        for chart in basic_class_charts(fan):
            if all(chart != c for c, _ in charts):
                charts.append((chart, 4))
    return [ChartPipeline(chart, order) for chart, order in charts]


@functools.cache
def integer_monomials(pipe) -> list[tuple[int, ...]]:
    """Integer exponent vectors of the (q, tau) monomials under the order."""
    ring = pipe.qt_ring
    ranges = [range(int(pipe.order / w) + 1) for w in ring.weights]
    return [
        e for e in itertools.product(*ranges) if ring.in_bounds(ring.scale_exponents(e))
    ]


WIDE_COEFFS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.sampled_from(BIG_PRIMES)),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_inversion_matches_fraction_reference(data):
    # random X with large coprime denominators: the integer residual must
    # carry them through every level and give X back, as the Fraction
    # reference does
    pipe = data.draw(st.sampled_from(inversion_pipes()))
    poly = data.draw(
        st.dictionaries(st.sampled_from(integer_monomials(pipe)), WIDE_COEFFS, max_size=5)
    )
    f, x = forward_of(pipe, poly)
    got = pipe.solve_against(f)
    assert got == x
    assert got == solve_against_by_images(pipe, f)
    assert got == solve_against_by_fractions(pipe, f)


def chart_job(pipe):
    """What a benchmark chart job computes: the round trip, then the
    generating function of every sector."""
    assert pipe.round_trip_identity()
    for point in pipe.fan.extra_vectors:
        pipe.generating_function(DiskClassSymbol.orbi(point))


def test_many_sector_chart_inversion_matches_references():
    # a chart of mq has 12 sectors, where the cached heads of the forward
    # images are reused most; the sweeps above leave mq out, as its
    # monomials are too many to enumerate
    from orbidisk.fanfile import parse_fan_file
    from orbidisk.suborbifold import build_suborbifold

    fan = parse_fan_file(REPO / "fans" / "mq.json").resolve_fan()
    chart = build_suborbifold(fan, DiskClassSymbol.smooth(0)).fan
    assert len(chart.extra_vectors) == 12
    pipe = ChartPipeline(chart, 3)
    calls = []
    solve = pipe.solve_against

    def record(f):
        x = solve(f)
        calls.append((f, x))
        return x

    pipe.solve_against = record
    chart_job(pipe)
    # every variable of the chart is a sector: the round trip inverts the 12
    # sector series; the chart's symmetries permuting its 3 rays split the
    # 12 sector generating functions into 3 orbits, and only one function
    # per orbit is solved, the others are read off by permuting tau
    assert pipe.r_prime == 0 and len(calls) == 12 + 3
    for f, x in calls:
        assert x == solve_against_by_images(pipe, f)
        assert x == solve_against_by_fractions(pipe, f)
    # every one of the 12 generating functions, solved or permuted, against
    # both references
    for point, j in zip(chart.extra_vectors, pipe.extras):
        g = pipe.generating_function(DiskClassSymbol.orbi(point))
        f = pipe._target(j)
        assert g == solve_against_by_images(pipe, f), point
        assert g == solve_against_by_fractions(pipe, f), point


def test_chart_job_product_count(monkeypatch):
    # the c2z5 chart job of the benchmark at order 6: each forward image is a
    # cached head times a power-list entry, fused into the residual, so the
    # products are the power lists and the heads only; building every image
    # as a product takes 256.  The chart's reflection swaps the sectors k
    # and 5 - k, so the power list of the second sector of each pair is read
    # off the first's by permuting keys, with no product, and the last two
    # generating functions are the first two permuted
    from orbidisk import mirror
    from orbidisk.fanfile import parse_fan_file

    count = 0
    product = mirror._product

    def counted(*args):
        nonlocal count
        count += 1
        return product(*args)

    monkeypatch.setattr(mirror, "_product", counted)
    fan = parse_fan_file(REPO / "perfbench" / "fans" / "c2z5.json").resolve_fan()
    chart_job(ChartPipeline(fan, 6))
    assert count == 36


# -- sector symmetries --------------------------------------------------------------


def symmetry_charts() -> list[tuple[StackyFan, int]]:
    """Every chart with r' = 0 (as many rays as dimensions) of the example
    fans and of the 163 census fans, and C^2/Z_n for n = 2..8: the 2D
    charts at order 4, the 3D ones (mq's among them) at order 3."""
    from conftest import local_chart, partial_resolutions

    charts: dict[StackyFan, None] = {}
    for _, fan in example_fans() + partial_resolutions():
        for chart in basic_class_charts(fan):
            if chart.n_rays == chart.dim:
                charts[chart] = None
    for n in range(2, 9):
        charts[local_chart(n)] = None
    return [(chart, 4 if chart.dim == 2 else 3) for chart in charts]


def chart_outputs(pipe) -> list:
    """The round trip, then the generating function of every ray and every
    sector of the chart, in that order."""
    symbols = [DiskClassSymbol.smooth(i) for i in range(pipe.fan.n_rays)]
    symbols += [DiskClassSymbol.orbi(p) for p in pipe.fan.extra_vectors]
    return [pipe.round_trip_identity()] + [pipe.generating_function(s) for s in symbols]


def test_sector_symmetries_change_no_power_list_or_generating_function(monkeypatch):
    # each chart's outputs and each entry of its power lists, with the
    # symmetries in use, equal those of a pipeline whose symmetry finder is
    # switched off; the candidates are the chart's automorphisms found by
    # the independent search of fan_automorphisms
    charts = symmetry_charts()
    accepted = images = 0
    for chart, order in charts:
        on, off = ChartPipeline(chart, order), ChartPipeline(chart, order)
        monkeypatch.setattr(off, "_symmetries", lambda: [])
        assert chart_outputs(on) == chart_outputs(off), chart
        for v, powers in on._powers.items():
            for k, entry in enumerate(powers):
                assert entry == off._power(v, k), (chart, v, k)
        candidates = on._candidates()
        assert set(candidates) == {p for _, p in fan_automorphisms(chart)}, chart
        # the A-series confirm every automorphism, as the mirror theorem
        # says they must
        assert len(on._symmetries()) == len(candidates), chart
        accepted += bool(candidates)
        images += len(on._power_images)
    assert len(charts) >= 70 and accepted >= 70 and images >= 50, (
        len(charts),
        accepted,
        images,
    )


def test_a_series_check_refuses_a_wrong_symmetry(monkeypatch):
    # on C^2/Z5 the reflection swaps the sectors (1,1) <-> (4,1) and (2,1)
    # <-> (3,1); a swap of (1,1) and (2,1) with the rays fixed is no
    # automorphism, and the A-series check must refuse it, leaving every
    # output as it is without symmetries
    from conftest import local_chart

    chart = local_chart(5)
    wrong, right = (0, 1, 3, 2, 4, 5), (1, 0, 5, 4, 3, 2)
    off = ChartPipeline(chart, 6)
    monkeypatch.setattr(off, "_symmetries", lambda: [])
    want = chart_outputs(off)
    for candidates, kept in (([wrong], []), ([wrong, right], [right])):
        pipe = ChartPipeline(chart, 6)
        monkeypatch.setattr(pipe, "_candidates", lambda: candidates)
        assert chart_outputs(pipe) == want
        assert [back for back, _ in pipe._symmetries()] == kept  # involutions
        assert bool(pipe._power_images) == bool(kept)


def test_non_contracting_chart_still_raises():
    # the sector series of (2,1) carries -y0^(1/2), curve part 1/2 and no
    # sector factor, below its leading monomial y1 (the dual class), so the
    # image of tau is not triangular in the rank filtration: the sector has
    # no power-series inverse, and every use of its series says so
    fan = StackyFan.make(2, [(0, 1), (1, 1), (3, 1)], [(0, 1), (1, 2)], [(2, 1)])
    pipe = ChartPipeline(fan, 2)
    message = r"sector \(2, 1\) carries y0\^\(1/2\)"
    with pytest.raises(ComputationError, match=message):
        pipe.a_series(pipe.extras[0])
    with pytest.raises(ComputationError, match=message):
        pipe.round_trip_identity()


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
    # integer multiplicities take a fast path with the same errors
    with pytest.raises(UnsupportedInsertionsError, match="negative exponent"):
        extract_invariant(g112, (0,) * 9, {(0, -1): -1})
    with pytest.raises(UnsupportedInsertionsError, match="not in"):
        extract_invariant(g112, (0,) * 9, {(0, -1): Fraction(1, 2)})


def test_extract_integer_and_fraction_inputs_agree(quotient_plane_tables):
    _, g112, _ = quotient_plane_tables
    for a in range(7):
        for b in range(7 - a):
            ints = extract_invariant(g112, (0,) * 9, {(0, -1): a, (1, -1): b})
            fracs = extract_invariant(
                g112, (Fraction(0),) * 9, {(0, -1): Fraction(a), (1, -1): Fraction(b)}
            )
            assert ints == fracs == g112.series.coefficient((a, b))


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
    for name, fan in example_fans(bench=False, max_extras=12):
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
    # an entry built on its own reads its boundary class off the minimal
    # cone coordinates, lists no box elements, and agrees
    seq = fan_sequence(fan)
    for e in data.entries:
        assert mirror.potential_entry(fan, seq, 0, e.symbol, 4) == e
    assert calls == [fan]


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
    # every tau has degree 1: order 9 covers degrees up to 9
    want = {
        k: half_sine_coefficient(k)
        for k in range(10)
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
    fan = mixed_chart()
    assert support_by_fractions(fan) == (0, 0, 1)
    pipe = ChartPipeline(fan, 6)
    assert pipe.r == 3 and pipe.r_prime == 1
    assert pipe.round_trip_identity()
    # both sectors reproduce the Z2 closed form transverse to their loci, in
    # the same window: every tau has degree 1
    want = {k: half_sine_coefficient(k) for k in range(1, 7) if half_sine_coefficient(k)}
    for point, var in (((0, 1, 1), 1), ((1, 1, 1), 2)):
        g = pipe.generating_function(DiskClassSymbol.orbi(point))
        got = {int(e[var]): c for e, c in g.terms() if not any(e[:var] + e[var + 1 :])}
        assert got == want
        assert len(list(g.terms())) == len(want)


def test_grid_matches_brute_force_scan():
    # the cone-by-cone enumeration finds exactly the effective points of the
    # exponent simplex; the Z5 chart runs at order 3 to keep the scan short
    charts = {}
    for _, fan in example_fans(max_extras=12):
        for chart in basic_class_charts(fan):
            charts[chart] = 3 if len(chart.extra_vectors) >= 4 else 6
    for chart in basic_class_charts(p2z3_extended()):
        charts[chart] = 20
    for chart in list(random_segment_charts()) + list(random_triangle_charts()):
        charts.setdefault(chart, 2)
    assert len(charts) > 40
    for chart, order in charts.items():
        assert assert_grid_is_brute_force(chart, order) >= 1


def test_mq_omega_sets_match_grid_filter():
    # the four charts of mq at order 4, 12 sectors and 1,820 classes each:
    # the omega sets filed by the cone walk equal the filter over the grid;
    # the simplex scan of assert_grid_is_brute_force would take minutes here
    from orbidisk.fanfile import parse_fan_file

    charts = basic_class_charts(parse_fan_file(REPO / "fans" / "mq.json").resolve_fan())
    assert len(charts) == 4
    for chart in charts:
        pipe = ChartPipeline(chart, 4)
        filed = [pipe.omega(j) for j in range(chart.n_vectors)]
        assert len(pipe.grid()) == 1820
        for j in range(chart.n_vectors):
            assert filed[j] == omega_from_grid(pipe, j), (chart, j)


def test_omega_walk_files_each_class_by_its_coset():
    # the omega sets come from walks over the cosets that have a target
    from orbidisk.fanfile import parse_fan_file

    c2z5 = parse_fan_file(REPO / "perfbench" / "fans" / "c2z5.json").resolve_fan()
    mq = parse_fan_file(REPO / "fans" / "mq.json").resolve_fan()
    for chart, order, walked, filed in (
        (c2z5, 6, 169, 168),
        (basic_class_charts(mq)[0], 4, 412, 411),
    ):
        pipe = ChartPipeline(chart, order)
        yielded = []
        classes = pipe._classes

        def tally(file):
            return lambda *cls: yielded.append(cls) or file(*cls)

        pipe._classes = lambda cone, basis, starts, files: classes(
            cone, basis, starts, [tally(f) for f in files]
        )
        sets = pipe._omega_sets()
        # the walk yields only classes of the target cosets that can join
        # a set: on the mq chart 412 of the grid's 1,820, and files all but
        # the origin
        assert len(yielded) == walked, chart
        assert sum(map(len, sets)) == filed, chart


def test_omega_walk_keeps_the_sign_check():
    # the sector (1, 0, 1), mid-edge of the cone {0, 1, 2}, must keep its
    # pairing with the ray (0, 1, 1) nonnegative; (2, 1, 1) lowers that
    # pairing and (1, -1, 1) raises it, so its walk uses every outside
    # vector and the per-class sign check decides which classes join
    rays = [(0, 0, 1), (2, 0, 1), (0, 1, 1), (2, 1, 1), (1, -1, 1)]
    cones = [(0, 1, 2), (1, 2, 3), (0, 1, 4)]
    fan = StackyFan.make(3, rays, cones, [(1, 0, 1), (1, 1, 1)])
    pipe = ChartPipeline(fan, 4)
    cone = pipe._cones()[0]
    assert pipe._usable(cone, [2], 1) == tuple(range(len(cone.outside)))
    assert assert_grid_is_brute_force(fan, 4) == 97


def test_series_build_no_grid():
    # every correction series comes from the omega sets the cone walk files,
    # so none of them builds the grid of all classes
    from orbidisk.fanfile import parse_fan_file
    from orbidisk.suborbifold import build_suborbifold

    c2z5 = parse_fan_file(REPO / "perfbench" / "fans" / "c2z5.json").resolve_fan()
    p2z3 = parse_fan_file(REPO / "fans" / "p2z3.json").resolve_fan()
    box = build_suborbifold(p2z3, DiskClassSymbol.orbi((-1, 0))).fan
    for chart, order in ((c2z5, 6), (box, 20)):
        pipe = ChartPipeline(chart, order)
        for j in range(chart.n_vectors):
            pipe.a_series(j)
        assert any(pipe.omega(j) for j in range(chart.n_vectors))
        assert pipe._grid is None


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
    for fan in random_segment_charts():
        assert support_by_fractions(fan) == (0, 1)
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
        # sector normalization: every tau has degree 1, within the order
        for jdx, j in enumerate(pipe.extras):
            g = pipe.generating_function(DiskClassSymbol.orbi(fan.vectors[j]))
            lead = tuple(
                Fraction(1) if t == pipe.r_prime + jdx else Fraction(0)
                for t in range(pipe.qt_ring.nvars)
            )
            assert g.coefficient(lead) == 1


def test_grid_guards():
    from orbidisk.fanfile import parse_fan_file

    fan = c2z3_chart()
    # negated pairing columns: every enumeration weight turns negative
    flipped = ChartPipeline(fan, 4)
    flipped._gamma_cols = tuple(tuple(-g for g in col) for col in flipped._gamma_cols)
    with pytest.raises(ComputationError, match="nonpositive enumeration weight"):
        flipped.grid()
    # doubled pairing columns halve every step class, whose scaled key then
    # is not integral: a chart's step classes pair into (1/M)Z
    p2z3 = parse_fan_file(REPO / "fans" / "p2z3.json").resolve_fan()
    for chart in [fan] + basic_class_charts(p2z3):
        doubled = ChartPipeline(chart, 4)
        doubled._gamma_cols = tuple(
            tuple(2 * g for g in col) for col in doubled._gamma_cols
        )
        with pytest.raises(ComputationError, match="non-integral"):
            doubled._cones()
    # no anticone at all: the enumerated classes fail their classification
    pipe = ChartPipeline(fan, 4)
    pipe._anticones = set()
    with pytest.raises(ComputationError, match="not effective"):
        pipe.grid()
    # the omega sets check each class that joins them the same way
    pipe = ChartPipeline(fan, 4)
    pipe._anticones = set()
    with pytest.raises(ComputationError, match="not effective"):
        pipe.a_series(2)
    # a maximal cone of fewer than n rays is refused before any walk
    lopsided = StackyFan.make(2, [(0, 1), (1, 1), (2, 1)], [(0, 1), (2,)])
    with pytest.raises(FanError, match=re.escape("cone (2,) is not full-dimensional")):
        ChartPipeline(lopsided, 3)


# -- the modulus, the integer relabel and the invariants ---------------------------


@functools.cache
def modulus_pipes() -> list[ChartPipeline]:
    """One pipeline per chart of every example fan, of every partial
    resolution and of the random segment and triangle generators.  Only the
    partial resolutions give charts with both curve classes and sectors,
    where the nef pairings of a dual class can be fractional; a chart whose
    nef-block search fails is left out."""
    from conftest import partial_resolutions

    from orbidisk.stacky import NoValidBasisError

    charts: list[StackyFan] = []
    for _, fan in example_fans() + partial_resolutions():
        charts += [c for c in basic_class_charts(fan) if c not in charts]
    for chart in list(random_segment_charts()) + list(random_triangle_charts()):
        if chart not in charts:
            charts.append(chart)
    pipes = []
    for chart in charts:
        try:
            pipes.append(ChartPipeline(chart, 1))
        except NoValidBasisError:
            continue
    return pipes


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_nef_pairings_of_chart_classes_lie_over_the_modulus(data):
    # the modulus is the lcm of the maximal-cone indices alone: each dual
    # class, and each sum of dual classes and an integral relation, must
    # have its pairings and its nef pairings in (1/M)Z, or its key and its
    # pairing numerators would not be integral
    from conftest import dual_class_data, pcoords_from_ambient

    mixed = 0
    for pipe in modulus_pipes():
        seq, m = pipe.seq, pipe.modulus
        duals = [dual_class_data(pipe.fan, j) for j in pipe.extras]
        mixed += bool(pipe.r_prime and duals)
        for d in duals:
            pc = pcoords_from_ambient(seq, d.pairings)
            assert all(m % x.denominator == 0 for x in d.pairings + pc), (pipe.fan, d)
        mult = [data.draw(st.integers(0, 3)) for _ in duals]
        rel = [data.draw(st.integers(-3, 3)) for _ in seq.kernel_basis]
        cls = [Fraction(0)] * pipe.fan.n_vectors
        for k, d in zip(mult, duals):
            cls = [x + k * y for x, y in zip(cls, d.pairings)]
        for k, row in zip(rel, seq.kernel_basis):
            cls = [x + k * y for x, y in zip(cls, row)]
        pc = pcoords_from_ambient(seq, cls)
        assert all(m % x.denominator == 0 for x in pc), (pipe.fan, mult, rel)
    assert mixed >= 5


def _complete_fans():
    from orbidisk.stacky import is_complete

    return [(name, fan) for name, fan in example_fans() if is_complete(fan)]


def _area_outcome(f, *args):
    """f(*args), or the class name and message of what it raises."""
    try:
        return f(*args)
    except (ValueError, ComputationError) as exc:
        return type(exc).__name__, str(exc)


def test_areas_match_the_fraction_reference():
    # the area of every basic class of every complete example fan and
    # census fan with a nef block, with every maximal cone as sigma0,
    # against area_by_fractions; the block negated makes the areas
    # negative, so both raise NormalizationConeError there
    from conftest import area_by_fractions, partial_resolutions

    from orbidisk.mirror import _area
    from orbidisk.stacky import FanSequenceData, NoValidBasisError, fan_sequence

    compared = refused = 0
    for _, fan in _complete_fans() + partial_resolutions():
        try:
            seq = fan_sequence(fan)
        except NoValidBasisError:
            continue
        flipped = FanSequenceData(
            fan, seq.kernel_basis, seq.divisors,
            tuple(tuple(-x for x in row) for row in seq.basis_p),
            seq.q_matrix, seq.gamma_basis, seq.r, seq.r_prime,
        )
        for sym in potential_symbols(fan):
            b = fan.stacky_vectors[sym.ray] if sym.kind == "ray" else sym.point
            for sigma0 in fan.max_cones:
                for data in (seq, flipped):
                    got = _area_outcome(_area, fan, data, sigma0, b)
                    want = _area_outcome(area_by_fractions, fan, data, sigma0, b)
                    assert got == want, (fan, sigma0, b)
                    compared += 1
                    refused += got[:1] == ("NormalizationConeError",)
    # 9,994 outcomes, 3,280 of them refusals
    assert compared > 9000 and 3000 < refused < compared // 2


def test_search_and_areas_read_only_the_cone_inverses(monkeypatch):
    # with every cone inverse, pipeline and grading map built, the nef
    # search and each potential entry build no integer inverse of an
    # anticone
    from orbidisk import mirror, stacky
    from orbidisk.mirror import potential_entry

    runs = []
    for _, fan in _complete_fans():
        seq = stacky.fan_sequence(fan)
        cache: dict = {}
        try:
            entries = [
                potential_entry(fan, seq, 0, sym, 2, cache)
                for sym in potential_symbols(fan)
            ]
        except FanError:  # f3 is not semi-Fano
            continue
        runs.append((fan, seq, cache, entries))
    assert len(runs) == 25

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    for module, name in (
        (stacky, "integer_inverse"),
        (mirror, "integer_inverse"),
    ):
        monkeypatch.setattr(module, name, refuse(name))
    searched = 0
    for fan, seq, cache, entries in runs:
        if seq.r_prime:
            assert stacky._fan_sequence.__wrapped__(fan, None) == seq
            searched += 1
        assert [
            potential_entry(fan, seq, 0, sym, 2, cache)
            for sym in potential_symbols(fan)
        ] == entries
    assert searched == 25


def test_relabel_and_invariants_match_fraction_reference():
    # every basic class with a chart of every complete example fan and of
    # every partial resolution that computes (test_partial_resolutions); the
    # quotient planes have fractional areas, and the charts of f2 and of
    # the partial resolutions carry curve classes
    from conftest import (
        invariants_by_fractions,
        partial_resolutions,
        relabel_by_fractions,
    )

    from orbidisk.mirror import _relabel_to_parent, potential_entry
    from orbidisk.stacky import FanError, fan_sequence

    curve_terms = 0
    for name, fan in _complete_fans() + partial_resolutions():
        order = 2 if name == "mq" else 4
        try:
            seq = fan_sequence(fan)
            cache: dict = {}
            dgfs = {}
            for sym in potential_symbols(fan):
                try:
                    dgfs[sym] = disk_generating_function(
                        fan, sym, order, pipeline_cache=cache
                    )
                except FanError:
                    assert name == "f3"  # a ray inside a facet cone: no chart
        except (FanError, ComputationError):
            assert "+" in name  # a known census failure
            continue
        for sym, dgf in dgfs.items():
            invs = dgf.invariants()
            assert invs == invariants_by_fractions(dgf), (name, sym)
            curve_terms += sum(1 for alpha, _, _ in invs if any(alpha))
            entry = potential_entry(fan, seq, 0, sym, order, cache)
            got = _relabel_to_parent(dgf, seq, entry.area, order)
            assert got == entry.series
            want = relabel_by_fractions(dgf, seq, entry.area, order)
            assert dict(got.terms()) == want, (name, sym)
    assert curve_terms >= 90


# -- symmetry and normalization-cone linearity --------------------------------------


def fan_automorphisms(fan: StackyFan) -> list:
    """(g, perm) for every g in GL(n, Z) other than the identity that
    permutes the rays, the extra vectors and the maximal cones: g as rows,
    perm[k] the index of g(v_k).

    g is fixed by the images of the rays of the first maximal cone; it is
    unimodular when integral, as it permutes a generating set.
    """
    from conftest import solve_rational_by_fractions

    from orbidisk.lattice import transpose

    n = fan.dim
    base = transpose([fan.stacky_vectors[i] for i in fan.max_cones[0]])
    # inv[k] = column k of base^-1
    inv = [
        solve_rational_by_fractions(base, [int(i == k) for i in range(n)])
        for k in range(n)
    ]
    index = {v: k for k, v in enumerate(fan.vectors)}
    cones = {frozenset(c) for c in fan.max_cones}
    out = []
    for images in itertools.permutations(range(fan.n_rays), n):
        target = transpose([fan.stacky_vectors[i] for i in images])
        g = [
            [sum(t * inv[k][c] for c, t in enumerate(row)) for k in range(n)]
            for row in target
        ]
        if any(x.denominator != 1 for row in g for x in row):
            continue
        g = [[int(x) for x in row] for row in g]
        if g == [[int(i == k) for k in range(n)] for i in range(n)]:
            continue
        perm = [
            index.get(tuple(sum(a * b for a, b in zip(row, v)) for row in g))
            for v in fan.vectors
        ]
        if None in perm or any(perm[i] >= fan.n_rays for i in range(fan.n_rays)):
            continue
        if {frozenset(perm[i] for i in c) for c in fan.max_cones} != cones:
            continue
        out.append((g, tuple(perm)))
    return out


def _image_of_class(g, perm, fan, sym) -> DiskClassSymbol:
    if sym.kind == "ray":
        return DiskClassSymbol.smooth(perm[sym.ray])
    return DiskClassSymbol.orbi(fan.vectors[perm[fan.vectors.index(sym.point)]])


def _image_of_invariants(g, perm, fan, invs) -> dict:
    """n(beta + alpha; tau) -> n(g beta + g alpha; g tau): alpha's pairing
    with D_k moves to D_perm[k], each inserted sector to its image."""
    out = {}
    for alpha, insertions, value in invs:
        moved = [Fraction(0)] * fan.n_vectors
        for k, x in enumerate(alpha):
            moved[perm[k]] = x
        ins = frozenset(
            (fan.vectors[perm[fan.vectors.index(p)]], m) for p, m in insertions.items()
        )
        out[(tuple(moved), ins)] = value
    return out


def test_invariants_are_symmetric_under_fan_automorphisms(monkeypatch):
    # n(beta_i + alpha; tau) = n(beta_g(i) + g alpha; g tau) for every lattice
    # automorphism g of every complete example fan, and of every partial
    # resolution that computes, whose charts carry curve classes; each g is
    # passed to the image helpers explicitly, so every comparison uses its
    # own map
    from conftest import partial_resolutions

    # each class is computed on its own: with the chart symmetries in use,
    # the image of a solved class would be read off by the permutation this
    # test checks
    monkeypatch.setattr(ChartPipeline, "_symmetries", lambda self: [])
    checked = curve_terms = 0
    for name, fan in _complete_fans() + partial_resolutions():
        autos = fan_automorphisms(fan)
        if not autos:
            continue
        order = 2 if name == "mq" else 4
        cache: dict = {}
        invs = {}
        try:
            for sym in potential_symbols(fan):
                try:
                    dgf = disk_generating_function(
                        fan, sym, order, pipeline_cache=cache
                    )
                except FanError:
                    invs[sym] = None
                    continue
                invs[sym] = dgf.invariants()
        except ComputationError:
            assert "+" in name  # a known census failure
            continue
        for g, perm in autos:
            for sym, got in invs.items():
                image = invs[_image_of_class(g, perm, fan, sym)]
                if got is None or image is None:
                    assert got is image, (name, g, sym)
                    continue
                assert _image_of_invariants(g, perm, fan, got) == {
                    (alpha, frozenset(ins.items())): v for alpha, ins, v in image
                }, (name, g, sym)
                checked += 1
                curve_terms += sum(1 for alpha, _, _ in got if any(alpha))
    assert checked >= 100 and curve_terms >= 20


def test_potential_area_differences_are_linear():
    # for two normalization cones the areas differ by the nef pairings of
    # the difference of b's coordinates on the two cones, a linear function
    # of the boundary vector b = z_monomial
    from conftest import solve_rational_by_fractions

    from orbidisk.lattice import transpose
    from orbidisk.mirror import potential_entry
    from orbidisk.stacky import FanError, fan_sequence

    pairs = 0
    for name, fan in _complete_fans():
        seq = fan_sequence(fan)
        cache: dict = {}
        try:
            areas = [
                {
                    e.z_monomial: e.area
                    for e in (
                        potential_entry(fan, seq, k, sym, 1, cache)
                        for sym in potential_symbols(fan)
                    )
                }
                for k in range(len(fan.max_cones))
            ]
        except FanError:
            assert name == "f3"  # a ray inside a facet cone: no chart
            continue
        basis = [fan.stacky_vectors[i] for i in fan.max_cones[0]]
        for a, b in itertools.combinations(areas, 2):
            diff = {z: [x - y for x, y in zip(a[z], b[z])] for z in a}
            for z, d in diff.items():
                lam = solve_rational_by_fractions(transpose(basis), list(z))
                want = [
                    sum(c * diff[v][t] for c, v in zip(lam, basis))
                    for t in range(seq.r_prime)
                ]
                assert d == want, (name, z)
            pairs += 1
    assert pairs >= 100
