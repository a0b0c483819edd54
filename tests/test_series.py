"""Tests for the truncated series ring."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import BIG_PRIMES, schoolbook_product
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidisk.series import (
    NoConvergenceError,
    NonzeroConstantTermError,
    RingMismatchError,
    SeriesRing,
    TruncatedSeries,
    exp_series,
    log1p,
    solve_fixed_point,
)

R2 = SeriesRing(2, 1, 6, names=("y0", "y1"))
R13 = SeriesRing(1, 3, 4, names=("y",))

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


# five weights that are not units, with denominators 2, 3 and 6
Z6_TAU = SeriesRing(
    5,
    6,
    3,
    weights=(Fraction(11, 6), Fraction(5, 3), Fraction(3, 2), Fraction(1, 3), Fraction(7, 6)),
)
WEIGHTED = SeriesRing(2, 6, 1, weights=(Fraction(11, 6), Fraction(1, 3)))
PRODUCT_RINGS = (
    SeriesRing(0, 1, 3),
    R13,
    R2,
    SeriesRing(2, 6, Fraction(5, 2), weights=(1, Fraction(1, 3))),
    WEIGHTED,
    Z6_TAU,
    SeriesRing(2, 3, 0),
)
wide_coeffs = st.one_of(
    coeffs,
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.sampled_from(BIG_PRIMES)),
)


@st.composite
def wide_series(draw, ring):
    """Up to 8 in-bound terms anywhere under the truncation, often on its
    boundary, with coefficients that may carry large coprime denominators."""
    top = int(ring.truncation * ring.modulus / min(ring.weights)) if ring.nvars else 0
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        key = [0] * ring.nvars
        for i in draw(st.permutations(range(ring.nvars))):
            key[i] = draw(st.integers(0, top))
            while not ring.in_bounds(key):
                key[i] -= 1
        terms[tuple(key)] = draw(wide_coeffs)
    return ring.from_scaled_terms(terms)


@st.composite
def series_in(draw, ring, zero_constant=False):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        key = tuple(
            draw(st.integers(1 if zero_constant else 0, 3)) if i == 0 else draw(st.integers(0, 3))
            for i in range(ring.nvars)
        )
        if zero_constant and all(k == 0 for k in key):
            continue
        c = draw(coeffs)
        if c:
            terms[key] = c
    return ring.from_scaled_terms(terms)


def test_add_examples():
    f = R2.one() + R2.variable(0)
    g = R2.one() - R2.variable(0)
    assert f + R2.zero() == f
    assert (f + g) == R2.scalar(2)


def test_mul_examples():
    f = R2.one() + R2.variable(0)
    assert f * R2.one() == f
    sq = f * f
    assert sq.coefficient((0, 0)) == 1
    assert sq.coefficient((1, 0)) == 2
    assert sq.coefficient((2, 0)) == 1
    # fractional exponents recombine inside the refined lattice
    a = R13.monomial((Fraction(1, 3),))
    b = R13.monomial((Fraction(2, 3),))
    assert a * b == R13.monomial((1,))
    # a cancelled cross term is not stored
    x, y = R2.variable(0), R2.variable(1)
    assert dict(((x + y) * (x - y)).scaled_terms()) == {(2, 0): 1, (0, 2): -1}


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        R2.one() + R13.one()


def test_truncation_drops_high_order():
    r = SeriesRing(1, 1, 2)
    f = r.monomial((2,))
    assert (f * r.monomial((1,))).is_zero()


def test_exp_examples():
    r = SeriesRing(1, 1, 3)
    assert exp_series(r.zero()) == r.one()
    e = exp_series(r.variable(0))
    assert [e.coefficient((k,)) for k in range(4)] == [
        1,
        1,
        Fraction(1, 2),
        Fraction(1, 6),
    ]
    with pytest.raises(NonzeroConstantTermError):
        exp_series(r.one())


def test_log_examples():
    r = SeriesRing(1, 1, 2)
    assert log1p(r.zero()) == r.zero()
    l = log1p(r.variable(0))
    assert l.coefficient((1,)) == 1 and l.coefficient((2,)) == Fraction(-1, 2)
    with pytest.raises(NonzeroConstantTermError):
        log1p(r.one())


@settings(max_examples=200)
@given(st.data())
def test_product_matches_schoolbook(data):
    ring = data.draw(st.sampled_from(PRODUCT_RINGS))
    f = data.draw(wide_series(ring))
    if data.draw(st.booleans()):
        # f with some signs flipped: cross terms of f * g cancel in pairs
        g = ring.from_scaled_terms(
            {k: -v if data.draw(st.booleans()) else v for k, v in f.scaled_terms().items()}
        )
    else:
        g = data.draw(wide_series(ring))
    got = dict((f * g).scaled_terms())
    assert got == schoolbook_product(f, g)
    assert all(type(v) is Fraction and v != 0 for v in got.values())


@settings(max_examples=60)
@given(st.data())
def test_ring_laws(data):
    ring = data.draw(st.sampled_from((SeriesRing(2, 2, 3), WEIGHTED)))
    f, g, h = (data.draw(series_in(ring)) for _ in range(3))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(series_in(SeriesRing(2, 2, 3), zero_constant=True))
def test_exp_inverse_identities(f):
    one = f.ring.one()
    assert exp_series(f) * exp_series(-f) == one
    assert exp_series(log1p(f)) == one + f
    assert log1p(exp_series(f) - 1) == f


def test_fixed_point_constant_map():
    r = SeriesRing(1, 1, 3)
    c = [r.scalar(7)]
    assert solve_fixed_point([r.zero()], lambda y: c, 1) == c


def test_fixed_point_scalar_oracle():
    # y = q * exp(-y); exact coefficients are (-1)^(k-1) k^(k-1) / k!
    from math import factorial

    r = SeriesRing(1, 1, 6, names=("q",))
    q = r.variable(0)
    sol = solve_fixed_point([r.zero()], lambda y: [q * exp_series(-y[0])], 1)[0]
    for k in range(1, 7):
        expect = Fraction((-1) ** (k - 1) * k ** (k - 1), factorial(k))
        assert sol.coefficient((k,)) == expect
    assert sol.coefficient((2,)) == -1 and sol.coefficient((3,)) == Fraction(3, 2)
    # fixed point property, term exact
    assert q * exp_series(-sol) == sol


def test_fixed_point_no_convergence():
    r = SeriesRing(1, 1, 3)
    # alternating map with no fixed point
    flip = lambda y: [r.one() - y[0]]
    with pytest.raises(NoConvergenceError):
        solve_fixed_point([r.zero()], flip, 1)


def test_terms_are_sorted_and_exact():
    r = SeriesRing(2, 2, 3, weights=(1, Fraction(1, 2)))
    f = r.monomial((1, 0)) + r.monomial((0, Fraction(1, 2)), Fraction(-2, 7))
    listed = list(f.terms())
    assert listed[0][0] == (0, Fraction(1, 2))
    assert listed[0][1] == Fraction(-2, 7)
    assert all(isinstance(c, Fraction) for _, c in listed)


@settings(max_examples=40)
@given(series_in(SeriesRing(2, 2, 3)), series_in(SeriesRing(2, 2, 3)))
def test_stored_terms_stay_legal(f, g):
    for series in (f * g, f + g, f - g):
        ring = series.ring
        for key, coeff in series.scaled_terms().items():
            assert coeff != 0
            assert ring.in_bounds(key)
            assert all(k >= 0 for k in key)


@settings(max_examples=40)
@given(series_in(SeriesRing(2, 2, 3)))
def test_scaled_coefficient_agrees_with_coefficient(f):
    listed = dict(f.terms())
    for key in ((a, b) for a in range(8) for b in range(8)):
        exps = tuple(Fraction(k, 2) for k in key)
        want = listed.get(exps, Fraction(0))
        assert f.scaled_coefficient(key) == f.coefficient(exps) == want
