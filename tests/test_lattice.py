"""Tests for the exact linear algebra layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import (
    det,
    fm_solve,
    maximal_minor_gcd,
    rank_by_fractions,
    solve_rational_by_fractions,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidisk.lattice import (
    AmbiguousSolutionError,
    _hermite_rows,
    cone_contains,
    hermite_normal_form,
    identity_matrix,
    integer_inverse,
    integer_kernel,
    primitive_vector,
    rank,
    solve_rational,
    transpose,
)


# plain matrix products, to check the transforms below
def matvec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def matmul(a, b) -> list[list]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def is_row_hnf(h):
    pivots = []
    last = -1
    for row in h:
        nz = [c for c, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        assert all(p is not None for p in pivots), "zero row above a nonzero row"
        lead = nz[0]
        assert lead > last
        assert row[lead] > 0
        last = lead
        pivots.append(lead)
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for j in range(i):
            assert 0 <= h[j][p] < h[i][p]
    return True


def test_hnf_spec_example():
    a = [[2, 4], [1, 3]]
    h, u = hermite_normal_form(a)
    assert matmul(u, a) == h
    assert abs(det(u)) == 1
    assert is_row_hnf(h)
    # the column HNF data for this matrix: pivots 1 and 2
    assert h[0][0] == 1 and h[1] == [0, 2]


def test_hnf_identity():
    a = identity_matrix(3)
    h, u = hermite_normal_form(a)
    assert h == a and u == a


def test_hnf_zero_row():
    h, u = hermite_normal_form([[0, 0]])
    assert h == [[0, 0]] and u == [[1]]


@settings(max_examples=200)
@given(small_matrices)
def test_hnf_properties(a):
    h, u = hermite_normal_form(a)
    assert matmul(u, a) == h
    assert abs(det(u)) == 1
    assert is_row_hnf(h)


@settings(max_examples=200)
@given(small_matrices)
def test_hermite_rows_of_a_alone_are_the_normal_form(a):
    # the callers that need no transform eliminate a alone, in place: its
    # rows must be h of the elimination of [a | 1]
    rows = [list(row) for row in a]
    assert _hermite_rows(rows, len(a[0])) is rows
    assert rows == hermite_normal_form(a)[0]


def test_kernel_p1():
    assert integer_kernel([[1, -1]]) == [[1, 1]]


def test_kernel_quotient_chart():
    # fan map of the C^2/Z_3 chart: columns (2,-1), (-1,2), (1,0), (0,1)
    a = [[2, -1, 1, 0], [-1, 2, 0, 1]]
    k = integer_kernel(a)
    assert len(k) == 2
    for row in k:
        assert matvec(a, row) == [0, 0]
    # the stated relations lie in the kernel lattice
    for rel in [(-2, -1, 3, 0), (-1, -2, 0, 3), (-1, -1, 1, 1)]:
        sol = solve_rational(transpose(k), list(rel))
        assert sol is not None and all(x.denominator == 1 for x in sol)
    # saturation: the basis spans its saturation
    assert maximal_minor_gcd(k) == 1


def test_kernel_injective():
    assert integer_kernel(identity_matrix(3)) == []


@settings(max_examples=150)
@given(small_matrices)
def test_rank_nullity(a):
    k = integer_kernel(a)
    assert rank(a) + len(k) == len(a[0])
    for row in k:
        assert matvec(a, row) == [0] * len(a)
    assert maximal_minor_gcd(k) == 1


def test_normal_forms_reject_non_integral_entries():
    a = [[1, Fraction(1, 2)], [0, 1]]
    with pytest.raises(ValueError):
        hermite_normal_form(a)
    assert hermite_normal_form([[Fraction(2), 0], [0, 1]])[0] == [[2, 0], [0, 1]]


def test_rank_of_rational_rows():
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert rank([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == 2
    ok, lam = cone_contains([(Fraction(1, 2), 0), (0, Fraction(1, 3))], (1, 1))
    assert ok and lam == [2, 3]


def test_solve_rational_examples():
    x = solve_rational([[2, -1], [-1, 2]], [1, 0])
    assert x == [Fraction(2, 3), Fraction(1, 3)]
    assert solve_rational(identity_matrix(2), [5, -7]) == [5, -7]
    assert solve_rational([[1, 0], [1, 0]], [1, 2]) is None
    with pytest.raises(AmbiguousSolutionError):
        solve_rational([[1, 1]], [3])


@st.composite
def linear_systems(draw):
    """a @ x = b with a = left @ right of inner size r <= min(m, n), so every
    rank up to min(m, n) turns up; entries are drawn as ints or as
    Fractions; b is a @ x for some x (consistent) or any vector (often
    inconsistent)."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    entry = draw(
        st.sampled_from(
            [st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4)]
        )
    )
    left = [[draw(entry) for _ in range(r)] for _ in range(m)]
    right = [[draw(entry) for _ in range(n)] for _ in range(r)]
    a = [
        [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
        for i in range(m)
    ]
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(n)]
        b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
    else:
        b = [draw(entry) for _ in range(m)]
    return a, b


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except AmbiguousSolutionError:
        return "ambiguous"


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_fraction_free_elimination_matches_fractions(case):
    a, b = case
    got = _outcome(solve_rational, a, b)
    assert got == _outcome(solve_rational_by_fractions, a, b)
    if isinstance(got, list):
        assert all(type(x) is Fraction for x in got)
    assert rank(a) == rank_by_fractions(a)


def test_cone_contains_examples():
    ok, lam = cone_contains([(2, -1), (-1, 2)], (1, 0))
    assert ok and lam == [Fraction(2, 3), Fraction(1, 3)]
    ok, lam = cone_contains([(1, 0)], (-1, 0))
    assert not ok and lam is None
    ok, lam = cone_contains([(1, 0), (0, 1)], (0, 0))
    assert ok and lam == [0, 0]
    # rank 0: the empty subset of the generators solves nothing but 0
    assert cone_contains([(0, 0)], (1, 0)) == (False, None)
    assert cone_contains([(0, 0), (0, 0)], (0, 0)) == (True, [0, 0])


def test_cone_contains_dependent_generators():
    gens = [(1, 0), (1, 1), (0, 1), (1, 2)]
    ok, lam = cone_contains(gens, (3, 4))
    assert ok
    combo = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(2)]
    assert combo == [3, 4]
    assert all(l >= 0 for l in lam)
    ok, _ = cone_contains(gens, (-1, -1))
    assert not ok
    # dependent generators spanning only a half-plane boundary
    ok, _ = cone_contains([(1, 0), (2, 0), (-1, 0)], (0, 1))
    assert not ok
    ok, lam = cone_contains([(1, 0), (2, 0), (-1, 0)], (-5, 0))
    assert ok and sum(l * g[0] for l, g in zip(lam, [(1, 0), (2, 0), (-1, 0)])) == -5


def test_cone_contains_reconstructs_point():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice([2, 3])
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)] or [(1,) * n]
        pt = tuple(rng.randint(-6, 6) for _ in range(n))
        ok, lam = cone_contains(gens, pt)
        if ok:
            combo = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n)]
            assert combo == list(pt)
            assert all(l >= 0 for l in lam)


def fm_cone_contains(gens, pt) -> bool:
    """Membership by Fourier-Motzkin: feasibility of sum(l_i g_i) = pt,
    l >= 0."""
    k = len(gens)
    eqs = [([g[j] for g in gens], pt[j], True) for j in range(len(pt))]
    signs = [([int(t == i) for t in range(k)], 0, False) for i in range(k)]
    return fm_solve(k, eqs + signs) is not None


@st.composite
def cone_cases(draw):
    """Generators in dimensions 1-4, some zero, repeated, rescaled or sums of
    others (dependent), with rational entries; the point is a combination of
    them with coefficients of either sign, or any point (often off the span).
    """
    n = draw(st.integers(1, 4))
    entry = st.fractions(-3, 3, max_denominator=2)
    gens = [draw(st.lists(entry, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "scale", "sum"]))
        g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        if kind == "new":
            gens.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif kind == "zero":
            gens.append([0] * n)
        elif kind == "repeat":
            gens.append(list(g))
        elif kind == "scale":
            c = draw(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(3)]))
            gens.append([c * x for x in g])
        else:
            gens.append([x + y for x, y in zip(g, h)])
    if draw(st.booleans()):
        coeffs = draw(
            st.lists(st.integers(-1, 2), min_size=len(gens), max_size=len(gens))
        )
        pt = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
    else:
        pt = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return gens, pt


@settings(max_examples=300, deadline=None)
@given(cone_cases())
def test_cone_contains_matches_fourier_motzkin(case):
    gens, pt = case
    ok, lam = cone_contains(gens, pt)
    assert ok == fm_cone_contains(gens, pt)
    if ok:
        assert len(lam) == len(gens) and all(x >= 0 for x in lam)
        assert [sum(l * g[j] for l, g in zip(lam, gens)) for j in range(len(pt))] == pt
    else:
        assert lam is None


def test_primitive_vector():
    assert primitive_vector((4, -6)) == (2, -3)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


nonsingular_matrices = (
    st.integers(1, 6)
    .flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    .filter(lambda a: det(a) != 0)
)


@settings(max_examples=100)
@given(nonsingular_matrices)
def test_integer_inverse_matches_rational_inverse(a):
    m, d = integer_inverse(a)
    n = len(a)
    assert d == abs(det(a))
    assert all(type(x) is int for row in m for x in row)
    for col in range(n):
        e = [1 if i == col else 0 for i in range(n)]
        assert [Fraction(m[i][col], d) for i in range(n)] == solve_rational_by_fractions(
            a, e
        )


def test_integer_inverse_examples():
    assert integer_inverse([[2]]) == ([[1]], 2)
    assert integer_inverse([[-2]]) == ([[-1]], 2)
    # a pivot must be searched for below a zero; unimodular gives d = 1
    assert integer_inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    m, d = integer_inverse([[2, -1], [-1, 2]])
    assert (m, d) == ([[2, 1], [1, 2]], 3)
    assert integer_inverse([]) == ([], 1)
    for bad in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 2, 3]], [[Fraction(1, 2)]]):
        with pytest.raises(ValueError):
            integer_inverse(bad)
