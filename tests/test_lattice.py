"""Tests for the exact linear algebra layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidisk.lattice import (
    AmbiguousSolutionError,
    cone_contains,
    det,
    elementary_divisors,
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    primitive_vector,
    rank,
    smith_normal_form,
    solve_integer,
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


@settings(max_examples=150)
@given(small_matrices)
def test_snf_properties(a):
    s, d, t = smith_normal_form(a)
    assert matmul(matmul(s, a), t) == d
    assert abs(det(s)) == 1 and abs(det(t)) == 1
    divisors = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(divisors) - 1):
        if divisors[i + 1] != 0:
            assert divisors[i] != 0 and divisors[i + 1] % divisors[i] == 0
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


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
    # saturation: elementary divisors of the basis are all 1
    assert elementary_divisors(k) == [1, 1]


def test_kernel_injective():
    assert integer_kernel(identity_matrix(3)) == []


@settings(max_examples=150)
@given(small_matrices)
def test_rank_nullity(a):
    k = integer_kernel(a)
    assert rank(a) + len(k) == len(a[0])
    for row in k:
        assert matvec(a, row) == [0] * len(a)
    if k:
        assert elementary_divisors(k) == [1] * len(k)


def test_normal_forms_reject_non_integral_entries():
    a = [[1, Fraction(1, 2)], [0, 1]]
    with pytest.raises(ValueError):
        hermite_normal_form(a)
    with pytest.raises(ValueError):
        smith_normal_form(a)
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


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_integer([[2]], [3]) is None
    x = solve_integer([[1, 2], [0, 0]], [7, 0])
    assert x is not None and x[0] + 2 * x[1] == 7


def test_cone_contains_examples():
    ok, lam = cone_contains([(2, -1), (-1, 2)], (1, 0))
    assert ok and lam == [Fraction(2, 3), Fraction(1, 3)]
    ok, lam = cone_contains([(1, 0)], (-1, 0))
    assert not ok and lam is None
    ok, lam = cone_contains([(1, 0), (0, 1)], (0, 0))
    assert ok and lam == [0, 0]


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


def test_primitive_vector():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((Fraction(1, 3), Fraction(1, 6))) == (2, 1)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))
