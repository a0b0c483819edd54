"""Tests for the closed-form cyclotomic reference of the C^2/Z_n family."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from orbidisk import oracle
from orbidisk.oracle import (
    Cyclotomic,
    CyclotomicSeries,
    NonRationalCoefficientError,
    cyclotomic_polynomial,
    elementary_symmetric,
    oracle_generating_functions,
    sector_generating_functions,
)

# total degree of the closed forms checked for each n (n = 6 takes ~0.2 s)
DEGREE = {2: 8, 3: 8, 4: 6, 5: 5, 6: 5}


@lru_cache(maxsize=None)
def sectors(n: int):
    return sector_generating_functions(n, DEGREE[n])


def test_cyclotomic_ring_laws():
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    z = Cyclotomic.zeta(3)
    assert z * z == Cyclotomic(3, (-1, 1))  # zeta^2 = zeta - 1
    for n in DEGREE:
        z = Cyclotomic.zeta(n)
        power = Cyclotomic.of(n, 1)
        for j in range(2 * n + 1):
            assert power == Cyclotomic.zeta(n, j)
            power = power * z
        assert Cyclotomic.zeta(n, n) == Cyclotomic.of(n, -1)
        assert Cyclotomic.zeta(n, 2 * n) == Cyclotomic.of(n, 1)
        d = len(cyclotomic_polynomial(2 * n)) - 1
        a = Cyclotomic(n, tuple(Fraction(i + 1, 2) - i * i for i in range(d)))
        b = Cyclotomic(n, tuple(Fraction(3, i + 5) for i in range(d)))
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        assert (a * Fraction(2, 3)).coords == tuple(x * Fraction(2, 3) for x in a.coords)


def test_kappa_values_at_zero():
    # the undeformed roots kappa_k(0) = zeta^(2k+1) are the n roots of
    # z^n = -1: their elementary symmetric functions are those of z^n + 1,
    # and only the last deformation direction moves their sum at first order
    for n in DEGREE:
        e = elementary_symmetric(1, n)
        zero = (0,) * (n - 1)
        for m, em in enumerate(e, 1):
            want = Cyclotomic.of(n, (-1) ** n) if m == n else None
            assert em.terms.get(zero) == want
        for r in range(1, n):
            unit = tuple(int(i == r - 1) for i in range(n - 1))
            want = Cyclotomic.of(n, -1) if r == n - 1 else None
            assert e[0].terms.get(unit) == want
    with pytest.raises(ValueError):
        elementary_symmetric(2, 1)


def test_elementary_symmetric_constants():
    s1, s2, s3 = elementary_symmetric(6)
    assert (0, 0) not in s1.terms
    assert (0, 0) not in s2.terms
    # the product of the deformed roots stays exactly -1
    assert s3.terms == {(0, 0): Cyclotomic.of(3, -1)}
    assert (s3.terms[(0, 0)].a, s3.terms[(0, 0)].b) == (-1, 0)


def test_generating_functions_rational():
    g112, g122 = oracle_generating_functions(9)
    assert all(isinstance(v, Fraction) for v in g112.values())
    assert g112[(1, 0)] == 1
    assert g112[(0, 2)] == Fraction(1, 6)
    assert (0, 0) not in g112
    # the two sectors are exchanged by transposition
    for (a, b), v in g112.items():
        assert g122.get((b, a), Fraction(0)) == v


def test_rationality_guard_trips_on_bad_series(monkeypatch):
    with pytest.raises(NonRationalCoefficientError):
        Cyclotomic(3, (0, 1)).rational()
    for n in DEGREE:
        with pytest.raises(NonRationalCoefficientError):
            Cyclotomic.zeta(n).rational()
    # a sector series with a surviving zeta part, or a root product other
    # than (-1)^n, must raise from the closed form itself
    good = elementary_symmetric(2)
    zeta_part = CyclotomicSeries({**good[0].terms, (1, 0): Cyclotomic.zeta(3)})
    monkeypatch.setattr(oracle, "elementary_symmetric", lambda order, n: (zeta_part,) + good[1:])
    with pytest.raises(NonRationalCoefficientError):
        oracle_generating_functions(2)
    monkeypatch.setattr(oracle, "elementary_symmetric", lambda order, n: good[:2] + good[:1])
    with pytest.raises(NonRationalCoefficientError, match="product"):
        oracle_generating_functions(2)


def test_paper_table_values():
    g112, _ = oracle_generating_functions(12)
    table = {(a, b): g112.get((a, b), Fraction(0)) for a in range(7) for b in range(7)}
    assert table[(4, 0)] == Fraction(1, 648)
    assert table[(6, 5)] == Fraction(-1, 5101833600)
    assert table[(5, 6)] == 0
    assert table[(3, 5)] == Fraction(-1, 1574640)
    assert table[(0, 2)] == Fraction(1, 6)
    assert table[(2, 1)] == Fraction(-1, 18)
    assert table[(6, 2)] == Fraction(1, 3149280)
    assert table[(1, 0)] == 1 and table[(0, 0)] == 0


def test_z2_is_two_sin_half():
    assert sectors(2) == {
        1: {
            (1,): Fraction(1),
            (3,): Fraction(-1, 24),
            (5,): Fraction(1, 1920),
            (7,): Fraction(-1, 322560),
        }
    }


@pytest.mark.parametrize("n", sorted(DEGREE))
def test_sector_reflection_symmetry(n):
    # g_m(t_1..t_(n-1)) = g_(n-m)(t_(n-1)..t_1)
    g = sectors(n)
    assert sorted(g) == list(range(1, n))
    for m in range(1, n):
        assert g[m] == {k[::-1]: v for k, v in g[n - m].items()}


@pytest.mark.parametrize("n", sorted(DEGREE))
def test_sector_leading_coefficient(n):
    zero = (0,) * (n - 1)
    for m, g in sectors(n).items():
        assert zero not in g
        assert g[tuple(int(i == m - 1) for i in range(n - 1))] == 1
        assert all(isinstance(v, Fraction) and v for v in g.values())


def test_oracle_matches_pipeline(quotient_plane_tables):
    _, g112, g122 = quotient_plane_tables
    o112, o122 = oracle_generating_functions(8)
    pipe112 = {
        tuple(int(x) for x in e): c for e, c in g112.series.terms() if sum(e) <= 8
    }
    pipe122 = {
        tuple(int(x) for x in e): c for e, c in g122.series.terms() if sum(e) <= 8
    }
    assert pipe112 == {k: v for k, v in o112.items() if sum(k) <= 8 and v}
    assert pipe122 == {k: v for k, v in o122.items() if sum(k) <= 8 and v}
