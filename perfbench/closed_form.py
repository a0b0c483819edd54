"""Closed form of the C^2/Z_n sector series, independent of the program.

The deformed local potential of C^2/Z_n is prod_k (z - kappa_k) with the
deformed roots

    kappa_k = zeta^(2k+1) exp((1/n) sum_r zeta^((2k+1) r) t_r),  k = 0..n-1,

zeta = exp(i pi / n), and t_r the sector variable of the lattice point at
position r on the edge (r = 1..n-1).  The coefficient of z^m is the
generating function of sector m: the signed elementary symmetric function
(-1)^(n-m) e_(n-m) of the roots.

The roots live in Q[x]/(x^n + 1) with x = zeta.  Their power sums p_j are
rational term by term (the sum over k is a Galois trace), so the series are
computed as p_j in Q[x]/(x^n + 1), reduced to Q modulo the cyclotomic
polynomial of zeta, and turned into e_m by Newton's identities.  Nothing
here imports the program: it shares only the standard library with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial


class NotRationalError(ArithmeticError):
    """A Galois trace kept an irrational part; the closed form is broken."""


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials, ascending coefficients."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        f = num[i + len(den) - 1] / den[-1]
        quot[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    return quot, num[: len(den) - 1]


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic(d))
            if any(rem):  # pragma: no cover - x^m - 1 is their product
                raise ArithmeticError("cyclotomic division left a remainder")
            poly = [int(c) for c in poly]
    return tuple(poly)


def root_power(n: int, j: int) -> list[int]:
    """x^j in Q[x]/(x^n + 1) as n coefficients (x^n = -1)."""
    j %= 2 * n
    out = [0] * n
    if j < n:
        out[j] = 1
    else:
        out[j - n] = -1
    return out


@lru_cache(maxsize=None)
def trace(n: int, s: int) -> int:
    """sum_k zeta^((2k+1) s), computed in Q[x]/(x^n+1) and reduced to Q."""
    acc = [0] * n
    for k in range(n):
        acc = [a + b for a, b in zip(acc, root_power(n, (2 * k + 1) * s))]
    _, rem = _poly_divmod(acc, cyclotomic(2 * n))
    if any(rem[1:]):
        raise NotRationalError(f"trace of zeta^{s} for n={n} is {rem}")
    value = rem[0] if rem else Fraction(0)
    if value.denominator != 1:  # pragma: no cover - a sum of roots of unity
        raise NotRationalError(f"trace of zeta^{s} for n={n} is {value}")
    return int(value)


def _monomials(nvars: int, degree: int):
    return [k for k in product(range(degree + 1), repeat=nvars) if sum(k) <= degree]


def _mul(f, g, degree):
    out: dict = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            if sum(k) <= degree:
                out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def power_sum(n: int, j: int, degree: int) -> dict:
    """p_j = sum_k kappa_k^j as a rational series in t_1..t_(n-1)."""
    out = {}
    for a in _monomials(n - 1, degree):
        s = j + sum(r * e for r, e in enumerate(a, 1))
        tr = trace(n, s)
        if tr:
            den = 1
            for e in a:
                den *= factorial(e)
            out[a] = Fraction(tr) * Fraction(j, n) ** sum(a) / den
    return out


@lru_cache(maxsize=None)
def sector_series(n: int, degree: int) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Generating function of every sector m = 1..n-1 of C^2/Z_n.

    Each is a dict from exponent tuples (t_1, ..., t_(n-1)) to nonzero
    rational coefficients, complete up to total degree `degree`.
    """
    if n < 2:
        raise ValueError("C^2/Z_n needs n >= 2")
    zero = (0,) * (n - 1)
    p = [None] + [power_sum(n, j, degree) for j in range(1, n + 1)]
    e = [{zero: Fraction(1)}]
    for m in range(1, n + 1):
        acc: dict = {}
        for i in range(1, m + 1):
            for k, v in _mul(e[m - i], p[i], degree).items():
                acc[k] = acc.get(k, 0) + (v if i % 2 else -v)
        e.append({k: v / m for k, v in acc.items() if v})
    # the constant term of prod_k (z - kappa_k) is 1 identically
    if {k: v * (-1) ** n for k, v in e[n].items()} != {zero: 1}:
        raise NotRationalError(f"product of the deformed roots of Z{n} is not (-1)^n")
    return {m: {k: v * (-1) ** (n - m) for k, v in e[n - m].items()} for m in range(1, n)}
