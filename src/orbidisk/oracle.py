"""Closed-form reference values for the local models C^2/Z_n.

The deformed local potential of C^2/Z_n is prod_k (z - kappa_k) over the n
deformed roots

    kappa_k = zeta^(2k+1) exp((1/n) sum_r zeta^((2k+1) r) t_r),  k = 0..n-1,

with zeta = exp(i pi / n) and t_r the variable of the twisted sector at
position r on the edge (r = 1..n-1).  The z^m coefficient, the signed
elementary symmetric function (-1)^(n-m) e_(n-m) of the roots, is the
generating function of sector m.  The compact quotient plane inherits its two
edge sectors chart by chart from the n=3 member.

This module expands the e_m in exact arithmetic in Q(zeta) and recovers the
rational tables from them.  It is deliberately self-contained: it shares
nothing with the mirror pipeline but the standard library, so it can serve as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial


class NonRationalCoefficientError(ArithmeticError):
    """A coefficient kept a cyclotomic part that should have cancelled."""


def _divide_exactly(num, den) -> list[int]:
    """Quotient of integer polynomials by a monic divisor, ascending coefficients."""
    num = list(num)
    k = len(den) - 1
    quot = [0] * (len(num) - k)
    for i in range(len(quot) - 1, -1, -1):
        f = quot[i] = num[i + k]
        for j, c in enumerate(den):
            num[i + j] -= f * c
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Ascending coefficients of Phi_m: x^m - 1 over Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_exactly(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce(poly: list, n: int) -> tuple:
    """Coordinates of a polynomial in zeta modulo the monic Phi_2n."""
    phi = cyclotomic_polynomial(2 * n)
    d = len(phi) - 1
    poly = poly + [0] * (d - len(poly))
    for i in range(len(poly) - 1, d - 1, -1):
        f = poly[i]
        if f:
            for j in range(d + 1):
                poly[i - d + j] -= f * phi[j]
    return tuple(poly[:d])


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta), zeta = exp(i pi / n).

    `coords` are the coordinates in the power basis 1, zeta, ...,
    zeta^(d-1) modulo Phi_2n, d = deg Phi_2n; `a` and `b` are the first two.
    """

    n: int
    coords: tuple

    @staticmethod
    def of(n: int, value) -> "Cyclotomic":
        return Cyclotomic(n, _reduce([value], n))

    @staticmethod
    def zeta(n: int, j: int = 1) -> "Cyclotomic":
        """zeta^j."""
        return Cyclotomic(n, _reduce([0] * (j % (2 * n)) + [1], n))

    @property
    def a(self):
        return self.coords[0]

    @property
    def b(self):
        return self.coords[1]

    def __add__(self, other):
        return Cyclotomic(self.n, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            return Cyclotomic(self.n, tuple(x * other for x in self.coords))
        prod = [0] * (2 * len(self.coords) - 1)
        for i, x in enumerate(self.coords):
            if x:
                for j, y in enumerate(other.coords):
                    prod[i + j] += x * y
        return Cyclotomic(self.n, _reduce(prod, self.n))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def rational(self) -> Fraction:
        if any(self.coords[1:]):
            raise NonRationalCoefficientError(f"zeta part {self.coords[1:]} survived")
        return Fraction(self.coords[0])


@dataclass(frozen=True)
class CyclotomicSeries:
    """A truncated series in t_1..t_(n-1): exponent tuple -> nonzero coefficient."""

    terms: dict[tuple[int, ...], Cyclotomic]


def elementary_symmetric(order: int, n: int = 3) -> tuple[CyclotomicSeries, ...]:
    """(e_1, ..., e_n) of the deformed roots of C^2/Z_n, to total degree `order`.

    e_m is a sum over the m-subsets S of the roots,

        e_m = sum_S zeta^(sum_S (2k+1)) exp((1/n) sum_r c_(S,r) t_r),
        c_(S,r) = sum_(k in S) zeta^((2k+1) r),

    so the coefficient of t^a is sum_S zeta^(...) prod_r c_(S,r)^(a_r) / a_r!
    over n^|a|, and no series products are needed.
    """
    if n < 2:
        raise ValueError("C^2/Z_n needs n >= 2")
    zero = Cyclotomic.of(n, 0)
    out = []
    for m in range(1, n + 1):
        acc: dict = {}
        for subset in combinations(range(n), m):
            terms = {(): Cyclotomic.zeta(n, sum(2 * k + 1 for k in subset))}
            for r in range(1, n):
                c = zero
                for k in subset:
                    c = c + Cyclotomic.zeta(n, (2 * k + 1) * r)
                powers = [Cyclotomic.of(n, 1)]
                for _ in range(order):
                    powers.append(powers[-1] * c)
                terms = {
                    key + (j,): v * powers[j]
                    for key, v in terms.items()
                    for j in range(order + 1 - sum(key))
                }
            for key, v in terms.items():
                acc[key] = acc[key] + v if key in acc else v
        series = {}
        for key, v in acc.items():
            if not v.is_zero():
                den = n ** sum(key)
                for e in key:
                    den *= factorial(e)
                series[key] = v * Fraction(1, den)
        out.append(CyclotomicSeries(series))
    return tuple(out)


def sector_generating_functions(
    n: int, order: int
) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Rational generating function of every sector m = 1..n-1 of C^2/Z_n.

    Each maps exponent tuples (t_1, ..., t_(n-1)) of total degree at most
    `order` to nonzero coefficients.  The product of the roots must be
    exactly (-1)^n and every coefficient rational (the cyclotomic parts
    cancel by the Galois symmetry), otherwise NonRationalCoefficientError is
    raised.
    """
    e = elementary_symmetric(order, n)
    if e[-1].terms != {(0,) * (n - 1): Cyclotomic.of(n, (-1) ** n)}:
        raise NonRationalCoefficientError(
            f"product of the deformed roots of Z{n} is not (-1)^{n}"
        )
    return {
        m: {k: (-1) ** (n - m) * v.rational() for k, v in e[n - m - 1].terms.items()}
        for m in range(1, n)
    }


def oracle_generating_functions(order: int):
    """Rational generating functions of the quotient plane's two edge sectors.

    These are sectors 1 and 2 of C^2/Z_3: sigma2 and -sigma1 of the three
    deformed roots, the coefficients of w^-1 and z w^-1 in
    z^-1 w^-1 (z - kappa_0)(z - kappa_1)(z - kappa_2).
    """
    sectors = sector_generating_functions(3, order)
    return sectors[1], sectors[2]
