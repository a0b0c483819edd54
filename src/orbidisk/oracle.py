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
rational tables from them.  Elements of Q(zeta) are coordinate tuples in the
power basis 1, zeta, ..., zeta^(d-1), d = deg Phi_2n; they multiply through
one table of the powers zeta^k reduced mod Phi_2n, built once per n on first
use.  The expansion runs on integer tuples and wraps only its output
coefficients in `Cyclotomic` records.  It is deliberately self-contained: it
shares nothing with the mirror pipeline but the standard library, so it can
serve as an independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import add

from ._record import frozen


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


@lru_cache(maxsize=None)
def _zeta_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The table of zeta^k, k = 0..2n-1, modulo the monic Phi_2n.

    Row k holds the (index, coordinate) pairs of the nonzero coordinates of
    zeta^k in the power basis.  Each power is zeta times the one before: its
    coordinates move up one place, and the overflow f zeta^d folds back as
    -f (phi_0 + ... + phi_(d-1) zeta^(d-1)).  Built on first use per n.
    """
    phi = cyclotomic_polynomial(2 * n)
    coords = (1,) + (0,) * (len(phi) - 2)
    rows = []
    for _ in range(2 * n):
        rows.append(tuple((i, c) for i, c in enumerate(coords) if c))
        top = coords[-1]
        coords = tuple(low - top * p for low, p in zip((0,) + coords[:-1], phi))
    return tuple(rows)


def _times(x: tuple, y: tuple, rows) -> tuple:
    """Product of two coordinate tuples in Q(zeta): sum_(i,j) x_i y_j zeta^(i+j),
    each zeta^(i+j) read off the table `rows` of `_zeta_rows`.  i + j stays
    below 2d - 1 <= 2n - 1, inside the table."""
    out = [0] * len(x)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                if b:
                    ab = a * b
                    for j, c in rows[k]:
                        out[j] += ab * c
    return tuple(out)


def _plus(x: tuple, y: tuple) -> tuple:
    """Sum of two coordinate tuples."""
    return tuple(map(add, x, y))


def _sum_of_powers(ks, n: int) -> tuple:
    """Coordinates of sum_(k in ks) zeta^k, read off the table of `_zeta_rows`."""
    rows = _zeta_rows(n)
    out = [0] * (len(cyclotomic_polynomial(2 * n)) - 1)
    for k in ks:
        for i, c in rows[k % (2 * n)]:
            out[i] += c
    return tuple(out)


@frozen
class Cyclotomic:
    """An element of Q(zeta), zeta = exp(i pi / n).

    `coords` are the coordinates in the power basis 1, zeta, ...,
    zeta^(d-1) modulo Phi_2n, d = deg Phi_2n; `a` and `b` are the first two.
    """

    n: int
    coords: tuple

    @staticmethod
    def of(n: int, value) -> "Cyclotomic":
        return Cyclotomic(n, (value,) + (0,) * (len(cyclotomic_polynomial(2 * n)) - 2))

    @staticmethod
    def zeta(n: int, j: int = 1) -> "Cyclotomic":
        """zeta^j."""
        return Cyclotomic(n, _sum_of_powers((j,), n))

    @property
    def a(self):
        return self.coords[0]

    @property
    def b(self):
        return self.coords[1]

    def __add__(self, other):
        return Cyclotomic(self.n, _plus(self.coords, other.coords))

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            return Cyclotomic(self.n, tuple(x * other for x in self.coords))
        return Cyclotomic(self.n, _times(self.coords, other.coords, _zeta_rows(self.n)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def rational(self) -> Fraction:
        if any(self.coords[1:]):
            raise NonRationalCoefficientError(f"zeta part {self.coords[1:]} survived")
        return Fraction(self.coords[0])


@frozen
class CyclotomicSeries:
    """A truncated series in t_1..t_(n-1): exponent tuple -> nonzero coefficient."""

    terms: dict[tuple[int, ...], Cyclotomic]


def elementary_symmetric(order: int, n: int = 3) -> tuple[CyclotomicSeries, ...]:
    """(e_1, ..., e_n) of the deformed roots of C^2/Z_n, to total degree `order`.

    e_m is a sum over the m-subsets S of the roots,

        e_m = sum_S zeta^(sum_S (2k+1)) exp((1/n) sum_r c_(S,r) t_r),
        c_(S,r) = sum_(k in S) zeta^((2k+1) r),

    so the coefficient of t^a is sum_S zeta^(...) prod_r c_(S,r)^(a_r) / a_r!
    over n^|a|, and no series products are needed.  The sum runs on integer
    coordinate tuples in Z[zeta]; each coefficient's denominator is applied
    once, where its `Cyclotomic` is built.
    """
    if n < 2:
        raise ValueError("C^2/Z_n needs n >= 2")
    if order < 0:
        raise ValueError(f"the order must be >= 0, got {order}")
    rows = _zeta_rows(n)
    out = []
    for m in range(1, n + 1):
        acc: dict = {}
        for subset in combinations(range(n), m):
            terms = {(): _sum_of_powers((sum(2 * k + 1 for k in subset),), n)}
            for r in range(1, n):
                c = _sum_of_powers([(2 * k + 1) * r for k in subset], n)
                powers = [None, c]
                for _ in range(order - 1):
                    powers.append(_times(powers[-1], c, rows))
                # c^0 = 1: the j = 0 entry keeps its value unmultiplied
                terms = {
                    key + (j,): _times(v, powers[j], rows) if j else v
                    for key, v in terms.items()
                    for j in range(order + 1 - sum(key))
                }
            for key, v in terms.items():
                acc[key] = _plus(acc[key], v) if key in acc else v
        series = {}
        for key, v in acc.items():
            if any(v):
                den = n ** sum(key)
                for e in key:
                    den *= factorial(e)
                series[key] = Cyclotomic(n, tuple(Fraction(x, den) for x in v))
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
