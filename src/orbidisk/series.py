"""Truncated multivariate power series over exact rationals.

Exponents live in (1/M) * Z^r_{>=0} for a fixed per-ring modulus M; every
variable has degree 1, and a term is kept when its total degree (the sum of
its exponents) is at most the ring's truncation order T.  Internally every
exponent vector is stored as a tuple of integers scaled by M, so all
exponent arithmetic is integral.  Coefficients are ``fractions.Fraction``;
no floats anywhere.

Products run on a second, private view of a series: each key packed into one
int (its scaled degree above one base-R digit per variable) and each
coefficient an integer numerator over the series' common denominator, so the
one product loop, `_add_product`, adds and multiplies plain ints.  It adds
c times a product into a given dict: `_product` gives it a fresh one, and
`__mul__` is `_product` plus one Fraction per output term; the mirror-map
inversion calls both directly, adds into its residual and stays on packed
views (`orbidisk.mirror`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


class RingMismatchError(ValueError):
    pass


class NonzeroConstantTermError(ValueError):
    pass


class NoConvergenceError(RuntimeError):
    """Fixed-point iteration exceeded its contraction bound."""


class SeriesRing:
    """Ambient ring data: variable count, modulus, truncation.

    Every variable has degree 1; `weights` is that all-ones tuple.
    """

    def __init__(self, nvars: int, modulus: int, truncation, names=None):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        self.nvars = nvars
        self.modulus = modulus
        self.truncation = Fraction(truncation)
        if self.truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.weights = (Fraction(1),) * nvars
        self.names = tuple(names) if names is not None else tuple(
            f"x{i}" for i in range(nvars)
        )
        if len(self.names) != nvars:
            raise ValueError("need one name per variable")
        # the scaled degree of a stored key k is sum(k); keep the term iff
        # that is <= T * M
        bound = self.truncation * modulus
        self._bound = bound.numerator // bound.denominator
        # one digit per variable: an in-bound key has every component at most
        # the bound, so the sum of two packed keys whose degrees add up to at
        # most the bound carries no digit into the next; the scaled degree
        # sits above the digits, at _top, and adds along with them
        self._radix = self._bound + 1
        self._top = self._radix**nvars
        self._fractions: tuple[Fraction, ...] | None = None

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and self.nvars == other.nvars
            and self.modulus == other.modulus
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.nvars, self.modulus, self.truncation))

    def __repr__(self):
        return (
            f"SeriesRing({', '.join(self.names)}; M={self.modulus}, "
            f"T={self.truncation})"
        )

    def scaled_degree(self, key) -> int:
        return sum(key)

    def in_bounds(self, key) -> bool:
        return self.scaled_degree(key) <= self._bound

    def _pack(self, key) -> int:
        p = self.scaled_degree(key)
        for k in key:
            p = p * self._radix + k
        return p

    def _exponent_fractions(self) -> tuple[Fraction, ...]:
        """Fraction(x, M) for every scaled exponent x from 0 to the bound,
        built once per ring."""
        if self._fractions is None:
            m = self.modulus
            self._fractions = tuple(Fraction(x, m) for x in range(self._radix))
        return self._fractions

    def _unpack(self, p: int) -> tuple[int, ...]:
        key = [0] * self.nvars
        for i in range(self.nvars - 1, -1, -1):
            p, key[i] = divmod(p, self._radix)
        return tuple(key)

    def scale_exponents(self, exponents) -> tuple[int, ...]:
        """Convert public exponents (rationals) to the internal integer key."""
        key = []
        for e in exponents:
            if type(e) is int:
                v = e * self.modulus
            else:
                v = Fraction(e) * self.modulus
                if v.denominator != 1:
                    raise ValueError(
                        f"exponent {e} not in (1/{self.modulus})Z"
                    )
            if v < 0:
                raise ValueError(f"negative exponent {e}")
            key.append(int(v))
        if len(key) != self.nvars:
            raise ValueError("wrong number of exponents")
        return tuple(key)

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.scalar(1)

    def scalar(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return TruncatedSeries(self, {(0,) * self.nvars: c})

    def monomial(self, exponents, coeff=1) -> "TruncatedSeries":
        c = Fraction(coeff)
        key = self.scale_exponents(exponents)
        if c == 0 or not self.in_bounds(key):
            return self.zero()
        return TruncatedSeries(self, {key: c})

    def variable(self, i: int) -> "TruncatedSeries":
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.nvars)))

    def from_scaled_terms(self, terms: dict) -> "TruncatedSeries":
        clean = {
            k: v for k, v in terms.items() if v != 0 and self.in_bounds(k)
        }
        return TruncatedSeries(self, clean)


class TruncatedSeries:
    """Immutable truncated series; build through SeriesRing constructors."""

    __slots__ = ("ring", "_terms", "_packed")

    def __init__(self, ring: SeriesRing, terms: dict):
        self.ring = ring
        self._terms = terms
        self._packed = None

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.ring.nvars, Fraction(0))

    def coefficient(self, exponents) -> Fraction:
        return self.scaled_coefficient(self.ring.scale_exponents(exponents))

    def scaled_coefficient(self, key) -> Fraction:
        """Coefficient at an exponent key already scaled by the ring modulus."""
        return self._terms.get(key, Fraction(0))

    def scaled_terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view of the nonzero terms: scaled key -> coefficient."""
        return MappingProxyType(self._terms)

    def terms(self):
        """Sorted (exponents, coefficient) pairs; exponents as Fractions."""
        exponent = self.ring._exponent_fractions()
        for key in sorted(self._terms, key=lambda k: (sum(k), k)):
            yield tuple(exponent[x] for x in key), self._terms[key]

    def _packed_view(self) -> tuple[list[tuple[int, int, int]], int]:
        """(sorted (scaled degree, packed key, numerator) triples, D): each
        coefficient is numerator / D, with D the lcm of the denominators."""
        if self._packed is None:
            ring = self.ring
            den = lcm(*(v.denominator for v in self._terms.values()))
            nums = {
                ring._pack(k): v.numerator * (den // v.denominator)
                for k, v in self._terms.items()
            }
            self._packed = [(p // ring._top, p, nums[p]) for p in sorted(nums)], den
        return self._packed

    def min_scaled_degree(self):
        return self._packed_view()[0][0][0] if self._terms else None

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __repr__(self):
        parts = []
        for exps, c in self.terms():
            mono = "*".join(
                f"{n}^{e}" for n, e in zip(self.ring.names, exps) if e != 0
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
            if len(parts) > 8:
                parts.append("...")
                break
        return "(" + (" + ".join(parts) if parts else "0") + ")"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("series live in different rings")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self + self.ring.scalar(other)
        self._check(other)
        out = dict(self._terms)
        for k, v in other._terms.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return TruncatedSeries(self.ring, out)

    def __neg__(self):
        return TruncatedSeries(self.ring, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self - self.ring.scalar(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return TruncatedSeries(
                self.ring, {k: v * c for k, v in self._terms.items()}
            )
        self._check(other)
        ring = self.ring
        terms, den = _product(ring, self._packed_view(), other._packed_view())
        unpack = ring._unpack
        return TruncatedSeries(
            ring, {unpack(p): Fraction(n, den) for _, p, n in terms}
        )

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out


def _add_product(acc: dict[int, int], bound: int, fa, fb, c: int) -> None:
    """Add c times the product of two packed term lists into acc, by packed
    key, truncated to the scaled degree bound.

    The one series-product loop: a pair of terms is multiplied only when
    their degrees add up to at most the bound, so packed keys add without
    carries.  Keys that cancel stay in acc with numerator 0.
    """
    if len(fa) > len(fb):
        fa, fb = fb, fa
    get = acc.get
    for wa, ka, na in fa:
        room = bound - wa
        if room < fb[0][0]:
            break
        na *= c
        for wb, kb, nb in fb:
            if wb > room:
                break
            k = ka + kb
            acc[k] = get(k, 0) + na * nb


def _product(ring: SeriesRing, a, b) -> tuple[list[tuple[int, int, int]], int]:
    """The packed view of the product of two packed views, truncated to ring,
    its denominator reduced to the lcm of its coefficients' denominators, as
    `_packed_view` would give."""
    (fa, da), (fb, db) = a, b
    acc: dict[int, int] = {}
    _add_product(acc, ring._bound, fa, fb, 1)
    g = gcd(da * db, *acc.values())
    top = ring._top
    return [(p // top, p, acc[p] // g) for p in sorted(acc) if acc[p]], da * db // g


def exp_series(f: TruncatedSeries) -> TruncatedSeries:
    """exp(f) = sum f^k / k!, requires zero constant term."""
    if f.constant_term != 0:
        raise NonzeroConstantTermError("exp needs a zero constant term")
    ring = f.ring
    if f.is_zero():
        return ring.one()
    delta = f.min_scaled_degree()
    kmax = ring._bound // delta
    acc = ring.one()
    for k in range(kmax, 0, -1):
        acc = ring.one() + (f * acc) * Fraction(1, k)
    return acc


def log1p(f: TruncatedSeries) -> TruncatedSeries:
    """log(1 + f) = sum_{k>=1} (-1)^{k+1} f^k / k, zero constant term required."""
    if f.constant_term != 0:
        raise NonzeroConstantTermError("log1p needs a zero constant term")
    ring = f.ring
    if f.is_zero():
        return ring.zero()
    delta = f.min_scaled_degree()
    kmax = ring._bound // delta
    if kmax == 0:
        return ring.zero()
    acc = ring.scalar(Fraction((-1) ** (kmax + 1), kmax))
    for k in range(kmax - 1, 0, -1):
        acc = ring.scalar(Fraction((-1) ** (k + 1), k)) + f * acc
    return f * acc


def solve_fixed_point(
    initial: Sequence[TruncatedSeries],
    step: Callable[[list[TruncatedSeries]], Iterable[TruncatedSeries]],
    gain,
) -> list[TruncatedSeries]:
    """Iterate a filtration-contracting self-map to its exact fixed point.

    The step map must be a contraction of gain delta: inputs agreeing up to
    total degree w give outputs agreeing up to w + delta.  The fixed point
    is then reached after at most ceil(T / delta) + 1 iterations; exceeding
    that raises NoConvergenceError.
    """
    if not initial:
        raise ValueError("need at least one series")
    gain = Fraction(gain)
    if gain <= 0:
        raise ValueError("gain must be positive")
    t = initial[0].ring.truncation
    limit = -int(-t / gain) + 1  # ceil(T/gain) + 1
    current = list(initial)
    for _ in range(limit + 1):
        nxt = list(step(current))
        if nxt == current:
            return current
        current = nxt
    raise NoConvergenceError(
        "fixed point not reached within the contraction bound; "
        "the step map is not a contraction"
    )
