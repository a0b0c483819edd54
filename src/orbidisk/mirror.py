"""Mirror-map pipeline: correction series, map inversion, disk potentials.

All invariant computations run on a toric Calabi-Yau chart.  Every class d
of the chart is keyed by its curve part and its sector multiplicities:

    d = sum_a qpart_a gamma_a + sum_j m_j Dual_j,   m_j = <D_j, d>,

with gamma_a the curve classes dual to the nef block and Dual_j the dual
class of the j-th extra vector.  On an effective class every m_j is a
nonnegative integer (no extra vector lies in a maximal cone).  Every y and
(q, tau) variable has weight 1, as each age-one tau has degree 1 in the
orbifold mirror theorem, so the truncation window is total degree <= order
and y^d and q^qpart tau^m carry the same key.

The effective classes up to the order are enumerated cone by cone: for each
maximal cone, the classes pairing to nonnegative integers with the vectors
outside it.  A class is carried as its key times the chart modulus M and its
divisor pairings times M^2, all integers; effectiveness, the omega sets and
each correction coefficient are decided on those integers.  Each ray or
extra vector contributes a hypergeometric-type correction series A_j.  The
map

    q_a = y_a exp(sum_j Q_ja A_j(y)),   tau_j = A_j(y)

is inverted implicitly: for a target series F(y) we find X(q, tau) with
X(forward(y)) = F(y) by peeling the residual level by level in the rank
(total degree, sector count), each peeled y^d becoming q^qpart tau^m.  The
residual is integer numerators on packed keys over one denominator, reduced
by their gcd after each level; a Fraction is made only for each coefficient
written into X.  Generating functions of basic disk classes and the full
disk potential are assembled from those X's.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from ._record import frozen
from .lattice import (
    AmbiguousSolutionError,
    integer_inverse,
    solve_rational,
    transpose,
)
from .series import SeriesRing, TruncatedSeries, _product, exp_series
from .stacky import (
    DiskClassSymbol,
    DualClassData,
    FanError,
    FanSequenceData,
    StackyFan,
    anticones,
    box_elements,
    cone_index,
    dual_class_data,
    fan_sequence,
    minimal_cone_coordinates,
    nu_of_class,
)
from .suborbifold import Suborbifold, build_suborbifold, push_class_pairings


class ComputationError(RuntimeError):
    pass


class UnsupportedInsertionsError(ComputationError):
    """Insertions outside the chart's twisted sectors."""


class OrderTooLowError(ComputationError):
    """Requested coefficient lies beyond the truncation order."""


@frozen
class GridPoint:
    key: tuple[int, ...]  # (curve part, sector multiplicities) times M
    nums: tuple[int, ...]  # divisor pairings times M^2
    effective: bool
    nu: tuple[int, ...]


def _sector_ratio(nums, m: int) -> tuple[int, int]:
    """(numerator, denominator) of the extra-vector series coefficient: the
    product over the pairings p / m, with cc = ceil(p / m), of the collapsed
    factorial ratio m^cc / prod_{0<=k<cc} (p - km) if cc >= 0, else
    prod_{cc<=k<0} (p - km) / m^-cc (1/c! on integers c >= 0, 0 on c < 0)."""
    num = den = 1
    for p in nums:
        cc = -(-p // m)
        if cc >= 0:
            num *= m**cc
            den *= prod(p - k * m for k in range(cc))
        else:
            den *= m**-cc
            num *= prod(p - k * m for k in range(cc, 0))
    return num, den


class ChartPipeline:
    """All mirror-map data of one Calabi-Yau chart at a fixed order."""

    def __init__(self, fan: StackyFan, order, seq: FanSequenceData | None = None):
        self.fan = fan
        self.seq = seq if seq is not None else fan_sequence(fan)
        self.order = Fraction(order)
        self.r = self.seq.r
        self.r_prime = self.seq.r_prime
        self.extras = list(range(fan.n_rays, fan.n_vectors))
        self.duals: list[DualClassData] = [
            dual_class_data(fan, j) for j in self.extras
        ]
        # Dual_j has coefficients in (1/|G_tau|)Z, tau its carrier, and G_tau
        # is a subgroup of G_sigma for each maximal cone sigma over tau; the
        # kernel basis is saturated, so every grid class's nef pairings lie
        # in (1/M)Z
        self.modulus = m = lcm(*(cone_index(fan, mc) for mc in fan.max_cones))
        self._den = m * m
        # a class's pairing numerators over M^2: its key dotted with these
        # columns, the pairings of the curve classes gamma_a and of the dual
        # classes Dual_j scaled by M
        coord_classes = list(self.seq.gamma_basis) + [d.pairings for d in self.duals]
        self._gamma_cols = tuple(
            tuple(int(c[i] * m) for c in coord_classes)
            for i in range(fan.n_vectors)
        )
        self.y_ring = SeriesRing(
            self.r,
            m,
            self.order,
            names=tuple(f"y{a}" for a in range(self.r)),
        )
        names = tuple(f"q{a}" for a in range(self.r_prime)) + tuple(
            "t" + "".join(str(c) for c in fan.vectors[j]) for j in self.extras
        )
        self.qt_ring = SeriesRing(self.r, m, self.order, names=names)
        self._grid: dict[tuple[int, ...], GridPoint] | None = None
        self._anticones = anticones(fan)
        self._a_series: dict[int, TruncatedSeries] = {}
        self._log_corrections: list[TruncatedSeries] | None = None
        # per (q, tau) variable: packed views of powers of one step's image
        self._powers: dict[int, list] = {}

    # -- grid and omega sets ------------------------------------------------

    def grid(self) -> dict[tuple[int, ...], GridPoint]:
        """Effective classes up to the truncation order, by scaled key.

        A class is effective exactly when, for some maximal cone, it pairs to
        a nonnegative integer with each of the r vectors outside the cone, so
        the grid is the union over the maximal cones of `_cone_keys`.  Every
        key found is classified again and must come out effective.  Each
        GridPoint carries the class as integer numerators over the modulus.
        """
        if self._grid is not None:
            return self._grid
        out: dict[tuple[int, ...], GridPoint] = {}
        for cone in self.fan.max_cones:
            for key in self._cone_keys(cone):
                if key in out:
                    continue
                gp = self._classify(key)
                if not gp.effective:
                    raise ComputationError(
                        f"enumerated class {key} is not effective"
                    )
                out[key] = gp
        self._grid = out
        return out

    def _cone_keys(self, cone):
        """Keys within the order pairing to nonnegative integers with every
        vector outside the cone.

        Those r pairings k_e fix the class: inverting the r x r block of
        pairing columns on the outside vectors gives the key col_e of the
        class pairing to 1 with e and to 0 with the other outside vectors,
        and its total degree w_e = sum(col_e).  The vectors k >= 0 with
        sum_e w_e k_e within the order are enumerated, and sum_e k_e col_e is
        yielded when it is integral.  The budget bounds the enumeration only
        when every w_e > 0, and an integral class must have a nonnegative
        key; otherwise ComputationError.
        """
        outside = [e for e in range(self.fan.n_vectors) if e not in cone]
        if len(outside) != self.r:
            raise ComputationError(
                f"maximal cone {tuple(cone)} is not full-dimensional"
            )
        block = [list(self._gamma_cols[e]) for e in outside]
        # integer arithmetic throughout: block = M x pairings, block^-1 =
        # m / den, so key = M^2 m k / den, every key scaled by den
        m, den = integer_inverse(block)
        cols = [[row[idx] * self._den for row in m] for idx in range(self.r)]
        weights = [sum(col) for col in cols]
        if any(w <= 0 for w in weights):
            raise ComputationError(
                f"cone {tuple(cone)} has a nonpositive enumeration weight"
            )

        def walk(pos, acc, left):
            if pos == self.r:
                if all(x % den == 0 for x in acc):
                    key = tuple(x // den for x in acc)
                    if any(x < 0 for x in key):
                        raise ComputationError(
                            f"effective class {key} has a negative curve part"
                        )
                    yield key
                return
            col, w = cols[pos], weights[pos]
            for k in range(left // w + 1):
                yield from walk(
                    pos + 1, [x + k * c for x, c in zip(acc, col)], left - k * w
                )

        yield from walk(0, [0] * self.r, self.y_ring._bound * den)

    def _classify(self, key) -> GridPoint:
        """The class of a scaled key, carried by its pairing numerators p over
        M^2: p / M^2 is a nonnegative integer when p >= 0 and M^2 | p, and
        the class is effective when those vectors contain an anticone."""
        den = self._den
        nums = tuple(sum(map(mul, key, col)) for col in self._gamma_cols)
        int_nonneg = frozenset(
            i for i, p in enumerate(nums) if p >= 0 and p % den == 0
        )
        effective = int_nonneg in self._anticones
        nu = nu_of_class(self.fan, nums, den) if effective else ()
        return GridPoint(key, nums, effective, nu)

    def omega(self, j: int) -> list[GridPoint]:
        """Effective classes feeding the j-th correction series."""
        m = self._den
        ray = j < self.fan.n_rays
        # a ray's classes have box point 0, a sector's its own vector
        nu = (0,) * self.fan.dim if ray else self.fan.vectors[j]
        out = []
        origin = (0,) * self.r
        for key, gp in self.grid().items():
            if key == origin or gp.nu != nu:
                continue
            ps = gp.nums
            if ray:
                # c_j a negative integer, every other pairing a nonnegative one
                if ps[j] >= 0 or ps[j] % m or any(
                    p < 0 or p % m for i, p in enumerate(ps) if i != j
                ):
                    continue
            elif any(p < 0 and p % m == 0 for p in ps):
                continue
            out.append(gp)
        out.sort(key=lambda g: g.key)
        return out

    def a_series(self, j: int) -> TruncatedSeries:
        """Correction series attached to the j-th ray or extra vector.

        Each coefficient is one integer numerator over one integer
        denominator: a ray term is (-1)^(-c_j-1) (-c_j-1)! / prod_i c_i!, a
        sector term is `_sector_ratio` of the class's pairing numerators.
        """
        if j in self._a_series:
            return self._a_series[j]
        m = self._den
        terms: dict[tuple[int, ...], Fraction] = {}
        for gp in self.omega(j):
            ps = gp.nums
            if j < self.fan.n_rays:
                cj = ps[j] // m
                num = (-1) ** (-cj - 1) * factorial(-cj - 1)
                den = prod(factorial(p // m) for i, p in enumerate(ps) if i != j)
            else:
                num, den = _sector_ratio(ps, m)
            if num:
                terms[gp.key] = Fraction(num, den)
        series = self.y_ring.from_scaled_terms(terms)
        if j >= self.fan.n_rays:
            self._check_sector_series(j, series)
        self._a_series[j] = series
        return series

    def _check_sector_series(self, j: int, series: TruncatedSeries) -> None:
        """A_j must be y^Dual_j plus terms of higher rank, or tau_j has no
        power-series inverse."""
        var = self.r_prime + j - self.fan.n_rays
        lead = tuple(self.modulus * (a == var) for a in range(self.r))
        # the leading term can only be checked when the truncation order
        # reaches it at all
        if self.y_ring.in_bounds(lead) and series.scaled_coefficient(lead) != 1:
            raise ComputationError(
                f"leading coefficient of the sector series at "
                f"{self.fan.vectors[j]} is not 1"
            )
        for key in series.scaled_terms():
            rank = (sum(key), sum(key[self.r_prime :]))
            if key != lead and rank <= (self.modulus, self.modulus):
                mono = "*".join(
                    f"{name}^({Fraction(k, self.modulus)})"
                    for name, k in zip(self.y_ring.names, key)
                    if k
                )
                raise ComputationError(
                    f"the series of sector {self.fan.vectors[j]} carries "
                    f"{mono}, which does not rank above its leading class "
                    f"{self.y_ring.names[var]}; the sector has no power-series "
                    "inverse"
                )

    # -- forward map ----------------------------------------------------------

    def log_corrections(self) -> list[TruncatedSeries]:
        """sum_j Q_ja A_j(y) over the rays, for each nef direction a."""
        if self._log_corrections is None:
            out = []
            for a in range(self.r_prime):
                acc = self.y_ring.zero()
                for j in range(self.fan.n_rays):
                    qja = self.seq.q_matrix[j][a]
                    if qja:
                        acc = acc + self.a_series(j) * qja
                out.append(acc)
            self._log_corrections = out
        return self._log_corrections

    def forward_q(self) -> list[TruncatedSeries]:
        """q_a(y) = y_a exp(sum_j Q_ja A_j(y)) as series in y."""
        out = []
        for a, l in enumerate(self.log_corrections()):
            mono = self.y_ring.variable(a)
            out.append(mono * exp_series(l))
        return out

    # -- the triangular inversion ----------------------------------------------

    def _image(self, tkey) -> tuple[list[tuple[int, int, int]], int]:
        """Packed view of the forward image in y of the (q, tau) monomial with
        scaled key tkey.

        A product of per-variable power lists: one step q_a^(1/M) maps to
        y_a^(1/M) exp(L_a/M), one step tau_j to A_j.
        """
        ring = self.y_ring
        out = one = ring.one()._packed_view()
        for v, k in enumerate(tkey):
            if v >= self.r_prime:
                if k % self.modulus:
                    raise ComputationError("fractional sector exponent")
                k //= self.modulus
            if not k:
                continue
            powers = self._powers.get(v)
            if powers is None:
                if v < self.r_prime:
                    root = [Fraction(int(a == v), self.modulus) for a in range(self.r)]
                    step = ring.monomial(root) * exp_series(
                        self.log_corrections()[v] * Fraction(1, self.modulus)
                    )
                else:
                    step = self.a_series(self.extras[v - self.r_prime])
                powers = self._powers[v] = [one, step._packed_view()]
            while len(powers) <= k:
                powers.append(_product(ring, powers[-1], powers[1]))
            out = powers[k] if out is one else _product(ring, out, powers[k])
        return out

    def _rank(self, p: int) -> tuple[int, int]:
        """(total degree, sector count), both scaled, of packed key p.

        The forward image of a (q, tau) monomial is the y monomial of the
        same key plus terms of strictly larger rank: correction tails either
        raise the degree or keep it while adding sector factors (a same-degree
        tail with a single sector factor would pin two different box points
        to the same class).  `_check_sector_series` enforces this for each
        tau.
        """
        ring = self.y_ring
        return p // ring._top, sum(ring._unpack(p)[self.r_prime :])

    def solve_against(self, f: TruncatedSeries) -> TruncatedSeries:
        """The unique X(q, tau) with X(forward(y)) = f(y) up to the order.

        Triangular in the rank filtration (total degree, then sector count):
        each round moves the residual's lowest level into X, y^d becoming the
        (q, tau) monomial of the same key, and subtracts its
        forward images in place, so the lowest level strictly rises; there are
        finitely many levels.  Each round scales the integer residual and its
        denominator by L, the lcm of its images' denominators E, subtracts
        c (L/E) n per image term n/E of a peeled c, then reduces by the gcd.
        """
        if f.ring != self.y_ring:
            raise ComputationError("series is not in the chart y ring")
        terms, den = f._packed_view()
        residual = {p: n for _, p, n in terms}
        # rank of every key that has entered the residual, computed once
        ranks = {p: self._rank(p) for p in residual}
        x: dict[tuple[int, ...], Fraction] = {}
        last = (-1, -1)
        while residual:
            level = min(ranks[p] for p in residual)
            if level <= last:
                raise ComputationError(
                    "inversion is not contracting; malformed mirror data"
                )
            last = level
            peel = [
                (self.y_ring._unpack(p), c)
                for p, c in residual.items()
                if ranks[p] == level
            ]
            images = [self._image(key) for key, _ in peel]
            scale = lcm(*(e for _, e in images))
            residual = {p: n * scale for p, n in residual.items()}
            for (key, c), (image, e) in zip(peel, images):
                x[key] = Fraction(c, den)
                c *= scale // e
                for _, k, n in image:
                    w = residual.get(k, 0) - c * n
                    if w:
                        residual[k] = w
                        if k not in ranks:
                            ranks[k] = self._rank(k)
                    else:
                        del residual[k]
            den *= scale
            g = gcd(den, *residual.values())
            if g > 1:
                den //= g
                residual = {p: n // g for p, n in residual.items()}
        return self.qt_ring.from_scaled_terms(x)

    # -- generating functions --------------------------------------------------

    def generating_function(self, chart_symbol: DiskClassSymbol) -> TruncatedSeries:
        """Disk generating function of a basic class, in chart (q, tau)."""
        if chart_symbol.kind == "ray":
            i0 = chart_symbol.ray
            if not 0 <= i0 < self.fan.n_rays:
                raise FanError(f"chart has no ray {i0}")
            f = exp_series(-self.a_series(i0))
        else:
            point = tuple(chart_symbol.point)
            try:
                jdx = list(self.fan.extra_vectors).index(point)
            except ValueError:
                raise FanError(
                    f"{point} is not a twisted-sector vector of the chart"
                ) from None
            dual = self.duals[jdx]
            if any(c >= 1 for c in dual.cone_coeffs):
                raise ComputationError(
                    "sector coefficients outside [0,1); not a box element"
                )
            mono = self.y_ring.variable(self.r_prime + jdx)
            acc = self.y_ring.zero()
            for i, c in zip(dual.carrier, dual.cone_coeffs):
                acc = acc + self.a_series(i) * c
            f = mono * exp_series(-acc)
        return self.solve_against(f)

    def round_trip_identity(self) -> bool:
        """forward then inverse reproduces every coordinate exactly."""
        fq = self.forward_q()
        for a in range(self.r_prime):
            if self.solve_against(fq[a]) != self.qt_ring.variable(a):
                return False
        for jdx, j in enumerate(self.extras):
            if self.solve_against(self.a_series(j)) != self.qt_ring.variable(
                self.r_prime + jdx
            ):
                return False
        return True


@frozen
class DiskGeneratingFunction:
    """Chart generating function with ambient labels.

    tau_points[j] names the twisted sector of the j-th tau variable by its
    lattice point; q_classes[a] is the ambient pairing vector of the curve
    class graded by the a-th q variable.
    """

    parent: StackyFan
    symbol: DiskClassSymbol
    facet_vertices: tuple[int, ...]
    order: Fraction
    series: TruncatedSeries
    tau_points: tuple[tuple[int, ...], ...]
    q_classes: tuple[tuple[int, ...], ...]

    def invariants(self):
        """(alpha pairing vector, insertions dict, value) triples in term
        order; alpha = sum_a k_a q_classes[a] / M over the scaled q keys k_a,
        added up in integer numerators over the chart modulus M."""
        out = []
        ring = self.series.ring
        m = ring.modulus
        r_prime = len(self.q_classes)
        terms = self.series.scaled_terms()
        for key in sorted(terms, key=lambda k: (ring.scaled_degree(k), k)):
            nums = [0] * self.parent.n_vectors
            for k, cls in zip(key, self.q_classes):
                if k:
                    nums = [x + k * y for x, y in zip(nums, cls)]
            insertions = {}
            for pt, k in zip(self.tau_points, key[r_prime:]):
                if k:
                    if k % m:  # pragma: no cover
                        raise ComputationError("fractional insertion count")
                    insertions[pt] = k // m
            alpha = tuple(Fraction(x, m) for x in nums)
            out.append((alpha, insertions, terms[key]))
        return out


def disk_generating_function(
    parent: StackyFan,
    symbol: DiskClassSymbol,
    order,
    facet=None,
    pipeline_cache: dict | None = None,
) -> DiskGeneratingFunction:
    """Build the chart of a basic class and run the mirror pipeline on it."""
    sub = build_suborbifold(parent, symbol, facet)
    pipe = _pipeline_for(sub, order, pipeline_cache)
    if symbol.kind == "ray":
        chart_ray = sub.parent_index.index(symbol.ray)
        chart_symbol = DiskClassSymbol.smooth(chart_ray)
    else:
        chart_symbol = DiskClassSymbol.orbi(symbol.point)
    g = pipe.generating_function(chart_symbol)
    q_classes = tuple(
        push_class_pairings(sub, pipe.seq.gamma_basis[a])
        for a in range(pipe.r_prime)
    )
    return DiskGeneratingFunction(
        parent=parent,
        symbol=symbol,
        facet_vertices=sub.facet.vertices,
        order=Fraction(order),
        series=g,
        tau_points=tuple(sub.fan.extra_vectors),
        q_classes=q_classes,
    )


def _pipeline_for(sub: Suborbifold, order, cache: dict | None) -> ChartPipeline:
    if cache is None:
        return ChartPipeline(sub.fan, order)
    key = (sub.fan, Fraction(order))
    if key not in cache:
        cache[key] = ChartPipeline(sub.fan, order)
    return cache[key]


def extract_invariant(
    dgf: DiskGeneratingFunction, alpha, insertions: dict
) -> Fraction:
    """Read one disk invariant off a generating function.

    alpha is the ambient pairing vector of the curve class part (all zeros
    for the basic class itself); insertions maps twisted-sector lattice points to
    multiplicities.  The value is the coefficient of the matching monomial.
    """
    tau_exps = [Fraction(0)] * len(dgf.tau_points)
    for pt, mult in insertions.items():
        pt = tuple(pt)
        if pt not in dgf.tau_points:
            raise UnsupportedInsertionsError(
                f"sector {pt} is not carried by the chart at facet "
                f"{dgf.facet_vertices}"
            )
        tau_exps[dgf.tau_points.index(pt)] = Fraction(mult)
    alpha = tuple(Fraction(x) for x in alpha)
    r_prime = len(dgf.q_classes)
    if any(alpha):
        if r_prime == 0:
            raise UnsupportedInsertionsError(
                "nonzero curve class on a chart without curve classes"
            )
        try:
            sol = solve_rational(
                transpose([list(q) for q in dgf.q_classes]), list(alpha)
            )
        except AmbiguousSolutionError:  # pragma: no cover
            sol = None
        if sol is None or any(x < 0 for x in sol):
            raise UnsupportedInsertionsError(
                "curve class is not an effective chart class"
            )
        q_exps = list(sol)
    else:
        q_exps = [Fraction(0)] * r_prime
    exps = tuple(q_exps) + tuple(tau_exps)
    ring = dgf.series.ring
    try:
        key = ring.scale_exponents(exps)
    except ValueError as exc:
        raise UnsupportedInsertionsError(
            f"class is not on the chart exponent grid: {exc}"
        ) from exc
    if not ring.in_bounds(key):
        raise OrderTooLowError(
            "requested coefficient lies beyond the truncation order"
        )
    return dgf.series.scaled_coefficient(key)


# ---------------------------------------------------------------------------
# disk potential
# ---------------------------------------------------------------------------


class NormalizationConeError(ComputationError):
    pass


@frozen
class PotentialEntry:
    z_monomial: tuple[int, ...]
    area: tuple[Fraction, ...]  # exponents in the ambient nef grading
    series: TruncatedSeries  # in ambient (q, tau-sector) variables
    tau_points: tuple[tuple[int, ...], ...]
    facet_vertices: tuple[int, ...]
    symbol: DiskClassSymbol


@frozen
class PotentialData:
    fan: StackyFan
    normalization_cone: tuple[int, ...]
    order: Fraction
    entries: tuple[PotentialEntry, ...]


def potential_symbols(parent: StackyFan) -> list[DiskClassSymbol]:
    """One symbol per basic class: every ray, then every age-one box
    element."""
    return [DiskClassSymbol.smooth(i) for i in range(parent.n_rays)] + [
        DiskClassSymbol.orbi(b.point) for b in box_elements(parent) if b.age == 1
    ]


def potential_entry(
    parent: StackyFan,
    seq: FanSequenceData,
    cone_number: int,
    sym: DiskClassSymbol,
    order,
    pipeline_cache: dict | None = None,
) -> PotentialEntry:
    """One disk-potential term: generating function times the area monomial.

    The area is the nef pairings of the boundary vector b's coordinates on
    its minimal cone (`minimal_cone_coordinates`) minus those on sigma0.
    """
    sigma0 = parent.max_cones[cone_number]
    dgf = disk_generating_function(
        parent, sym, order, pipeline_cache=pipeline_cache
    )
    boundary = (
        parent.stacky_vectors[sym.ray] if sym.kind == "ray" else tuple(sym.point)
    )
    sigma_cols = transpose([parent.stacky_vectors[i] for i in sigma0])
    a_sol = solve_rational(sigma_cols, list(boundary))
    if a_sol is None:  # pragma: no cover - sigma0 full dimensional
        raise NormalizationConeError("normalization cone is degenerate")
    alpha = [Fraction(0)] * parent.n_vectors
    for i, c in zip(*minimal_cone_coordinates(parent, boundary)):
        alpha[i] += c
    for i, c in zip(sigma0, a_sol):
        alpha[i] -= c
    area = seq.pcoords_from_ambient(alpha)[: seq.r_prime]
    if any(x < 0 for x in area):
        raise NormalizationConeError(
            f"class at {boundary} has negative area for this cone"
        )
    series = _relabel_to_parent(dgf, seq, area, order)
    return PotentialEntry(
        z_monomial=tuple(boundary),
        area=tuple(area),
        series=series,
        tau_points=dgf.tau_points,
        facet_vertices=dgf.facet_vertices,
        symbol=sym,
    )


def assemble_potential(
    parent: StackyFan,
    cone_number: int,
    order,
    parent_seq: FanSequenceData | None = None,
) -> PotentialData:
    """Disk potential: one generating term per basic class.

    Areas are normalized so the rays of the chosen maximal cone have zero
    area; every other basic class's area is the nef pairing of the
    difference of its boundary coordinates.  Each entry's series carries the
    ambient q variables and the tau variables of the class's own chart.
    """
    if not 0 <= cone_number < len(parent.max_cones):
        raise NormalizationConeError(f"no maximal cone number {cone_number}")
    sigma0 = parent.max_cones[cone_number]
    if len(sigma0) != parent.dim:
        raise NormalizationConeError(
            "normalization cone must be full-dimensional"
        )
    seq = parent_seq if parent_seq is not None else fan_sequence(parent)
    cache: dict = {}
    entries = [
        potential_entry(parent, seq, cone_number, sym, order, cache)
        for sym in potential_symbols(parent)
    ]
    entries.sort(key=lambda e: e.z_monomial)
    return PotentialData(parent, sigma0, Fraction(order), tuple(entries))


def _relabel_to_parent(
    dgf: DiskGeneratingFunction, seq: FanSequenceData, area, order
) -> TruncatedSeries:
    """Express a chart series in ambient q variables and multiply in the area.

    A chart curve class pushes to an integral relation, so its parent nef
    pairings img_a are integers.  Over M = lcm(chart modulus, area
    denominators) and s = M / (chart modulus), a chart key k maps to
    area * M + s * sum_a k_a img_a, its tau keys to s * k."""
    chart_m = dgf.series.ring.modulus
    r_prime = seq.r_prime
    n_q = len(dgf.q_classes)
    images = []
    for cls in dgf.q_classes:
        pc = seq.pcoords_from_ambient(cls)[:r_prime]
        if any(x < 0 or x.denominator != 1 for x in pc):
            raise ComputationError("pushed chart class is not effective upstairs")
        images.append([int(x) for x in pc])
    modulus = lcm(chart_m, *(x.denominator for x in area))
    s = modulus // chart_m
    ring = SeriesRing(
        r_prime + len(dgf.tau_points),
        modulus,
        Fraction(order),
        names=tuple(f"q{a}" for a in range(r_prime))
        + tuple("t" + "".join(str(c) for c in p) for p in dgf.tau_points),
    )
    base = [int(x * modulus) for x in area]
    out: dict[tuple[int, ...], Fraction] = {}
    for key, coeff in dgf.series.scaled_terms().items():
        q = base
        for k, img in zip(key, images):
            if k:
                q = [x + s * k * y for x, y in zip(q, img)]
        parent_key = tuple(q) + tuple(s * t for t in key[n_q:])
        if ring.in_bounds(parent_key):
            out[parent_key] = out.get(parent_key, 0) + coeff
    return ring.from_scaled_terms(out)


def tau_zero_slice(series: TruncatedSeries, n_leading: int) -> TruncatedSeries:
    """Set every variable after the first n_leading to zero."""
    kept = {
        k: v for k, v in series.scaled_terms().items() if not any(k[n_leading:])
    }
    return series.ring.from_scaled_terms(kept)
