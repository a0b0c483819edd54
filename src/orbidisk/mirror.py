"""Mirror-map pipeline: correction series, map inversion, disk potentials.

All invariant computations run on a toric Calabi-Yau chart.  The chart's
effective classes up to the truncation order are enumerated cone by cone: for
each maximal cone, the classes pairing to nonnegative integers with the
vectors outside it, under the weight budget of the order.  Each ray or extra
vector contributes a hypergeometric-type correction series A_j.  The map

    q_a = y_a exp(sum_j Q_ja A_j(y)),   tau_j = A_j(y)

is inverted implicitly: for a target series F(y) we find X(q, tau) with
X(forward(y)) = F(y) by peeling the lowest-weight residual through the
monomial relabel y^d -> q^(H2 part) tau^(extra pairings), which is exact and
weight-preserving.  Generating functions of basic disk classes and the full
disk potential are assembled from those X's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .lattice import (
    AmbiguousSolutionError,
    det,
    integer_inverse,
    solve_rational,
    transpose,
)
from .series import SeriesRing, TruncatedSeries, exp_series
from .stacky import (
    BoxElement,
    DiskClassSymbol,
    DualClassData,
    FanError,
    FanSequenceData,
    StackyFan,
    anticones,
    box_elements,
    ceil_fraction,
    cone_index,
    dual_class_data,
    fan_sequence,
    nu_of_class,
)
from .suborbifold import Suborbifold, build_suborbifold, push_class_pairings


class ComputationError(RuntimeError):
    pass


class UnsupportedInsertionsError(ComputationError):
    """Insertions outside the chart's twisted sectors."""


class OrderTooLowError(ComputationError):
    """Requested coefficient lies beyond the truncation order."""


@dataclass(frozen=True)
class GridPoint:
    key: tuple[int, ...]  # modulus-scaled grading coordinates
    pcoords: tuple[Fraction, ...]
    pairings: tuple[Fraction, ...]
    effective: bool
    nu: tuple[int, ...]


def _is_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


def _is_neg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x < 0


def ratio_factor(c: Fraction) -> Fraction:
    """Collapsed two-sided factorial ratio used by the extra-vector series.

    Equals 1/c! for nonnegative integers, vanishes on negative integers, and
    is the finite product of the non-cancelling factors otherwise.
    """
    cc = ceil_fraction(c)
    if cc >= 1:
        out = Fraction(1)
        for k in range(cc):
            out /= c - k
        return out
    if cc == 0:
        return Fraction(1)
    out = Fraction(1)
    for k in range(cc, 0):
        out *= c - k
    return out


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
            dual_class_data(fan, self.seq, j) for j in self.extras
        ]
        m = 1
        for mc in fan.max_cones:
            m = lcm(m, cone_index(fan, mc))
        for d in self.duals:
            for x in d.pcoords:
                m = lcm(m, x.denominator)
        self.modulus = m
        self.tau_weights = [sum(d.pcoords, Fraction(0)) for d in self.duals]
        if any(w <= 0 for w in self.tau_weights):
            raise ComputationError("twisted sector with nonpositive weight")
        self.y_ring = SeriesRing(
            self.r,
            m,
            self.order,
            names=tuple(f"y{a}" for a in range(self.r)),
        )
        names = tuple(f"q{a}" for a in range(self.r_prime)) + tuple(
            "t" + "".join(str(c) for c in fan.vectors[j]) for j in self.extras
        )
        self.qt_ring = SeriesRing(
            self.r_prime + len(self.extras),
            m,
            self.order,
            weights=(Fraction(1),) * self.r_prime + tuple(self.tau_weights),
            names=names,
        )
        # E matrix <p_{r'+b}, Dual_j>; always invertible for a legal basis
        nex = len(self.extras)
        if nex:
            e = [
                [self.duals[j].pcoords[self.r_prime + b] for j in range(nex)]
                for b in range(nex)
            ]
            if det(e) == 0:  # pragma: no cover - excluded by basis validity
                raise ComputationError(
                    "degenerate exponent matrix; rerun the basis search"
                )
        self._grid: dict[tuple[int, ...], GridPoint] | None = None
        self._anticones = anticones(fan)
        self._a_series: dict[int, TruncatedSeries] = {}
        self._relabel_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._log_corrections: list[TruncatedSeries] | None = None
        # per (q, tau) variable: powers of the forward image of one step
        self._powers: dict[int, list[TruncatedSeries]] = {}

    # -- grid and omega sets ------------------------------------------------

    def grid(self) -> dict[tuple[int, ...], GridPoint]:
        """Effective classes up to the truncation order, by scaled key.

        A class is effective exactly when, for some maximal cone, it pairs to
        a nonnegative integer with each of the r vectors outside the cone, so
        the grid is the union over the maximal cones of `_cone_keys`.  Every
        key found is classified again and must come out effective.
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
        gamma_basis on the outside columns gives the scaled key col_e of the
        class pairing to 1 with e and to 0 with the other outside vectors,
        and its weight w_e = sum(col_e).  The vectors k >= 0 with
        sum_e w_e k_e within the order are enumerated, and sum_e k_e col_e is
        yielded when it is integral and nonnegative.  The budget bounds the
        enumeration only when every w_e > 0; otherwise ComputationError.
        """
        outside = [e for e in range(self.fan.n_vectors) if e not in cone]
        if len(outside) != self.r:
            raise ComputationError(
                f"maximal cone {tuple(cone)} is not full-dimensional"
            )
        gamma = self.seq.gamma_basis
        block = [[gamma[a][e] for a in range(self.r)] for e in outside]
        # integer arithmetic throughout: block^-1 = m / den, so every key is
        # scaled by den
        m, den = integer_inverse(block)
        cols = [[row[idx] * self.modulus for row in m] for idx in range(self.r)]
        weights = [sum(col) for col in cols]
        if any(w <= 0 for w in weights):
            raise ComputationError(
                f"cone {tuple(cone)} has a nonpositive enumeration weight"
            )

        def walk(pos, acc, left):
            if pos == self.r:
                if all(x >= 0 and x % den == 0 for x in acc):
                    yield tuple(x // den for x in acc)
                return
            col, w = cols[pos], weights[pos]
            for k in range(left // w + 1):
                yield from walk(
                    pos + 1, [x + k * c for x, c in zip(acc, col)], left - k * w
                )

        yield from walk(0, [0] * self.r, self.y_ring._bound * den)

    def _classify(self, key) -> GridPoint:
        pcoords = tuple(Fraction(k, self.modulus) for k in key)
        pairings = self.seq.pairings_from_pcoords(pcoords)
        int_nonneg = frozenset(
            i for i, c in enumerate(pairings) if _is_nonneg_int(c)
        )
        effective = int_nonneg in self._anticones
        nu = nu_of_class(self.fan, pairings) if effective else ()
        return GridPoint(key, pcoords, pairings, effective, nu)

    def omega(self, j: int) -> list[GridPoint]:
        """Effective classes feeding the j-th correction series."""
        out = []
        origin = (0,) * self.r
        for key, gp in self.grid().items():
            if key == origin:
                continue
            cs = gp.pairings
            if j < self.fan.n_rays:
                if not _is_neg_int(cs[j]):
                    continue
                if any(
                    not _is_nonneg_int(cs[i])
                    for i in range(self.fan.n_vectors)
                    if i != j
                ):
                    continue
                if any(x != 0 for x in gp.nu):
                    continue
            else:
                if any(_is_neg_int(c) for c in cs):
                    continue
                if gp.nu != self.fan.vectors[j]:
                    continue
            out.append(gp)
        out.sort(key=lambda g: g.key)
        return out

    def a_series(self, j: int) -> TruncatedSeries:
        """Correction series attached to the j-th ray or extra vector."""
        if j in self._a_series:
            return self._a_series[j]
        terms: dict[tuple[int, ...], Fraction] = {}
        for gp in self.omega(j):
            cs = gp.pairings
            if j < self.fan.n_rays:
                cj = int(cs[j])
                coeff = Fraction((-1) ** (-cj - 1) * factorial(-cj - 1))
                for i in range(self.fan.n_vectors):
                    if i != j:
                        coeff /= factorial(int(cs[i]))
            else:
                coeff = Fraction(1)
                for c in cs:
                    coeff *= ratio_factor(c)
                    if coeff == 0:
                        break
            if coeff:
                terms[gp.key] = coeff
        series = self.y_ring.from_scaled_terms(terms)
        if j >= self.fan.n_rays:
            dual = self.duals[j - self.fan.n_rays]
            lead = self.y_ring.scale_exponents(dual.pcoords)
            # the leading term can only be checked when the truncation order
            # reaches the sector's weight at all
            if self.y_ring.in_bounds(lead) and series.scaled_coefficient(lead) != 1:
                raise ComputationError(
                    f"leading coefficient of the sector series at "
                    f"{self.fan.vectors[j]} is not 1"
                )
        self._a_series[j] = series
        return series

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

    def relabel_key(self, key) -> tuple[int, ...]:
        """Monomial relabel y^d -> q^(H2 part of d) tau^(extra pairings of d).

        Exact on every class the pipeline produces; weight preserving.
        Raises when a class carries fractional or negative sector pairings or
        a negative H2 part (outside the scope of the chart formulas).
        """
        cached = self._relabel_cache.get(key)
        if cached is not None:
            return cached
        gp = self.grid().get(key)
        if gp is None:
            gp = self._classify(key)
        mpart = []
        for j in self.extras:
            c = gp.pairings[j]
            if c.denominator != 1 or c < 0:
                raise ComputationError(
                    f"class with sector pairing {c} cannot be relabeled"
                )
            mpart.append(int(c))
        qpart = []
        for a in range(self.r_prime):
            v = gp.pcoords[a]
            for mj, dual in zip(mpart, self.duals):
                v -= mj * dual.pcoords[a]
            scaled = v * self.modulus
            if scaled.denominator != 1 or scaled < 0:
                raise ComputationError(
                    "chart carries a twisted sector with nonzero curve "
                    "charge; not supported"
                )
            qpart.append(int(scaled))
        for a in range(self.r_prime, self.r):
            v = gp.pcoords[a]
            for mj, dual in zip(mpart, self.duals):
                v -= mj * dual.pcoords[a]
            if v != 0:
                raise ComputationError(
                    "class decomposition failed; grading basis unusable"
                )
        target = tuple(qpart) + tuple(m * self.modulus for m in mpart)
        self._relabel_cache[key] = target
        return target

    def _image(self, tkey) -> TruncatedSeries:
        """Forward image in y of the (q, tau) monomial with scaled key tkey.

        A product of per-variable power lists: one step q_a^(1/M) maps to
        y_a^(1/M) exp(L_a/M), one step tau_j to A_j.
        """
        out = None
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
                    step = self.y_ring.monomial(root) * exp_series(
                        self.log_corrections()[v] * Fraction(1, self.modulus)
                    )
                else:
                    step = self.a_series(self.extras[v - self.r_prime])
                powers = self._powers[v] = [self.y_ring.one(), step]
            while len(powers) <= k:
                powers.append(powers[-1] * powers[1])
            out = powers[k] if out is None else out * powers[k]
        return self.y_ring.one() if out is None else out

    def _rank(self, key) -> tuple[int, int]:
        """(weight, total sector multiplicity) of a class, both scaled.

        The forward image of a relabeled monomial is that monomial plus terms
        of strictly larger rank: correction tails either raise the weight or
        keep it while adding sector factors (a same-weight tail with a single
        sector factor would pin two different box points to the same class).
        """
        target = self.relabel_key(key)
        tau_total = sum(target[self.r_prime :]) // self.modulus
        return self.y_ring.scaled_degree(key), tau_total

    def solve_against(self, f: TruncatedSeries) -> TruncatedSeries:
        """The unique X(q, tau) with X(forward(y)) = f(y) up to the order.

        Triangular in the rank filtration (weight, then sector count): each
        round relabels the residual's lowest level into X and subtracts its
        forward image from the residual in place, so the residual's lowest
        level strictly rises; there are finitely many levels.
        """
        if f.ring != self.y_ring:
            raise ComputationError("series is not in the chart y ring")
        residual = dict(f.scaled_terms())
        # rank of every key that has entered the residual, computed once
        ranks = {key: self._rank(key) for key in residual}
        x: dict[tuple[int, ...], Fraction] = {}
        last = (-1, -1)
        while residual:
            level = min(ranks[key] for key in residual)
            if level <= last:
                raise ComputationError(
                    "inversion is not contracting; malformed mirror data"
                )
            last = level
            peel = [(key, c) for key, c in residual.items() if ranks[key] == level]
            for key, coeff in peel:
                tkey = self.relabel_key(key)
                x[tkey] = coeff
                for k, v in self._image(tkey).scaled_terms().items():
                    w = residual.get(k, 0) - coeff * v
                    if w:
                        residual[k] = w
                        if k not in ranks:
                            ranks[k] = self._rank(k)
                    else:
                        del residual[k]
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
            mono = self.y_ring.monomial(dual.pcoords)
            acc = self.y_ring.zero()
            for i, c in zip(dual.carrier, dual.cone_coeffs):
                if i >= self.fan.n_rays:
                    raise ComputationError("carrier contains non-ray vectors")
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


@dataclass(frozen=True)
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
    q_classes: tuple[tuple[Fraction, ...], ...]

    def invariants(self):
        """Sorted (alpha pairing vector, insertions dict, value) triples."""
        out = []
        r_prime = len(self.q_classes)
        for exps, coeff in self.series.terms():
            alpha = [Fraction(0)] * self.parent.n_vectors
            for a in range(r_prime):
                if exps[a]:
                    for i, x in enumerate(self.q_classes[a]):
                        alpha[i] += exps[a] * x
            insertions = {}
            for jdx, pt in enumerate(self.tau_points):
                e = exps[r_prime + jdx]
                if e:
                    if e.denominator != 1:  # pragma: no cover
                        raise ComputationError("fractional insertion count")
                    insertions[pt] = int(e)
            out.append((tuple(alpha), insertions, coeff))
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

    alpha is the ambient pairing vector of the sphere part (all zeros for the
    basic class itself); insertions maps twisted-sector lattice points to
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
                "nonzero sphere class on a chart without curve classes"
            )
        try:
            sol = solve_rational(
                transpose([list(q) for q in dgf.q_classes]), list(alpha)
            )
        except AmbiguousSolutionError:  # pragma: no cover
            sol = None
        if sol is None or any(x < 0 for x in sol):
            raise UnsupportedInsertionsError(
                "sphere class is not an effective chart class"
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


@dataclass(frozen=True)
class PotentialEntry:
    z_monomial: tuple[int, ...]
    area: tuple[Fraction, ...]  # exponents in the ambient nef grading
    series: TruncatedSeries  # in ambient (q, tau-sector) variables
    tau_points: tuple[tuple[int, ...], ...]
    facet_vertices: tuple[int, ...]
    symbol: DiskClassSymbol


@dataclass(frozen=True)
class PotentialData:
    fan: StackyFan
    normalization_cone: tuple[int, ...]
    order: Fraction
    entries: tuple[PotentialEntry, ...]


def potential_symbols(parent: StackyFan) -> list[DiskClassSymbol]:
    """One symbol per basic class: every ray, every age-one box element."""
    return [sym for sym, _ in _basic_classes(parent)]


def _basic_classes(
    parent: StackyFan,
) -> list[tuple[DiskClassSymbol, BoxElement | None]]:
    """Each basic class with its box element (None for a ray)."""
    boxes = [b for b in box_elements(parent) if b.age == 1]
    return [(DiskClassSymbol.smooth(i), None) for i in range(parent.n_rays)] + [
        (DiskClassSymbol.orbi(b.point), b) for b in boxes
    ]


def potential_entry(
    parent: StackyFan,
    seq: FanSequenceData,
    cone_number: int,
    sym: DiskClassSymbol,
    order,
    pipeline_cache: dict | None = None,
    box: BoxElement | None = None,
) -> PotentialEntry:
    """One disk-potential term: generating function times the area monomial.

    box is the box element of an orbi class; it is looked up when omitted.
    """
    sigma0 = parent.max_cones[cone_number]
    dgf = disk_generating_function(
        parent, sym, order, pipeline_cache=pipeline_cache
    )
    if sym.kind == "ray":
        boundary = parent.stacky_vectors[sym.ray]
        vec = {sym.ray: Fraction(1)}
    else:
        boundary = tuple(sym.point)
        if box is None:
            box = next(b for b in box_elements(parent) if b.point == boundary)
        vec = dict(zip(box.carrier, box.coords))
    sigma_cols = transpose([parent.stacky_vectors[i] for i in sigma0])
    a_sol = solve_rational(sigma_cols, list(boundary))
    if a_sol is None:  # pragma: no cover - sigma0 full dimensional
        raise NormalizationConeError("normalization cone is degenerate")
    alpha = [Fraction(0)] * parent.n_vectors
    for i, c in vec.items():
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
    area; every other basic class's area is the nef pairing of its sphere
    difference class.  Each entry's series carries the ambient q variables
    and the tau variables of the class's own chart.
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
        potential_entry(parent, seq, cone_number, sym, order, cache, box)
        for sym, box in _basic_classes(parent)
    ]
    entries.sort(key=lambda e: e.z_monomial)
    return PotentialData(parent, sigma0, Fraction(order), tuple(entries))


def _relabel_to_parent(
    dgf: DiskGeneratingFunction, seq: FanSequenceData, area, order
) -> TruncatedSeries:
    """Express a chart series in ambient q variables and multiply in the area."""
    chart_ring = dgf.series.ring
    r_prime = seq.r_prime
    n_tau = len(dgf.tau_points)
    q_images = []
    for cls in dgf.q_classes:
        pc = seq.pcoords_from_ambient(cls)[:r_prime]
        if any(x < 0 for x in pc):
            raise ComputationError("pushed chart class is not effective upstairs")
        q_images.append(pc)
    modulus = lcm(
        chart_ring.modulus,
        *(x.denominator for x in area),
        *(
            chart_ring.modulus * x.denominator
            for pc in q_images
            for x in pc
        ),
    )
    chart_tau_weights = chart_ring.weights[len(dgf.q_classes) :]
    ring = SeriesRing(
        r_prime + n_tau,
        modulus,
        Fraction(order),
        weights=(Fraction(1),) * r_prime + tuple(chart_tau_weights),
        names=tuple(f"q{a}" for a in range(r_prime))
        + tuple("t" + "".join(str(c) for c in p) for p in dgf.tau_points),
    )

    def scaled(x: Fraction) -> int:
        v = x * modulus
        if v.denominator != 1:  # pragma: no cover - modulus covers all denoms
            raise ComputationError("exponent outside the ambient lattice")
        return int(v)

    out: dict[tuple[int, ...], Fraction] = {}
    area_scaled = [scaled(x) for x in area] + [0] * n_tau
    for exps, coeff in dgf.series.terms():
        key = list(area_scaled)
        for a, e in enumerate(exps[: len(dgf.q_classes)]):
            if e:
                for b in range(r_prime):
                    key[b] += scaled(e * q_images[a][b])
        for jdx in range(n_tau):
            key[r_prime + jdx] += scaled(exps[len(dgf.q_classes) + jdx])
        k = tuple(key)
        if ring.in_bounds(k):
            out[k] = out.get(k, 0) + coeff
    return ring.from_scaled_terms(out)


def tau_zero_slice(series: TruncatedSeries, n_leading: int) -> TruncatedSeries:
    """Set every variable after the first n_leading to zero."""
    kept = {
        k: v for k, v in series.scaled_terms().items() if not any(k[n_leading:])
    }
    return series.ring.from_scaled_terms(kept)
