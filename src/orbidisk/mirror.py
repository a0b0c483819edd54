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

The effective classes up to the order are enumerated cone by cone.  On a
maximal cone a class is fixed by its pairings k >= 0 with the vectors
outside it; it is carried as its key times the chart modulus M and its
divisor pairings times M^2, both linear in k and integral on every k in Z^r
(`_cones` gives the reason).  The classes with every pairing integral form
a sublattice of Z^r whose cosets are the cone's box elements.  Each ray or
extra vector j contributes a hypergeometric-type correction series A_j,
summed over its set omega_j, and omega_j lies in one coset: the zero coset
for a ray, the coset of Dual_j for a sector.  So each set is walked over its
own coset, on one cone holding its minimal cone, and only over the outside
vectors its classes can use: a pairing that no step raises only falls from
0, so a sector skips every vector lowering a pairing its classes keep
nonnegative, and a ray every vector lowering two such pairings.  The
Hermite basis of the sublattice splits k into free pairings, which every
coset takes in full, and pinned ones, which the coset fixes modulo the
basis; one walk over the free pairings serves all the cosets walked on the
cone over the same vectors, and each of its ends is completed from a table
of pinned parts per coset.  Every class is filed by construction: only its
signs and its effectiveness are checked, and no grid of all classes is
built (`grid` walks all of Z^r for the tests).  The map

    q_a = y_a exp(sum_j Q_ja A_j(y)),   tau_j = A_j(y)

is inverted implicitly: for a target series F(y) we find X(q, tau) with
X(forward(y)) = F(y) by peeling the residual level by level in the rank
(total degree, sector count), each peeled y^d becoming q^qpart tau^m.  The
residual is integer numerators on packed keys over one denominator, reduced
by their gcd after each level; a Fraction is made only for each coefficient
written into X.  The forward image of a peeled monomial, a product of one
power-list entry per variable, is never built: it splits into a head, the
product for all but its last variable (cached by step counts, so a longer
head costs one product), and that variable's entry, and the product loop
adds -coefficient x head x entry straight into the residual.  On a chart
with r' = 0 every variable is a sector, and the chart's lattice
automorphisms permute the sectors (`_symmetries`); each is used only once
the correction series confirm it.  A sector that is the image of one with a
power list takes that list with its keys permuted, and the generating
function of the image of a solved class is the solved one with its tau
keys permuted, with no product.  Generating functions of basic disk classes
and the full disk potential are assembled from those X's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, lcm, prod
from operator import add, attrgetter, itemgetter, mul

from ._record import frozen
from .lattice import (
    AmbiguousSolutionError,
    hermite_normal_form,
    identity_matrix,
    integer_inverse,
    solve_rational,
    transpose,
)
from .series import SeriesRing, TruncatedSeries, _add_product, _product, exp_series
from .stacky import (
    DiskClassSymbol,
    FanError,
    FanSequenceData,
    StackyFan,
    anticones,
    box_elements,
    _cone_inverse,
    _first_cone,
    cone_index,
    fan_sequence,
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


class _Cone:
    """The walk's set-up on one maximal cone: the vectors outside it and,
    for each, the step class pairing to 1 with it and to 0 with the other
    outside vectors, as its scaled key, its pairing numerators over M^2 and
    its scaled degree, all integers."""

    __slots__ = ("cone", "outside", "keys", "pairs", "weights")

    def __init__(self, cone, outside, keys, pairs, weights):
        self.cone, self.outside = cone, outside
        self.keys, self.pairs, self.weights = keys, pairs, weights

    def part(self, use) -> _Cone:
        """The walk over the outside vectors at the positions `use` only,
        the others' pairings held at 0."""
        if len(use) == len(self.keys):
            return self
        return _Cone(
            self.cone,
            tuple(self.outside[e] for e in use),
            [self.keys[e] for e in use],
            [self.pairs[e] for e in use],
            [self.weights[e] for e in use],
        )


def _sector_factor(p: int, m: int) -> tuple[int, int]:
    """(numerator, denominator) of one pairing's factor of a sector series
    coefficient: with cc = ceil(p / m), the collapsed factorial ratio
    m^cc / prod_{0<=k<cc} (p - km) if cc >= 0, else prod_{cc<=k<0} (p - km) /
    m^-cc (1/c! on integers c >= 0, 0 on c < 0)."""
    cc = -(-p // m)
    if cc >= 0:
        return m**cc, prod(p - k * m for k in range(cc))
    return prod(p - k * m for k in range(cc, 0)), m**-cc


def _sector_ratio(nums, m: int, memo: dict | None = None) -> tuple[int, int]:
    """(numerator, denominator) of the extra-vector series coefficient: the
    product of `_sector_factor` over the pairings p / m, each factor taken
    from memo (by p, for this m) once computed."""
    if memo is None:
        memo = {}
    num = den = 1
    for p in nums:
        f = memo.get(p)
        if f is None:
            f = memo[p] = _sector_factor(p, m)
        num *= f[0]
        den *= f[1]
    return num, den


def _trim(steps) -> tuple[int, ...]:
    """steps as a tuple without its trailing zeros."""
    n = len(steps)
    while n and not steps[n - 1]:
        n -= 1
    return tuple(steps[:n])


class ChartPipeline:
    """All mirror-map data of one Calabi-Yau chart at a fixed order."""

    def __init__(self, fan: StackyFan, order, seq: FanSequenceData | None = None):
        self.fan = fan
        self.seq = seq if seq is not None else fan_sequence(fan)
        self.order = Fraction(order)
        self.r = self.seq.r
        self.r_prime = self.seq.r_prime
        self.extras = list(range(fan.n_rays, fan.n_vectors))
        # per extra vector j, (carrier, y, d) with b_j = sum_k (y_k / d)
        # b_carrier[k] over its minimal cone, every y_k > 0, read off the
        # first cone holding b_j: Dual_j, b_j's relation there over d
        # (`_relation`), pairs to 1 with j and to -y_k / d with the carrier
        self.duals: list[tuple[tuple[int, ...], list[int], int]] = []
        for j in self.extras:
            mc, y, d = _first_cone(fan, fan.vectors[j])
            carrier = tuple(i for i, x in zip(mc, y) if x)
            self.duals.append((carrier, [x for x in y if x], d))
        # Dual_j has coefficients in (1/|G_tau|)Z, tau its carrier, and G_tau
        # is a subgroup of G_sigma for each maximal cone sigma over tau; the
        # kernel basis is saturated, so every grid class's nef pairings lie
        # in (1/M)Z
        self.modulus = m = lcm(*(cone_index(fan, mc) for mc in fan.max_cones))
        self._den = m * m
        # a class's pairing numerators over M^2: its key dotted with these
        # columns, the pairings of the curve classes gamma_a and of the dual
        # classes Dual_j scaled by M; d is the index of a maximal cone, so
        # it divides M
        coord_classes = [[x * m for x in g] for g in self.seq.gamma_basis]
        for j, (carrier, y, d) in zip(self.extras, self.duals):
            col = [0] * fan.n_vectors
            col[j] = m
            for i, x in zip(carrier, y):
                col[i] = -(m // d) * x
            coord_classes.append(col)
        self._gamma_cols = tuple(
            tuple(c[i] for c in coord_classes) for i in range(fan.n_vectors)
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
        self._cone_walks: list[_Cone] | None = None
        self._grid: dict[tuple[int, ...], GridPoint] | None = None
        self._omegas: list[list[GridPoint]] | None = None
        self._anticones = anticones(fan)
        self._a_series: dict[int, TruncatedSeries] = {}
        # `_sector_factor` by pairing numerator, shared by the sector series
        self._sector_factors: dict[int, tuple[int, int]] = {}
        self._log_corrections: list[TruncatedSeries] | None = None
        # packed views of forward images: per (q, tau) variable, the powers of
        # one step's image; per tuple of step counts, the head image
        self._one = self.y_ring.one()._packed_view()
        self._powers: dict[int, list] = {}
        self._heads: dict[tuple[int, ...], tuple] = {(): self._one}
        # per tau variable whose power list is another's image, (that
        # variable, the key order `_symmetries` gives); generating functions
        # by the index of their symbol's vector; the accepted symmetries
        self._power_images: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._generated: dict[int, TruncatedSeries] = {}
        self._sector_symmetries: list[tuple] | None = None

    # -- the coset walk and the omega sets -------------------------------------

    def _cones(self) -> list[_Cone]:
        """The walk's set-up on every maximal cone, computed once.

        On one cone the r outside pairings k_e fix the class: inverting the
        r x r block of pairing columns on the outside vectors gives the key
        col_e of the step class pairing to 1 with e and to 0 with the other
        outside vectors, and its total degree w_e = sum(col_e).  A class is
        carried as its key times the chart modulus M and its pairings times
        M^2, and both are linear in k.

        Both are integers on every k in Z^r.  A class with integral outside
        pairings pairs into (1/|G_sigma|)Z with the cone's vectors, as
        sum_i <D_i, d> b_i = 0, and |G_sigma| divides M.  Its sector part m_j
        is an outside pairing k_j (no extra vector lies in a maximal cone).
        Its curve part is <p_a, d> - sum_j <p_a, Dual_j> k_j, p_a the nef
        class dual to gamma_a: p_a is an integral combination of the
        divisor classes (the relation lattice is saturated), and Dual_j
        pairs into (1/|G_tau|)Z, G_tau a subgroup of G_sigma for its carrier
        tau, so both pairings lie in (1/M)Z.  A step class whose scaled key
        is not integral therefore raises ComputationError.  The budget
        bounds a walk only when every w_e > 0; otherwise, ComputationError.
        """
        if self._cone_walks is None:
            fan, r, sq, cols = self.fan, self.r, self._den, self._gamma_cols
            out = []
            for cone in fan.max_cones:
                outside = [e for e in range(fan.n_vectors) if e not in cone]
                # block = M x pairings and block^-1 = inv / den, so each
                # step's key is M^2 times a column of inv, over den
                inv, den = integer_inverse([list(cols[e]) for e in outside])
                keys = [[row[idx] * sq for row in inv] for idx in range(r)]
                if any(x % den for key in keys for x in key):
                    raise ComputationError(
                        f"cone {tuple(cone)} has a non-integral step class"
                    )
                keys = [[x // den for x in key] for key in keys]
                pairs = [[sum(map(mul, key, c)) for c in cols] for key in keys]
                weights = [sum(key) for key in keys]
                if any(w <= 0 for w in weights):
                    raise ComputationError(
                        f"cone {tuple(cone)} has a nonpositive enumeration weight"
                    )
                out.append(_Cone(tuple(cone), tuple(outside), keys, pairs, weights))
            self._cone_walks = out
        return self._cone_walks

    def _lattice(self, cone: _Cone) -> list[list[int]]:
        """Row Hermite basis, upper triangular with positive pivots, of the
        outside pairings k in Z^r of the cone's integral classes: those
        whose pairings with the cone's vectors are integral too (an outside
        pairing is k_e itself).  Its cosets in Z^r are the box elements.

        Each condition is a congruence a . k = 0 mod m on one pairing with a
        vector of the cone, m = M^2 divided by its gcd with a.
        """
        r = len(cone.keys)
        if not r:
            return []
        congruences = []
        for i in cone.cone:
            column = [p[i] for p in cone.pairs]
            g = gcd(self._den, *column)
            m = self._den // g
            congruences.append(([x // g % m for x in column], m))
        # rows (a^T | 1) and (diag(m) | 0): their lattice meets 0 on the
        # congruence columns exactly at (0, k) with every a . k = 0 mod m, so
        # the Hermite rows below the pivots on those columns are the basis
        n = len(congruences)
        a = [
            [row[e] for row, _ in congruences] + [int(i == e) for i in range(r)]
            for e in range(r)
        ] + [
            [m * (t == i) for t in range(n)] + [0] * r
            for i, (_, m) in enumerate(congruences)
        ]
        return [row[n:] for row in hermite_normal_form(a)[0][n:]]

    def _classes(self, cone: _Cone, basis, starts, files) -> None:
        """Calls files[s](scaled key, pairing numerators over M^2) on every
        class within the order whose outside pairings k on the cone are
        nonnegative and lie in the coset starts[s] + L, L the lattice with
        the Hermite row basis `basis` (`_lattice`, or the identity for all
        of Z^r).

        Up to the first pivot above 1, each row is e_i + u_i with u_i on the
        later, pinned coordinates (a Hermite basis has zeros above a pivot
        1), so these first, free coordinates take every value on every
        coset.  k = (f, d) lies in the coset of a start c exactly when its
        class -sum_i f_i u_i + d mod B, B the pinned block of the basis, is
        the class of c.  The walk runs once over the free coordinates, stepping
        the key and the n pairing numerators together with the class phi of
        f.  At each end it takes from a table, built once per call, the
        pinned parts d that complete f into each coset, by degree, while
        the degree stays within the order.  A class must have a nonnegative
        key, or ComputationError.
        """
        r, n, weights = self.r, self.fan.n_vectors, cone.weights
        keys, pairs, walked = cone.keys, cone.pairs, len(cone.keys)
        if not walked:
            for file in files:
                file((0,) * r, (0,) * n)  # the origin is the only class
            return
        budget = self.y_ring._bound
        pivots = [row[i] for i, row in enumerate(basis)]
        free = next((i for i, p in enumerate(pivots) if p > 1), walked)
        block = [row[free:] for row in basis[free:]]

        def index(x) -> int:
            """The class of pinned part x mod B, numbered by its reduced
            coordinates (each in [0, pivot)) in mixed radix."""
            out = 0
            for j, row in enumerate(block):
                t = x[j] // row[j]
                if t:
                    x = [a - t * b for a, b in zip(x, row)]
                out = out * row[j] + x[j]
            return out

        # per coordinate, where each class goes when the coordinate steps:
        # phi moves by -u_i, and a start's class less that of d by -e_j
        classes = list(product(*(range(p) for p in pivots[free:])))
        moves = [row[free:] for row in basis[:free]] + [
            [int(a == j) for a in range(walked - free)] for j in range(walked - free)
        ]
        shifts = [
            [index([a - b for a, b in zip(c, m)]) for c in classes] for m in moves
        ]
        # each start's class: its pinned part less sum_i f_i u_i
        need = []
        for start in starts:
            c = list(start[free:])
            for f, row in zip(start, basis[:free]):
                if f:
                    c = [a - f * b for a, b in zip(c, row[free:])]
            need.append(index(c))
        # the pinned parts d >= 0 within the order, each filed under the
        # class phi of the free parts it completes into each start's coset
        pinned = [([0] * r, [0] * n, 0, need)]
        for e in range(free, walked):
            shift = shifts[e]
            grown = []
            for key, nums, deg, owed in pinned:
                while deg <= budget:
                    grown.append((key, nums, deg, owed))
                    key = list(map(add, key, keys[e]))
                    nums = list(map(add, nums, pairs[e]))
                    deg += weights[e]
                    owed = [shift[v] for v in owed]
            pinned = grown
        tables: list[list] = [[] for _ in classes]
        for key, nums, deg, owed in pinned:
            for phi, file in zip(owed, files):
                tables[phi].append((deg, key, nums, file))
        for table in tables:
            table.sort(key=itemgetter(0))

        def walk(pos, key, nums, phi, left):
            if pos < free:
                dkey, dnums, w, shift = keys[pos], pairs[pos], weights[pos], shifts[pos]
                while left >= 0:
                    walk(pos + 1, key, nums, phi, left)
                    key = list(map(add, key, dkey))
                    nums = list(map(add, nums, dnums))
                    phi = shift[phi]
                    left -= w
                return
            for deg, dkey, dnums, file in tables[phi]:
                if deg > left:
                    return
                k = tuple(map(add, key, dkey))
                p = tuple(map(add, nums, dnums))
                if min(k) < 0:
                    raise ComputationError(
                        f"effective class {k} has a negative curve part"
                    )
                file(k, p)

        walk(0, [0] * r, [0] * n, 0, budget)

    def _member(self, key, nums) -> GridPoint:
        """The GridPoint of an enumerated class, which must be effective: its
        nonnegative integral pairings p / M^2 must contain an anticone."""
        den = self._den
        if frozenset(
            [i for i, p in enumerate(nums) if p >= 0 and not p % den]
        ) not in self._anticones:
            raise ComputationError(f"enumerated class {key} is not effective")
        return GridPoint(key, nums, True)

    def grid(self) -> dict[tuple[int, ...], GridPoint]:
        """Effective classes up to the truncation order, by scaled key.

        Every class of every cone's walk over all of Z^r (every coset at
        once), once, in walk order; each must be effective.  The series do
        not read it: they read the omega sets that `_omega_sets` walks coset
        by coset.
        """
        if self._grid is None:
            out: dict[tuple[int, ...], GridPoint] = {}

            def file(key, nums):
                if key not in out:
                    out[key] = self._member(key, nums)

            whole = identity_matrix(self.r)
            for cone in self._cones():
                self._classes(cone, whole, [[0] * self.r], [file])
            self._grid = out
        return self._grid

    def _targets(self) -> list[tuple[list[int], list[int]]]:
        """Per maximal cone, the rays and the sectors whose omega sets are
        walked on it.

        Each ray and each sector goes to the first maximal cone holding its
        minimal cone: every class of its set pairs to nonnegative integers
        with the vectors outside that cone, so the cone's walk finds the
        whole set.  A sector whose vector is not a box element (a cone
        coefficient >= 1) has no classes.
        """
        cones = [set(cone) for cone in self.fan.max_cones]
        rays: list[list[int]] = [[] for _ in cones]
        sectors: list[list[int]] = [[] for _ in cones]
        for j in range(self.fan.n_rays):
            at = next((c for c, cone in enumerate(cones) if j in cone), None)
            if at is not None:
                rays[at].append(j)
        for j, (carrier, y, d) in zip(self.extras, self.duals):
            if all(x < d for x in y):
                held = set(carrier)
                at = next(c for c, cone in enumerate(cones) if held <= cone)
                sectors[at].append(j)
        return list(zip(rays, sectors))

    def _omega_sets(self) -> list[list[GridPoint]]:
        """omega_j for every vector j, each sorted by key.

        On a maximal cone the classes with all pairings integral form a
        sublattice of the outside pairings Z^r (`_lattice`), whose cosets
        are the cone's box elements.  A sector j's set is the coset of
        Dual_j (pairings -c_i mod 1 with its carrier, integral elsewhere,
        so its box point is v_j), less the classes with a negative integral
        pairing; a ray j's set is the classes of the zero coset whose one
        negative pairing is the j-th.  Only the cosets with a target are
        walked, each on one cone (`_targets`) and over the outside vectors
        its classes can use (`_usable`); the cosets that use the same
        vectors share one walk.  Each class is checked effective as it
        joins its set.
        """
        if self._omegas is None:
            sets: list[list[GridPoint]] = [[] for _ in range(self.fan.n_vectors)]
            for cone, (rays, sectors) in zip(self._cones(), self._targets()):
                # (target, filer) of each coset walked here, by the outside
                # vectors its classes can use: target None for the zero
                # coset, j for the coset of Dual_j
                walks: dict[tuple[int, ...], list] = {}
                if rays:
                    use = self._usable(cone, cone.cone, 2)
                    filer = self._ray_filer(cone, rays, sets)
                    walks.setdefault(use, []).append((None, filer))
                for j in sectors:
                    carrier = self.duals[j - self.fan.n_rays][0]
                    signed = [i for i in cone.cone if i not in carrier]
                    filer = self._sector_filer(signed, sets[j])
                    walks.setdefault(self._usable(cone, signed, 1), []).append(
                        (j, filer)
                    )
                for use, targets in walks.items():
                    part = cone.part(use)
                    # Dual_j pairs to 1 with j and to 0 with the other
                    # outside vectors
                    starts = [[int(e == j) for e in part.outside] for j, _ in targets]
                    lattice = self._lattice(part)
                    self._classes(part, lattice, starts, [f for _, f in targets])
            for s in sets:
                s.sort(key=attrgetter("key"))
            self._omegas = sets
        return self._omegas

    def _ray_filer(self, cone: _Cone, rays, sets):
        """Files a class of the cone's zero coset into the set of the ray
        among `rays` that it pairs to a negative integer with, when it has
        one negative pairing (only the cone's own can be)."""
        member, inside = self._member, cone.cone

        def file(key, nums):
            negative = [i for i in inside if nums[i] < 0]
            if len(negative) == 1 and negative[0] in rays:
                sets[negative[0]].append(member(key, nums))

        return file

    def _sector_filer(self, signed, into: list):
        """Files a class of a sector's coset into `into` when its integral
        pairings, those with the cone's vectors off the sector's carrier
        (`signed`), are nonnegative."""
        member = self._member

        def file(key, nums):
            if not signed or all(nums[i] >= 0 for i in signed):
                into.append(member(key, nums))

        return file

    @staticmethod
    def _usable(cone: _Cone, watched, most: int) -> tuple[int, ...]:
        """Positions of the outside vectors whose steps lower fewer than
        `most` of the `watched` pairings that no step raises.

        Such a pairing is 0 at the start of every coset walked (0 for the
        zero coset, and Dual_j pairs to 0 with the vectors off its carrier)
        and can only fall, so a class that steps a vector lowering it keeps
        it negative: a sector's class must keep its watched pairings >= 0
        (most = 1), and a ray's class has only one negative pairing (most =
        2).  The classes that can join a set use only these vectors.
        """
        falling = [i for i in watched if all(p[i] <= 0 for p in cone.pairs)]
        return tuple(
            e
            for e, p in enumerate(cone.pairs)
            if sum(p[i] < 0 for i in falling) < most
        )

    def omega(self, j: int) -> list[GridPoint]:
        """Effective classes feeding the j-th correction series, by key."""
        return list(self._omega_sets()[j])

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
        for gp in self._omega_sets()[j]:
            ps = gp.nums
            if j < self.fan.n_rays:
                cj = ps[j] // m
                num = (-1) ** (-cj - 1) * factorial(-cj - 1)
                den = prod(factorial(p // m) for i, p in enumerate(ps) if i != j)
            else:
                num, den = _sector_ratio(ps, m, self._sector_factors)
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

    # -- sector symmetries -----------------------------------------------------

    def _candidates(self) -> list[tuple[int, ...]]:
        """perm of every lattice automorphism g of the fan other than the
        identity, perm[i] the index of g(v_i).

        g is fixed by the images of the first cone's rays: one candidate
        per maximal cone and ordering of its n rays, g = T m / d with (m, d)
        the first cone's inverse and T the images as columns.  It is kept
        when integral, when it maps the vectors onto themselves, rays to
        rays and maximal cones to maximal cones, and when it moves some
        vector; it permutes a generating set, so it is unimodular.
        """
        fan, n = self.fan, self.fan.dim
        m, d = _cone_inverse(fan, fan.max_cones[0])
        index = {v: i for i, v in enumerate(fan.vectors)}
        cones = {frozenset(c) for c in fan.max_cones}
        identity = tuple(range(fan.n_vectors))
        out: dict[tuple[int, ...], None] = {}
        for cone in fan.max_cones:
            for images in permutations(fan.cone_vectors(cone)):
                g = [
                    [sum(t[x] * row[y] for t, row in zip(images, m)) for y in range(n)]
                    for x in range(n)
                ]
                if any(c % d for row in g for c in row):
                    continue
                g = [[c // d for c in row] for row in g]
                perm = tuple(
                    index.get(tuple(sum(map(mul, row, v)) for row in g))
                    for v in fan.vectors
                )
                if (
                    None in perm
                    or perm == identity
                    or any(i >= fan.n_rays for i in perm[: fan.n_rays])
                    or {frozenset(perm[i] for i in c) for c in fan.max_cones} != cones
                ):
                    continue
                out[perm] = None
        return list(out)

    def _symmetries(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(back, src) for every candidate automorphism (`_candidates`) that
        the correction series confirm, on a chart with r' = 0; computed
        once.  back[perm[i]] = i over the vectors, and src orders a key's
        entries so that the entry of tau (or y) variable v moves to the
        variable of its sector's image: the moved key is key[src[w]] over w.

        With r' = 0 every variable is a sector, the window is the total
        degree, which moving keys keeps, and the forward map sends tau_v to
        A_j of v's vector j.  A candidate is accepted only when moving the
        keys of A_i gives A_perm(i) for every vector i.  Moving keys is then
        a ring automorphism s of both truncated rings that takes the
        forward image of every (q, tau) series X to the forward image of
        s X, so s X is the inverse of s f when X is that of f, and the power
        list of an image sector is s of the source's.  The target of a ray i
        is exp(-A_i), that of a sector y_j exp(-sum_k c_k A_k) over the
        minimal cone of v_j, and g maps that cone to the minimal cone of
        g(v_j) with the same coefficients: s takes each target to the
        target of its image.  A chart with r' > 0 gets none, as its q basis
        is not known to be equivariant; a failing correction series gets
        none either, and raises again where it is used.
        """
        if self._sector_symmetries is None:
            out = []
            if not self.r_prime:
                n_rays, n = self.fan.n_rays, self.fan.n_vectors
                try:
                    series = [self.a_series(i) for i in range(n)]
                except ComputationError:
                    series = None
                for perm in self._candidates() if series else ():
                    back = [0] * n
                    for i, p in enumerate(perm):
                        back[p] = i
                    src = tuple(back[j] - n_rays for j in self.extras)
                    if all(
                        self._moved_series(series[i], src) == series[perm[i]]
                        for i in range(n)
                    ):
                        out.append((tuple(back), src))
            self._sector_symmetries = out
        return self._sector_symmetries

    @staticmethod
    def _moved_series(series: TruncatedSeries, src) -> TruncatedSeries:
        """The series with every key's entries moved by src (`_symmetries`)."""
        return series.ring.from_scaled_terms(
            {tuple(key[a] for a in src): c for key, c in series.scaled_terms().items()}
        )

    def _moved_view(self, view, src) -> tuple[list[tuple[int, int, int]], int]:
        """The packed view with every key's entries moved by src, sorted as
        a product's view: the same triples for a series with moved keys."""
        ring = self.y_ring
        radix, unpack = ring._radix, ring._unpack
        terms, den = view
        moved = []
        for w, p, c in terms:
            key = unpack(p)
            q = w
            for a in src:
                q = q * radix + key[a]
            moved.append((w, q, c))
        moved.sort(key=itemgetter(1))
        return moved, den

    # -- the triangular inversion ----------------------------------------------

    def _power(self, v: int, k: int) -> tuple[list[tuple[int, int, int]], int]:
        """Packed view of the k-th power of the forward image of one step of
        (q, tau) variable v: q_a^(1/M) maps to y_a^(1/M) exp(L_a/M), tau_j to
        A_j.

        A tau variable whose sector is the image, under an accepted
        symmetry, of one that already has a power list takes each entry
        from that list by moving its keys, with no product; the symmetries
        are found when a second tau variable needs a list."""
        powers = self._powers.get(v)
        if powers is None:
            ring = self.y_ring
            if v < self.r_prime:
                root = [Fraction(int(a == v), self.modulus) for a in range(self.r)]
                step = ring.monomial(root) * exp_series(
                    self.log_corrections()[v] * Fraction(1, self.modulus)
                )
            else:
                step = self.a_series(self.extras[v - self.r_prime])
                if self._powers:
                    for _, src in self._symmetries():
                        if src[v] in self._powers:
                            self._power_images[v] = (src[v], src)
                            break
            powers = self._powers[v] = [self._one, step._packed_view()]
        image = self._power_images.get(v)
        while len(powers) <= k:
            if image is None:
                powers.append(_product(self.y_ring, powers[-1], powers[1]))
            else:
                u, src = image
                powers.append(self._moved_view(self._power(u, len(powers)), src))
        return powers[k]

    def _steps(self, tkey) -> tuple[int, ...]:
        """Per-variable step counts of the (q, tau) monomial with scaled key
        tkey, trailing zeros dropped: k steps q_a^(1/M) for each q, k/M
        factors tau_j for each tau."""
        steps = list(tkey)
        for v in range(self.r_prime, self.r):
            if steps[v] % self.modulus:
                raise ComputationError("fractional sector exponent")
            steps[v] //= self.modulus
        return _trim(steps)

    def _factors(self, steps: tuple[int, ...]) -> tuple[tuple, tuple]:
        """(head, last) packed views whose product is the forward image in y
        of the monomial with these step counts: the last is the power-list
        entry of its last variable, the head the product of the others."""
        if not steps:
            return self._one, self._one
        v = len(steps) - 1
        return self._head(_trim(steps[:v])), self._power(v, steps[v])

    def _head(self, steps: tuple[int, ...]) -> tuple[list[tuple[int, int, int]], int]:
        """Packed view of the forward image of the monomial with these step
        counts, cached by them; each head extends a shorter one by one
        product."""
        head = self._heads.get(steps)
        if head is None:
            rest, last = self._factors(steps)
            head = last if rest is self._one else _product(self.y_ring, rest, last)
            self._heads[steps] = head
        return head

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
        (q, tau) monomial of the same key, and subtracts its forward images,
        so the lowest level strictly rises; there are finitely many levels.
        No image is built: each is a cached head H/E times a power-list
        entry P/F (`_factors`), and each round scales the integer residual
        and its denominator by L, the lcm of the E F, adds -c (L/(E F)) H P
        of a peeled c straight into the residual with the product loop, then
        reduces by the gcd.
        """
        if f.ring != self.y_ring:
            raise ComputationError("series is not in the chart y ring")
        bound, unpack = self.y_ring._bound, self.y_ring._unpack
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
            peel = [(unpack(p), c) for p, c in residual.items() if ranks[p] == level]
            factors = [self._factors(self._steps(key)) for key, _ in peel]
            scale = lcm(*(head[1] * power[1] for head, power in factors))
            residual = {p: n * scale for p, n in residual.items()}
            for (key, c), ((head, dh), (power, dp)) in zip(peel, factors):
                x[key] = Fraction(c, den)
                _add_product(residual, bound, head, power, -c * (scale // (dh * dp)))
            den *= scale
            g = gcd(den, *residual.values())
            den //= g
            residual = {p: n // g for p, n in residual.items() if n}
            for p in residual:
                if p not in ranks:
                    ranks[p] = self._rank(p)
        return self.qt_ring.from_scaled_terms(x)

    # -- generating functions --------------------------------------------------

    def generating_function(self, chart_symbol: DiskClassSymbol) -> TruncatedSeries:
        """Disk generating function of a basic class, in chart (q, tau).

        Cached by the symbol's vector.  Once the chart has one, the function
        of a symbol whose vector is the image, under an accepted symmetry
        (`_symmetries`), of a solved one is that one with its keys moved."""
        if chart_symbol.kind == "ray":
            i0 = chart_symbol.ray
            if not 0 <= i0 < self.fan.n_rays:
                raise FanError(f"chart has no ray {i0}")
        else:
            point = tuple(chart_symbol.point)
            try:
                jdx = list(self.fan.extra_vectors).index(point)
            except ValueError:
                raise FanError(
                    f"{point} is not a twisted-sector vector of the chart"
                ) from None
            _, y, d = self.duals[jdx]
            if any(x >= d for x in y):
                raise ComputationError(
                    "sector coefficients outside [0,1); not a box element"
                )
            i0 = self.extras[jdx]
        g = self._generated.get(i0)
        if g is None:
            if self._generated:
                for back, src in self._symmetries():
                    solved = self._generated.get(back[i0])
                    if solved is not None:
                        g = self._moved_series(solved, src)
                        break
            if g is None:
                g = self.solve_against(self._target(i0))
            self._generated[i0] = g
        return g

    def _target(self, i0: int) -> TruncatedSeries:
        """The series in y whose inverse is the generating function of the
        basic class of vector i0: exp(-A_i0) for a ray, y_j exp(-sum_k c_k
        A_k) over the minimal cone of sector j's vector."""
        if i0 < self.fan.n_rays:
            return exp_series(-self.a_series(i0))
        jdx = i0 - self.fan.n_rays
        carrier, y, d = self.duals[jdx]
        mono = self.y_ring.variable(self.r_prime + jdx)
        acc = self.y_ring.zero()
        for i, x in zip(carrier, y):
            acc = acc + self.a_series(i) * Fraction(x, d)
        return mono * exp_series(-acc)

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
        added up in integer numerators over the chart modulus M, with one
        Fraction per distinct numerator."""
        out = []
        m = self.series.ring.modulus
        r_prime = len(self.q_classes)
        terms = self.series.scaled_terms()
        fractions: dict[int, Fraction] = {}

        def fraction(x: int) -> Fraction:
            f = fractions.get(x)
            if f is None:
                f = fractions[x] = Fraction(x, m)
            return f

        for key in sorted(terms, key=lambda k: (sum(k), k)):
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
            out.append((tuple(map(fraction, nums)), insertions, terms[key]))
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
        parent,
        symbol,
        sub.facet.vertices,
        Fraction(order),
        g,
        tuple(sub.fan.extra_vectors),
        q_classes,
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
    Integer multiplicities and an all-zero alpha are read without a
    Fraction.
    """
    tau_exps = [0] * len(dgf.tau_points)
    for pt, mult in insertions.items():
        pt = tuple(pt)
        if pt not in dgf.tau_points:
            raise UnsupportedInsertionsError(
                f"sector {pt} is not carried by the chart at facet "
                f"{dgf.facet_vertices}"
            )
        tau_exps[dgf.tau_points.index(pt)] = mult
    alpha = tuple(alpha)
    r_prime = len(dgf.q_classes)
    if any(alpha):
        if r_prime == 0:
            raise UnsupportedInsertionsError(
                "nonzero curve class on a chart without curve classes"
            )
        try:
            sol = solve_rational(
                transpose([list(q) for q in dgf.q_classes]),
                [Fraction(x) for x in alpha],
            )
        except AmbiguousSolutionError:  # pragma: no cover
            sol = None
        if sol is None or any(x < 0 for x in sol):
            raise UnsupportedInsertionsError(
                "curve class is not an effective chart class"
            )
        q_exps = list(sol)
    else:
        q_exps = [0] * r_prime
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
    """One disk-potential term: generating function times the area monomial
    (`_area`)."""
    sigma0 = parent.max_cones[cone_number]
    dgf = disk_generating_function(
        parent, sym, order, pipeline_cache=pipeline_cache
    )
    boundary = (
        parent.stacky_vectors[sym.ray] if sym.kind == "ray" else tuple(sym.point)
    )
    area = _area(parent, seq, sigma0, boundary)
    series = _relabel_to_parent(dgf, seq, area, order)
    return PotentialEntry(
        tuple(boundary),
        area,
        series,
        dgf.tau_points,
        dgf.facet_vertices,
        sym,
    )


def _area(parent: StackyFan, seq: FanSequenceData, sigma0, boundary) -> tuple:
    """The area exponents of a basic class with boundary vector b: the nef
    pairings of b's coordinates on its minimal cone (those on the first
    cone holding it) minus those on sigma0, or NormalizationConeError when
    one is negative.

    With y = m @ b on the first cone and y0 = m0 @ b on sigma0, over their
    inverses' d and d0, the difference is an integer vector over L = lcm(d,
    d0), whose pairings are read without a Fraction (`_scaled_pcoords`).
    """
    cone, y, d = _first_cone(parent, boundary)
    m0, d0 = _cone_inverse(parent, sigma0)
    scale = lcm(d, d0)
    nums = [0] * parent.n_vectors
    for i, c in zip(cone, y):
        nums[i] += c * (scale // d)
    for i, row in zip(sigma0, m0):
        nums[i] -= sum(map(mul, row, boundary)) * (scale // d0)
    coords, den = seq._scaled_pcoords(nums, scale)
    area = tuple(Fraction(c, den) for c in coords[: seq.r_prime])
    if any(x < 0 for x in area):
        raise NormalizationConeError(
            f"class at {tuple(boundary)} has negative area for this cone"
        )
    return area


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
        pc, den = seq._scaled_pcoords(cls, 1)
        pc = pc[:r_prime]
        if any(x < 0 or x % den for x in pc):
            raise ComputationError("pushed chart class is not effective upstairs")
        images.append([x // den for x in pc])
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
