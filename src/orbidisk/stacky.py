"""Stacky fans and their combinatorics.

A stacky fan is a simplicial fan whose maximal cones each have n rays, with
chosen integer generators b_i of its rays (possibly non-primitive),
optionally extended by extra lattice vectors inside the support.  This module derives everything the disk-counting
pipeline needs from that data: the relation lattice and divisor classes, box
elements and ages, anticones, Gorenstein and nef tests, wall curve classes,
fan polytope faces, and the dual classes attached to the extra vectors.

The only searched data is the nef block of `fan_sequence`: r' nef classes
that complete the saturated span of the extra divisor classes to a basis of
the class lattice, found by a saturation-pruned depth-first search started
from one unimodular transform of that span.  The curve classes dual to the
nef block pair to zero with every extra divisor class by construction.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from ._record import frozen
from .lattice import (
    _determinant,
    _eliminate,
    cone_contains,
    hermite_normal_form,
    identity_matrix,
    integer_inverse,
    integer_kernel,
    primitive_vector,
    rank,
    transpose,
)


class FanError(ValueError):
    pass


class NotCompleteError(FanError):
    pass


class NoValidBasisError(FanError):
    """Automatic search for the nef block failed; supply basis_p."""


@frozen
class StackyFan:
    """Combinatorial input: lattice rank, ray generators, extras, cones."""

    dim: int
    stacky_vectors: tuple[tuple[int, ...], ...]
    extra_vectors: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(dim, stacky_vectors, max_cones, extra_vectors=()) -> "StackyFan":
        return StackyFan(
            dim,
            tuple(tuple(int(x) for x in v) for v in stacky_vectors),
            tuple(tuple(int(x) for x in v) for v in extra_vectors),
            tuple(tuple(sorted(int(i) for i in c)) for c in max_cones),
        )

    @property
    def n_rays(self) -> int:
        return len(self.stacky_vectors)

    @property
    def n_vectors(self) -> int:
        return len(self.stacky_vectors) + len(self.extra_vectors)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return self.stacky_vectors + self.extra_vectors

    def cone_vectors(self, cone) -> list[tuple[int, ...]]:
        return [self.stacky_vectors[i] for i in cone]

    def faces(self) -> set[frozenset[int]]:
        """All cones of the fan as ray-index sets (simplicial: all subsets)."""
        out: set[frozenset[int]] = set()
        for mc in self.max_cones:
            for k in range(len(mc) + 1):
                for sub in combinations(mc, k):
                    out.add(frozenset(sub))
        return out


@frozen
class BoxElement:
    """Lattice point nu = sum t_k b_{i_k} with t_k in [0,1) on its carrier."""

    point: tuple[int, ...]
    carrier: tuple[int, ...]
    coords: tuple[Fraction, ...]
    age: Fraction


@frozen
class DiskClassSymbol:
    """A basic disk class.

    kind is "ray" (smooth disk through the ray of that index) or "box"
    (orbi disk through the twisted sector at the given lattice point).
    """

    kind: str
    ray: int | None = None
    point: tuple[int, ...] | None = None

    @staticmethod
    def smooth(ray: int) -> "DiskClassSymbol":
        return DiskClassSymbol("ray", ray, None)

    @staticmethod
    def orbi(point) -> "DiskClassSymbol":
        return DiskClassSymbol("box", None, tuple(point))


@frozen
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]


def validate(fan: StackyFan) -> ValidationReport:
    """Check the stacky fan axioms; collects every failure found.

    Every maximal cone lists exactly n rays.  A cone is simplicial exactly
    when it has an integer inverse (`_cone_inverses`, cached for the solve),
    and an extra vector lies in a simplicial cone exactly when its
    coordinates there are >= 0.  The vectors generate Z^n (the fan map is
    onto) exactly when their row Hermite normal form starts with the n x n
    identity.
    """
    issues: list[str] = []
    n = fan.dim
    for v in fan.vectors:
        if len(v) != n:
            issues.append(f"vector {v} does not have {n} coordinates")
            return ValidationReport(False, tuple(issues))
    cones = fan.max_cones
    missing = [any(i < 0 or i >= fan.n_rays for i in c) for c in cones]
    stop = next(
        (k for k, c in enumerate(cones) if missing[k] or len(c) < n), len(cones)
    )
    # only the cones before one with a missing ray or too few rays are checked
    checked = fan if stop == len(cones) else StackyFan(
        n, fan.stacky_vectors, (), cones[:stop]
    )
    inverses = _cone_inverses(checked)
    issues += [
        f"cone {c} is not simplicial (generators dependent)"
        for c in cones[:stop]
        if c not in inverses
    ]
    if stop < len(cones):
        why = "references a missing ray" if missing[stop] else "is not full-dimensional"
        issues.append(f"cone {cones[stop]} {why}")
        return ValidationReport(False, tuple(issues))
    for a, b in combinations(range(len(fan.max_cones)), 2):
        ca, cb = fan.max_cones[a], fan.max_cones[b]
        if set(ca) <= set(cb) or set(cb) <= set(ca):
            issues.append(f"cone {ca} and cone {cb} are nested; not maximal")
            continue
        if not _meet_in_common_face(fan, ca, cb):
            issues.append(f"cones {ca} and {cb} do not intersect in a common face")
    used = {i for c in fan.max_cones for i in c}
    if used != set(range(fan.n_rays)):
        issues.append("some rays belong to no maximal cone")
    for v in fan.extra_vectors:
        if not any(
            _cone_scaled_coordinates(inverses[c], v) is not None
            if c in inverses
            else cone_contains(fan.cone_vectors(c), v)[0]
            for c in cones
        ):
            issues.append(f"extra vector {v} lies outside the support")
    extras = fan.extra_vectors
    issues += [
        f"extra vector {v} is listed more than once"
        for v in dict.fromkeys(v for k, v in enumerate(extras) if v in extras[:k])
    ]
    if fan.n_vectors and hermite_normal_form(fan.vectors)[0][:n] != identity_matrix(n):
        issues.append("vectors do not generate the lattice (fan map not onto)")
    return ValidationReport(not issues, tuple(issues))


def _meet_in_common_face(fan: StackyFan, ca, cb) -> bool:
    """cone(ca) ∩ cone(cb) == cone(ca ∩ cb), by exact non-membership.

    For simplicial cones any x in cone(ca) has unique coordinates, so a bad
    intersection point is one equal to a cone(cb) point while its coordinate
    mass on ca \\ cb is positive; by homogeneity that mass can be scaled to 1.
    So one exists exactly when (0, ..., 0, 1) lies in the cone of the
    (b_i, [i not in cb]) for i in ca and the (-b_j, 0) for j in cb.
    """
    b = fan.stacky_vectors
    gens = [[*b[i], int(i not in cb)] for i in ca]
    gens += [[-x for x in b[j]] + [0] for j in cb]
    return not cone_contains(gens, [0] * fan.dim + [1])[0]


def anticones(fan: StackyFan) -> set[frozenset[int]]:
    """Index sets whose complement spans a cone of the fan."""
    full = frozenset(range(fan.n_vectors))
    return {full - face for face in fan.faces()}


def minimal_anticones(fan: StackyFan) -> list[frozenset[int]]:
    full = frozenset(range(fan.n_vectors))
    return [full - frozenset(c) for c in fan.max_cones]


def cone_index(fan: StackyFan, cone) -> int:
    """Order of the local group G_sigma of a maximal cone: the index of the
    lattice spanned by its n generators, |det| of their matrix, the d of
    its integer inverse.  FanError for a dependent or non-maximal cone."""
    return _cone_inverse(fan, cone)[1]


@lru_cache(maxsize=128)
def _cone_inverses(fan: StackyFan) -> dict[tuple[int, ...], tuple]:
    """Maximal cone -> (m, d), m @ x = d * t whenever x = sum_k t_k b_cone[k]:
    the integer inverse of the cone's n generators as columns.

    A cone with dependent generators gets no entry; a cone of fewer than n
    rays raises FanError.  Cached: the inverses are pure and the returned
    data immutable.
    """
    table = {}
    for mc in fan.max_cones:
        if len(mc) < fan.dim:
            raise FanError(f"cone {mc} is not full-dimensional")
        try:
            m, d = integer_inverse(transpose(fan.cone_vectors(mc)))
        except ValueError:
            continue
        table[mc] = (tuple(map(tuple, m)), d)
    return table


def _cone_inverse(fan: StackyFan, cone) -> tuple:
    """The integer inverse (m, d) of a maximal cone (`_cone_inverses`);
    FanError for a dependent or non-maximal cone."""
    cone = tuple(cone)
    inverse = _cone_inverses(fan).get(cone)
    if inverse is None:
        why = (
            "is not simplicial (generators dependent)"
            if cone in fan.max_cones
            else "is not a maximal cone"
        )
        raise FanError(f"cone {cone} {why}")
    return inverse


def _cone_scaled_coordinates(inverse, x) -> list[int] | None:
    """y = m @ x, d times the coordinates of x on a maximal cone, given its
    inverse (m, d), when x lies in the cone (y >= 0); otherwise None."""
    y = [sum(map(mul, row, x)) for row in inverse[0]]
    return y if all(v >= 0 for v in y) else None


def cone_coordinates(fan: StackyFan, cone, x) -> tuple[Fraction, ...]:
    """The coordinates t of x = sum_k t_k b_cone[k] on a maximal cone (a
    tuple of fan.max_cones), of any sign.  FanError when the cone's
    generators are dependent."""
    m, d = _cone_inverse(fan, cone)
    return tuple(Fraction(sum(map(mul, row, x)), d) for row in m)


def _first_cone(fan: StackyFan, b) -> tuple[tuple[int, ...], list[int], int]:
    """(cone, y, d): the first (simplicial) maximal cone holding b, with y =
    m @ b >= 0 over its inverse (m, d), d times the coordinates of b on it.
    FanError when b lies outside the support."""
    for mc, inverse in _cone_inverses(fan).items():
        y = _cone_scaled_coordinates(inverse, b)
        if y is not None:
            return mc, y, inverse[1]
    raise FanError(f"vector {tuple(b)} lies outside the support")


def box_elements(fan: StackyFan) -> list[BoxElement]:
    """All box elements, tagged with minimal carrier and age.

    Includes the trivial element (the origin, empty carrier, age 0).  The
    count of elements carried inside each maximal cone equals the order of
    its local group.
    """
    found: dict[tuple[int, ...], BoxElement] = {}
    origin = tuple([0] * fan.dim)
    found[origin] = BoxElement(origin, (), (), Fraction(0))
    for mc, (m, d) in _cone_inverses(fan).items():
        vecs = fan.cone_vectors(mc)
        lo = [sum(min(0, v[j]) for v in vecs) for j in range(fan.dim)]
        hi = [sum(max(0, v[j]) for v in vecs) for j in range(fan.dim)]
        for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            # y = d * (the cone coordinates of pt); inside the box is
            # 0 <= y < d
            y = []
            for row in m:
                v = sum(map(mul, row, pt))
                if v < 0 or v >= d:
                    break
                y.append(v)
            else:
                if pt in found:
                    continue
                t = [Fraction(v, d) for v in y]
                carrier = tuple(i for i, x in zip(mc, t) if x != 0)
                coords = tuple(x for x in t if x != 0)
                found[pt] = BoxElement(pt, carrier, coords, sum(coords, Fraction(0)))
    return sorted(found.values(), key=lambda b: (b.age, b.point))


@frozen
class GorensteinResult:
    ok: bool
    support_vectors: tuple[tuple[int, ...] | None, ...]
    witness_cone: tuple[int, ...] | None


def gorenstein_check(fan: StackyFan) -> GorensteinResult:
    """Canonical class Cartier test: each maximal cone needs an integral
    support vector pairing to 1 with all its stacky generators.

    With the cone's inverse (m, d), that vector is the unique rational u
    with u @ B = 1, B the generator columns: u = (column sums of m) / d.
    """
    supports = []
    witness = None
    for mc in fan.max_cones:
        m, d = _cone_inverse(fan, mc)
        sums = [sum(col) for col in zip(*m)]
        u = None if any(s % d for s in sums) else tuple(s // d for s in sums)
        supports.append(u)
        if u is None and witness is None:
            witness = mc
    return GorensteinResult(witness is None, tuple(supports), witness)


@frozen
class WallClass:
    wall: tuple[int, ...]
    pairings: tuple[int, ...]  # with every divisor class, length m'
    c1: int


def wall_curve_classes(fan: StackyFan) -> list[WallClass]:
    """Curve classes of the torus-invariant curves dual to interior walls.

    A wall is an (n-1)-dimensional cone shared by exactly two maximal cones;
    its curve class is the unique relation among the wall rays and the two
    opposite rays, normalized to a primitive integer pairing vector positive
    on the opposite rays.  Boundary walls (one owner) carry no compact curve
    and are skipped.
    """
    if fan.dim < 2:
        return []
    out = []
    owners = _wall_owners(fan)
    for wall, mcs in sorted(owners.items(), key=lambda kv: sorted(kv[0])):
        if len(mcs) == 1:
            continue
        if len(mcs) > 2:
            raise FanError(f"wall {sorted(wall)} is shared by {len(mcs)} cones")
        (ca, cb) = mcs
        a = next(i for i in ca if i not in wall)
        b = next(i for i in cb if i not in wall)
        # b_a = sum_i t_i b_i on cb gives the relation e_a - sum_i t_i e_i
        t = dict(zip(cb, cone_coordinates(fan, cb, fan.stacky_vectors[a])))
        if t[b] >= 0:
            raise FanError(f"cones across wall {sorted(wall)} are not opposite")
        vec = [Fraction(i == a) - t.get(i, 0) for i in range(fan.n_vectors)]
        prim = primitive_vector(vec)
        if prim[a] < 0:
            prim = tuple(-x for x in prim)
        c1 = sum(prim[i] for i in range(fan.n_rays))
        out.append(WallClass(tuple(sorted(wall)), prim, c1))
    return out


def is_complete(fan: StackyFan) -> bool:
    """Support covers the whole space: all maximal cones are full-dimensional
    and every wall is interior (shared by two cones)."""
    n = fan.dim
    if not fan.max_cones or any(len(mc) != n for mc in fan.max_cones):
        return False
    if n == 1:
        dirs = {1 if fan.stacky_vectors[mc[0]][0] > 0 else -1 for mc in fan.max_cones}
        return dirs == {1, -1}
    return all(len(mcs) == 2 for mcs in _wall_owners(fan).values())


def _wall_owners(fan: StackyFan) -> dict[frozenset[int], list[tuple[int, ...]]]:
    """Each (n-1)-face of a full-dimensional maximal cone -> the maximal
    cones that contain it."""
    n = fan.dim
    owners: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for mc in fan.max_cones:
        if len(mc) == n:
            for facet in combinations(mc, n - 1):
                owners.setdefault(frozenset(facet), []).append(mc)
    return owners


@frozen
class SemiFanoResult:
    ok: bool
    witness_wall: WallClass | None
    walls: tuple[WallClass, ...]


def semifano_check(fan: StackyFan) -> SemiFanoResult:
    """Nef anticanonical test: c1 pairs >= 0 with every wall curve class."""
    if not is_complete(fan):
        raise NotCompleteError("semi-Fano test needs a complete fan")
    walls = tuple(wall_curve_classes(fan))
    for w in walls:
        if w.c1 < 0:
            return SemiFanoResult(False, w, walls)
    return SemiFanoResult(True, None, walls)


# ---------------------------------------------------------------------------
# fan polytope
# ---------------------------------------------------------------------------


@frozen
class PolytopeFacet:
    vertices: tuple[int, ...]  # indices of stacky vectors lying on the facet
    normal: tuple[int, ...]
    height: int  # <normal, x> == height on the facet, < height inside


@lru_cache(maxsize=128)
def fan_polytope_facets(fan: StackyFan) -> tuple[PolytopeFacet, ...]:
    """Facets of the convex hull of the stacky vectors (origin interior).

    The hyperplane through n vectors has the normal whose j-th entry is the
    signed maximal minor of their n - 1 differences with column j deleted;
    all minors vanish exactly when the n vectors are affinely dependent.
    Cached: the enumeration is pure and the returned data immutable.
    """
    if not is_complete(fan):
        raise NotCompleteError("fan polytope needs a complete fan")
    pts = fan.stacky_vectors
    n = fan.dim
    facets: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        rows = [[x - y for x, y in zip(pts[i], base)] for i in sub[1:]]
        u = [
            (-1) ** j * _determinant([row[:j] + row[j + 1:] for row in rows])
            for j in range(n)
        ]
        g = gcd(*u)
        if g == 0:
            continue
        u = [x // g for x in u]
        c = sum(x * y for x, y in zip(u, base))
        if c < 0:
            u, c = [-x for x in u], -c
        if c == 0:
            continue
        vals = [sum(x * y for x, y in zip(u, p)) for p in pts]
        if any(v > c for v in vals):
            continue
        on = tuple(i for i, v in enumerate(vals) if v == c)
        facets[(tuple(u), c)] = on
    out = [
        PolytopeFacet(v, key[0], key[1]) for key, v in facets.items()
    ]
    out.sort(key=lambda f: f.vertices)
    return tuple(out)


def facets_containing(fan: StackyFan, point) -> tuple[PolytopeFacet, ...]:
    pt = list(point)
    return tuple(
        f
        for f in fan_polytope_facets(fan)
        if sum(x * y for x, y in zip(f.normal, pt)) == f.height
    )


# ---------------------------------------------------------------------------
# fan sequence
# ---------------------------------------------------------------------------


@frozen
class FanSequenceData:
    """Relation lattice of the fan map and the chosen nef block.

    kernel_basis rows span the saturated relation lattice L inside Z^{m'}.
    divisors[i] is the i-th divisor class in coordinates dual to that basis.
    basis_p rows are the nef block p_1..p_r': nef classes completing the
    saturated span of the extra divisor classes to a basis of the class
    lattice.  gamma_basis rows are the curve classes gamma_a pairing to
    delta_ab with p_b and to 0 with every extra divisor class, written as
    ambient integer vectors (their coordinates are exactly their pairings
    with the divisor classes); q_matrix[i][a] = gamma_a[i].
    """

    fan: StackyFan
    kernel_basis: tuple[tuple[int, ...], ...]
    divisors: tuple[tuple[int, ...], ...]
    basis_p: tuple[tuple[int, ...], ...]
    q_matrix: tuple[tuple[int, ...], ...]
    gamma_basis: tuple[tuple[int, ...], ...]
    r: int
    r_prime: int

    def pcoords_from_ambient(self, ambient) -> tuple[Fraction, ...]:
        """Coordinates <p_a, d> of an ambient relation vector d.

        d is a relation when sum_i d_i v_i = 0.  Each p_a is one fixed
        rational combination of r independent divisor classes D_i, so <p_a, d>
        is the same combination of their pairings d_i (`_pcoords_map`).
        """
        d = [Fraction(x) for x in ambient]
        scale = lcm(*(x.denominator for x in d))
        nums = [x.numerator * (scale // x.denominator) for x in d]  # d * scale
        coords, den = self._scaled_pcoords(nums, scale)
        return tuple(Fraction(c, den) for c in coords)

    def _scaled_pcoords(self, nums, scale: int) -> tuple[list[int], int]:
        """(c, den) with <p_a, d> = c[a] / den for the ambient relation d =
        nums / scale, nums integers and scale > 0: `pcoords_from_ambient`
        without a Fraction.  FanError when d is not a relation."""
        if len(nums) != self.fan.n_vectors or any(
            sum(map(mul, nums, col)) for col in zip(*self.fan.vectors)
        ):
            raise FanError("vector is not a relation of the fan map")
        rows, t, den = self._pcoords_map
        picked = [nums[i] for i in rows]
        return [sum(map(mul, row, picked)) for row in t], den * scale

    @cached_property
    def _pcoords_map(self) -> tuple[list[int], list[list[int]], int]:
        """(rows, t, den) with p_a = sum_c t[a][c] D_rows[c] / den: the
        ambient lifts of the nef rows (`_class_lift`)."""
        rows, inv, den = _class_lift(self.divisors, self.fan.n_vectors)
        t = [[sum(map(mul, p, col)) for col in zip(*inv)] for p in self.basis_p]
        return rows, t, den


def _class_lift(divisors, n_vectors: int) -> tuple[list[int], list[list[int]], int]:
    """(rows, inv, den): the first r independent divisor classes, the pivots
    of one elimination of their columns, and the integer inverse (inv, den)
    of their matrix.  A class x is then the image sum_c w_c D_rows[c] of
    the ambient divisor w = (x @ inv) / den, supported on those rows."""
    rows, _ = _eliminate(transpose(divisors), n_vectors)
    inv, den = integer_inverse([divisors[i] for i in rows])
    return rows, inv, den


def _kahler_test(fan: StackyFan):
    """Membership of an ambient divisor w (any integer vector over the m'
    vectors) in the closed extended Kahler cone: the intersection, over
    the maximal cones sigma, of the cones spanned by the divisor classes
    D_j of sigma's anticone, j not in sigma.  Returns inside(w).

    Each maximal cone's n vectors are a basis of Q^n (`_cone_inverse`,
    which raises FanError otherwise).  With its inverse (m, d) and y = m @
    b_j for a vector j outside sigma, d b_j = sum_k y_k b_sigma[k], so the
    ambient vector l = d e_j - sum_k y_k e_sigma[k] is a relation.  A
    relation pairs to zero with every principal divisor (<u, b_i>)_i, so
    <w, l> = d w_j - sum_k y_k w_sigma[k] takes one value on every ambient
    lift w of a class.  The r relations of sigma pair to d on their own
    outside vector and to 0 on the others, so on a class sum_j c_j D_j over
    the anticone's basis they read d c_j: the class lies in the anticone's
    cone exactly when all r pair >= 0 with w.  These inequalities are, up
    to the positive factor d, the rows of the inverse of the anticone's
    classes; the rows of all cones are pooled, each made primitive and
    kept once.
    """
    rows: dict[tuple[int, ...], None] = {}
    for mc in fan.max_cones:
        m, d = _cone_inverse(fan, mc)
        for j, b in enumerate(fan.vectors):
            if j not in mc:
                row = [0] * fan.n_vectors
                row[j] = d
                for i, x in zip(mc, m):
                    row[i] = -sum(map(mul, x, b))
                g = gcd(*row)  # > 0, as row[j] = d
                rows[tuple(x // g for x in row)] = None
    pooled = list(rows)

    def inside(w) -> bool:
        return all(sum(map(mul, row, w)) >= 0 for row in pooled)

    return inside


def fan_sequence(fan: StackyFan, basis_p=None) -> FanSequenceData:
    """Relation lattice, divisor classes, and the nef block.

    The nef block p_1..p_r' lies in the closure of the extended Kahler cone
    and completes the saturated span of the extra vectors' divisor classes
    to an integral basis of the divisor-class lattice.  A supplied block is
    validated; otherwise a bounded search runs (raising NoValidBasisError
    when exhausted), and a chart with r' = 0 needs none.  Results are
    cached: the computation is pure and the returned data immutable.
    """
    if basis_p is not None:
        basis_p = tuple(tuple(int(x) for x in row) for row in basis_p)
    return _fan_sequence(fan, basis_p)


@lru_cache(maxsize=128)
def _fan_sequence(fan: StackyFan, basis_p) -> FanSequenceData:
    phi = transpose(fan.vectors)  # n x m'
    kernel = [list(r) for r in integer_kernel(phi)]
    r = len(kernel)
    m = fan.n_rays
    r_prime = m - rank(fan.stacky_vectors)
    divisors = [tuple(kernel[k][i] for k in range(r)) for i in range(fan.n_vectors)]
    extras = list(range(m, fan.n_vectors))
    if r == 0:
        return FanSequenceData(
            fan, tuple(), tuple(tuple() for _ in divisors), tuple(),
            tuple(tuple() for _ in divisors), tuple(), 0, 0
        )
    # n_extra = r - r_prime: the relations vanishing on every extra divisor
    # class are the relations among the rays alone, of rank r_prime
    u, n_extra = _extra_transform([divisors[j] for j in extras], r)
    if basis_p is not None:
        p = basis_p
        u = _validate_basis(fan, divisors, u, n_extra, p, r_prime)
    elif r_prime:
        p, u = _search_basis(fan, divisors, extras, u, n_extra, r_prime)
    else:
        p = []
    # gamma_a has kernel-basis coordinates u[n_extra + a]: it pairs to 1 with
    # p_a, to 0 with the other nef rows and with every extra divisor class
    gamma = tuple(
        tuple(
            sum(x * kernel[k][i] for k, x in enumerate(u[n_extra + a]))
            for i in range(fan.n_vectors)
        )
        for a in range(r_prime)
    )
    q_matrix = tuple(tuple(g[i] for g in gamma) for i in range(fan.n_vectors))
    return FanSequenceData(
        fan,
        tuple(tuple(row) for row in kernel),
        tuple(divisors),
        tuple(tuple(row) for row in p),
        q_matrix,
        gamma,
        r,
        r_prime,
    )


def _extra_transform(extra_divs, r: int) -> tuple[list[list[int]], int]:
    """(u, k): a unimodular u, given by its columns, whose columns past k
    span the integer vectors pairing to zero with every extra divisor
    class, k the rank of those classes.

    Their saturated span maps onto Z^k x 0 under x -> x @ u, so u starts
    `_saturating_extension` with that span as the rows chosen so far.
    """
    if not extra_divs:
        return identity_matrix(r), 0
    h, u = hermite_normal_form(transpose(extra_divs))
    return u, sum(1 for row in h if any(row))


def _validate_basis(fan, divisors, u, n_extra, p, r_prime):
    """The transform u extended by a supplied nef block p, or
    NoValidBasisError.  Each row is tested on its ambient lift
    (`_class_lift`)."""
    r = len(divisors[0])
    if len(p) != r_prime or any(len(row) != r for row in p):
        raise NoValidBasisError(
            f"basis_p must hold r' = {r_prime} nef rows of length {r}, "
            f"got {len(p)} rows"
        )
    if p:
        inside_kahler = _kahler_test(fan)
        rows, inv, _ = _class_lift(divisors, fan.n_vectors)
    for a, row in enumerate(p):
        lift = [0] * fan.n_vectors
        for i, col in zip(rows, zip(*inv)):
            lift[i] = sum(map(mul, row, col))
        if not inside_kahler(lift):
            raise NoValidBasisError(
                f"basis vector {row} is outside the closed extended Kahler cone"
            )
        u = _saturating_extension(u, n_extra + a, row)
        if u is None:
            raise NoValidBasisError(
                "supplied basis does not complete the extra-divisor lattice "
                "to a unimodular basis"
            )
    return u


def _search_basis(fan, divisors, extras, u, n_extra, r_prime):
    """The nef block and the transform u extended by it."""
    inside_kahler = _kahler_test(fan)
    extra_divs = [divisors[j] for j in extras]
    # candidates for the nef block: integral canonical-splitting lifts of
    # sums x of the ray classes D_i, i in S.  The splitting projection
    # x - sum_j <x, Dual_j> D_j lands in the closed Kahler cone lift when the
    # image of x is nef, and <x, Dual_j> = sum_S Dual_j[i]; taking floors
    # keeps the candidate integral while only adding nonnegative multiples
    # of extra divisor classes.  Dual_j pairs to -y_k / d with the rays of
    # the first cone holding b_j (`_dual_relation`), so each floor is an
    # integer division, and the candidate's ambient divisor is the
    # indicator of S less fl_j e_j on the extras.
    duals = []
    for j in extras:
        mc, y, d = _dual_relation(fan, j)
        duals.append((j, dict(zip(mc, y)), d))
    nef_pool: list[tuple[int, ...]] = []
    nef_seen = set()

    def add_nef(idx):
        vec = list(map(sum, zip(*[divisors[i] for i in idx])))
        if not any(vec):
            return
        lift = [0] * fan.n_vectors
        for i in idx:
            lift[i] = 1
        for (j, y, d), ddiv in zip(duals, extra_divs):
            fl = -sum(y.get(i, 0) for i in idx) // d
            if fl:
                vec = [a - fl * b for a, b in zip(vec, ddiv)]
                lift[j] = -fl
        if not any(vec) or not inside_kahler(lift):
            return
        for v in (primitive_vector(vec), tuple(vec)):
            if v not in nef_seen:
                nef_seen.add(v)
                nef_pool.append(v)

    for i in range(fan.n_rays):
        add_nef((i,))
    add_nef(range(fan.n_rays))  # the anticanonical class
    for idx in combinations(range(fan.n_rays), 2):
        add_nef(idx)
    found = _assemble_basis(u, n_extra, nef_pool, r_prime)
    if found is None:
        # on the hexagon (dP6) the pairwise sums reach only H - E_i and -K,
        # which are linearly dependent; sums of three ray divisors complete it
        for idx in combinations(range(fan.n_rays), 3):
            add_nef(idx)
        found = _assemble_basis(u, n_extra, nef_pool, r_prime)
    if found is None:
        raise NoValidBasisError(
            "automatic basis search exhausted; supply basis_p explicitly"
        )
    return found


# search nodes one `_assemble_basis` call may visit before it gives up
_NODE_BUDGET = 200000


def _assemble_basis(u, k, pool, count):
    """Depth-first search for count pool members completing the k rows
    behind u to a unimodular basis: (rows, extended u), or None.

    Every partial choice must stay a saturated sublattice, which prunes hard:
    a full-size saturated set of rank r is exactly a unimodular basis.  Each
    search node carries the transform of `_saturating_extension`, so a
    candidate costs one integer test.  At most `_NODE_BUDGET` nodes are
    visited.
    """
    budget = [_NODE_BUDGET]

    def extend(u, k, count, start):
        if count == 0:
            return [], u
        for idx in range(start, len(pool)):
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            u_next = _saturating_extension(u, k, pool[idx])
            if u_next is None:
                continue
            rest = extend(u_next, k + 1, count - 1, idx + 1)
            if rest is not None:
                return [list(pool[idx])] + rest[0], rest[1]
        return None

    return extend(u, k, count, 0)


def _saturating_extension(u, k: int, v) -> list[list[int]] | None:
    """Extend a saturated set of k rows by v, or None if the k + 1 rows do
    not span a saturated sublattice.

    u is a unimodular matrix, given by its columns, under which the k rows
    chosen so far map onto Z^k x 0 (x -> x @ u).  Then [chosen; v] is
    saturated exactly when the entries of v @ u past k have gcd 1; under the
    returned columns v maps to e_k and the chosen rows keep their images.
    The columns of u are never modified.
    """
    tail = [sum(map(mul, v, col)) for col in u[k:]]
    if gcd(*tail) != 1:
        return None
    # the Hermite transform t of the tail as a column has t @ tail = e_0, so
    # recombining the tail columns by its rows maps v to e_k on them
    _, t = hermite_normal_form([[x] for x in tail])
    entries = list(zip(*u[k:]))  # entry i of every tail column
    u = u[:k] + [[sum(map(mul, row, e)) for e in entries] for row in t]
    # the chosen rows vanish on column k, so clearing the head keeps them
    for i, col in enumerate(u[:k]):
        w = sum(map(mul, v, col))
        if w:
            u[i] = [a - w * b for a, b in zip(col, u[k])]
    return u


@frozen
class DualClassData:
    """Splitting data of one extra vector b_j = sum_i c_i b_i: its minimal
    cone (carrier), the c_i over that cone's rays (cone_coeffs), and the
    ambient vector of its dual class, that class's pairing with every
    divisor class (pairings)."""

    carrier: tuple[int, ...]
    cone_coeffs: tuple[Fraction, ...]
    pairings: tuple[Fraction, ...]


def dual_class_data(fan: StackyFan, j: int) -> DualClassData:
    """Cone coefficients and dual class of the j-th vector.

    j must index an extra vector.  The dual class is the rational relation
    e_j - sum_i c_i e_i over the minimal-cone coordinates of b_j: it pairs
    to 1 with the j-th divisor class, to -c_i with the carrier-ray classes,
    and to 0 with everything else.
    """
    if j < fan.n_rays or j >= fan.n_vectors:
        raise FanError(f"index {j} is not an extra vector")
    mc, y, d = _dual_relation(fan, j)
    carrier = tuple(i for i, c in zip(mc, y) if c)
    coeffs = tuple(Fraction(c, d) for c in y if c)
    pairings = [Fraction(i == j) for i in range(fan.n_vectors)]
    for i, c in zip(carrier, coeffs):
        pairings[i] = -c
    return DualClassData(carrier, coeffs, tuple(pairings))


def _dual_relation(fan: StackyFan, j: int) -> tuple[tuple[int, ...], list[int], int]:
    """(cone, y, d) of the j-th vector b_j on the first maximal cone holding
    it (`_first_cone`): d e_j - sum_k y_k e_cone[k], d times its dual class,
    must be a relation, or FanError."""
    b = fan.vectors[j]
    mc, y, d = _first_cone(fan, b)
    if any(
        d * x != sum(map(mul, y, col)) for x, col in zip(b, zip(*fan.cone_vectors(mc)))
    ):
        raise FanError("dual class system inconsistent")
    return mc, y, d


def age_one_box_points(fan: StackyFan) -> list[tuple[int, ...]]:
    return sorted(b.point for b in box_elements(fan) if b.age == 1)

