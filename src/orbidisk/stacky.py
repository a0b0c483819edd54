"""Stacky fans and their combinatorics.

A stacky fan is a simplicial fan with chosen integer generators b_i of its
rays (possibly non-primitive), optionally extended by extra lattice vectors
inside the support.  This module derives everything the disk-counting
pipeline needs from that data: the relation lattice and divisor classes, box
elements and ages, anticones, Gorenstein and nef tests, wall curve classes,
fan polytope faces, and the dual classes attached to the extra vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import mul

from .lattice import (
    _gcdext,
    cone_contains,
    det,
    elementary_divisors,
    identity_matrix,
    integer_inverse,
    integer_kernel,
    primitive_vector,
    rank,
    solve_integer,
    solve_rational,
    transpose,
)


class FanError(ValueError):
    pass


class NotCompleteError(FanError):
    pass


class NoValidBasisError(FanError):
    """Automatic search for the grading basis failed; supply basis_p."""


@dataclass(frozen=True)
class StackyFan:
    """Combinatorial input: lattice rank, ray generators, extras, cones."""

    dim: int
    stacky_vectors: tuple[tuple[int, ...], ...]
    extra_vectors: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(dim, stacky_vectors, max_cones, extra_vectors=()) -> "StackyFan":
        return StackyFan(
            dim=dim,
            stacky_vectors=tuple(tuple(int(x) for x in v) for v in stacky_vectors),
            extra_vectors=tuple(tuple(int(x) for x in v) for v in extra_vectors),
            max_cones=tuple(tuple(sorted(int(i) for i in c)) for c in max_cones),
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


@dataclass(frozen=True)
class BoxElement:
    """Lattice point nu = sum t_k b_{i_k} with t_k in [0,1) on its carrier."""

    point: tuple[int, ...]
    carrier: tuple[int, ...]
    coords: tuple[Fraction, ...]
    age: Fraction


@dataclass(frozen=True)
class DiskClassSymbol:
    """A basic disk class plus an optional sphere class correction.

    kind is "ray" (smooth disk through the ray of that index) or "box"
    (orbi disk through the twisted sector at the given lattice point).  The
    sphere part is the pairing vector of the curve class with all divisor
    classes, length m'.
    """

    kind: str
    ray: int | None = None
    point: tuple[int, ...] | None = None
    sphere: tuple[Fraction, ...] | None = None

    @staticmethod
    def smooth(ray: int, sphere=None) -> "DiskClassSymbol":
        return DiskClassSymbol("ray", ray=ray, sphere=sphere)

    @staticmethod
    def orbi(point, sphere=None) -> "DiskClassSymbol":
        return DiskClassSymbol("box", point=tuple(point), sphere=sphere)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]


def validate(fan: StackyFan) -> ValidationReport:
    """Check the stacky fan axioms; collects every failure found."""
    issues: list[str] = []
    n = fan.dim
    for v in fan.vectors:
        if len(v) != n:
            issues.append(f"vector {v} does not have {n} coordinates")
            return ValidationReport(False, tuple(issues))
    for c in fan.max_cones:
        if any(i < 0 or i >= fan.n_rays for i in c):
            issues.append(f"cone {c} references a missing ray")
            return ValidationReport(False, tuple(issues))
        vecs = fan.cone_vectors(c)
        if rank(vecs) != len(c):
            issues.append(f"cone {c} is not simplicial (generators dependent)")
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
            cone_contains(fan.cone_vectors(c), v)[0] for c in fan.max_cones
        ):
            issues.append(f"extra vector {v} lies outside the support")
    if fan.n_vectors:
        divisors = elementary_divisors(transpose(fan.vectors))
        if divisors != [1] * n:
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
    """Order of the local group: product of elementary divisors of b_sigma."""
    vecs = fan.cone_vectors(cone)
    divisors = elementary_divisors(vecs)
    out = 1
    for d in divisors:
        out *= d
    return out


def box_elements(fan: StackyFan) -> list[BoxElement]:
    """All box elements, tagged with minimal carrier and age.

    Includes the trivial element (the origin, empty carrier, age 0).  The
    count of elements carried inside each maximal cone equals the order of
    its local group.
    """
    found: dict[tuple[int, ...], BoxElement] = {}
    origin = tuple([0] * fan.dim)
    found[origin] = BoxElement(origin, (), (), Fraction(0))
    for mc in fan.max_cones:
        vecs = fan.cone_vectors(mc)
        cols = transpose(vecs)
        inverse = _cone_coordinates(cols, fan.dim, len(mc))
        if inverse is None:  # pragma: no cover - validated cones are simplicial
            continue
        m, d = inverse
        lo = [sum(min(0, v[j]) for v in vecs) for j in range(fan.dim)]
        hi = [sum(max(0, v[j]) for v in vecs) for j in range(fan.dim)]
        for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            # y = d * (the cone coordinates of pt); inside the box is
            # 0 <= y < d, and pt must lie in the span of the cone
            y = []
            for row in m:
                v = sum(map(mul, row, pt))
                if v < 0 or v >= d:
                    break
                y.append(v)
            else:
                if pt in found or any(
                    sum(map(mul, c, y)) != d * x
                    for c, x in zip(cols, pt)
                ):
                    continue
                t = [Fraction(v, d) for v in y]
                carrier = tuple(i for i, x in zip(mc, t) if x != 0)
                coords = tuple(x for x in t if x != 0)
                found[pt] = BoxElement(pt, carrier, coords, sum(coords, Fraction(0)))
    return sorted(found.values(), key=lambda b: (b.age, b.point))


def _cone_coordinates(cols, dim: int, k: int):
    """(m, d) with m @ x = d * t whenever cols @ t = x, for k independent
    columns in Z^dim; m reads only k coordinates of x on which the columns
    are independent (all of them for a full-dimensional cone).  None when
    the columns are dependent.
    """
    for sel in combinations(range(dim), k):
        try:
            m, d = integer_inverse([cols[j] for j in sel])
        except ValueError:
            continue
        full = []
        for row in m:
            out = [0] * dim
            for j, x in zip(sel, row):
                out[j] = x
            full.append(out)
        return full, d
    return None


@dataclass(frozen=True)
class GorensteinResult:
    ok: bool
    support_vectors: tuple[tuple[int, ...] | None, ...]
    witness_cone: tuple[int, ...] | None


def gorenstein_check(fan: StackyFan) -> GorensteinResult:
    """Canonical class Cartier test: each maximal cone needs an integral
    support vector pairing to 1 with all its stacky generators."""
    supports = []
    witness = None
    for mc in fan.max_cones:
        vecs = fan.cone_vectors(mc)
        u = solve_integer(vecs, [1] * len(vecs))
        supports.append(tuple(u) if u is not None else None)
        if u is None and witness is None:
            witness = mc
    return GorensteinResult(witness is None, tuple(supports), witness)


@dataclass(frozen=True)
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
    n = fan.dim
    if n < 2:
        return []
    owners: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for mc in fan.max_cones:
        if len(mc) != n:
            continue
        for facet in combinations(mc, n - 1):
            owners.setdefault(frozenset(facet), []).append(mc)
    out = []
    for wall, mcs in sorted(owners.items(), key=lambda kv: sorted(kv[0])):
        if len(mcs) == 1:
            continue
        if len(mcs) > 2:
            raise FanError(f"wall {sorted(wall)} is shared by {len(mcs)} cones")
        (ca, cb) = mcs
        a = next(i for i in ca if i not in wall)
        b = next(i for i in cb if i not in wall)
        others = sorted(wall) + [b]
        cols = transpose([fan.stacky_vectors[i] for i in others])
        rhs = [-x for x in fan.stacky_vectors[a]]
        sol = solve_rational(cols, rhs)
        if sol is None:
            raise FanError(f"no relation across wall {sorted(wall)}")
        coeffs = {a: Fraction(1)}
        for i, c in zip(others, sol):
            coeffs[i] = c
        if coeffs[b] <= 0:
            raise FanError(f"cones across wall {sorted(wall)} are not opposite")
        vec = [coeffs.get(i, Fraction(0)) for i in range(fan.n_vectors)]
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
    owners: dict[frozenset[int], int] = {}
    for mc in fan.max_cones:
        for facet in combinations(mc, n - 1):
            owners[frozenset(facet)] = owners.get(frozenset(facet), 0) + 1
    return all(v == 2 for v in owners.values())


@dataclass(frozen=True)
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


def maslov_index(fan: StackyFan, beta: DiskClassSymbol) -> Fraction:
    """Index of a disk class: 2 (or 2 age) plus twice the sphere-part degree."""
    sphere = beta.sphere or (Fraction(0),) * fan.n_vectors
    c1_alpha = sum(sphere[i] for i in range(fan.n_rays))
    if beta.kind == "ray":
        return 2 + 2 * c1_alpha
    boxes = {b.point: b for b in box_elements(fan)}
    if beta.point not in boxes:
        raise FanError(f"{beta.point} is not a box element")
    return 2 * boxes[beta.point].age + 2 * c1_alpha


# ---------------------------------------------------------------------------
# fan polytope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeFacet:
    vertices: tuple[int, ...]  # indices of stacky vectors lying on the facet
    normal: tuple[int, ...]
    height: int  # <normal, x> == height on the facet, < height inside


def fan_polytope_facets(fan: StackyFan) -> tuple[PolytopeFacet, ...]:
    """Facets of the convex hull of the stacky vectors (origin interior)."""
    if not is_complete(fan):
        raise NotCompleteError("fan polytope needs a complete fan")
    pts = fan.stacky_vectors
    n = fan.dim
    facets: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        rows = [
            [pts[i][j] - base[j] for j in range(n)] for i in sub[1:]
        ]
        normal_rows = integer_kernel(rows) if rows else []
        if n == 1:
            normal_rows = [[1]]
        if len(normal_rows) != 1:
            continue
        u = list(normal_rows[0])
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


@dataclass(frozen=True)
class FanSequenceData:
    """Relation lattice of the fan map and the chosen grading basis.

    kernel_basis rows span the saturated relation lattice L inside Z^{m'}.
    divisors[i] is the i-th divisor class in coordinates dual to that basis.
    basis_p rows give the grading basis; gamma_basis rows are the dual basis
    of L written as ambient integer vectors (their coordinates are exactly
    their pairings with the divisor classes).
    """

    fan: StackyFan
    kernel_basis: tuple[tuple[int, ...], ...]
    divisors: tuple[tuple[int, ...], ...]
    basis_p: tuple[tuple[int, ...], ...]
    q_matrix: tuple[tuple[int, ...], ...]
    gamma_basis: tuple[tuple[int, ...], ...]
    r: int
    r_prime: int

    def pairings_from_pcoords(self, pcoords) -> tuple[Fraction, ...]:
        """Ambient vector (= all divisor pairings) of sum_a pcoords[a] gamma_a."""
        out = [Fraction(0)] * self.fan.n_vectors
        for a, c in enumerate(pcoords):
            if c:
                for i, g in enumerate(self.gamma_basis[a]):
                    out[i] += Fraction(c) * g
        return tuple(out)

    def pcoords_from_ambient(self, ambient) -> tuple[Fraction, ...]:
        """Coordinates <p_a, d> of an ambient relation vector."""
        coords = solve_rational(
            transpose(self.kernel_basis), [Fraction(x) for x in ambient]
        )
        if coords is None:
            raise FanError("vector is not a relation of the fan map")
        return tuple(
            sum(Fraction(p) * c for p, c in zip(row, coords))
            for row in self.basis_p
        )


def _kahler_closure_test(fan: StackyFan, divisors):
    """Membership in the closed extended Kahler cone: the intersection of
    the cones spanned by the divisor classes of each minimal anticone.

    An anticone of r independent classes spans a simplicial cone, which is
    cut out by the rows of its integer inverse (`_anticone_inequalities`);
    the rows of all such anticones are pooled and deduplicated.  Any other
    anticone is tested with cone_contains.
    """
    rows: dict[tuple[int, ...], None] = {}
    general = []
    for anti in minimal_anticones(fan):
        gens = [divisors[i] for i in sorted(anti)]
        ineqs = _anticone_inequalities(gens)
        if ineqs is None:
            general.append(gens)
        else:
            rows.update(dict.fromkeys(primitive_vector(row) for row in ineqs))
    pooled = list(rows)

    def inside(x) -> bool:
        return all(sum(map(mul, row, x)) >= 0 for row in pooled) and all(
            cone_contains(gens, x)[0] for gens in general
        )

    return inside


def _anticone_inequalities(gens) -> list[list[int]] | None:
    """Rows m of the integer inverse (m, d) of the generator columns, so
    that x lies in cone(gens) exactly when m @ x >= 0; None unless the
    generators are len(x) independent vectors.
    """
    if not gens:
        return None
    try:
        return integer_inverse(transpose(gens))[0]
    except ValueError:
        return None


def fan_sequence(fan: StackyFan, basis_p=None) -> FanSequenceData:
    """Relation lattice, divisor classes, and a grading basis.

    The grading basis {p_a} is an integral basis of the divisor-class lattice
    with every member in the closure of the extended Kahler cone and the
    trailing block inside the cone spanned by the extra vectors' divisor
    classes.  A supplied basis is validated; otherwise a bounded search runs
    (raising NoValidBasisError when exhausted).  Results are cached: the
    computation is pure and the returned data immutable.
    """
    key = (
        fan,
        tuple(tuple(int(x) for x in row) for row in basis_p)
        if basis_p is not None
        else None,
    )
    cached = _SEQUENCE_CACHE.get(key)
    if cached is not None:
        return cached
    out = _fan_sequence_uncached(fan, key[1])
    if len(_SEQUENCE_CACHE) > 128:
        _SEQUENCE_CACHE.clear()
    _SEQUENCE_CACHE[key] = out
    return out


_SEQUENCE_CACHE: dict = {}


def _fan_sequence_uncached(fan: StackyFan, basis_p) -> FanSequenceData:
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
    inside_kahler = _kahler_closure_test(fan, divisors)

    if basis_p is not None:
        p = [tuple(int(x) for x in row) for row in basis_p]
        _validate_basis(fan, divisors, extras, p, r_prime, inside_kahler)
    else:
        p = _search_basis(fan, divisors, extras, r, r_prime, inside_kahler)

    pinv = _inverse_unimodular(p)
    q_matrix = tuple(
        tuple(sum(d[k] * pinv[k][a] for k in range(r)) for a in range(r))
        for d in divisors
    )
    for i in extras:
        for a in range(r_prime):
            if q_matrix[i][a] != 0:
                raise NoValidBasisError(
                    "extra-vector divisor classes must have no nef-block "
                    "component; basis rejected"
                )
    # gamma_a as ambient vectors: gamma_a = sum_k pinv[k][a] * kernel row k
    gamma = tuple(
        tuple(
            sum(pinv[k][a] * kernel[k][i] for k in range(r))
            for i in range(fan.n_vectors)
        )
        for a in range(r)
    )
    for i, d in enumerate(divisors):
        for a in range(r):
            assert gamma[a][i] == q_matrix[i][a]
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


def _validate_basis(fan, divisors, extras, p, r_prime, inside_kahler):
    r = len(divisors[0]) if divisors else 0
    if len(p) != r:
        raise NoValidBasisError(f"need {r} basis vectors, got {len(p)}")
    if abs(det(p)) != 1:
        raise NoValidBasisError("supplied basis is not unimodular")
    extra_divs = [divisors[j] for j in extras]
    for a, row in enumerate(p):
        if not inside_kahler(row):
            raise NoValidBasisError(
                f"basis vector {row} is outside the closed extended Kahler cone"
            )
        if a >= r_prime:
            if not extra_divs or not cone_contains(extra_divs, row)[0]:
                raise NoValidBasisError(
                    f"basis vector {row} is not in the extra-divisor cone"
                )


def _dual_class_solve(fan, divisors, j):
    """Carrier, cone coefficients, pairings and kernel-basis coordinates of
    the dual class of extra vector j.
    """
    b = fan.vectors[j]
    carrier = None
    for mc in fan.max_cones:
        ok, lam = cone_contains(fan.cone_vectors(mc), b)
        if ok:
            carrier = tuple(i for i, l in zip(mc, lam) if l != 0)
            coeffs = tuple(l for l in lam if l != 0)
            break
    if carrier is None:
        raise FanError(f"extra vector {b} lies outside the support")
    rhs = []
    for i in range(fan.n_vectors):
        if i == j:
            rhs.append(Fraction(1))
        elif i in carrier:
            rhs.append(-coeffs[carrier.index(i)])
        else:
            rhs.append(Fraction(0))
    sol = solve_rational([list(map(Fraction, d)) for d in divisors], rhs)
    if sol is None:
        raise FanError("dual class system inconsistent")
    return carrier, coeffs, tuple(rhs), sol


def _search_basis(fan, divisors, extras, r, r_prime, inside_kahler):
    extra_divs = [divisors[j] for j in extras]
    n_extra = len(extras)
    if n_extra != r - r_prime:
        raise NoValidBasisError(
            "extra-vector divisor classes do not span the expected rank"
        )
    max_span = 1 + (
        max(cone_index(fan, mc) for mc in fan.max_cones) if fan.max_cones else 2
    )
    # candidates for the nef block: integral canonical-splitting lifts.  The
    # splitting projection x - sum_j <x, Dual_j> D_j lands in the closed
    # Kahler cone lift when the image of x is nef; taking floors instead of
    # the exact pairings keeps the candidate integral while only adding
    # nonnegative multiples of extra divisor classes.
    duals = [_dual_class_solve(fan, divisors, j)[3] for j in extras]
    nef_pool: list[tuple[int, ...]] = []
    nef_seen = set()

    def add_nef(vec):
        if not any(vec):
            return
        lifted = list(vec)
        for dj, ddiv in zip(duals, extra_divs):
            s = sum(Fraction(x) * c for x, c in zip(vec, dj))
            fl = s.numerator // s.denominator
            if fl:
                lifted = [a - fl * b for a, b in zip(lifted, ddiv)]
        if not any(lifted):
            return
        for v in (primitive_vector(lifted), tuple(int(x) for x in lifted)):
            if v not in nef_seen and inside_kahler(v):
                nef_seen.add(v)
                nef_pool.append(v)

    for i in range(fan.n_rays):
        add_nef(divisors[i])
    anticanonical = [
        sum(divisors[i][k] for i in range(fan.n_rays)) for k in range(r)
    ]
    add_nef(anticanonical)
    for i in range(fan.n_rays):
        for j in range(i + 1, fan.n_rays):
            add_nef([a + b for a, b in zip(divisors[i], divisors[j])])

    # staged effort: the small combination range covers low torsion cheaply;
    # widen it only when the assembly fails.  The last stage also adds sums
    # of three ray divisors to the nef pool: on the hexagon (dP6) the pairwise
    # sums reach only H - E_i and -K, which are linearly dependent.  Each
    # span's extra pool is built once; stages whose pool cannot hold a basis
    # are skipped without searching.
    spans = [3] if max_span <= 3 else [3, max_span]
    stages = [(span, ()) for span in spans]
    stages.append((spans[-1], combinations(range(fan.n_rays), 3)))
    pools: dict[int, list[tuple[int, ...]] | None] = {}
    found = None
    for span, nef_sums in stages:
        for idx in nef_sums:
            add_nef([sum(divisors[i][k] for i in idx) for k in range(r)])
        while span > 2 and span**n_extra > 100000:
            span -= 1
        if span not in pools:
            pools[span] = _extra_pool(extra_divs, span)
        pool = pools[span]
        if pool is None:
            continue
        found = _assemble_basis(pool, nef_pool, r, r_prime, n_extra)
        if found is not None:
            break
    if found is None:
        raise NoValidBasisError(
            "automatic basis search exhausted; supply basis_p explicitly"
        )
    nef_part, ext_part = found
    return nef_part + ext_part


def _extra_pool(extra_divs, span: int) -> list[tuple[int, ...]] | None:
    """Candidates for the extra block, or None when they hold no basis.

    The candidates are the primitive points of the extra-divisor cone built
    from the classes and their combinations with coefficients in
    range(span), smallest first; the range scales with the torsion of the
    fan (box coordinates have denominators dividing the cone indices).  A
    pool that does not generate the saturated extra-divisor lattice cannot
    contain a basis of it.  The check reads only the classes and the
    candidates from non-primitive combinations: a primitive combination is
    already in the lattice of the classes.
    """
    n_extra = len(extra_divs)
    pool: list[tuple[int, ...]] = []
    gens: list[list[int]] = []
    seen = set()

    def add(v, acc) -> None:
        if v not in seen:
            seen.add(v)
            pool.append(v)
            if acc is None or v != tuple(acc):
                gens.append(list(v))

    for d in extra_divs:
        add(primitive_vector(d), None)

    def combos(idx, acc):
        if idx == n_extra:
            if any(acc):
                add(primitive_vector(acc), acc)
            return
        for k in range(span):
            combos(
                idx + 1,
                [a + k * b for a, b in zip(acc, extra_divs[idx])],
            )

    if n_extra:
        combos(0, [0] * len(extra_divs[0]))
        if elementary_divisors(gens) != [1] * n_extra:
            return None
    pool.sort(key=lambda v: (sum(abs(x) for x in v), v))
    return pool


def _assemble_basis(ext_pool, nef_pool, r, r_prime, n_extra, node_budget=200000):
    """Depth-first search for a unimodular basis; saturation-pruned.

    Every partial choice must stay a saturated sublattice, which prunes hard:
    a full-size saturated set of rank r is exactly a unimodular basis.
    Several extra blocks are tried in case the nef completion fails.  Each
    search node carries the transform of `_saturating_extension`, so a
    candidate costs one integer test.
    """
    budget = [node_budget]

    def extend(u, k, pool, count, start):
        if budget[0] <= 0:
            return None
        if count == 0:
            return []
        for idx in range(start, len(pool)):
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            u_next = _saturating_extension(u, k, pool[idx])
            if u_next is None:
                continue
            rest = extend(u_next, k + 1, pool, count - 1, idx + 1)
            if rest is not None:
                return [list(pool[idx])] + rest
        return None

    ext_blocks: list[tuple[list, list[list[int]]]] = []

    def collect_ext(chosen, u, start):
        if budget[0] <= 0 or len(ext_blocks) >= 40:
            return
        if len(chosen) == n_extra:
            ext_blocks.append((chosen, u))
            return
        for idx in range(start, len(ext_pool)):
            budget[0] -= 1
            if budget[0] <= 0:
                return
            u_next = _saturating_extension(u, len(chosen), ext_pool[idx])
            if u_next is None:
                continue
            collect_ext(chosen + [ext_pool[idx]], u_next, idx + 1)

    collect_ext([], identity_matrix(r), 0)
    for ext_block, u in ext_blocks:
        nef_part = extend(u, n_extra, nef_pool, r_prime, 0)
        if nef_part is not None:
            return nef_part, [list(v) for v in ext_block]
    return None


def _saturating_extension(u, k: int, v) -> list[list[int]] | None:
    """Extend a saturated set of k rows by v, or None if the k + 1 rows do
    not span a saturated sublattice.

    u is a unimodular matrix, given by its columns, with chosen @ u =
    [1_k | 0] for the k rows chosen so far.  Then [chosen; v] is saturated
    exactly when the entries of v @ u past k have gcd 1; the returned
    columns satisfy [chosen; v] @ u' = [1_(k+1) | 0].  The columns of u are
    never modified.
    """
    tail = [sum(map(mul, v, col)) for col in u[k:]]
    if gcd(*tail) != 1:
        return None
    w = [sum(map(mul, v, col)) for col in u[:k]] + tail
    u = list(u)
    # fold the tail into column k with determinant-1 column operations,
    # leaving w[k] = 1 and zeros after it
    for j in range(k + 1, len(w)):
        if w[j]:
            g, x, y = _gcdext(w[k], w[j])
            a, b = w[k] // g, w[j] // g
            u[k], u[j] = (
                [x * s + y * t for s, t in zip(u[k], u[j])],
                [-b * s + a * t for s, t in zip(u[k], u[j])],
            )
            w[k], w[j] = g, 0
    if w[k] < 0:
        u[k] = [-s for s in u[k]]
    # the chosen rows vanish on column k, so clearing the head keeps them
    for i in range(k):
        if w[i]:
            u[i] = [s - w[i] * t for s, t in zip(u[i], u[k])]
    return u


def _inverse_unimodular(p) -> list[list[int]]:
    """Exact inverse of a unimodular matrix, indexed out[k][a] = (P^-1)[k][a]."""
    try:
        out, d = integer_inverse(p)
    except ValueError as exc:
        raise NoValidBasisError("basis matrix is singular") from exc
    if d != 1:
        raise NoValidBasisError("basis matrix is not unimodular")
    return out


@dataclass(frozen=True)
class DualClassData:
    """Splitting data of one extra vector.

    anticone is the anticone of the minimal cone containing the vector;
    cone_coeffs are the coefficients c_i over that cone's rays; pairings is
    the ambient vector of the dual class (its pairing with every divisor
    class); pcoords are its coordinates in the grading basis.
    """

    index: int
    anticone: frozenset[int]
    carrier: tuple[int, ...]
    cone_coeffs: tuple[Fraction, ...]
    pairings: tuple[Fraction, ...]
    pcoords: tuple[Fraction, ...]


def dual_class_data(fan: StackyFan, seq: FanSequenceData, j: int) -> DualClassData:
    """Anticone, cone coefficients, and dual class of the j-th vector.

    j must index an extra vector.  The dual class is the unique rational
    relation pairing to 1 with the j-th divisor class, to -c_i with the
    carrier-ray classes, and to 0 with everything else.
    """
    if j < fan.n_rays or j >= fan.n_vectors:
        raise FanError(f"index {j} is not an extra vector")
    carrier, coeffs, ambient, sol = _dual_class_solve(fan, seq.divisors, j)
    anticone = frozenset(range(fan.n_vectors)) - frozenset(carrier)
    pcoords = tuple(
        sum(Fraction(p) * c for p, c in zip(row, sol)) for row in seq.basis_p
    )
    return DualClassData(j, anticone, carrier, coeffs, ambient, pcoords)


def age_one_box_points(fan: StackyFan) -> list[tuple[int, ...]]:
    return sorted(b.point for b in box_elements(fan) if b.age == 1)


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def nu_of_class(fan: StackyFan, pairings) -> tuple[int, ...]:
    """The box point sum_i ceil(<D_i, d>) b_i attached to a rational class."""
    out = [0] * fan.dim
    for i, c in enumerate(pairings):
        cc = ceil_fraction(Fraction(c))
        if cc:
            v = fan.vectors[i]
            for k in range(fan.dim):
                out[k] += cc * v[k]
    return tuple(out)
