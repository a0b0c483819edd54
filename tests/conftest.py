"""Shared fan builders and randomized fan generators for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from operator import mul
from pathlib import Path
from typing import NamedTuple

import pytest

from orbidisk.oracle import Cyclotomic, cyclotomic_polynomial
from orbidisk.stacky import StackyFan, age_one_box_points, validate


def p2_fan() -> StackyFan:
    return StackyFan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def p1xp1_fan() -> StackyFan:
    return StackyFan.make(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


def f2_fan() -> StackyFan:
    return StackyFan.make(
        2, [(1, 0), (0, 1), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


def f3_fan() -> StackyFan:
    return StackyFan.make(
        2, [(1, 0), (0, 1), (-1, 3), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


def p2z3_bare() -> StackyFan:
    return StackyFan.make(2, [(-1, -1), (2, -1), (-1, 2)], [(0, 1), (0, 2), (1, 2)])


def p2z3_extended() -> StackyFan:
    bare = p2z3_bare()
    return StackyFan.make(
        2, bare.stacky_vectors, bare.max_cones, age_one_box_points(bare)
    )


def c2z3_chart() -> StackyFan:
    return StackyFan.make(2, [(2, -1), (-1, 2)], [(0, 1)], [(1, 0), (0, 1)])


def om2_chart() -> StackyFan:
    """Total space of the degree -2 line bundle over the projective line."""
    return StackyFan.make(2, [(1, 0), (0, 1), (-1, 2)], [(0, 1), (1, 2)])


def c3z3_chart() -> StackyFan:
    return StackyFan.make(
        3, [(1, 0, 1), (0, 1, 1), (-1, -1, 1)], [(0, 1, 2)], [(0, 0, 1)]
    )


def local_chart(n: int) -> StackyFan:
    """The C^2/Z_n chart: rays (0,1), (n,1), every point between a sector."""
    return StackyFan.make(
        2, [(0, 1), (n, 1)], [(0, 1)], [(m, 1) for m in range(1, n)]
    )


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _half(v) -> int:
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular_cmp(u, v) -> int:
    """Exact counterclockwise comparison of nonzero 2d integer vectors."""
    if _half(u) != _half(v):
        return -1 if _half(u) < _half(v) else 1
    c = _cross(u, v)
    return -1 if c > 0 else (1 if c < 0 else 0)


def random_complete_2d_fan(rng: random.Random) -> StackyFan:
    """Complete simplicial 2d fan with random (possibly non-primitive) rays."""
    while True:
        k = rng.randint(3, 6)
        rays = set()
        while len(rays) < k:
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v == (0, 0):
                continue
            g = gcd(abs(v[0]), abs(v[1]))
            direction = (v[0] // g, v[1] // g)
            if all(
                (direction[0] * r[1] - direction[1] * r[0]) != 0
                or direction[0] * r[0] + direction[1] * r[1] < 0
                for r in rays
            ):
                rays.add(v)
        from functools import cmp_to_key

        rays = sorted(rays, key=cmp_to_key(_angular_cmp))
        # consecutive pairs must turn left by less than half a turn
        ok = True
        cones = []
        for i in range(len(rays)):
            a, b = rays[i], rays[(i + 1) % len(rays)]
            if _cross(a, b) <= 0:
                ok = False
                break
            cones.append(tuple(sorted((i, (i + 1) % len(rays)))))
        if not ok:
            continue
        fan = StackyFan.make(2, rays, cones)
        if validate(fan).issues == () or validate(fan).issues == (
            "vectors do not generate the lattice (fan map not onto)",
        ):
            return fan


def random_single_cone_fan(rng: random.Random, dim: int) -> StackyFan:
    """One full-dimensional simplicial cone (an affine chart)."""
    while True:
        vecs = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)
        ]
        d = det(vecs)
        if d != 0 and abs(d) <= 20:
            return StackyFan.make(dim, vecs, [tuple(range(dim))])


REPO = Path(__file__).resolve().parents[1]
# pairwise coprime and far above any denominator the rings produce
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 1_000_000_007, 998_244_353)


def example_fans(
    bench: bool = True, max_extras: int | None = None
) -> list[tuple[str, StackyFan]]:
    """The fan files in fans/ and, with bench, perfbench/fans/, by name.

    max_extras leaves out the fans with more extra vectors: the sweeps that
    run the whole mirror pipeline on every chart pass 12, which leaves out
    mq (30 sectors; each of its charts has 12 and 18,564 grid classes at
    order 6).
    """
    from orbidisk.fanfile import parse_fan_file

    paths = sorted((REPO / "fans").glob("*.json"))
    if bench:
        paths += sorted((REPO / "perfbench" / "fans").glob("*.json"))
    fans = [(p.stem, parse_fan_file(p).resolve_fan()) for p in paths]
    if max_extras is None:
        return fans
    return [(n, f) for n, f in fans if len(f.extra_vectors) <= max_extras]


def partial_resolutions() -> list[tuple[str, StackyFan]]:
    """The 163 partial resolutions of the 16 reflexive polygons of
    perfbench/fans/r*.json: each with every subset of its non-vertex boundary
    points (its age-one extras) promoted to rays, by name.

    The rays are sorted counterclockwise from the positive x axis, each
    maximal cone joins two angular neighbours, and the extras are the
    age-one box elements of the result.  A name is the file stem followed by
    "+x,y" for each promoted point.
    """
    from functools import cmp_to_key

    out = []
    for stem, base in example_fans():
        if not stem.startswith("r"):
            continue
        points = base.extra_vectors
        for k in range(len(points) + 1):
            for promoted in combinations(points, k):
                rays = sorted(
                    base.stacky_vectors + promoted, key=cmp_to_key(_angular_cmp)
                )
                n = len(rays)
                cones = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
                bare = StackyFan.make(2, rays, cones)
                name = stem + "".join(f"+{x},{y}" for x, y in promoted)
                out.append(
                    (name, StackyFan.make(2, rays, cones, age_one_box_points(bare)))
                )
    return out


def basic_class_charts(fan: StackyFan) -> list[StackyFan]:
    """The distinct charts of every basic class over every facet holding it.

    A fan file that is a chart itself (not complete) is its own only chart;
    facets whose cone holds a ray off the facet give no chart and are skipped.
    """
    from orbidisk.mirror import potential_symbols
    from orbidisk.stacky import FanError, facets_containing, is_complete
    from orbidisk.suborbifold import build_suborbifold

    if not is_complete(fan):
        return [fan]
    out: list[StackyFan] = []
    for sym in potential_symbols(fan):
        point = fan.stacky_vectors[sym.ray] if sym.kind == "ray" else sym.point
        for facet in facets_containing(fan, point):
            try:
                chart = build_suborbifold(fan, sym, facet).fan
            except FanError:
                continue
            if chart not in out:
                out.append(chart)
    return out


def box_point(fan, nums, den) -> tuple[int, ...]:
    """The box point sum_i ceil(p_i / den) b_i of a class whose divisor
    pairings are p_i / den: the reference for the coset each omega set is
    walked over."""
    return tuple(
        sum(-(-p // den) * v[k] for p, v in zip(nums, fan.vectors))
        for k in range(fan.dim)
    )


def classify(pipe, key):
    """The GridPoint of a scaled key, its pairing numerators p over M^2 found
    by one dot product each: p / M^2 is a nonnegative integer when p >= 0
    and M^2 | p, and the class is effective when those vectors contain an
    anticone.  The reference for the pairings the cone walk carries."""
    from orbidisk.mirror import GridPoint

    den = pipe._den
    nums = tuple(sum(map(mul, key, col)) for col in pipe._gamma_cols)
    int_nonneg = frozenset(
        i for i, p in enumerate(nums) if p >= 0 and p % den == 0
    )
    return GridPoint(key, nums, int_nonneg in pipe._anticones)


def omega_from_grid(pipe, j, grid=None) -> list:
    """The effective classes of grid (by default the chart's) that feed the
    j-th correction series, by key: the reference for the omega sets that
    the cone walk files."""
    m = pipe._den
    ray = j < pipe.fan.n_rays
    # a ray's classes have box point 0, a sector's its own vector
    nu = (0,) * pipe.fan.dim if ray else pipe.fan.vectors[j]
    out = []
    origin = (0,) * pipe.r
    for key, gp in (pipe.grid() if grid is None else grid).items():
        if key == origin or box_point(pipe.fan, gp.nums, m) != nu:
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


def brute_force_grid(pipe) -> dict:
    """Effective classes found by classifying every point of the exponent
    simplex {key >= 0 : sum(key) <= bound}: the reference for the grid."""
    out = {}

    def scan(pos, acc, left):
        if pos == pipe.r:
            gp = classify(pipe, tuple(acc))
            if gp.effective:
                out[gp.key] = gp
            return
        for k in range(left + 1):
            scan(pos + 1, acc + [k], left - k)

    scan(0, [], pipe.y_ring._bound)
    return out


def pairings_from_key(pipe, key) -> tuple[Fraction, ...]:
    """Ambient vector (= all divisor pairings) of the class
    sum_a qpart_a gamma_a + sum_j m_j Dual_j of a chart key, in Fraction:
    the reference for the pipeline's integer pairings."""
    m = pipe.modulus
    classes = list(pipe.seq.gamma_basis) + [
        dual_class_data(pipe.fan, j).pairings for j in pipe.extras
    ]
    out = [Fraction(0)] * pipe.fan.n_vectors
    for k, cls in zip(key, classes):
        for i, g in enumerate(cls):
            out[i] += Fraction(k, m) * g
    return tuple(out)


def ratio_factor(c: Fraction) -> Fraction:
    """Collapsed two-sided factorial ratio of the extra-vector series, in
    Fraction: the reference for the integer sector coefficients.

    Equals 1/c! for nonnegative integers, vanishes on negative integers, and
    is the finite product of the non-cancelling factors otherwise.
    """
    cc = math.ceil(c)
    out = Fraction(1)
    for k in range(cc):
        out /= c - k
    for k in range(cc, 0):
        out *= c - k
    return out


def pcoords_by_solve(seq, ambient) -> tuple[Fraction, ...]:
    """Grading coordinates of an ambient relation vector by one Fraction
    solve against kernel_basis^T: the reference for `_scaled_pcoords`, read
    through `pcoords_from_ambient`."""
    from orbidisk.lattice import transpose
    from orbidisk.stacky import FanError

    coords = solve_rational_by_fractions(
        transpose(seq.kernel_basis), [Fraction(x) for x in ambient]
    )
    if coords is None:
        raise FanError("vector is not a relation of the fan map")
    return tuple(
        sum(Fraction(p) * c for p, c in zip(row, coords)) for row in seq.basis_p
    )


def kahler_by_anticone_rows(fan: StackyFan, divisors):
    """inside(x) for a class x in kernel-dual coordinates: the reference for
    the Kahler test.  Each anticone's r divisor classes span a simplicial
    cone, cut out by the rows of their integer inverse; the rows of every
    anticone are pooled.  FanError names a cone without n independent
    rays."""
    from orbidisk import stacky
    from orbidisk.lattice import integer_inverse, transpose

    rows = []
    for mc in fan.max_cones:
        stacky._cone_inverse(fan, mc)
        gens = [d for i, d in enumerate(divisors) if i not in mc]
        rows += integer_inverse(transpose(gens))[0]

    def inside(x) -> bool:
        return all(sum(map(mul, row, x)) >= 0 for row in rows)

    return inside


def minimal_cone_coordinates(fan: StackyFan, b) -> tuple[tuple, tuple]:
    """(carrier, coeffs), b = sum_k coeffs[k] b_carrier[k] with every coeff
    positive: the unique coordinates of b on the first (simplicial) maximal
    cone holding it, whose support is the minimal cone of b, in Fraction.
    A ray b_i gives ((i,), (1,)), a box element its carrier and coords;
    FanError when b lies outside the support.  The reference reader of the
    library's integer `_first_cone`: each cone is tried by a Fraction solve
    (`cone_coordinates`), and a dependent one is skipped.
    """
    from orbidisk.stacky import FanError

    for mc in fan.max_cones:
        try:
            t = cone_coordinates(fan, mc, b)
        except FanError:
            continue
        if min(t) >= 0:
            return (
                tuple(i for i, c in zip(mc, t) if c),
                tuple(c for c in t if c),
            )
    raise FanError(f"vector {tuple(b)} lies outside the support")


def cone_coordinates(fan: StackyFan, cone, x) -> tuple[Fraction, ...]:
    """The coordinates t of x = sum_k t_k b_cone[k] on a maximal cone (a
    tuple of fan.max_cones), of any sign, in Fraction: the reference reader
    of the library's cached cone inverses, by a Fraction solve on the
    cone's n generators.  FanError when they are dependent: their square
    system is then inconsistent or underdetermined."""
    return _cone_solve(fan, tuple(cone), tuple(x))


@cache  # the area and dual-class sweeps ask for the same solves many times
def _cone_solve(fan: StackyFan, cone, x) -> tuple[Fraction, ...]:
    from orbidisk.lattice import AmbiguousSolutionError, transpose
    from orbidisk.stacky import FanError

    try:
        t = solve_rational_by_fractions(transpose(fan.cone_vectors(cone)), list(x))
    except AmbiguousSolutionError:
        t = None
    if t is None:
        raise FanError(f"cone {cone} is not simplicial (generators dependent)")
    return tuple(t)


def minimal_anticones(fan: StackyFan) -> list[frozenset[int]]:
    """The complement of each maximal cone among all vectors."""
    full = frozenset(range(fan.n_vectors))
    return [full - frozenset(c) for c in fan.max_cones]


def pcoords_from_ambient(seq, ambient) -> tuple[Fraction, ...]:
    """Coordinates <p_a, d> of an ambient relation vector d of ints or
    Fractions: the Fraction reader of the library's integer
    `FanSequenceData._scaled_pcoords`.  FanError when d is not a relation."""
    d = [Fraction(x) for x in ambient]
    scale = math.lcm(*(x.denominator for x in d))
    nums = [x.numerator * (scale // x.denominator) for x in d]  # d * scale
    coords, den = seq._scaled_pcoords(nums, scale)
    return tuple(Fraction(c, den) for c in coords)


class DualClassData(NamedTuple):
    """Splitting data of one extra vector b_j = sum_i c_i b_i: its minimal
    cone (carrier), the c_i over that cone's rays (cone_coeffs), and the
    ambient vector of its dual class, that class's pairing with every
    divisor class (pairings)."""

    carrier: tuple[int, ...]
    cone_coeffs: tuple[Fraction, ...]
    pairings: tuple[Fraction, ...]


def dual_class_data(fan: StackyFan, j: int) -> DualClassData:
    """Cone coefficients and dual class of the j-th vector, in Fraction: the
    reference for the integer triples (carrier, y, d) that the mirror
    pipeline reads off the first cone holding b_j (`stacky._first_cone`),
    here from its Fraction coordinates (`minimal_cone_coordinates`).

    j must index an extra vector.  The dual class is the rational relation
    e_j - sum_i c_i e_i over the minimal-cone coordinates of b_j: it pairs
    to 1 with the j-th divisor class, to -c_i with the carrier-ray classes,
    and to 0 with everything else.
    """
    from orbidisk.stacky import FanError

    if j < fan.n_rays or j >= fan.n_vectors:
        raise FanError(f"index {j} is not an extra vector")
    carrier, coeffs = minimal_cone_coordinates(fan, fan.vectors[j])
    pairings = [Fraction(i == j) for i in range(fan.n_vectors)]
    for i, c in zip(carrier, coeffs):
        pairings[i] = -c
    return DualClassData(carrier, coeffs, tuple(pairings))


def primitive_by_fractions(v) -> tuple[int, ...]:
    """A nonzero rational vector scaled by a positive factor to a primitive
    integer vector."""
    fracs = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in fracs))
    ints = [int(x * den) for x in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def wall_curve_classes_by_fractions(fan: StackyFan) -> list:
    """The wall curve classes from the Fraction coordinates of the opposite
    ray on the other cone (`cone_coordinates`): the reference for
    `stacky.wall_curve_classes`, with the same FanError messages."""
    from orbidisk.stacky import FanError, WallClass, _wall_owners

    if fan.dim < 2:
        return []
    out = []
    for wall, mcs in sorted(_wall_owners(fan).items(), key=lambda kv: sorted(kv[0])):
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
        prim = primitive_by_fractions(vec)
        if prim[a] < 0:
            prim = tuple(-x for x in prim)
        c1 = sum(prim[i] for i in range(fan.n_rays))
        out.append(WallClass(tuple(sorted(wall)), prim, c1))
    return out


def area_by_fractions(parent: StackyFan, seq, sigma0, boundary):
    """The area exponents of the basic class with this boundary vector, in
    Fraction: the nef pairings of its minimal-cone coordinates minus its
    coordinates on sigma0, or NormalizationConeError when one is negative.
    The reference for the potential's areas."""
    from orbidisk.mirror import NormalizationConeError

    alpha = [Fraction(0)] * parent.n_vectors
    for i, c in zip(*minimal_cone_coordinates(parent, boundary)):
        alpha[i] += c
    for i, c in zip(sigma0, cone_coordinates(parent, sigma0, boundary)):
        alpha[i] -= c
    area = pcoords_from_ambient(seq, alpha)[: seq.r_prime]
    if any(x < 0 for x in area):
        raise NormalizationConeError(
            f"class at {tuple(boundary)} has negative area for this cone"
        )
    return area


def relabel_by_fractions(dgf, seq, area, order) -> dict:
    """Exponents -> coefficient of a chart series moved to the parent q
    variables and multiplied by the area monomial, term by term in Fraction:
    q_b = area_b + sum_a e_a <p_b, pushed gamma_a>, the tau exponents kept.
    The reference for mirror._relabel_to_parent."""
    n_q = len(dgf.q_classes)
    images = [pcoords_from_ambient(seq, c)[: seq.r_prime] for c in dgf.q_classes]
    out: dict = {}
    for exps, coeff in dgf.series.terms():
        q = [
            area[b] + sum(exps[a] * images[a][b] for a in range(n_q))
            for b in range(seq.r_prime)
        ]
        key = tuple(q) + tuple(exps[n_q:])
        if sum(key) <= order:
            out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def invariants_by_fractions(dgf) -> list:
    """(alpha, insertions, value) of every term of a generating function,
    alpha = sum_a e_a q_classes[a] in Fraction: the reference for
    DiskGeneratingFunction.invariants."""
    n_q = len(dgf.q_classes)
    out = []
    for exps, coeff in dgf.series.terms():
        alpha = [Fraction(0)] * dgf.parent.n_vectors
        for e, cls in zip(exps, dgf.q_classes):
            alpha = [x + e * y for x, y in zip(alpha, cls)]
        insertions = {p: int(e) for p, e in zip(dgf.tau_points, exps[n_q:]) if e}
        out.append((tuple(alpha), insertions, coeff))
    return out


def schoolbook_product(f, g) -> dict:
    """Scaled key -> coefficient of f * g, multiplied term by term in
    Fraction on tuple keys and truncated to the ring: the reference for
    TruncatedSeries.__mul__."""
    ring = f.ring
    out: dict = {}
    for ka, ca in f.scaled_terms().items():
        for kb, cb in g.scaled_terms().items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if ring.in_bounds(key):
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def solve_against_by_fractions(pipe, f):
    """X(q, tau) with X(forward(y)) = f(y), peeled level by level on a
    Fraction residual with forward images built by schoolbook products: the
    reference for ChartPipeline.solve_against."""
    from orbidisk.mirror import ComputationError
    from orbidisk.series import exp_series

    ring, m = pipe.y_ring, pipe.modulus
    powers: dict = {}

    def rank(key):
        return ring.scaled_degree(key), sum(key[pipe.r_prime :]) // m

    def power(v, k):
        """The k-th power of the forward image of one step of variable v:
        y_v^(1/M) exp(L_v/M) for a q, A_j for a tau."""
        if (v, k) not in powers:
            if k == 0:
                powers[v, k] = ring.one()
            elif k > 1:
                powers[v, k] = ring.from_scaled_terms(
                    schoolbook_product(power(v, k - 1), power(v, 1))
                )
            elif v < pipe.r_prime:
                root = [Fraction(int(a == v), m) for a in range(pipe.r)]
                powers[v, k] = ring.monomial(root) * exp_series(
                    pipe.log_corrections()[v] * Fraction(1, m)
                )
            else:
                powers[v, k] = pipe.a_series(pipe.extras[v - pipe.r_prime])
        return powers[v, k]

    def image(tkey):
        out = ring.one()
        for v, k in enumerate(tkey):
            step_count = k if v < pipe.r_prime else k // m
            out = ring.from_scaled_terms(
                schoolbook_product(out, power(v, step_count))
            )
        return out

    residual = dict(f.scaled_terms())
    ranks = {key: rank(key) for key in residual}
    x: dict = {}
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
            # y^d relabels to the (q, tau) monomial of the same key
            tkey = key
            x[tkey] = coeff
            for k, v in image(tkey).scaled_terms().items():
                w = residual.get(k, 0) - coeff * v
                if w:
                    residual[k] = w
                    if k not in ranks:
                        ranks[k] = rank(k)
                else:
                    del residual[k]
    return pipe.qt_ring.from_scaled_terms(x)


def solve_against_by_images(pipe, f):
    """X(q, tau) with X(forward(y)) = f(y) on an integer residual over one
    denominator, subtracting each peeled monomial's whole forward image: a
    packed product of per-variable power lists, built, reduced by its gcd
    and then walked.  The earlier kernel of ChartPipeline.solve_against,
    kept as its reference."""
    from orbidisk.mirror import ComputationError
    from orbidisk.series import _product, exp_series

    ring, m = pipe.y_ring, pipe.modulus
    one = ring.one()._packed_view()
    powers: dict = {}

    def image(tkey):
        out = one
        for v, k in enumerate(tkey):
            if v >= pipe.r_prime:
                if k % m:
                    raise ComputationError("fractional sector exponent")
                k //= m
            if not k:
                continue
            if v not in powers:
                if v < pipe.r_prime:
                    root = [Fraction(int(a == v), m) for a in range(pipe.r)]
                    step = ring.monomial(root) * exp_series(
                        pipe.log_corrections()[v] * Fraction(1, m)
                    )
                else:
                    step = pipe.a_series(pipe.extras[v - pipe.r_prime])
                powers[v] = [one, step._packed_view()]
            pv = powers[v]
            while len(pv) <= k:
                pv.append(_product(ring, pv[-1], pv[1]))
            out = pv[k] if out is one else _product(ring, out, pv[k])
        return out

    terms, den = f._packed_view()
    residual = {p: n for _, p, n in terms}
    ranks = {p: pipe._rank(p) for p in residual}
    x: dict = {}
    last = (-1, -1)
    while residual:
        level = min(ranks[p] for p in residual)
        if level <= last:
            raise ComputationError(
                "inversion is not contracting; malformed mirror data"
            )
        last = level
        peel = [(ring._unpack(p), c) for p, c in residual.items() if ranks[p] == level]
        images = [image(key) for key, _ in peel]
        scale = math.lcm(*(e for _, e in images))
        residual = {p: n * scale for p, n in residual.items()}
        for (key, c), (terms, e) in zip(peel, images):
            x[key] = Fraction(c, den)
            c *= scale // e
            for _, k, n in terms:
                w = residual.get(k, 0) - c * n
                if w:
                    residual[k] = w
                    if k not in ranks:
                        ranks[k] = pipe._rank(k)
                else:
                    del residual[k]
        den *= scale
        g = gcd(den, *residual.values())
        if g > 1:
            den //= g
            residual = {p: n // g for p, n in residual.items()}
    return pipe.qt_ring.from_scaled_terms(x)


# Gaussian elimination over Fraction and the gcd of maximal minors: the
# references for the fraction-free elimination and the Hermite form of
# orbidisk.lattice.


def reduce_mod_cyclotomic(poly, n: int) -> tuple:
    """Coordinates of a polynomial in zeta = exp(i pi / n) modulo the monic
    Phi_2n, by long division: the reference for the oracle's table of
    reduced powers of zeta."""
    phi = cyclotomic_polynomial(2 * n)
    d = len(phi) - 1
    poly = list(poly) + [0] * (d - len(poly))
    for i in range(len(poly) - 1, d - 1, -1):
        f = poly[i]
        if f:
            for j in range(d + 1):
                poly[i - d + j] -= f * phi[j]
    return tuple(poly[:d])


def product_by_division(x, y, n: int) -> tuple:
    """x * y in Q(zeta) on coordinate tuples: the polynomial product, then
    `reduce_mod_cyclotomic`.  The reference for the oracle's table product."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    return reduce_mod_cyclotomic(prod, n)


def elementary_symmetric_by_records(order: int, n: int) -> list[dict]:
    """(e_1, ..., e_n) of the deformed roots of C^2/Z_n to total degree
    `order`, each a map exponent tuple -> `Cyclotomic`, by the oracle's subset
    sum with one record per sum and per product and every product reduced
    by long division: the reference for the tuple kernel of
    `oracle.elementary_symmetric`."""

    def zeta(j):
        return Cyclotomic(n, reduce_mod_cyclotomic([0] * (j % (2 * n)) + [1], n))

    def plus(u, v):
        return Cyclotomic(n, tuple(a + b for a, b in zip(u.coords, v.coords)))

    def times(u, v):
        return Cyclotomic(n, product_by_division(u.coords, v.coords, n))

    one = Cyclotomic(n, reduce_mod_cyclotomic([1], n))
    zero = Cyclotomic(n, reduce_mod_cyclotomic([0], n))
    out = []
    for m in range(1, n + 1):
        acc: dict = {}
        for subset in combinations(range(n), m):
            terms = {(): zeta(sum(2 * k + 1 for k in subset))}
            for r in range(1, n):
                c = zero
                for k in subset:
                    c = plus(c, zeta((2 * k + 1) * r))
                powers = [one]
                for _ in range(order):
                    powers.append(times(powers[-1], c))
                terms = {
                    key + (j,): times(v, powers[j])
                    for key, v in terms.items()
                    for j in range(order + 1 - sum(key))
                }
            for key, v in terms.items():
                acc[key] = plus(acc[key], v) if key in acc else v
        series = {}
        for key, v in acc.items():
            if any(v.coords):
                den = n ** sum(key)
                for e in key:
                    den *= math.factorial(e)
                series[key] = Cyclotomic(n, tuple(x * Fraction(1, den) for x in v.coords))
        out.append(series)
    return out


def det(a) -> Fraction:
    """Determinant of a square rational matrix (exact Gaussian elimination)."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def solve_rational_by_fractions(a, b) -> list[Fraction] | None:
    """a @ x = b by Gauss-Jordan elimination over Fraction: the unique x,
    None when inconsistent, AmbiguousSolutionError when underdetermined."""
    from orbidisk.lattice import AmbiguousSolutionError

    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivots) < n:
        raise AmbiguousSolutionError("underdetermined system")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def rank_by_fractions(a) -> int:
    """Rank over Q: the pivot count of row reduction over Fraction."""
    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def maximal_minor_gcd(rows) -> int:
    """gcd of the k x k minors of k integer rows: the index of their span in
    its saturation (the product of the elementary divisors), 0 when the rows
    are dependent; 1 for no rows."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    minors = (
        int(det([[row[c] for c in cols] for row in rows]))
        for cols in combinations(range(n), k)
    )
    return gcd(*minors)


# Fourier-Motzkin elimination, the reference for cone membership: one exact
# solution of a small linear system, or None.  A constraint is
# (coeffs, rhs, is_eq) encoding coeffs . z >= rhs, or = rhs.


def _normalize_constraint(coeffs, rhs, is_eq):
    nz = [abs(x) for x in coeffs if x != 0]
    if not nz:
        return None if (rhs <= 0 if not is_eq else rhs == 0) else "infeasible"
    scale = min(nz)
    coeffs = tuple(Fraction(x) / scale for x in coeffs)
    return (coeffs, Fraction(rhs) / scale, is_eq)


def fm_solve(n_vars: int, constraints) -> list[Fraction] | None:
    """Find one exact solution of a linear eq/ineq system, or None.

    Args:
      n_vars: number of variables z_0..z_{n_vars-1}.
      constraints: iterable of (coeffs, rhs, is_eq) meaning
        coeffs . z >= rhs (is_eq False) or coeffs . z == rhs (is_eq True).

    Returns:
      A solution vector of Fractions, or None when infeasible.
    """
    system = []
    for coeffs, rhs, is_eq in constraints:
        c = _normalize_constraint(list(coeffs), rhs, is_eq)
        if c == "infeasible":
            return None
        if c is not None:
            system.append(c)
    steps = []  # (var, kind, payload) for back-substitution
    for v in range(n_vars - 1, -1, -1):
        eq = next((c for c in system if c[2] and c[0][v] != 0), None)
        if eq is not None:
            # replace v by (rhs - rest)/coef in every other constraint
            coef = eq[0][v]
            steps.append((v, "eq", eq))
            new_system = []
            for c in system:
                if c is eq:
                    continue
                cv = c[0][v]
                if cv == 0:
                    new_system.append(c)
                    continue
                f = cv / coef
                coeffs = tuple(
                    x - f * y if i != v else Fraction(0)
                    for i, (x, y) in enumerate(zip(c[0], eq[0]))
                )
                nc = _normalize_constraint(list(coeffs), c[1] - f * eq[1], c[2])
                if nc == "infeasible":
                    return None
                if nc is not None:
                    new_system.append(nc)
            system = _dedup(new_system)
            continue
        lowers, uppers, rest = [], [], []
        for c in system:
            cv = c[0][v]
            if cv > 0:
                lowers.append(c)  # v >= (rhs - rest)/cv
            elif cv < 0:
                uppers.append(c)
            else:
                rest.append(c)
        steps.append((v, "fm", (lowers, uppers)))
        new_system = list(rest)
        for lo in lowers:
            for up in uppers:
                # eliminate v between lo and up
                a_lo, a_up = lo[0][v], up[0][v]
                coeffs = tuple(
                    x / a_lo - y / a_up for x, y in zip(lo[0], up[0])
                )
                nc = _normalize_constraint(
                    list(coeffs), lo[1] / a_lo - up[1] / a_up, False
                )
                if nc == "infeasible":
                    return None
                if nc is not None:
                    new_system.append(nc)
        system = _dedup(new_system)
    for coeffs, rhs, is_eq in system:
        if any(coeffs):
            raise AssertionError("variables left after elimination")
        if is_eq and rhs != 0:
            return None
        if not is_eq and rhs > 0:
            return None
    # back-substitution
    sol = [Fraction(0)] * n_vars
    for v, kind, payload in reversed(steps):
        if kind == "eq":
            coeffs, rhs, _ = payload
            acc = rhs - sum(
                coeffs[i] * sol[i] for i in range(n_vars) if i != v and coeffs[i]
            )
            sol[v] = acc / coeffs[v]
        else:
            lowers, uppers = payload
            lo_vals = [
                (c[1] - sum(c[0][i] * sol[i] for i in range(n_vars) if i != v))
                / c[0][v]
                for c in lowers
            ]
            up_vals = [
                (c[1] - sum(c[0][i] * sol[i] for i in range(n_vars) if i != v))
                / c[0][v]
                for c in uppers
            ]
            if lo_vals and up_vals:
                lo, up = max(lo_vals), min(up_vals)
                if lo > up:
                    raise AssertionError("inconsistent bounds in back-substitution")
                sol[v] = lo
            elif lo_vals:
                sol[v] = max(lo_vals + [Fraction(0)])
            elif up_vals:
                sol[v] = min(up_vals + [Fraction(0)])
    return sol


def _dedup(system):
    seen = set()
    out = []
    for c in system:
        key = (c[0], c[1], c[2])
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


# references for the fan polytope, the chart cut and validate: the Hermite
# kernel and the general cone solve that the library replaced by signed
# minors, facet inequalities and the cached cone inverses.


def facets_by_kernel(fan: StackyFan) -> tuple:
    """The facets of the fan polytope of a complete fan, each hyperplane
    through n vectors found as the integer kernel of their differences."""
    from orbidisk.lattice import integer_kernel
    from orbidisk.stacky import PolytopeFacet

    pts = fan.stacky_vectors
    n = fan.dim
    facets = {}
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        rows = [[pts[i][j] - base[j] for j in range(n)] for i in sub[1:]]
        normal_rows = integer_kernel(rows) if rows else [[1]]
        if len(normal_rows) != 1:
            continue
        u = list(normal_rows[0])
        c = sum(x * y for x, y in zip(u, base))
        if c < 0:
            u, c = [-x for x in u], -c
        vals = [sum(x * y for x, y in zip(u, p)) for p in pts]
        if c == 0 or any(v > c for v in vals):
            continue
        facets[(tuple(u), c)] = tuple(i for i, v in enumerate(vals) if v == c)
    return tuple(
        sorted(
            (PolytopeFacet(v, u, c) for (u, c), v in facets.items()),
            key=lambda f: f.vertices,
        )
    )


def support_by_fractions(fan: StackyFan) -> tuple[int, ...] | None:
    """The functional pairing to 1 with every vector of the fan, by one
    Fraction solve: None when there is none or it is not integral."""
    u = solve_rational_by_fractions(fan.vectors, [1] * fan.n_vectors)
    if u is None or any(x.denominator != 1 for x in u):
        return None
    return tuple(int(x) for x in u)


def cut_chart_by_cone_solves(fan: StackyFan, facet):
    """The chart over a facet, cut by `cone_contains` on every vector of the
    parent and tested Calabi-Yau by `support_by_fractions`; raises what the
    library's cut raises.  The support vector is the facet's normal."""
    from orbidisk.lattice import cone_contains
    from orbidisk.stacky import FanError
    from orbidisk.suborbifold import CalabiYauError, Suborbifold

    ray_idx = facet.vertices
    gens = fan.cone_vectors(ray_idx)
    collected = tuple(
        j
        for j, v in enumerate(fan.vectors)
        if j not in ray_idx and cone_contains(gens, v)[0]
    )
    bad_rays = [j for j in collected if j < fan.n_rays]
    if bad_rays:
        raise FanError(
            f"rays {bad_rays} lie inside the facet cone but not on the facet"
        )
    reindex = {old: new for new, old in enumerate(ray_idx)}
    sub_cones = {
        tuple(sorted(reindex[i] for i in mc if i in reindex)) for mc in fan.max_cones
    } - {()}
    maximal = [c for c in sub_cones if not any(set(c) < set(d) for d in sub_cones)]
    sub = StackyFan.make(
        fan.dim, gens, sorted(maximal), [fan.vectors[j] for j in collected]
    )
    rep = validate_by_cone_solves(sub)
    if not rep.ok:
        raise FanError(f"chart fan is not valid: {rep.issues}")
    support = support_by_fractions(sub)
    if support is None:
        raise CalabiYauError("chart is not Calabi-Yau; parent not Gorenstein?")
    assert support == facet.normal, (facet, support)
    return Suborbifold(fan, facet, sub, ray_idx + collected)


def validate_by_cone_solves(fan: StackyFan):
    """`validate` with a rank per cone for the simplicial test,
    `cone_contains` on every cone for the support of each extra vector and
    a count per extra vector for its repeats."""
    from orbidisk.lattice import cone_contains, hermite_normal_form, identity_matrix, rank
    from orbidisk.stacky import ValidationReport, _meet_in_common_face

    issues = []
    n = fan.dim
    for v in fan.vectors:
        if len(v) != n:
            issues.append(f"vector {v} does not have {n} coordinates")
            return ValidationReport(False, tuple(issues))
    for c in fan.max_cones:
        if any(i < 0 or i >= fan.n_rays for i in c):
            issues.append(f"cone {c} references a missing ray")
            return ValidationReport(False, tuple(issues))
        if len(c) < n:
            issues.append(f"cone {c} is not full-dimensional")
            return ValidationReport(False, tuple(issues))
        if rank(fan.cone_vectors(c)) != len(c):
            issues.append(f"cone {c} is not simplicial (generators dependent)")
    for a, b in combinations(range(len(fan.max_cones)), 2):
        ca, cb = fan.max_cones[a], fan.max_cones[b]
        if set(ca) <= set(cb) or set(cb) <= set(ca):
            issues.append(f"cone {ca} and cone {cb} are nested; not maximal")
            continue
        if not _meet_in_common_face(fan, ca, cb):
            issues.append(f"cones {ca} and {cb} do not intersect in a common face")
    if {i for c in fan.max_cones for i in c} != set(range(fan.n_rays)):
        issues.append("some rays belong to no maximal cone")
    for v in fan.extra_vectors:
        if not any(cone_contains(fan.cone_vectors(c), v)[0] for c in fan.max_cones):
            issues.append(f"extra vector {v} lies outside the support")
    for v in sorted(set(fan.extra_vectors), key=fan.extra_vectors.index):
        if fan.extra_vectors.count(v) > 1:
            issues.append(f"extra vector {v} is listed more than once")
    if fan.n_vectors and hermite_normal_form(fan.vectors)[0][:n] != identity_matrix(n):
        issues.append("vectors do not generate the lattice (fan map not onto)")
    return ValidationReport(not issues, tuple(issues))


def outcome(f, *args):
    """f(*args), or the class name and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_grid_is_brute_force(fan: StackyFan, order) -> int:
    """The chart's enumerated grid equals the simplex scan, and so does every
    omega set; returns the number of effective classes."""
    from orbidisk.mirror import ChartPipeline

    pipe = ChartPipeline(fan, order)
    ref = brute_force_grid(pipe)
    for j in range(fan.n_vectors):
        assert pipe.omega(j) == omega_from_grid(pipe, j, ref), f"omega({j}) of {fan}"
    assert pipe.grid() == ref, f"grid of {fan} at order {order}"
    return len(ref)


@pytest.fixture(scope="session")
def quotient_plane_tables():
    """Shared order-12 generating functions of the quotient plane."""
    from orbidisk.mirror import disk_generating_function
    from orbidisk.stacky import DiskClassSymbol

    fan = p2z3_extended()
    cache: dict = {}
    g112 = disk_generating_function(
        fan, DiskClassSymbol.orbi((0, -1)), 12, pipeline_cache=cache
    )
    g122 = disk_generating_function(
        fan, DiskClassSymbol.orbi((1, -1)), 12, pipeline_cache=cache
    )
    return fan, g112, g122
