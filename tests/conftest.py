"""Shared fan builders and randomized fan generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

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
    from orbidisk.lattice import det

    while True:
        vecs = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)
        ]
        d = det(vecs)
        if d != 0 and abs(d) <= 20:
            return StackyFan.make(dim, vecs, [tuple(range(dim))])


REPO = Path(__file__).resolve().parents[1]


def example_fans(bench: bool = True) -> list[tuple[str, StackyFan]]:
    """The fan files in fans/ and, with bench, perfbench/fans/, by name."""
    from orbidisk.fanfile import parse_fan_file

    paths = sorted((REPO / "fans").glob("*.json"))
    if bench:
        paths += sorted((REPO / "perfbench" / "fans").glob("*.json"))
    return [(p.stem, parse_fan_file(p).resolve_fan()) for p in paths]


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


def brute_force_grid(pipe) -> dict:
    """Effective classes found by classifying every point of the exponent
    simplex {key >= 0 : sum(key) <= bound}: the reference for the grid."""
    out = {}

    def scan(pos, acc, left):
        if pos == pipe.r:
            gp = pipe._classify(tuple(acc))
            if gp.effective:
                out[gp.key] = gp
            return
        for k in range(left + 1):
            scan(pos + 1, acc + [k], left - k)

    scan(0, [], pipe.y_ring._bound)
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


def assert_grid_is_brute_force(fan: StackyFan, order) -> int:
    """The chart's enumerated grid equals the simplex scan, and so does every
    omega set; returns the number of effective classes."""
    from orbidisk.mirror import ChartPipeline

    pipe = ChartPipeline(fan, order)
    ref = ChartPipeline(fan, order)
    ref._grid = brute_force_grid(ref)
    assert pipe.grid() == ref._grid, f"grid of {fan} at order {order}"
    for j in range(fan.n_vectors):
        assert pipe.omega(j) == ref.omega(j), f"omega({j}) of {fan}"
    return len(ref._grid)


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
