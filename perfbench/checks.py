"""Checks of job results against the closed form and the method's properties.

Every check takes a job's result (the JSON the job printed, exact values as
strings), raises CheckError on the first disagreement, and otherwise returns
the number of nonzero coefficients it checked.  Nothing here imports the
program; stored copies of earlier output are never consulted.

A series is compared only inside the program's truncation: a monomial with
exponents e is kept when sum(weight_i * e_i) <= order.  The closed form is
expanded to total degree order / (least weight), so it covers that window
completely; a Z2 sector has weight 1/2 and needs degree 2 * order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import floor, gcd

from closed_form import sector_series
from polygons import convex_hull, lattice_points


class CheckError(AssertionError):
    pass


def _terms(series: dict) -> dict[tuple[Fraction, ...], Fraction]:
    out = {}
    for exps, coeff in series["terms"]:
        key = tuple(Fraction(e) for e in exps)
        if key in out:
            raise CheckError(f"monomial {key} listed twice")
        out[key] = Fraction(coeff)
    if any(v == 0 for v in out.values()):
        raise CheckError("a listed coefficient is zero")
    return out


def edge_position(point, vertices):
    """(v0, v1, n, m) for a point inside an edge of a convex polygon.

    The edge runs between consecutive vertices v0 -> v1, has lattice length
    n, and the point is v0 + m (v1 - v0) / n with 0 < m < n.
    """
    k = len(vertices)
    for i in range(k):
        v0, v1 = vertices[i], vertices[(i + 1) % k]
        dx, dy = v1[0] - v0[0], v1[1] - v0[1]
        n = gcd(dx, dy)
        px, py = point[0] - v0[0], point[1] - v0[1]
        if px * dy - py * dx != 0:
            continue
        for m in range(1, n):
            if (px, py) == (m * dx // n, m * dy // n):
                return v0, v1, n, m
    raise CheckError(f"{point} is not inside an edge of {vertices}")


def expected_sector(point, tau_points, vertices, weights, budget):
    """Closed-form series of the sector at `point`, in the chart's tau order.

    Returns {tau exponents: coefficient} for every monomial whose weighted
    degree is at most `budget`.
    """
    v0, v1, n, m = edge_position(point, vertices)
    positions = []
    for p in tau_points:
        q0, q1, qn, qm = edge_position(tuple(p), vertices)
        if (q0, q1) != (v0, v1):
            raise CheckError(f"sector {p} is not on the edge of {point}")
        positions.append(qm)
    if sorted(positions) != list(range(1, n)):
        raise CheckError(
            f"chart of {point} carries sectors {tau_points}, not the "
            f"{n - 1} interior points of its edge"
        )
    if budget < 0:
        return {}
    degree = floor(budget / min(weights))
    out = {}
    for k, v in sector_series(n, degree)[m].items():
        tau = tuple(Fraction(k[pos - 1]) for pos in positions)
        if sum(w * e for w, e in zip(weights, tau)) <= budget:
            out[tau] = v
    return out


def _compare(got: dict, want: dict, what: str):
    if got == want:
        return
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    raise CheckError(
        f"{what}: {len(missing)} missing, {len(extra)} unexpected and "
        f"{len(wrong)} wrong coefficients; first: "
        f"{(missing + extra + wrong)[0]}"
    )


def read_fan_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_potential(result: dict, fan: dict) -> int:
    """Disk potential of a fan whose rays lie on a reflexive polygon.

    Vertex classes carry their area monomial alone; a box class carries its
    area monomial times the closed-form series of its edge's sector; a ray
    inside an edge of length 2 carries (1 + q^C), C its -2-curve (Auroux
    2007).  Areas are nonnegative, zero on the rays of the normalization
    cone, and linear in the class: along an edge they interpolate between
    the vertices, and C's exponent is area(v0) - 2 area(z) + area(v1).
    """
    rays = [tuple(r) for r in fan["rays"]]
    vertices = convex_hull(rays)
    _, boundary = lattice_points(vertices)
    cone_rays = {rays[i] for i in fan["max_cones"][fan.get("normalization_cone") or 0]}
    entries = {tuple(e["z"]): e for e in result["entries"]}
    if len(entries) != len(result["entries"]) or sorted(entries) != sorted(boundary):
        raise CheckError(
            f"potential has terms at {sorted(entries)}, expected {sorted(boundary)}"
        )
    area_of = {z: tuple(Fraction(a) for a in e["area"]) for z, e in entries.items()}
    checked = 0
    for z, e in sorted(entries.items()):
        area = area_of[z]
        n_q = e["n_q"]
        if len(area) != n_q or any(a < 0 for a in area):
            raise CheckError(f"area {area} at {z} is not a nonnegative {n_q}-vector")
        if z in cone_rays and any(area):
            raise CheckError(f"ray {z} of the normalization cone has area {area}")
        weights = [Fraction(w) for w in e["weights"]]
        if weights[:n_q] != [1] * n_q:
            raise CheckError(f"curve variables at {z} have weights {weights[:n_q]}")
        budget = Fraction(e["order"]) - sum(area)
        zero_tau = (Fraction(0),) * (len(weights) - n_q)
        want = {}
        if z in vertices:
            want[area + zero_tau] = Fraction(1)
        else:
            v0, v1, n, m = edge_position(z, vertices)
            if z in rays:
                if n != 2 or zero_tau:
                    raise CheckError(f"no closed form for the ray {z} on an edge of length {n}")
                curve = tuple(
                    a - 2 * b + c for a, b, c in zip(area_of[v0], area, area_of[v1])
                )
                if not any(curve) or any(c < 0 for c in curve):
                    raise CheckError(f"the -2-curve at {z} has class {curve}")
                want[area] = Fraction(1)
                if sum(curve) <= budget:
                    want[tuple(a + c for a, c in zip(area, curve))] = Fraction(1)
            else:
                between = tuple(
                    ((n - m) * a + m * b) / n for a, b in zip(area_of[v0], area_of[v1])
                )
                if area != between:
                    raise CheckError(f"area {area} at {z} is not linear along its edge")
                sector = expected_sector(z, e["tau_points"], vertices, weights[n_q:], budget)
                want = {area + tau: v for tau, v in sector.items()}
        if budget < 0:
            want = {}
        got = _terms(e)
        _compare(got, want, f"potential term at {z}")
        checked += len(got)
    return checked


def check_invariants(result: dict, fan: dict, klass: str) -> int:
    """Every invariant of one basic class (alpha = 0 on these charts)."""
    rays = [tuple(r) for r in fan["rays"]]
    vertices = convex_hull(rays)
    weights = [Fraction(w) for w in result["weights"]]
    tau_points = [tuple(p) for p in result["tau_points"]]
    order = Fraction(result["order"])
    got = {}
    for alpha, insertions, value in result["rows"]:
        if any(Fraction(a) for a in alpha):
            raise CheckError(f"{klass}: invariant with sphere class {alpha}")
        exps = [Fraction(0)] * len(tau_points)
        for point, mult in insertions:
            exps[tau_points.index(tuple(point))] = Fraction(mult)
        if tuple(exps) in got:
            raise CheckError(f"{klass}: insertions {insertions} listed twice")
        got[tuple(exps)] = Fraction(value)
    if 0 in got.values():
        raise CheckError(f"{klass}: a listed invariant is zero")
    kind, _, rest = klass.partition(":")
    if kind == "ray":
        if rays[int(rest)] not in vertices:
            raise CheckError(f"{klass} is not a vertex class")
        want = {(Fraction(0),) * len(tau_points): Fraction(1)}
    else:
        point = tuple(int(x) for x in rest.split(","))
        want = expected_sector(point, tau_points, vertices, weights, order)
    _compare(got, want, klass)
    return len(got)


def check_chart(result: dict, fan: dict) -> int:
    """Round trip and every sector series of a local chart C^2/Z_n."""
    if result["round_trip"] is not True:
        raise CheckError("forward map followed by its inverse is not the identity")
    vertices = tuple(tuple(r) for r in fan["rays"])
    sectors = result["sectors"]
    if sorted(sectors) != sorted(",".join(map(str, p)) for p in fan["extra_vectors"]):
        raise CheckError(f"sectors {sorted(sectors)} do not match the chart")
    checked = 0
    for name, series in sectors.items():
        point = tuple(int(x) for x in name.split(","))
        n_q = series["n_q"]
        weights = [Fraction(w) for w in series["weights"]]
        got = {}
        for k, v in _terms(series).items():
            if any(k[:n_q]):
                raise CheckError(f"sector {point} has a curve-class term {k}")
            got[k[n_q:]] = v
        want = expected_sector(
            point, series["tau_points"], vertices, weights[n_q:], Fraction(series["order"])
        )
        _compare(got, want, f"sector {point}")
        checked += len(got)
    return checked


def check_verify(result: dict) -> int:
    """verify-p2z3 passed, and says so on every line."""
    lines = result["lines"]
    bad = [line for line in lines if not line.startswith("PASS ")]
    if result["ok"] is not True or bad or len(lines) < 9:
        raise CheckError(f"verify-p2z3 did not pass: {bad or lines}")
    return 0
