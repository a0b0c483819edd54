"""Re-derive the 16 reflexive polygons and write them as fan files.

A lattice polygon is reflexive when the origin is its only interior lattice
point and every edge lies on a line <u, x> = 1 with u a primitive integral
vector (lattice height 1).  Up to GL(2, Z) every reflexive polygon is a
lattice subpolygon, containing the origin, of one of three maximal ones: the
triangles with vertices (-1,-1), (2,-1), (-1,2) and (-1,-1), (3,-1), (-1,1),
and the square [-1,1]^2.  So the 16 classes are found among the vertex
subsets of their boundary points.  Each class is kept once, in the normal
form computed by `normal_form`.

The fan of such a polygon has the polygon's vertices as rays and the cones
over its edges as maximal cones.  Its twisted sectors are the non-vertex
boundary points, all of age one.  The same command also writes the local
charts C^2/Z_n (n = 2..5): rays (0,1) and (n,1), one cone, and the points
(m,1) in between as twisted-sector vectors.

    python3 perfbench/polygons.py           # list the 16 polygons
    python3 perfbench/polygons.py --write   # rewrite perfbench/fans/
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
from pathlib import Path

FAN_DIR = Path(__file__).resolve().parent / "fans"

MAXIMAL = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (3, -1), (-1, 1)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
)


def cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> tuple[tuple[int, int], ...]:
    """Vertices in counter-clockwise order, starting from the least point."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def edges(vertices):
    return [
        (vertices[i], vertices[(i + 1) % len(vertices)])
        for i in range(len(vertices))
    ]


def edge_height(a, b) -> int:
    """Lattice height of the origin below the edge a -> b (counter-clockwise)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = math.gcd(dx, dy)
    # primitive outer normal u with <u, a> = height
    u = (dy // g, -dx // g)
    return u[0] * a[0] + u[1] * a[1]


def lattice_points(vertices):
    """(interior, boundary) lattice points of a convex polygon."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    interior, boundary = [], []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            sides = [cross(a, b, (x, y)) for a, b in edges(vertices)]
            if all(s > 0 for s in sides):
                interior.append((x, y))
            elif all(s >= 0 for s in sides):
                boundary.append((x, y))
    return interior, boundary


def is_reflexive(vertices) -> bool:
    if len(vertices) < 3:
        return False
    interior, _ = lattice_points(vertices)
    if interior != [(0, 0)]:
        return False
    return all(edge_height(a, b) == 1 for a, b in edges(vertices))


def _hermite(columns) -> tuple:
    """Hermite normal form of the 2 x k matrix with these columns.

    GL(2, Z) acts by row operations; the form is the same for two column
    lists exactly when one is a GL(2, Z) image of the other.
    """
    rows = [[c[0] for c in columns], [c[1] for c in columns]]
    k = len(columns)
    piv = next(j for j in range(k) if rows[0][j] or rows[1][j])
    # gcd step on the first pivot column
    while rows[1][piv]:
        q = rows[0][piv] // rows[1][piv]
        rows[0] = [a - q * b for a, b in zip(rows[0], rows[1])]
        rows[0], rows[1] = rows[1], rows[0]
    if rows[0][piv] < 0:
        rows[0] = [-a for a in rows[0]]
    piv2 = next(j for j in range(piv + 1, k) if rows[1][j])
    if rows[1][piv2] < 0:
        rows[1] = [-a for a in rows[1]]
    q = rows[0][piv2] // rows[1][piv2]
    rows[0] = [a - q * b for a, b in zip(rows[0], rows[1])]
    return tuple(map(tuple, rows))


def normal_form(vertices) -> tuple:
    """GL(2, Z) invariant of a polygon: least Hermite form over vertex orders."""
    n = len(vertices)
    forms = []
    for order in (list(vertices), list(reversed(vertices))):
        for s in range(n):
            forms.append(_hermite(order[s:] + order[:s]))
    return min(forms)


def reflexive_polygons() -> list[tuple[tuple[int, int], ...]]:
    """One representative per GL(2, Z) class, sorted by (vertices, boundary)."""
    found: dict = {}
    for big in MAXIMAL:
        _, boundary = lattice_points(big)
        for size in range(3, len(boundary) + 1):
            for subset in itertools.combinations(boundary, size):
                hull = convex_hull(subset)
                if len(hull) != size or not is_reflexive(hull):
                    continue
                found.setdefault(normal_form(hull), hull)
    polys = list(found.values())
    polys.sort(key=lambda p: (len(p), len(lattice_points(p)[1]), p))
    return polys


def fan_document(vertices) -> dict:
    n = len(vertices)
    return {
        "dim": 2,
        "rays": [list(v) for v in vertices],
        "max_cones": [sorted([i, (i + 1) % n]) for i in range(n)],
        "extra_vectors": "auto-age1",
        "normalization_cone": 0,
    }


def local_chart_document(n: int) -> dict:
    return {
        "dim": 2,
        "rays": [[0, 1], [n, 1]],
        "max_cones": [[0, 1]],
        "extra_vectors": [[m, 1] for m in range(1, n)],
    }


LOCAL_ORDERS = (2, 3, 4, 5)


def fan_name(index: int, vertices) -> str:
    _, boundary = lattice_points(vertices)
    return f"r{index:02d}_v{len(vertices)}_b{len(boundary)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite the fan files")
    args = ap.parse_args(argv)
    polys = reflexive_polygons()
    if len(polys) != 16:
        raise SystemExit(f"expected 16 reflexive polygons, found {len(polys)}")
    if args.write:
        FAN_DIR.mkdir(exist_ok=True)
        for old in FAN_DIR.glob("*.json"):
            old.unlink()
        for n in LOCAL_ORDERS:
            text = json.dumps(local_chart_document(n), sort_keys=True)
            (FAN_DIR / f"c2z{n}.json").write_text(text + "\n", encoding="utf-8")
    for i, poly in enumerate(polys, 1):
        name = fan_name(i, poly)
        print(name, " ".join(f"{x},{y}" for x, y in poly))
        if args.write:
            text = json.dumps(fan_document(poly), sort_keys=True)
            (FAN_DIR / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
