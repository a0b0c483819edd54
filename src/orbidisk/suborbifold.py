"""Toric Calabi-Yau reduction charts.

Each basic disk class selects a facet of the fan polytope; the stacky and
extra vectors inside the cone over that facet form an open toric Calabi-Yau
suborbifold that carries all the stable disks in that class.  Invariant
computations happen on the chart and are relabeled back to the ambient
orbifold through the zero-padded inclusion of relation lattices.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from ._record import frozen
from .stacky import (
    DiskClassSymbol,
    FanError,
    PolytopeFacet,
    StackyFan,
    facets_containing,
    fan_polytope_facets,
    validate,
)


class CalabiYauError(FanError):
    pass


class InvalidFacetError(FanError):
    pass


@frozen
class Suborbifold:
    parent: StackyFan
    facet: PolytopeFacet
    fan: StackyFan
    # chart vector index -> parent vector index, rays then extras
    parent_index: tuple[int, ...]


def build_suborbifold(
    fan: StackyFan, beta: DiskClassSymbol, facet: PolytopeFacet | None = None
) -> Suborbifold:
    """Chart of a basic disk class: vectors collected over a polytope facet.

    The facet has to contain the minimal face of the class's boundary vector;
    when several do, the one with the lexicographically least vertex set is
    used unless an explicit choice is passed.  Every class whose chosen
    facet is the same gets the same chart, cut once (`_cut_chart`).
    """
    b = fan.stacky_vectors[beta.ray] if beta.kind == "ray" else tuple(beta.point)
    candidates = facets_containing(fan, b)
    if not candidates:
        raise FanError(f"boundary vector {b} lies on no facet of the fan polytope")
    if facet is None:
        chosen = candidates[0]
    else:
        if facet not in candidates:
            raise InvalidFacetError(
                f"facet {facet.vertices} does not contain the minimal face "
                f"of {b}"
            )
        chosen = facet
    return _cut_chart(fan, chosen)


@lru_cache(maxsize=128)
def _cut_chart(fan: StackyFan, chosen: PolytopeFacet) -> Suborbifold:
    """The chart over one facet, validated and tested Calabi-Yau.  Cached:
    the cut is pure and the returned data immutable.

    The origin is interior to the fan polytope P, so v lies in the cone over
    the facet (u, h) exactly when v / t lies in P for t = <u, v> / h, that
    is when <u_G, v> h <= h_G <u, v> for every facet (u_G, h_G) of P (these
    force <u, v> >= 0, as P is bounded).  The facet's rays span R^n and pair
    to h with u, so the only functional that can pair to 1 with every chart
    vector is u / h; it does when every collected vector pairs to h with u,
    and then h = 1, as the validated chart's vectors generate Z^n.
    """
    ray_idx = chosen.vertices
    u, h = chosen.normal, chosen.height
    bounds = [(f.normal, f.height) for f in fan_polytope_facets(fan)]

    def in_cone(v) -> bool:
        uv = sum(map(mul, u, v))
        return all(sum(map(mul, w, v)) * h <= c * uv for w, c in bounds)

    collected = tuple(
        j for j, v in enumerate(fan.vectors) if j not in ray_idx and in_cone(v)
    )
    bad_rays = [j for j in collected if j < fan.n_rays]
    if bad_rays:
        raise FanError(
            f"rays {bad_rays} lie inside the facet cone but not on the facet"
        )
    reindex = {old: new for new, old in enumerate(ray_idx)}
    # each maximal cone's face on the facet
    sub_cones = {
        tuple(sorted(reindex[i] for i in mc if i in reindex)) for mc in fan.max_cones
    } - {()}
    maximal = [
        c
        for c in sub_cones
        if not any(set(c) < set(d) for d in sub_cones)
    ]
    sub = StackyFan.make(
        fan.dim,
        fan.cone_vectors(ray_idx),
        sorted(maximal),
        extra_vectors=[fan.vectors[j] for j in collected],
    )
    rep = validate(sub)
    if not rep.ok:
        raise FanError(f"chart fan is not valid: {rep.issues}")
    if any(sum(map(mul, u, fan.vectors[j])) != h for j in collected):
        raise CalabiYauError("chart is not Calabi-Yau; parent not Gorenstein?")
    return Suborbifold(fan, chosen, sub, ray_idx + collected)


def push_class_pairings(sub: Suborbifold, pairings) -> tuple:
    """Relabel a chart relation class into the ambient orbifold.

    Input and output are pairing vectors with the divisor classes (chart
    length, parent length); the map is the zero-padded inclusion of
    relations, so integer pairings stay integers.
    """
    out = [0] * sub.parent.n_vectors
    for k, val in enumerate(pairings):
        out[sub.parent_index[k]] = val
    # a chart relation must stay a relation upstairs
    total = [0] * sub.parent.dim
    for i, c in enumerate(out):
        if c:
            v = sub.parent.vectors[i]
            for t in range(sub.parent.dim):
                total[t] += c * v[t]
    if any(total):
        raise FanError("pushed class is not a relation of the parent fan")
    return tuple(out)
