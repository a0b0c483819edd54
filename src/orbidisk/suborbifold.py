"""Toric Calabi-Yau reduction charts.

Each basic disk class selects a facet of the fan polytope; the stacky and
extra vectors inside the cone over that facet form an open toric Calabi-Yau
suborbifold that carries all the stable disks in that class.  Invariant
computations happen on the chart and are relabeled back to the ambient
orbifold through the zero-padded inclusion of relation lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import cone_contains, solve_integer
from .stacky import (
    DiskClassSymbol,
    FanError,
    PolytopeFacet,
    StackyFan,
    facets_containing,
    validate,
)


class CalabiYauError(FanError):
    pass


class InvalidFacetError(FanError):
    pass


@dataclass(frozen=True)
class Suborbifold:
    parent: StackyFan
    facet: PolytopeFacet
    fan: StackyFan
    # chart vector index -> parent vector index, rays then extras
    parent_index: tuple[int, ...]

    @property
    def support_vector(self) -> tuple[int, ...]:
        u = cy_support_vector(self.fan)
        if u is None:  # pragma: no cover - construction guarantees CY
            raise CalabiYauError("chart lost its Calabi-Yau support vector")
        return u


def cy_support_vector(fan: StackyFan) -> tuple[int, ...] | None:
    """The primitive integral functional pairing to 1 with every vector.

    Returns None when no such hyperplane exists (for example for a complete
    fan).  When it exists it is automatically primitive and unique as soon as
    the vectors span the ambient space.
    """
    vecs = [list(v) for v in fan.vectors]
    u = solve_integer(vecs, [1] * len(vecs))
    if u is None:
        return None
    if any(sum(a * b for a, b in zip(u, v)) != 1 for v in vecs):  # pragma: no cover
        return None
    return tuple(u)


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
        raise FanError(f"boundary vector {b} is interior to the fan polytope")
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
    """
    ray_idx = [
        i
        for i, v in enumerate(fan.stacky_vectors)
        if sum(x * y for x, y in zip(chosen.normal, v)) == chosen.height
    ]
    gens = [fan.stacky_vectors[i] for i in ray_idx]
    collected = []
    for j, v in enumerate(fan.vectors):
        if j in ray_idx:
            continue
        if cone_contains(gens, v)[0]:
            collected.append(j)
    bad_rays = [j for j in collected if j < fan.n_rays]
    if bad_rays:
        raise FanError(
            f"rays {bad_rays} lie inside the facet cone but not on the facet"
        )
    reindex = {old: new for new, old in enumerate(ray_idx)}
    sub_cones = set()
    for mc in fan.max_cones:
        if all(i in reindex for i in mc):
            sub_cones.add(tuple(sorted(reindex[i] for i in mc)))
        else:
            inside = tuple(sorted(reindex[i] for i in mc if i in reindex))
            if inside:
                sub_cones.add(inside)
    maximal = [
        c
        for c in sub_cones
        if not any(set(c) < set(d) for d in sub_cones)
    ]
    sub = StackyFan.make(
        fan.dim,
        [fan.stacky_vectors[i] for i in ray_idx],
        sorted(maximal),
        extra_vectors=[fan.vectors[j] for j in collected],
    )
    rep = validate(sub)
    if not rep.ok:
        raise FanError(f"chart fan is not valid: {rep.issues}")
    if cy_support_vector(sub) is None:
        raise CalabiYauError("chart is not Calabi-Yau; parent not Gorenstein?")
    return Suborbifold(fan, chosen, sub, tuple(ray_idx + collected))


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
