"""Tests for stacky fan combinatorics."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

import pytest
from conftest import (
    REPO,
    basic_class_charts,
    box_point,
    c2z3_chart,
    c3z3_chart,
    det,
    example_fans,
    f2_fan,
    f3_fan,
    facets_by_kernel,
    fm_solve,
    kahler_by_anticone_rows,
    local_chart,
    maximal_minor_gcd,
    minimal_cone_coordinates,
    om2_chart,
    p2_fan,
    p2z3_bare,
    p2z3_extended,
    partial_resolutions,
    pcoords_by_solve,
    random_complete_2d_fan,
    random_single_cone_fan,
    solve_rational_by_fractions,
    validate_by_cone_solves,
)

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbidisk import stacky
from orbidisk.fanfile import parse_fan_file
from orbidisk.lattice import (
    AmbiguousSolutionError,
    cone_contains,
    identity_matrix,
    integer_kernel,
    rank,
    solve_rational,
    transpose,
)
from orbidisk.stacky import (
    FanError,
    NoValidBasisError,
    NotCompleteError,
    StackyFan,
    ValidationReport,
    age_one_box_points,
    anticones,
    box_elements,
    cone_index,
    dual_class_data,
    facets_containing,
    fan_sequence,
    gorenstein_check,
    is_complete,
    minimal_anticones,
    semifano_check,
    validate,
    wall_curve_classes,
)


# -- validation ---------------------------------------------------------------


def test_validate_quotient_plane():
    assert validate(p2z3_extended()).ok
    # the bare fan's rays only generate an index-3 sublattice
    rep = validate(p2z3_bare())
    assert not rep.ok and "onto" in rep.issues[0]


def test_validate_overlapping_cones():
    fan = StackyFan.make(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1), (2, 3)])
    rep = validate(fan)
    assert not rep.ok
    assert any("common face" in issue for issue in rep.issues)
    # 3-D: the cones share the ray (1,0,0), but (1,1,1) of the second cone
    # lies inside the first
    fan = StackyFan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, 1, 0)],
        [(0, 1, 2), (0, 3, 4)],
    )
    rep = validate(fan)
    assert not rep.ok
    assert rep.issues == (
        "cones (0, 1, 2) and (0, 3, 4) do not intersect in a common face",
    )


def fm_meet_in_common_face(fan, ca, cb) -> bool:
    """The Fourier-Motzkin form of the common-face test: no l >= 0 on ca and
    m >= 0 on cb with sum l_i b_i = sum m_j b_j and mass >= 1 on ca minus cb."""
    extra = [i for i in ca if i not in cb]
    if not extra:
        return True
    b, nvar = fan.stacky_vectors, len(ca) + len(cb)
    cons = [
        ([b[i][j] for i in ca] + [-b[i][j] for i in cb], 0, True)
        for j in range(fan.dim)
    ]
    cons += [([int(s == t) for s in range(nvar)], 0, False) for t in range(nvar)]
    cons.append(([int(i in extra) for i in ca] + [0] * len(cb), 1, False))
    return fm_solve(nvar, cons) is None


@st.composite
def simplicial_cone_pairs(draw):
    """Two simplicial cones, of 1 to n rays each, from a small pool of
    vectors in dimensions 2-4; they may share rays, nest or overlap."""
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    pool = draw(st.lists(vec, min_size=n + 1, max_size=n + 3))
    cones = []
    for _ in range(2):
        size = draw(st.integers(1, n))
        idx = st.integers(0, len(pool) - 1)
        c = draw(st.lists(idx, min_size=size, max_size=size, unique=True))
        assume(rank([pool[i] for i in c]) == size)
        cones.append(tuple(sorted(c)))
    return StackyFan.make(n, pool, cones), *cones


@settings(max_examples=300, deadline=None)
@given(simplicial_cone_pairs())
def test_meet_in_common_face_matches_fourier_motzkin(case):
    fan, ca, cb = case
    good = stacky._meet_in_common_face(fan, ca, cb)
    assert good == fm_meet_in_common_face(fan, ca, cb)
    assert stacky._meet_in_common_face(fan, cb, ca) == good
    assert fm_meet_in_common_face(fan, cb, ca) == good


def test_validate_non_surjective():
    fan = StackyFan.make(2, [(2, 0), (0, 2)], [(0, 1)])
    rep = validate(fan)
    assert not rep.ok and any("onto" in i for i in rep.issues)


@st.composite
def vector_sets(draw):
    """n to n + 2 vectors in Z^n, n <= 4, mapped by a matrix of determinant
    1, 2 or 3, so that sets spanning index-2 and index-3 sublattices turn up
    next to generating and dependent ones."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    vectors = draw(st.lists(vec, min_size=n, max_size=n + 2))
    # a unimodular matrix (row operations on the identity) times diag(d, 1...)
    d = draw(st.sampled_from([1, 2, 3]))
    a = identity_matrix(n)
    a[0][0] = d
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            k = draw(st.integers(-2, 2))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    mapped = [[sum(map(mul, v, col)) for col in zip(*a)] for v in vectors]
    return n, mapped, d


@settings(max_examples=300, deadline=None)
@given(vector_sets())
def test_validate_onto_matches_the_maximal_minor_gcd(case):
    n, vectors, d = case
    fan = StackyFan.make(n, vectors, [])
    not_onto = any("onto" in issue for issue in validate(fan).issues)
    index = maximal_minor_gcd(transpose(vectors))
    assert not_onto == (index != 1)
    if d > 1:
        assert not_onto and index % d == 0


def test_validate_nested_cones():
    # with n rays in every maximal cone, only a repeated cone is nested
    fan = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])
    rep = validate(fan)
    assert rep.issues == ("cone (0, 1) and cone (0, 1) are nested; not maximal",)


def test_validate_extra_outside_support():
    fan = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)], [(-1, 0)])
    rep = validate(fan)
    assert any("outside the support" in i for i in rep.issues)


# invalid fans whose issue lists hit each branch of validate: a dependent
# cone (whose span alone holds an extra vector), lower-dimensional cones
# (first, and after a dependent cone), an extra vector outside the support,
# a repeated extra vector, a cone of more than n rays, and missing rays
# after a dependent cone or a non-simplicial first cone
P2Z3 = p2z3_extended()
INVALID_FANS = [
    StackyFan.make(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (0, 2)], [(-3, 0)]),
    StackyFan.make(2, [(1, 0), (2, 0), (0, 1), (-1, -1)],
                   [(0, 1), (1, 2), (2, 3), (0, 3)], [(3, 1)]),
    StackyFan.make(2, [(1, 0), (0, 1)], [(0,), (1,)], [(2, 0), (1, 1)]),
    StackyFan.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1), (2,)],
                   [(1, 1, 0), (0, 0, 2), (1, 0, 1)]),
    StackyFan.make(2, [(1, 0), (2, 0), (0, 1)], [(0, 1), (2,), (1, 2)]),
    StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)], [(-1, 0)]),
    StackyFan(2, P2Z3.stacky_vectors, P2Z3.extra_vectors + ((1, 0),) * 2, P2Z3.max_cones),
    StackyFan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2), (0, 1)]),
    StackyFan(2, ((1, 0), (2, 0), (0, 1)), (), ((0, 1), (1, 2), (0, 5), (7,))),
    StackyFan(2, ((1, 0), (0, 1)), ((1, 1),), ((0, 1), (-3, 1))),
]


def test_validate_matches_cone_solves():
    """validate's simplicial and support checks, read off the cone inverses,
    give the issue lists, in order, of a rank per cone and cone_contains."""
    fans = [fan for _, fan in example_fans() + partial_resolutions()]
    for fan in fans + [c for fan in fans for c in basic_class_charts(fan)]:
        assert validate(fan) == validate_by_cone_solves(fan) == ValidationReport(True, ())
    for fan in INVALID_FANS:
        rep = validate(fan)
        assert not rep.ok and rep == validate_by_cone_solves(fan), fan
    # a lower-dimensional cone ends the report after the dependent cones
    # before it; an extra vector listed three times is named once
    assert validate(INVALID_FANS[4]).issues == (
        "cone (0, 1) is not simplicial (generators dependent)",
        "cone (2,) is not full-dimensional",
    )
    assert validate(INVALID_FANS[6]).issues == (
        "extra vector (1, 0) is listed more than once",
    )


# -- anticones ----------------------------------------------------------------


def test_anticones_p1():
    p1 = StackyFan.make(1, [(1,), (-1,)], [(0,), (1,)])
    assert anticones(p1) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_anticones_quotient_chart():
    got = anticones(c2z3_chart())
    assert got == {
        frozenset({2, 3}),
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
        frozenset({0, 1, 2, 3}),
    }


def test_anticones_single_cone_contains_full_set():
    fan = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    got = anticones(fan)
    assert frozenset({0, 1}) in got  # complement of the zero cone
    assert frozenset() in got  # complement of the maximal cone


# -- box elements -------------------------------------------------------------


def test_box_quotient_plane():
    boxes = box_elements(p2z3_bare())
    nontrivial = [b for b in boxes if b.point != (0, 0)]
    assert len(nontrivial) == 6
    assert all(b.age == 1 for b in nontrivial)
    assert sorted(b.point for b in nontrivial) == [
        (-1, 0),
        (-1, 1),
        (0, -1),
        (0, 1),
        (1, -1),
        (1, 0),
    ]


def test_box_coordinates():
    fan = StackyFan.make(2, [(2, -1), (-1, 2)], [(0, 1)])
    by_point = {b.point: b for b in box_elements(fan)}
    assert by_point[(1, 0)].coords == (Fraction(2, 3), Fraction(1, 3))
    assert by_point[(0, 1)].coords == (Fraction(1, 3), Fraction(2, 3))
    assert by_point[(1, 0)].carrier == (0, 1)


def test_box_smooth_cone_trivial():
    fan = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert [b.point for b in box_elements(fan)] == [(0, 0)]


def test_box_count_is_cone_index():
    rng = random.Random(11)
    for _ in range(12):
        fan = random_single_cone_fan(rng, rng.choice([2, 3]))
        boxes = box_elements(fan)
        carried = [b for b in boxes if set(b.carrier) <= set(fan.max_cones[0])]
        assert len(carried) == cone_index(fan, fan.max_cones[0])


@st.composite
def single_cones(draw):
    """k <= n <= 4 generators in Z^n, often non-primitive or fewer than n,
    as a one-cone fan; the generators may be dependent."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    vectors = draw(st.lists(vec, min_size=k, max_size=k))
    return StackyFan.make(n, vectors, [tuple(range(k))])


@settings(max_examples=200, deadline=None)
@given(single_cones())
def test_cone_index_is_the_minor_gcd_and_the_box_count(fan):
    cone = fan.max_cones[0]
    if len(cone) < fan.dim:
        for f in (lambda: cone_index(fan, cone), lambda: box_elements(fan)):
            with pytest.raises(FanError, match="not full-dimensional"):
                f()
        return
    index = maximal_minor_gcd(fan.cone_vectors(cone))
    if index == 0:
        with pytest.raises(FanError, match="not simplicial"):
            cone_index(fan, cone)
        return
    assert cone_index(fan, cone) == index
    # every box element of a one-cone fan is carried by that cone
    assert len(box_elements(fan)) == index


def test_cone_index_on_every_face_of_the_example_fans():
    # a maximal cone's index is its n x n minor; any other face is refused
    for _, fan in example_fans():
        for face in fan.faces():
            face = tuple(sorted(face))
            if face in fan.max_cones:
                want = maximal_minor_gcd(fan.cone_vectors(face))
                assert cone_index(fan, face) == want
            else:
                with pytest.raises(FanError, match="is not a maximal cone"):
                    cone_index(fan, face)


def test_cone_index_rejects_dependent_generators():
    fan = StackyFan.make(3, [(1, 0, 1), (2, 0, 2), (0, 0, 0)], [(0, 1, 2)])
    with pytest.raises(FanError, match=re.escape("cone (0, 1, 2) is not simplicial")):
        cone_index(fan, (0, 1, 2))
    for cone in [(0, 1), (2,)]:
        with pytest.raises(FanError, match=re.escape(f"cone {cone} is not a maximal")):
            cone_index(fan, cone)


def rational_box_scan(fan: StackyFan) -> dict:
    """Box points with carrier and coordinates, by one rational solve per
    scanned point: the reference for box_elements."""
    found = {}
    for mc in fan.max_cones:
        vecs = fan.cone_vectors(mc)
        cols = transpose(vecs)
        lo = [sum(min(0, v[j]) for v in vecs) for j in range(fan.dim)]
        hi = [sum(max(0, v[j]) for v in vecs) for j in range(fan.dim)]
        for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            try:
                t = solve_rational_by_fractions(cols, list(pt))
            except AmbiguousSolutionError:
                continue
            if t is None or any(x < 0 or x >= 1 for x in t):
                continue
            carrier = tuple(i for i, x in zip(mc, t) if x != 0)
            found.setdefault(pt, (carrier, tuple(x for x in t if x != 0)))
    return found


def test_box_elements_match_rational_scan():
    rng = random.Random(5)
    fans = [fan for _, fan in example_fans()]
    fans += [random_single_cone_fan(rng, rng.choice([2, 3])) for _ in range(8)]
    fans += [random_complete_2d_fan(rng) for _ in range(4)]
    for fan in fans:
        boxes = box_elements(fan)
        assert {b.point: (b.carrier, b.coords) for b in boxes} == rational_box_scan(fan)
        assert all(b.age == sum(b.coords, Fraction(0)) for b in boxes)
    # a lower-dimensional cone is refused: a non-primitive ray in Z^2, a
    # plane in Z^3
    for fan in (
        StackyFan.make(2, [(2, 4)], [(0,)]),
        StackyFan.make(3, [(1, 0, 1), (1, 3, 1)], [(0, 1)]),
    ):
        with pytest.raises(FanError, match="is not full-dimensional"):
            box_elements(fan)


# -- gorenstein ---------------------------------------------------------------


def test_gorenstein_examples():
    assert gorenstein_check(p2z3_bare()).ok
    assert gorenstein_check(p2_fan()).ok
    # weight (1,1,3) plane: the big cone has no integral support vector
    p113 = StackyFan.make(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (1, 2), (0, 2)])
    res = gorenstein_check(p113)
    assert not res.ok and res.witness_cone == (0, 2)
    ages = {b.age for b in box_elements(p113)}
    assert Fraction(2, 3) in ages


def test_gorenstein_support_vector_pairs_to_one():
    res = gorenstein_check(p2z3_bare())
    fan = p2z3_bare()
    for mc, u in zip(fan.max_cones, res.support_vectors):
        for i in mc:
            assert sum(a * b for a, b in zip(u, fan.stacky_vectors[i])) == 1


def test_gorenstein_support_vectors_are_the_rational_solve():
    # u with <u, b_i> = 1 on each maximal cone's rays, by a Fraction solve:
    # the support vector when integral, None exactly when not
    rng = random.Random(2026)
    fans = [fan for _, fan in example_fans()]
    fans += [random_single_cone_fan(rng, rng.choice([2, 3])) for _ in range(12)]
    fans += [random_complete_2d_fan(rng) for _ in range(8)]
    integral = fractional = 0
    for fan in fans:
        res = gorenstein_check(fan)
        for mc, u in zip(fan.max_cones, res.support_vectors):
            vecs = fan.cone_vectors(mc)
            want = solve_rational_by_fractions(vecs, [1] * len(vecs))
            if all(x.denominator == 1 for x in want):
                assert u == tuple(want), (fan, mc)
                integral += 1
            else:
                assert u is None, (fan, mc)
                fractional += 1
        assert res.ok == all(u is not None for u in res.support_vectors)
    assert integral and fractional


def test_gorenstein_agrees_with_integral_ages():
    rng = random.Random(23)
    fans = [random_single_cone_fan(rng, rng.choice([2, 3])) for _ in range(14)]
    fans += [random_complete_2d_fan(rng) for _ in range(8)]
    for fan in fans:
        ages_integral = all(
            b.age.denominator == 1 for b in box_elements(fan)
        )
        assert gorenstein_check(fan).ok == ages_integral


# -- walls and the nef test -----------------------------------------------------


def test_wall_classes_p2():
    walls = wall_curve_classes(p2_fan())
    assert len(walls) == 3
    for w in walls:
        assert w.pairings == (1, 1, 1) and w.c1 == 3


def test_wall_classes_f2():
    walls = {w.wall: w for w in wall_curve_classes(f2_fan())}
    assert walls[(1,)].pairings == (1, -2, 1, 0)
    assert walls[(1,)].c1 == 0


def test_walls_relation_with_rays():
    for fan in (p2_fan(), f2_fan(), f3_fan(), p2z3_bare()):
        for w in wall_curve_classes(fan):
            total = [0] * fan.dim
            for i, c in enumerate(w.pairings):
                for t in range(fan.dim):
                    total[t] += c * fan.vectors[i][t]
            assert total == [0] * fan.dim


def test_no_walls_in_one_dimension():
    p1 = StackyFan.make(1, [(1,), (-1,)], [(0,), (1,)])
    assert wall_curve_classes(p1) == []
    assert semifano_check(p1).ok


def test_semifano_examples():
    assert semifano_check(p2_fan()).ok
    assert semifano_check(f2_fan()).ok
    assert semifano_check(p2z3_extended()).ok
    res = semifano_check(f3_fan())
    assert not res.ok
    assert res.witness_wall.wall == (1,)
    assert res.witness_wall.c1 == -1


def test_semifano_needs_complete():
    with pytest.raises(NotCompleteError):
        semifano_check(c2z3_chart())
    assert not is_complete(c2z3_chart())
    assert is_complete(p2_fan())


# -- fan polytope ---------------------------------------------------------------


def test_polytope_faces_quotient_plane():
    fan = p2z3_bare()
    assert [f.vertices for f in facets_containing(fan, (1, 0))] == [(1, 2)]
    assert sorted(f.vertices for f in facets_containing(fan, (-1, 2))) == [
        (0, 2),
        (1, 2),
    ]
    # an interior point lies on no facet
    assert facets_containing(fan, (0, 0)) == ()


def test_polytope_faces_p2():
    fan = p2_fan()
    assert len(facets_containing(fan, (1, 0))) == 2


def test_polytope_facets_match_the_kernel():
    """Normals from signed minors give the facets, normals, heights and
    order of the Hermite-kernel normals: every complete example fan (3D
    among them), the census, P1 and random complete 2D fans."""
    rng = random.Random(7)
    fans = [fan for _, fan in example_fans() + partial_resolutions()]
    fans += [StackyFan.make(1, [(1,), (-2,)], [(0,), (1,)])]
    fans += [random_complete_2d_fan(rng) for _ in range(100)]
    for fan in fans:
        if is_complete(fan):
            assert stacky.fan_polytope_facets.__wrapped__(fan) == facets_by_kernel(fan)


# -- fan sequence -----------------------------------------------------------------


def test_fan_sequence_p1():
    p1 = StackyFan.make(1, [(1,), (-1,)], [(0,), (1,)])
    seq = fan_sequence(p1)
    assert seq.kernel_basis == ((1, 1),)
    assert seq.divisors == ((1,), (1,))
    assert seq.r == 1 and seq.r_prime == 1


def test_fan_sequence_quotient_chart():
    fan = c2z3_chart()
    seq = fan_sequence(fan)
    assert seq.r == 2 and seq.r_prime == 0
    # the divisor pairings reproduce the kernel-basis coordinates
    phi = list(zip(*fan.vectors))
    for row in seq.kernel_basis:
        assert [sum(x * y for x, y in zip(line, row)) for line in phi] == [0, 0]
        for i in range(4):
            pair = sum(d * c for d, c in zip(seq.divisors[i], _coords(seq, row)))
            assert pair == row[i]
    # r' = 0: no nef block, no curve classes, no search
    assert seq.basis_p == () and seq.gamma_basis == ()
    assert seq.q_matrix == ((),) * 4


def test_fan_sequence_nef_block_and_curve_classes():
    for fan in (p2z3_extended(), f2_fan(), om2_chart()):
        seq = fan_sequence(fan)
        extra_divs = [seq.divisors[j] for j in range(fan.n_rays, fan.n_vectors)]
        assert len(seq.basis_p) == len(seq.gamma_basis) == seq.r_prime
        # <p_a, gamma_b> = delta
        for a in range(seq.r_prime):
            for b in range(seq.r_prime):
                pair = sum(
                    p * c
                    for p, c in zip(seq.basis_p[a], _coords(seq, seq.gamma_basis[b]))
                )
                assert pair == (1 if a == b else 0)
        # D_i - sum_a Q_ia p_a lies in the span of the extra divisor classes
        for i, d in enumerate(seq.divisors):
            rest = [
                x - sum(seq.q_matrix[i][a] * p[k] for a, p in enumerate(seq.basis_p))
                for k, x in enumerate(d)
            ]
            assert rank(extra_divs + [rest]) == rank(extra_divs)
        # the nef block completes the extra divisor classes' saturated span
        # to a basis: [extra classes; nef block] has r independent rows, and
        # the index of their span is that of the extra classes alone
        full = extra_divs + [list(p) for p in seq.basis_p]
        assert len(full) == seq.r
        assert maximal_minor_gcd(full) == maximal_minor_gcd(extra_divs) != 0


def _coords(seq, ambient):
    from orbidisk.lattice import solve_rational, transpose

    return solve_rational(transpose(seq.kernel_basis), list(ambient))


def test_fan_sequence_explicit_basis():
    fan = c2z3_chart()
    auto = fan_sequence(fan)
    again = fan_sequence(fan, basis_p=auto.basis_p)
    assert again.basis_p == auto.basis_p
    with pytest.raises(NoValidBasisError, match="r' = 0 nef rows"):
        fan_sequence(fan, basis_p=((1, 0), (0, 1)))
    fan = p2z3_extended()
    auto = fan_sequence(fan)
    assert fan_sequence(fan, basis_p=auto.basis_p) == auto
    # twice a valid nef row is nef, but leaves an index-2 sublattice
    with pytest.raises(NoValidBasisError, match="unimodular"):
        fan_sequence(fan, basis_p=[[2 * x for x in auto.basis_p[0]]])
    with pytest.raises(NoValidBasisError, match="Kahler"):
        fan_sequence(fan, basis_p=[[-x for x in auto.basis_p[0]]])


def test_fan_sequence_cache():
    fan = p2z3_extended()
    auto = fan_sequence(fan)
    assert fan_sequence(fan) is auto
    # a supplied block is normalized to integer tuples, and cached apart
    # from the searched one
    supplied = fan_sequence(fan, basis_p=[list(row) for row in auto.basis_p])
    assert supplied == auto and supplied is not auto
    assert fan_sequence(fan, basis_p=auto.basis_p) is supplied
    # a failure is not cached: an invalid block raises on every call
    for _ in range(2):
        with pytest.raises(NoValidBasisError, match="Kahler"):
            fan_sequence(fan, basis_p=[[-x for x in auto.basis_p[0]]])


def test_fan_sequence_extras_have_no_nef_charge():
    for fan in (p2z3_extended(), c2z3_chart(), c3z3_chart()):
        seq = fan_sequence(fan)
        for j in range(fan.n_rays, fan.n_vectors):
            assert all(seq.q_matrix[j][a] == 0 for a in range(seq.r_prime))


# the nef block of every fan file and of the C^2/Z6 and C^2/Z7 charts; a
# change to the search order or its pruning changes the curve coordinates of
# the output
GOLDEN_BASES = {
    "c2z3_chart": (),
    "c3z3_chart": (),
    "f2": ((1, 0), (2, 1)),
    "f3": ((1, 0), (3, 1)),
    "p1xp1": ((1, 0), (0, 1)),
    "p2": ((1,),),
    "p2z3": ((0, -1, 2, 1, 2, 0, 1),),
    "p3": ((1,),),
    "p1113": ((-2, 1),),
    "p1cubed": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "p2z3xp1": ((0, -1, 2, 0, 1, 2, 0, 1), (0, 0, 0, 1, 0, 0, 0, 0)),
    "mq": ((0,) + (1,) * 30,),
    "c2z2": (),
    "c2z3": (),
    "c2z4": (),
    "c2z5": (),
    "r01_v3_b3": ((1,),),
    "r02_v3_b4": ((-1, 1),),
    "r03_v3_b6": ((0, -1, 1, 1),),
    "r04_v3_b8": ((0, -1, 1, 1, 0, 0),),
    "r05_v3_b9": ((0, -1, 2, 1, 2, 0, 1),),
    "r06_v4_b4": ((1, 0), (0, 1)),
    "r07_v4_b4": ((1, 0), (0, 1)),
    "r08_v4_b5": ((-1, 0, 1), (0, 0, 1)),
    "r09_v4_b6": ((-1, 0, 1, 0), (-1, 0, 1, 1)),
    "r10_v4_b7": ((1, -1, 0, 1, 1), (2, -1, 0, 1, 1)),
    "r11_v4_b8": ((1, 0, 0, 0, 1, 1), (1, 0, -1, 1, 1, 1)),
    "r12_v4_b8": ((0, -1, 1, 1, 1, 0), (1, -1, 0, 1, 1, 1)),
    "r13_v5_b5": ((0, 0, 1), (1, 1, 0), (1, 2, 2)),
    "r14_v5_b6": ((0, 0, 0, 1), (-1, 0, 1, 1), (0, 0, 1, 1)),
    "r15_v5_b7": ((-1, 0, 1, 1, 0), (-1, 1, 2, 2, 1), (-1, 1, 1, 1, 0)),
    "r16_v6_b6": ((1, 2, 2, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 0)),
    "c2z6_chart": (),
    "c2z7_chart": (),
}


def test_golden_grading_bases():
    paths = sorted((REPO / "fans").glob("*.json"))
    paths += sorted((REPO / "perfbench" / "fans").glob("*.json"))
    got = {}
    for path in paths:
        ff = parse_fan_file(path)
        got[path.stem] = fan_sequence(ff.resolve_fan(), ff.basis_p).basis_p
    got["c2z6_chart"] = fan_sequence(local_chart(6)).basis_p
    got["c2z7_chart"] = fan_sequence(local_chart(7)).basis_p
    assert got == GOLDEN_BASES


@settings(max_examples=200)
@given(st.data())
def test_saturating_extension_matches_smith(data):
    r = data.draw(st.integers(1, 7))
    rows = st.lists(st.integers(-4, 4), min_size=r, max_size=r)
    u = identity_matrix(r)
    chosen: list[list[int]] = []
    for _ in range(data.draw(st.integers(1, r + 2))):
        kind = data.draw(st.sampled_from(["row", "scaled", "combination"]))
        if kind == "row" or not chosen:
            v = data.draw(rows)
        elif kind == "scaled":  # never primitive unless zero
            v = [data.draw(st.integers(2, 3)) * x for x in data.draw(rows)]
        else:  # dependent on the rows chosen so far
            v = [0] * r
            for c in chosen:
                k = data.draw(st.integers(-2, 2))
                v = [a + k * b for a, b in zip(v, c)]
        saturated = maximal_minor_gcd(chosen + [v]) == 1
        before = [list(col) for col in u]
        nxt = stacky._saturating_extension(u, len(chosen), v)
        assert u == before
        assert (nxt is not None) == saturated
        if nxt is not None:
            chosen.append(v)
            u = nxt
            k = len(chosen)
            for i, row in enumerate(chosen):
                image = [sum(map(mul, row, col)) for col in u]
                assert image == [1 if j == i else 0 for j in range(r)]
            assert abs(det(u)) == 1
            assert k <= r


def _lift(fan: StackyFan, divisors, x) -> list[int]:
    """A positive multiple of an ambient divisor whose class is x, through
    the lift the supplied-basis test uses."""
    rows, inv, _ = stacky._class_lift(divisors, fan.n_vectors)
    lift = [0] * fan.n_vectors
    for i, col in zip(rows, zip(*inv)):
        lift[i] = sum(map(mul, x, col))
    return lift


def _assert_kahler_agrees(fan: StackyFan, divisors, vectors, ambient=(), solve=True):
    """The Kahler test against the pooled anticone-inverse rows
    (`kahler_by_anticone_rows`) and, with solve, against cone_contains on
    each anticone: at each class vector x through its lift, and at each
    ambient divisor w through its class sum_i w_i D_i."""
    inside = stacky._kahler_test(fan)
    reference = kahler_by_anticone_rows(fan, divisors)
    antis = [
        [divisors[i] for i in sorted(anti)] for anti in minimal_anticones(fan)
    ]
    pairs = [(x, _lift(fan, divisors, x)) for x in vectors]
    pairs += [
        ([sum(map(mul, w, col)) for col in zip(*divisors)], w) for w in ambient
    ]
    for x, w in pairs:
        member = reference(x)
        if solve:
            assert member == all(cone_contains(gens, x)[0] for gens in antis), (fan, x)
        assert inside(w) == member, (fan, x, w)


def test_kahler_test_matches_cone_contains_on_search_candidates(monkeypatch):
    # every nef candidate the search tests, an ambient divisor, on the
    # example fans and the 163 census fans; cone_contains on the example
    # fans
    tested = []
    real_test = stacky._kahler_test

    def recording_test(fan):
        inside = real_test(fan)

        def test(w):
            tested.append((fan, tuple(w)))
            return inside(w)

        return test

    monkeypatch.setattr(stacky, "_kahler_test", recording_test)
    fans = list(dict.fromkeys(fan for _, fan in example_fans() + partial_resolutions()))
    for fan in fans:
        try:
            stacky._fan_sequence.__wrapped__(fan, None)
        except NoValidBasisError:
            pass
    monkeypatch.undo()
    assert len(tested) > 3000
    by_fan: dict = {}
    for fan, w in tested:
        by_fan.setdefault(fan, set()).add(w)
    # the search runs on every fan with r' > 0
    assert len(by_fan) == sum(f.n_rays > rank(f.stacky_vectors) for f in fans)
    examples = {fan for _, fan in example_fans()}
    for fan, ambient in by_fan.items():
        divisors = transpose(integer_kernel(transpose(fan.vectors)))
        _assert_kahler_agrees(fan, divisors, (), sorted(ambient), fan in examples)


# the divisor classes of every example fan
KAHLER_FANS = [(fan, fan_sequence(fan).divisors) for _, fan in example_fans()]


@settings(max_examples=200)
@given(st.data())
def test_kahler_test_matches_cone_contains_at_random_vectors(data):
    fan, divisors = data.draw(st.sampled_from(KAHLER_FANS))
    r = len(divisors[0])
    x = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    m = fan.n_vectors
    w = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    _assert_kahler_agrees(fan, divisors, [x], [w])


def _supplied_outcome(fan, divisors, reference, block):
    """The reference outcome of supplying the nef block `block`: the first
    row outside the Kahler cone (`reference`) or not completing a saturated
    set names the failure, else None."""
    r = len(divisors[0])
    extras = [divisors[j] for j in range(fan.n_rays, fan.n_vectors)]
    u, k = stacky._extra_transform(extras, r)
    for a, row in enumerate(block):
        if not reference(row):
            return f"basis vector {tuple(row)} is outside"
        u = stacky._saturating_extension(u, k + a, row)
        if u is None:
            return "supplied basis does not complete"
    return None


def test_supplied_basis_rows_match_the_anticone_rows():
    # each searched nef block, supplied back, passes, on the example fans
    # and the census fans with a block; each of its rows negated, and on
    # the example fans less a unit vector, passes or fails as the reference
    # says
    examples = [fan for _, fan in example_fans()]
    checked = failed = 0
    for fan in examples + [fan for _, fan in partial_resolutions()]:
        try:
            seq = fan_sequence(fan)
        except NoValidBasisError:
            continue
        block = [list(row) for row in seq.basis_p]
        if not block:
            continue
        assert fan_sequence(fan, block) == seq
        blocks = []
        for a in range(len(block)):
            blocks.append(block[:a] + [[-x for x in block[a]]] + block[a + 1:])
            for k in range(seq.r if fan in examples else 0):
                row = list(block[a])
                row[k] -= 1
                blocks.append(block[:a] + [row] + block[a + 1:])
        reference = kahler_by_anticone_rows(fan, seq.divisors)
        for other in blocks:
            want = _supplied_outcome(fan, seq.divisors, reference, other)
            checked += 1
            if want is None:
                fan_sequence(fan, other)
            else:
                failed += 1
                with pytest.raises(NoValidBasisError, match=re.escape(want)):
                    fan_sequence(fan, other)
    assert checked > 500 and 0 < failed < checked


def test_kahler_test_refuses_cones_without_n_independent_rays():
    # a lone ray, and a cone of two parallel rays; each names its cone, as
    # the reference does
    for fan, words in (
        (StackyFan.make(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]),
         "cone (2,) is not full-dimensional"),
        (StackyFan.make(2, [(1, 0), (2, 0), (0, 1), (-1, -1)],
                        [(0, 1), (1, 2), (2, 3), (0, 3)]),
         "cone (0, 1) is not simplicial"),
    ):
        divisors = [tuple(row) for row in transpose(integer_kernel(transpose(fan.vectors)))]
        with pytest.raises(FanError, match=re.escape(words)):
            stacky._kahler_test(fan)
        with pytest.raises(FanError, match=re.escape(words)):
            kahler_by_anticone_rows(fan, divisors)


# the grading data of every complete example fan: 10 in fans/ (5 of them
# 3D), 16 reflexive
COMPLETE_SEQUENCES = [
    fan_sequence(fan) for _, fan in example_fans() if is_complete(fan)
]
assert len(COMPLETE_SEQUENCES) == 26


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pcoords_from_ambient_matches_the_fraction_solve(data):
    # a rational relation, perturbed in one place with probability one half:
    # both routines raise FanError or both return the same coordinates
    seq = data.draw(st.sampled_from(COMPLETE_SEQUENCES))
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    coeffs = data.draw(st.lists(fracs, min_size=seq.r, max_size=seq.r))
    ambient = [
        sum((c * row[i] for c, row in zip(coeffs, seq.kernel_basis)), Fraction(0))
        for i in range(seq.fan.n_vectors)
    ]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, seq.fan.n_vectors - 1))
        ambient[i] += data.draw(fracs)
    try:
        want = pcoords_by_solve(seq, ambient)
    except FanError:
        with pytest.raises(FanError, match="not a relation"):
            seq.pcoords_from_ambient(ambient)
    else:
        assert seq.pcoords_from_ambient(ambient) == want


# -- dual classes ------------------------------------------------------------------


def test_dual_class_quotient_chart():
    fan = c2z3_chart()
    d2 = dual_class_data(fan, 2)
    assert d2.cone_coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert d2.pairings == (
        Fraction(-2, 3),
        Fraction(-1, 3),
        Fraction(1),
        Fraction(0),
    )
    d3 = dual_class_data(fan, 3)
    assert d3.pairings == (
        Fraction(-1, 3),
        Fraction(-2, 3),
        Fraction(0),
        Fraction(1),
    )
    assert box_point(fan, [int(3 * c) for c in d2.pairings], 3) == (1, 0)
    assert box_point(fan, [int(3 * c) for c in d3.pairings], 3) == (0, 1)
    with pytest.raises(FanError):
        dual_class_data(fan, 0)


def test_dual_class_nu_identity():
    fan = p2z3_extended()
    for j in range(fan.n_rays, fan.n_vectors):
        d = dual_class_data(fan, j)
        den = lcm(*(c.denominator for c in d.pairings))
        nums = [int(den * c) for c in d.pairings]
        assert box_point(fan, nums, den) == fan.vectors[j]
        assert all(0 <= c < 1 for c in d.cone_coeffs)


def test_minimal_cone_coordinates_of_rays_and_box_elements():
    # a ray is its own minimal cone with coefficient 1, an age-one point is
    # its box element's carrier and coordinates; the negative of a chart
    # ray has height -1 and lies outside the chart's support
    for name, fan in example_fans():
        for i, b in enumerate(fan.stacky_vectors):
            assert minimal_cone_coordinates(fan, b) == ((i,), (1,)), (name, i)
        for box in box_elements(fan):
            if box.age == 1:
                got = minimal_cone_coordinates(fan, box.point)
                assert got == (box.carrier, box.coords), (name, box)
        for chart in basic_class_charts(fan):
            outside = tuple(-x for x in chart.stacky_vectors[0])
            with pytest.raises(FanError, match=re.escape(f"{outside} lies outside")):
                minimal_cone_coordinates(chart, outside)


def test_cone_reader_matches_cone_contains_and_solve_rational():
    # the coordinates read off each maximal cone's cached inverse, at random
    # lattice points and at integer combinations of a cone's generators,
    # against a direct solve and cone_contains; minimal_cone_coordinates
    # takes the first cone that holds the point and raises outside the
    # support
    rng = random.Random(23)
    fans = [fan for _, fan in example_fans()]
    fans += [random_single_cone_fan(rng, rng.choice([2, 3])) for _ in range(8)]
    for fan in fans:
        for _ in range(30):
            if rng.random() < 0.5:
                x = tuple(rng.randint(-4, 4) for _ in range(fan.dim))
            else:
                gens = fan.cone_vectors(rng.choice(fan.max_cones))
                c = [rng.randint(-2, 3) for _ in gens]
                x = tuple(sum(map(mul, c, col)) for col in zip(*gens))
            holder = None
            for mc in fan.max_cones:
                gens = fan.cone_vectors(mc)
                want = solve_rational(transpose(gens), list(x))
                got = stacky.cone_coordinates(fan, mc, x)
                assert got == tuple(want), (fan, mc, x)
                ok, lam = cone_contains(gens, x)
                assert ok == (min(got) >= 0)
                if ok and holder is None:
                    holder = (mc, lam)
            if holder is None:
                with pytest.raises(FanError, match="outside the support"):
                    minimal_cone_coordinates(fan, x)
            else:
                mc, lam = holder
                assert minimal_cone_coordinates(fan, x) == (
                    tuple(i for i, c in zip(mc, lam) if c),
                    tuple(c for c in lam if c),
                )
    dependent = StackyFan.make(2, [(1, 0), (2, 0), (0, 1)], [(0, 1), (1, 2)])
    with pytest.raises(FanError, match="dependent"):
        stacky.cone_coordinates(dependent, (0, 1), (1, 0))
    # the dependent cone gets no entry: the scans read the other cone only
    assert minimal_cone_coordinates(dependent, (1, 0)) == ((1,), (Fraction(1, 2),))
    assert [b.point for b in box_elements(dependent)] == [(0, 0), (1, 0)]


def test_age_one_listing():
    assert age_one_box_points(p2_fan()) == []
    assert len(age_one_box_points(p2z3_bare())) == 6
