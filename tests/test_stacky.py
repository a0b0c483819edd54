"""Tests for stacky fan combinatorics."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from conftest import (
    REPO,
    c2z3_chart,
    c3z3_chart,
    example_fans,
    f2_fan,
    f3_fan,
    fm_solve,
    local_chart,
    om2_chart,
    p2_fan,
    p2z3_bare,
    p2z3_extended,
    random_complete_2d_fan,
    random_single_cone_fan,
)

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbidisk import stacky
from orbidisk.fanfile import parse_fan_file
from orbidisk.lattice import (
    AmbiguousSolutionError,
    cone_contains,
    det,
    elementary_divisors,
    identity_matrix,
    rank,
    solve_rational,
    transpose,
)
from orbidisk.stacky import (
    DiskClassSymbol,
    FanError,
    NoValidBasisError,
    NotCompleteError,
    StackyFan,
    age_one_box_points,
    anticones,
    box_elements,
    cone_index,
    dual_class_data,
    facets_containing,
    fan_sequence,
    gorenstein_check,
    is_complete,
    maslov_index,
    minimal_anticones,
    nu_of_class,
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


def test_validate_nested_cones():
    fan = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1), (0,)])
    rep = validate(fan)
    assert not rep.ok and any("nested" in i for i in rep.issues)


def test_validate_extra_outside_support():
    fan = StackyFan.make(2, [(1, 0), (0, 1)], [(0, 1)], [(-1, 0)])
    rep = validate(fan)
    assert any("outside the support" in i for i in rep.issues)


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
                t = solve_rational(cols, list(pt))
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
    # lower-dimensional cones: a non-primitive ray in Z^2, a plane in Z^3
    fans.append(StackyFan.make(2, [(2, 4)], [(0,)]))
    fans.append(StackyFan.make(3, [(1, 0, 1), (1, 3, 1)], [(0, 1)]))
    for fan in fans:
        boxes = box_elements(fan)
        assert {b.point: (b.carrier, b.coords) for b in boxes} == rational_box_scan(fan)
        assert all(b.age == sum(b.coords, Fraction(0)) for b in boxes)
    assert [b.point for b in box_elements(fans[-2])] == [(0, 0), (1, 2)]
    assert [b.point for b in box_elements(fans[-1])] == [(0, 0, 0), (1, 1, 1), (1, 2, 1)]


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


# -- Maslov indices -------------------------------------------------------------


def test_maslov_examples():
    fan = p2z3_extended()
    assert maslov_index(fan, DiskClassSymbol.smooth(0)) == 2
    assert maslov_index(fan, DiskClassSymbol.orbi((0, -1))) == 2
    sphere = tuple(Fraction(x) for x in (1, 1, 1, 0, 0, 0, 0, 0, 0))
    beta = DiskClassSymbol.smooth(0, sphere=sphere)
    assert maslov_index(fan, beta) == 2 + 2 * 3
    null = tuple(Fraction(0) for _ in range(9))
    assert maslov_index(fan, DiskClassSymbol.smooth(1, sphere=null)) == 2


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
    # sum_a Q_ia p_a = D_i
    for i in range(4):
        combo = [0, 0]
        for a in range(2):
            for k in range(2):
                combo[k] += seq.q_matrix[i][a] * seq.basis_p[a][k]
        assert tuple(combo) == seq.divisors[i]
    # <p_a, gamma_b> = delta
    for a in range(2):
        for b in range(2):
            pair = sum(
                p * c for p, c in zip(seq.basis_p[a], _coords(seq, seq.gamma_basis[b]))
            )
            assert pair == (1 if a == b else 0)


def _coords(seq, ambient):
    from orbidisk.lattice import solve_rational, transpose

    return solve_rational(transpose(seq.kernel_basis), list(ambient))


def test_fan_sequence_explicit_basis():
    fan = c2z3_chart()
    auto = fan_sequence(fan)
    again = fan_sequence(fan, basis_p=auto.basis_p)
    assert again.basis_p == auto.basis_p
    with pytest.raises(NoValidBasisError):
        fan_sequence(fan, basis_p=((1, 0), (0, 1)))


def test_fan_sequence_extras_have_no_nef_charge():
    for fan in (p2z3_extended(), c2z3_chart(), c3z3_chart()):
        seq = fan_sequence(fan)
        for j in range(fan.n_rays, fan.n_vectors):
            assert all(seq.q_matrix[j][a] == 0 for a in range(seq.r_prime))


# the grading basis of every fan file and of the C^2/Z6 chart; a change to the
# search order or its pruning changes the truncation window of the output
GOLDEN_BASES = {
    "c2z3_chart": ((-1, 0), (0, -1)),
    "c3z3_chart": ((-1,),),
    "f2": ((1, 0), (2, 1)),
    "f3": ((1, 0), (3, 1)),
    "p1xp1": ((1, 0), (0, 1)),
    "p2": ((1,),),
    "p2z3": (
        (0, -1, 2, 1, 2, 0, 1),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, -1, 1, 1, 1, 0, 1),
        (1, -1, 0, 1, 1, 1, 0),
    ),
    "c2z2": ((-1,),),
    "c2z3": ((-1, 0), (0, -1)),
    "c2z4": ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    "c2z5": ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "r01_v3_b3": ((1,),),
    "r02_v3_b4": ((-1, 1), (-2, 1)),
    "r03_v3_b6": ((0, -1, 1, 1), (0, 0, 0, 1), (-2, 1, 0, 0), (-1, -1, 1, 0)),
    "r04_v3_b8": (
        (0, -1, 1, 1, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 0, 0),
        (-1, -1, 1, 0, 0, 0),
        (1, -1, 0, 1, 1, 0),
    ),
    "r05_v3_b9": (
        (0, -1, 2, 1, 2, 0, 1),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, -1, 1, 1, 1, 0, 1),
        (1, -1, 0, 1, 1, 1, 0),
    ),
    "r06_v4_b4": ((1, 0), (0, 1)),
    "r07_v4_b4": ((1, 0), (0, 1)),
    "r08_v4_b5": ((-1, 0, 1), (0, 0, 1), (-1, -1, 1)),
    "r09_v4_b6": ((-1, 0, 1, 0), (-1, 0, 1, 1), (-2, 0, 1, 0), (-1, 1, 0, -1)),
    "r10_v4_b7": (
        (1, -1, 0, 1, 1),
        (2, -1, 0, 1, 1),
        (0, 0, 0, 0, 1),
        (-1, -1, 1, 0, 0),
        (1, -2, 0, 1, 0),
    ),
    "r11_v4_b8": (
        (1, 0, 0, 0, 1, 1),
        (1, 0, -1, 1, 1, 1),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0),
        (1, 0, -1, 0, 1, 1),
        (1, -1, -1, 1, 1, 0),
    ),
    "r12_v4_b8": (
        (0, -1, 1, 1, 1, 0),
        (1, -1, 0, 1, 1, 1),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0),
        (-1, -1, 1, 1, 0, 0),
        (1, -2, 0, 1, 1, 0),
    ),
    "r13_v5_b5": ((0, 0, 1), (1, 1, 0), (1, 2, 2)),
    "r14_v5_b6": ((0, 0, 0, 1), (-1, 0, 1, 1), (0, 0, 1, 1), (-1, -1, 0, 1)),
    "r15_v5_b7": (
        (-1, 0, 1, 1, 0),
        (-1, 1, 2, 2, 1),
        (-1, 1, 1, 1, 0),
        (-2, 0, 1, 1, 0),
        (-1, -1, 0, 1, 1),
    ),
    "r16_v6_b6": ((1, 2, 2, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 0)),
    "c2z6_chart": (
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0),
        (1, -1, 1, 1, 0),
        (2, -1, 2, 1, 1),
    ),
}


def test_golden_grading_bases():
    paths = sorted((REPO / "fans").glob("*.json"))
    paths += sorted((REPO / "perfbench" / "fans").glob("*.json"))
    got = {}
    for path in paths:
        ff = parse_fan_file(path)
        got[path.stem] = fan_sequence(ff.resolve_fan(), ff.basis_p).basis_p
    got["c2z6_chart"] = fan_sequence(local_chart(6)).basis_p
    assert got == GOLDEN_BASES


def test_z7_chart_search_fails_fast_in_bounded_memory():
    # its span-6 extra pool holds 45,801 candidates; a Smith loop over all
    # of them peaks near 20 MB
    tracemalloc.start()
    try:
        with pytest.raises(NoValidBasisError, match="exhausted"):
            fan_sequence(local_chart(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15_000_000


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
        saturated = elementary_divisors(chosen + [v]) == [1] * (len(chosen) + 1)
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


def _assert_kahler_agrees(fan: StackyFan, divisors, vectors):
    """The Kahler test, and each anticone's inequalities, against
    cone_contains at every vector."""
    inside = stacky._kahler_closure_test(fan, divisors)
    antis = []
    for anti in minimal_anticones(fan):
        gens = [divisors[i] for i in sorted(anti)]
        antis.append((gens, stacky._anticone_inequalities(gens)))
    for x in vectors:
        member = []
        for gens, rows in antis:
            member.append(cone_contains(gens, x)[0])
            if rows is not None:
                assert all(sum(map(mul, row, x)) >= 0 for row in rows) == member[-1]
        assert inside(x) == all(member)


def test_kahler_test_matches_cone_contains_on_search_candidates(monkeypatch):
    # every nef candidate the search tests and every extra-block candidate
    # it searches
    tested = []
    context = []
    real_test, real_assemble = stacky._kahler_closure_test, stacky._assemble_basis

    def recording_test(fan, divisors):
        inside = real_test(fan, divisors)
        context[:] = [fan, tuple(divisors)]

        def test(x):
            tested.append((fan, tuple(divisors), tuple(x)))
            return inside(x)

        return test

    def recording_assemble(ext_pool, *args):
        tested.extend((*context, tuple(v)) for v in ext_pool)
        return real_assemble(ext_pool, *args)

    monkeypatch.setattr(stacky, "_kahler_closure_test", recording_test)
    monkeypatch.setattr(stacky, "_assemble_basis", recording_assemble)
    for _, fan in example_fans():
        stacky._fan_sequence_uncached(fan, None)
    monkeypatch.undo()
    assert len(tested) > 1000
    by_fan: dict = {}
    for fan, divisors, x in tested:
        by_fan.setdefault((fan, divisors), set()).add(x)
    for (fan, divisors), vectors in by_fan.items():
        _assert_kahler_agrees(fan, divisors, sorted(vectors))


# the divisor classes of every example fan, and of a fan whose one-ray
# maximal cone leaves an anticone of two classes in rank one (the
# cone_contains fallback)
KAHLER_FANS = [
    (fan, fan_sequence(fan).divisors)
    for fan in [fan for _, fan in example_fans()]
    + [StackyFan.make(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)])]
]


@settings(max_examples=200)
@given(st.data())
def test_kahler_test_matches_cone_contains_at_random_vectors(data):
    fan, divisors = data.draw(st.sampled_from(KAHLER_FANS))
    r = len(divisors[0])
    x = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    _assert_kahler_agrees(fan, divisors, [x])


# -- dual classes ------------------------------------------------------------------


def test_dual_class_quotient_chart():
    fan = c2z3_chart()
    seq = fan_sequence(fan)
    d2 = dual_class_data(fan, seq, 2)
    assert d2.cone_coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert d2.pairings == (
        Fraction(-2, 3),
        Fraction(-1, 3),
        Fraction(1),
        Fraction(0),
    )
    d3 = dual_class_data(fan, seq, 3)
    assert d3.pairings == (
        Fraction(-1, 3),
        Fraction(-2, 3),
        Fraction(0),
        Fraction(1),
    )
    assert nu_of_class(fan, d2.pairings) == (1, 0)
    assert nu_of_class(fan, d3.pairings) == (0, 1)
    with pytest.raises(FanError):
        dual_class_data(fan, seq, 0)


def test_dual_class_nu_identity():
    fan = p2z3_extended()
    seq = fan_sequence(fan)
    for j in range(fan.n_rays, fan.n_vectors):
        d = dual_class_data(fan, seq, j)
        assert nu_of_class(fan, d.pairings) == fan.vectors[j]
        assert all(0 <= c < 1 for c in d.cone_coeffs)


def test_age_one_listing():
    assert age_one_box_points(p2_fan()) == []
    assert len(age_one_box_points(p2z3_bare())) == 6
