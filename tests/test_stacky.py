"""Tests for stacky fan combinatorics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import (
    c2z3_chart,
    c3z3_chart,
    f2_fan,
    f3_fan,
    om2_chart,
    p2_fan,
    p2z3_bare,
    p2z3_extended,
    random_complete_2d_fan,
    random_single_cone_fan,
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
