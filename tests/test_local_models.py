"""Closed-form cross-check for the whole local family C^2/Z_n.

The m-th sector's generating function of C^2/Z_n is the signed elementary
symmetric function (-1)^(n-m) e_(n-m) of the deformed roots (see
`orbidisk.oracle`).  This file compares those closed forms against the mirror
pipeline, every tau of degree 1 and the window total degree <= order, on
the charts C^2/Z_n (n = 2..8) and C^2/Z_n x C.
"""

from __future__ import annotations

import pytest
from conftest import assert_grid_is_brute_force, local_chart

from orbidisk.mirror import ChartPipeline
from orbidisk.oracle import sector_generating_functions
from orbidisk.stacky import DiskClassSymbol, StackyFan


def assert_sectors_match_closed_forms(fan, n, order):
    """Every sector m = 1..n-1 of a C^2/Z_n chart, at the points (m, ...),
    equals the closed form in the window total degree <= order; returns the
    number of terms compared per sector."""
    closed = sector_generating_functions(n, order)
    pipe = ChartPipeline(fan, order)
    assert pipe.r_prime == 0
    sizes = []
    assert pipe.round_trip_identity()
    for m, point in enumerate(fan.extra_vectors, start=1):
        g = pipe.generating_function(DiskClassSymbol.orbi(point))
        got = {tuple(int(x) for x in e): c for e, c in g.terms()}
        want = {k: v for k, v in closed[m].items() if sum(k) <= order}
        assert got == want, f"sector {point} of the Z{n} chart"
        sizes.append(len(want))
    return sizes


@pytest.mark.parametrize(
    "n,order", [(2, 6), (3, 6), (4, 5), (5, 5), (6, 4), (7, 3), (8, 3), (9, 3)]
)
def test_local_family_matches_closed_forms(n, order):
    sizes = assert_sectors_match_closed_forms(local_chart(n), n, order)
    assert min(sizes) >= 3  # the comparison window is not trivial


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_family_times_a_line_matches_closed_forms(n):
    # C^2/Z_n x C: the same sectors, one dimension up
    rays = [(0, 0, 1), (n, 0, 1), (0, 1, 1)]
    extras = [(m, 0, 1) for m in range(1, n)]
    fan = StackyFan.make(3, rays, [(0, 1, 2)], extras)
    sizes = assert_sectors_match_closed_forms(fan, n, 2)
    # terms beyond each sector's tau, except on Z2, whose next is t^3
    assert sum(sizes) > n - 1 or n == 2


def test_z6_grid_matches_brute_force_scan():
    # the scan classifies 6,188 simplex points to find the same 21 classes,
    # the sector multiplicities of total degree <= 2 in five sectors
    assert assert_grid_is_brute_force(local_chart(6), 2) == 21


def test_z6_sector_inversion():
    # every tau has degree 1, so each sector series is its tau plus terms of
    # two or more sector factors and the inversion is triangular
    pipe = ChartPipeline(local_chart(6), 2)
    g = pipe.generating_function(DiskClassSymbol.orbi((2, 1)))
    assert g.coefficient((0, 1, 0, 0, 0)) == 1
