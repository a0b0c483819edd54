"""Closed-form cross-check for the whole local family C^2/Z_n.

The m-th sector's generating function of C^2/Z_n is the signed elementary
symmetric function (-1)^(n-m) e_(n-m) of the deformed roots (see
`orbidisk.oracle`).  This file compares those closed forms against the mirror
pipeline; the larger n exercise sectors of different weights and the
rank-refined inversion.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from orbidisk.mirror import ChartPipeline
from orbidisk.oracle import sector_generating_functions
from orbidisk.stacky import DiskClassSymbol, StackyFan


@pytest.mark.parametrize("n,degree", [(2, 6), (3, 6), (4, 5), (5, 5)])
def test_local_family_matches_closed_forms(n, degree):
    closed = sector_generating_functions(n, degree)
    fan = StackyFan.make(
        2, [(0, 1), (n, 1)], [(0, 1)], [(m, 1) for m in range(1, n)]
    )
    order = 6
    pipe = ChartPipeline(fan, order)
    assert pipe.round_trip_identity()
    weights = pipe.tau_weights

    def visible(key) -> bool:
        return (
            sum(key) <= degree
            and sum(Fraction(k) * w for k, w in zip(key, weights)) <= order
        )

    for m in range(1, n):
        g = pipe.generating_function(DiskClassSymbol.orbi((m, 1)))
        got = {
            tuple(int(x) for x in e): c
            for e, c in g.terms()
            if visible(tuple(int(x) for x in e))
        }
        want = {k: v for k, v in closed[m].items() if visible(k)}
        assert got == want, f"sector {m} of the Z{n} chart"
        assert len(want) >= 3  # the comparison window is not trivial
