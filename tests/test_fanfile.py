"""Tests for the fan file format."""

from __future__ import annotations

import pytest

from orbidisk.fanfile import (
    FanFileError,
    parse_fan_text,
)


GOOD = """
{
  "dim": 2,
  "rays": [[-1, -1], [2, -1], [-1, 2]],
  "max_cones": [[0, 1], [0, 2], [1, 2]],
  "extra_vectors": "auto-age1",
  "normalization_cone": 0
}
"""


def test_parse_and_resolve():
    ff = parse_fan_text(GOOD)
    assert ff.dim == 2 and len(ff.rays) == 3
    fan = ff.resolve_fan()
    assert len(fan.extra_vectors) == 6  # auto age-1 sectors
    assert fan.n_vectors == 9


def test_explicit_extras():
    ff = parse_fan_text(
        '{"dim": 2, "rays": [[2,-1],[-1,2]], "max_cones": [[0,1]],'
        ' "extra_vectors": [[1,0],[0,1]]}'
    )
    fan = ff.resolve_fan()
    assert fan.extra_vectors == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"dim": 2, "rays": [[1,0]]}',  # missing max_cones
        '{"dim": 0, "rays": [[1]], "max_cones": [[0]]}',
        '{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,5]]}',
        '{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,0]]}',
        '{"dim": 2, "rays": [[1,0.5],[0,1]], "max_cones": [[0,1]]}',
        '{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,1]], "bogus": 1}',
        '{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,1]],'
        ' "extra_vectors": "auto"}',
        '{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,1]],'
        ' "normalization_cone": 5}',
        '{"dim": 2, "rays": [[1,0],[0,1]], "max_cones": [[0,1]],'
        ' "basis_p": [1, 2]}',
    ],
)
def test_rejects_malformed(text):
    with pytest.raises(FanFileError):
        parse_fan_text(text)
