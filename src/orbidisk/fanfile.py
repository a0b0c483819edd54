"""Fan input files.

A fan is described by a small JSON document:

    {
      "dim": 2,
      "rays": [[-1, -1], [2, -1], [-1, 2]],
      "max_cones": [[0, 1], [1, 2], [0, 2]],
      "extra_vectors": "auto-age1",
      "basis_p": null,
      "normalization_cone": 0
    }

"extra_vectors" is either the string "auto-age1" (use every age-one box
element, the canonical choice for disk counting) or an explicit list of
lattice vectors.  "basis_p" optionally pins the nef block: the r' nef rows
(r' = number of rays minus their rank, so [] for a chart with r' = 0)
that complete the extra vectors' divisor classes to a basis of the class
lattice, in the coordinates dual to the canonical relation basis.  Another
row count is rejected by `stacky.fan_sequence` with a message naming r'.
"normalization_cone" picks the default maximal cone for potential areas.
Whitespace is free; integers must be exact (no floats).
"""

from __future__ import annotations

import json

from ._record import frozen
from .stacky import StackyFan, age_one_box_points


class FanFileError(ValueError):
    pass


@frozen
class FanFile:
    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    extra_vectors: str | tuple[tuple[int, ...], ...]
    basis_p: tuple[tuple[int, ...], ...] | None
    normalization_cone: int | None

    def resolve_fan(self) -> StackyFan:
        """Build the stacky fan, expanding auto extras."""
        if self.extra_vectors == "auto-age1":
            bare = StackyFan.make(self.dim, self.rays, self.max_cones)
            extras = age_one_box_points(bare)
        else:
            extras = self.extra_vectors
        return StackyFan.make(self.dim, self.rays, self.max_cones, extras)


def _int_vector(obj, length, what) -> tuple[int, ...]:
    if not isinstance(obj, list) or len(obj) != length:
        raise FanFileError(f"{what} must be a list of {length} integers: {obj!r}")
    out = []
    for x in obj:
        if isinstance(x, bool) or not isinstance(x, int):
            raise FanFileError(f"{what} must contain exact integers: {obj!r}")
        out.append(x)
    return tuple(out)


def parse_fan_text(text: str) -> FanFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FanFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FanFileError("top level must be an object")
    known = {
        "dim",
        "rays",
        "max_cones",
        "extra_vectors",
        "basis_p",
        "normalization_cone",
    }
    unknown = set(doc) - known
    if unknown:
        raise FanFileError(f"unknown fields: {sorted(unknown)}")
    for field in ("dim", "rays", "max_cones"):
        if field not in doc:
            raise FanFileError(f"missing field {field!r}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FanFileError("dim must be a positive integer")
    if not isinstance(doc["rays"], list) or not doc["rays"]:
        raise FanFileError("rays must be a nonempty list")
    rays = tuple(_int_vector(v, dim, "ray") for v in doc["rays"])
    if not isinstance(doc["max_cones"], list) or not doc["max_cones"]:
        raise FanFileError("max_cones must be a nonempty list")
    cones = []
    for c in doc["max_cones"]:
        if not isinstance(c, list) or not c:
            raise FanFileError(f"cone must be a nonempty index list: {c!r}")
        for i in c:
            if isinstance(i, bool) or not isinstance(i, int):
                raise FanFileError(f"cone indices must be integers: {c!r}")
            if not 0 <= i < len(rays):
                raise FanFileError(f"cone index {i} out of range")
        if len(set(c)) != len(c):
            raise FanFileError(f"cone has repeated indices: {c!r}")
        cones.append(tuple(sorted(c)))
    extras = doc.get("extra_vectors", "auto-age1")
    if extras is None:
        extras = ()
    if isinstance(extras, str):
        if extras != "auto-age1":
            raise FanFileError(
                'extra_vectors must be "auto-age1" or a list of vectors'
            )
    else:
        if not isinstance(extras, list):
            raise FanFileError("extra_vectors must be a string or a list")
        extras = tuple(_int_vector(v, dim, "extra vector") for v in extras)
    basis = doc.get("basis_p")
    if basis is not None:
        if not isinstance(basis, list):
            raise FanFileError("basis_p must be a list of integer vectors")
        width = len(basis[0]) if basis else 0
        basis = tuple(_int_vector(v, width, "basis vector") for v in basis)
    cone_number = doc.get("normalization_cone")
    if cone_number is not None:
        if isinstance(cone_number, bool) or not isinstance(cone_number, int):
            raise FanFileError("normalization_cone must be an integer")
        if not 0 <= cone_number < len(cones):
            raise FanFileError("normalization_cone out of range")
    return FanFile(dim, rays, tuple(cones), extras, basis, cone_number)


def parse_fan_file(path) -> FanFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FanFileError(f"cannot read {path}: {exc}") from exc
    return parse_fan_text(text)
