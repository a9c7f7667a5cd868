"""SequenceSpec, apart from triangles so that a process that only generates (seq) loads no dataclasses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SequenceSpec:
    """A contiguous slice request against one named sequence or triangle row.

    kind is a key of triangles._KINDS, which gives its first index and
    whether it takes a param: the order k of gen_catalan, or the row of a
    triangle.
    """

    kind: str
    start: int
    count: int
    param: int | None = None
