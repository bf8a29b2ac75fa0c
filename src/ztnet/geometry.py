"""Geometric primitives and intersection predicates.

All objects are closed point sets: tangency and shared boundary points count
as intersecting.  Disc predicates use a relative tolerance of 1e-9; rectangle
and segment predicates compare coordinates exactly (instance generators draw
coordinates from a fine grid, so floats are exact there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Union

import numpy as np

REL_TOL = 1e-9


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Disc:
    center: Point
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"disc radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class AxisRect:
    """Solid axis-parallel rectangle [x_lo, x_hi] x [y_lo, y_hi]."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"rectangle sides must have positive length: {self}")


@dataclass(frozen=True)
class Frame:
    """Boundary curve of an axis-parallel rectangle (the four edges only)."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"frame sides must have positive length: {self}")


@dataclass(frozen=True)
class Segment:
    """Axis-parallel segment: `fixed` is the constant coordinate, [lo, hi] the extent.

    A horizontal segment lies on y = fixed with x in [lo, hi]; a vertical one
    lies on x = fixed with y in [lo, hi].
    """

    orientation: str  # "horizontal" | "vertical"
    fixed: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not self.lo < self.hi:
            raise ValueError(f"segment must have positive length: {self}")


GeomObject = Union[Point, Disc, AxisRect, Frame]


# ---------------------------------------------------------------------------
# scalar helpers


def _rects_overlap(a, b) -> bool:
    return a.x_lo <= b.x_hi and b.x_lo <= a.x_hi and a.y_lo <= b.y_hi and b.y_lo <= a.y_hi


def _strictly_inside(inner, outer) -> bool:
    return (
        outer.x_lo < inner.x_lo
        and inner.x_hi < outer.x_hi
        and outer.y_lo < inner.y_lo
        and inner.y_hi < outer.y_hi
    )


def point_in_rect(p: Point, r) -> bool:
    return r.x_lo <= p.x <= r.x_hi and r.y_lo <= p.y <= r.y_hi


def _point_on_frame(p: Point, f) -> bool:
    on_vertical = p.x in (f.x_lo, f.x_hi) and f.y_lo <= p.y <= f.y_hi
    on_horizontal = p.y in (f.y_lo, f.y_hi) and f.x_lo <= p.x <= f.x_hi
    return on_vertical or on_horizontal


def _quarter_within(ax: float, ay: float, bx: float, by: float, ra: float, rb: float) -> bool:
    """|a - b| <= (ra + rb)(1 + REL_TOL) where that slack's square overflows:
    every length scaled by 1/4 (exact for normal floats, and no scaled length
    or slack overflows), the squared ratios summed against 1."""
    slack = (ra * 0.25 + rb * 0.25) * (1.0 + REL_TOL)
    qx = (ax * 0.25 - bx * 0.25) / slack
    qy = (ay * 0.25 - by * 0.25) / slack
    return qx * qx + qy * qy <= 1.0


def point_in_disc(p: Point, d: Disc) -> bool:
    # Squared form: keeps the scalar predicate bit-identical to the vectorized
    # one.  A squared slack that overflows to inf passes every pair, so the
    # scaled form decides those (a point is a disc of radius 0.0, 0.0 + r == r).
    dx = p.x - d.center.x
    dy = p.y - d.center.y
    slack = d.radius * (1.0 + REL_TOL)
    square = slack * slack
    return dx * dx + dy * dy <= square and (
        square < math.inf or _quarter_within(p.x, p.y, d.center.x, d.center.y, 0.0, d.radius)
    )


def _dist_to_rect(p: Point, r) -> float:
    dx = max(r.x_lo - p.x, 0.0, p.x - r.x_hi)
    dy = max(r.y_lo - p.y, 0.0, p.y - r.y_hi)
    return math.hypot(dx, dy)


def _dist_to_rect_boundary(p: Point, r) -> float:
    if not point_in_rect(p, r):
        return _dist_to_rect(p, r)
    return min(p.x - r.x_lo, r.x_hi - p.x, p.y - r.y_lo, r.y_hi - p.y)


def segments_cross(a: Segment, b: Segment) -> bool:
    """Whether two axis-parallel segments share a point (closed extents)."""
    if a.orientation == b.orientation:
        return a.fixed == b.fixed and a.lo <= b.hi and b.lo <= a.hi
    h, v = (a, b) if a.orientation == "horizontal" else (b, a)
    return h.lo <= v.fixed <= h.hi and v.lo <= h.fixed <= v.hi


# ---------------------------------------------------------------------------
# the intersection predicate


def intersects(a: GeomObject, b: GeomObject) -> bool:
    """True iff the closed point sets of `a` and `b` share a point.

    Total and symmetric over all pairs of Point/Disc/AxisRect/Frame, and over
    pairs of segments.
    """
    key = (type(a), type(b))
    fn = _DISPATCH.get(key)
    if fn is not None:
        return fn(a, b)
    fn = _DISPATCH.get((type(b), type(a)))
    if fn is not None:
        return fn(b, a)
    raise TypeError(f"unsupported object pair: {type(a).__name__}, {type(b).__name__}")


def _disc_disc(a: Disc, b: Disc) -> bool:
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    slack = (a.radius + b.radius) * (1.0 + REL_TOL)
    square = slack * slack
    return dx * dx + dy * dy <= square and (
        square < math.inf or _quarter_within(a.center.x, a.center.y, b.center.x, b.center.y, a.radius, b.radius)
    )


def _disc_rect(d: Disc, r: AxisRect) -> bool:
    return _dist_to_rect(d.center, r) <= d.radius * (1.0 + REL_TOL)


def _disc_frame(d: Disc, f: Frame) -> bool:
    # A solid disc meets the boundary curve iff the boundary comes within the radius.
    return _dist_to_rect_boundary(d.center, f) <= d.radius * (1.0 + REL_TOL)


def _rect_frame(r: AxisRect, f: Frame) -> bool:
    # The frame meets the solid rect unless they are disjoint or the rect sits
    # strictly inside the frame's interior.
    return _rects_overlap(r, f) and not _strictly_inside(r, f)


def _frame_frame(a: Frame, b: Frame) -> bool:
    return _rects_overlap(a, b) and not _strictly_inside(a, b) and not _strictly_inside(b, a)


_DISPATCH = {
    (Point, Point): lambda p, q: p.x == q.x and p.y == q.y,
    (Point, Disc): lambda p, d: point_in_disc(p, d),
    (Point, AxisRect): point_in_rect,
    (Point, Frame): _point_on_frame,
    (Disc, Disc): _disc_disc,
    (Disc, AxisRect): _disc_rect,
    (Disc, Frame): _disc_frame,
    (AxisRect, AxisRect): _rects_overlap,
    (AxisRect, Frame): _rect_frame,
    (Frame, Frame): _frame_frame,
    (Segment, Segment): segments_cross,
}


# ---------------------------------------------------------------------------
# general position of rectangle families


def check_general_position(rects) -> bool:
    """True iff no two rectangle edges lie on a common vertical or horizontal
    line: the edge abscissae, sorted in numpy, hold no value twice, and
    neither do the edge ordinates."""
    rects = list(rects)
    for sides in (("x_lo", "x_hi"), ("y_lo", "y_hi")):
        lines = np.sort(np.concatenate([np.fromiter(map(attrgetter(a), rects), float) for a in sides]))
        if (lines[1:] == lines[:-1]).any():
            return False
    return True
