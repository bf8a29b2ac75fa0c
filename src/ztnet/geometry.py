"""Geometric primitives and intersection predicates.

All objects are closed point sets: tangency and shared boundary points count
as intersecting.  Disc predicates use a relative tolerance of 1e-9; rectangle
and segment predicates compare coordinates exactly (instance generators draw
coordinates from a fine grid, so floats are exact there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import DegenerateInput

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
        if not self.radius > 0:
            raise ValueError(f"disc radius must be positive, got {self.radius}")


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


class IntersectionType(Enum):
    """The four ways a pair of intersecting axis-parallel rectangles can meet."""

    A_INSIDE_B = 1
    B_INSIDE_A = 2
    B_VERTICAL_CROSSES_A = 3
    A_VERTICAL_CROSSES_B = 4


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


def point_in_disc(p: Point, d: Disc) -> bool:
    # Squared form: keeps the scalar predicate bit-identical to the vectorized one.
    dx = p.x - d.center.x
    dy = p.y - d.center.y
    slack = d.radius * (1.0 + REL_TOL)
    return dx * dx + dy * dy <= slack * slack


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
    return dx * dx + dy * dy <= slack * slack


def _disc_rect(d: Disc, r: AxisRect) -> bool:
    return _dist_to_rect(d.center, r) <= d.radius * (1.0 + REL_TOL)


def _disc_frame(d: Disc, f: Frame) -> bool:
    # A solid disc meets the boundary curve iff the boundary comes within the radius.
    return _dist_to_rect_boundary(d.center, f) <= d.radius * (1.0 + REL_TOL)


def _rect_rect(a: AxisRect, b: AxisRect) -> bool:
    return _rects_overlap(a, b)


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
    (AxisRect, AxisRect): _rect_rect,
    (AxisRect, Frame): _rect_frame,
    (Frame, Frame): _frame_frame,
    (Segment, Segment): segments_cross,
}


# ---------------------------------------------------------------------------
# rectangle pair classification


def _pair_general_position(a, b) -> bool:
    xs = (a.x_lo, a.x_hi, b.x_lo, b.x_hi)
    ys = (a.y_lo, a.y_hi, b.y_lo, b.y_hi)
    return len(set(xs)) == 4 and len(set(ys)) == 4


def _edge_crossings(outer, inner):
    """Crossing points of `outer`'s vertical edges with `inner`'s horizontal edges."""
    pts = []
    for xv in (outer.x_lo, outer.x_hi):
        if inner.x_lo <= xv <= inner.x_hi:
            for yh in (inner.y_lo, inner.y_hi):
                if outer.y_lo <= yh <= outer.y_hi:
                    pts.append((xv, yh))
    return pts


def classify_rect_pair(a: AxisRect, b: AxisRect) -> Optional[IntersectionType]:
    """Classify an intersecting rectangle pair into exactly one of four types.

    Returns None for disjoint pairs.  Containment is strict.  A pair touching
    both ways (a vertical edge of b crosses a horizontal edge of a *and* vice
    versa, the corner-overlap configuration) is split by comparing the two
    crossing points lexicographically, so that swapping the roles of a and b
    swaps types 3 and 4.
    """
    if not _pair_general_position(a, b):
        raise DegenerateInput(f"rectangle pair shares an edge line: {a}, {b}")
    if not _rects_overlap(a, b):
        return None
    if _strictly_inside(a, b):
        return IntersectionType.A_INSIDE_B
    if _strictly_inside(b, a):
        return IntersectionType.B_INSIDE_A
    pts3 = _edge_crossings(b, a)  # vertical edge of b x horizontal edge of a
    pts4 = _edge_crossings(a, b)  # vertical edge of a x horizontal edge of b
    if pts3 and not pts4:
        return IntersectionType.B_VERTICAL_CROSSES_A
    if pts4 and not pts3:
        return IntersectionType.A_VERTICAL_CROSSES_B
    if pts3 and pts4:
        if min(pts3) < min(pts4):
            return IntersectionType.B_VERTICAL_CROSSES_A
        return IntersectionType.A_VERTICAL_CROSSES_B
    # Overlapping rectangles whose boundaries never cross can only arise from
    # shared edge lines, which the general-position check already rejected.
    raise DegenerateInput(f"rectangle pair in unclassifiable contact: {a}, {b}")


def check_general_position(rects) -> bool:
    """True iff no two rectangle edges lie on a common vertical or horizontal line."""
    xs = []
    ys = []
    for r in rects:
        xs.extend((r.x_lo, r.x_hi))
        ys.extend((r.y_lo, r.y_hi))
    return len(set(xs)) == len(xs) and len(set(ys)) == len(ys)


# ---------------------------------------------------------------------------
# rectangle decomposition used by the crossing-graph machinery


def rect_corners(r) -> tuple[Point, Point, Point, Point]:
    """Corners in (lower-left, lower-right, upper-left, upper-right) order."""
    return (
        Point(r.x_lo, r.y_lo),
        Point(r.x_hi, r.y_lo),
        Point(r.x_lo, r.y_hi),
        Point(r.x_hi, r.y_hi),
    )


def rect_horizontal_edges(r) -> tuple[Segment, Segment]:
    """Bottom and top edges as horizontal segments."""
    return (
        Segment("horizontal", r.y_lo, r.x_lo, r.x_hi),
        Segment("horizontal", r.y_hi, r.x_lo, r.x_hi),
    )


def rect_vertical_edges(r) -> tuple[Segment, Segment]:
    """Left and right edges as vertical segments."""
    return (
        Segment("vertical", r.x_lo, r.y_lo, r.y_hi),
        Segment("vertical", r.x_hi, r.y_lo, r.y_hi),
    )
