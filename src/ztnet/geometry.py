"""Geometric primitives, intersection predicates and columnar families.

All objects are closed point sets: tangency and shared boundary points count
as intersecting.  Disc predicates use a relative tolerance of 1e-9; rectangle
and segment predicates compare coordinates exactly (instance generators draw
coordinates from a fine grid, so floats are exact there).

A `Family` holds objects by columns: kind codes and the layout x_lo, x_hi,
y_lo, y_hi, radius, each object a closed box plus a radius.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
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
    lines = np.sort(Family.of(rects).fields[:4].reshape(2, -1), axis=1)  # the x_lo, x_hi row and the y_lo, y_hi row
    return not (lines[:, 1:] == lines[:, :-1]).any()


# ---------------------------------------------------------------------------
# columnar families

# a kind: JSON name, JSON fields in read order, the JSON field of each layout row (None
# reads 0.0), class, object -> box rows (and radius), layout values -> object, repr template
Shape = namedtuple("Shape", "name cls keys rows get make text")
_BOX, _BOX_ATTRS = ("x0", "x1", "y0", "y1", None), attrgetter("x_lo", "x_hi", "y_lo", "y_hi")
DISC, RECT, FRAME, POINT, HORIZONTAL, VERTICAL = range(6)  # kind codes: indices into SHAPES
SHAPES = (
    Shape("disc", Disc, ("r", "cx", "cy"), ("cx", "cx", "cy", "cy", "r"),  # the radius is read first
          attrgetter("center.x", "center.x", "center.y", "center.y", "radius"),
          lambda x, _, y, __, r: Disc(Point(x, y), r), ("Disc(center=Point(x=%s, y=%s), radius=%s)", (0, 2, 4))),
    Shape("rect", AxisRect, _BOX[:4], _BOX, _BOX_ATTRS, lambda *v: AxisRect(*v[:4]),
          ("AxisRect(x_lo=%s, x_hi=%s, y_lo=%s, y_hi=%s)", (0, 1, 2, 3))),
    Shape("frame", Frame, _BOX[:4], _BOX, _BOX_ATTRS, lambda *v: Frame(*v[:4]),
          ("Frame(x_lo=%s, x_hi=%s, y_lo=%s, y_hi=%s)", (0, 1, 2, 3))),
    Shape("point", Point, ("x", "y"), ("x", "x", "y", "y", None), attrgetter("x", "x", "y", "y"),
          lambda x, _, y, *__: Point(x, y), ("Point(x=%s, y=%s)", (0, 2))),
    Shape("horizontal", Segment, (), (), attrgetter("lo", "hi", "fixed", "fixed"),
          lambda lo, hi, y, *_: Segment("horizontal", y, lo, hi),
          ("Segment(orientation='horizontal', fixed=%s, lo=%s, hi=%s)", (2, 0, 1))),
    Shape("vertical", Segment, (), (), attrgetter("fixed", "fixed", "lo", "hi"),
          lambda x, _, lo, hi, __: Segment("vertical", x, lo, hi),
          ("Segment(orientation='vertical', fixed=%s, lo=%s, hi=%s)", (0, 2, 3))),
)
_CODES = {Disc: DISC, AxisRect: RECT, Frame: FRAME, Point: POINT, "horizontal": HORIZONTAL, "vertical": VERTICAL}


class Family(Sequence):
    """Objects held by columns: `codes`, an int64 kind code each (one int if all
    share it), and `fields`, the (5, n) float64 layout.  Objects are built from
    the columns on first use and cached."""

    def __init__(self, codes, fields):
        self.fields, self._objects = np.asarray(fields, dtype=float), None
        self.codes = np.full(self.fields.shape[1], codes, np.int64) if isinstance(codes, int) else codes

    @classmethod
    def of(cls, objs) -> "Family":
        """`objs` if a family, else its objects' columns; an unknown kind raises TypeError."""
        if isinstance(objs, Family):
            return objs
        objs = list(objs)
        kinds = [o.orientation if type(o) is Segment else type(o) for o in objs]
        if unknown := set(kinds) - _CODES.keys():
            raise TypeError(f"unsupported object: {min(k.__name__ for k in unknown)}")
        fam = cls(np.array([_CODES[k] for k in kinds], np.int64), np.zeros((5, len(objs))))
        for code, idx in fam.groups():
            vals = np.array([SHAPES[code].get(objs[i]) for i in idx.tolist()], float)
            fam.fields[: vals.shape[1], idx] = vals.T
        return fam

    def groups(self):
        """(code, indices) for each kind code present."""
        return ((code, np.flatnonzero(self.codes == code)) for code in set(self.codes.tolist()))

    @property
    def objects(self) -> list:
        if self._objects is None:
            objs = np.empty(len(self), object)
            for code, idx in self.groups():
                objs[idx] = list(map(SHAPES[code].make, *self.fields[:, idx].tolist()))
            self._objects = objs.tolist()
        return self._objects

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        return self.objects[i]

    def __iter__(self):
        return iter(self.objects)

    def __eq__(self, other) -> bool:
        return self.objects == (other.objects if isinstance(other, Family) else other)

    def __repr__(self) -> str:
        return "[" + ", ".join(self.texts([shape.text for shape in SHAPES])) + "]"

    def texts(self, templates) -> list[str]:
        """Each object as text: `templates[code]` is a %-template and the layout
        rows whose values' reprs fill it."""
        out = [""] * len(self)
        for code, idx in self.groups():
            template, rows = templates[code]
            for i, vals in zip(idx.tolist(), zip(*(map(repr, self.fields[r, idx].tolist()) for r in rows))):
                out[i] = template % vals
        return out

    def __add__(self, other) -> "Family":
        other = Family.of(other)
        return Family(np.concatenate((self.codes, other.codes)), np.concatenate((self.fields, other.fields), axis=1))

    def __radd__(self, other) -> "Family":
        return Family.of(other) + self

    def take(self, idx: np.ndarray) -> "Family":
        """The objects at the int indices `idx`, in that order."""
        return Family(self.codes[idx], self.fields[:, idx])

    def representatives(self) -> dict:
        """The first object of each kind code, by code in order of first occurrence."""
        codes, first = np.unique(self.codes, return_index=True)
        return {c: SHAPES[c].make(*self.fields[:, i].tolist()) for i, c in sorted(zip(first.tolist(), codes.tolist()))}
