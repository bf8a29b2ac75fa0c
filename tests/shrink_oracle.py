"""Oracles of the disc shrink.  `_exit_parameter` is the scalar exit that
`points_pseudodiscs.exit_parameters` replaced, kept as its elementwise
oracle: one path at a time, the same float operations in the same order,
with branches where the kernel has `np.where`.  `bisection_exit` is the
scalar bisection that `suite.bisection_exits` replaced, kept as its test
oracle and as an independent oracle of `exit_parameters`: one path at a
time, 100 halvings of a Python float interval.  `event_canonical_tuples` is
the per-event form of `shrink_canonical_tuples`: every loss records the set
left after it, and `event_cut_ties` finds the anchors whose simultaneous
losses skip t points."""

import itertools
import math

from ztnet.geometry import Disc, Point


def _exit_parameter(p: Point, c: Point, r: float, anchor: Point) -> float:
    """Smallest s in [0, 1] with |p - center(s)| = radius(s).

    Quadratic in s: with u = p - c, w = anchor - c,
    (w.w - r^2) s^2 + 2 (r^2 - u.w) s + (u.u - r^2) = 0.
    The leading coefficient is <= 0 and the constant term is <= 0 for a
    contained point, so the smaller root is the unique exit in (0, 1); a
    point already on the boundary exits at s = 0.
    """
    ux, uy = p.x - c.x, p.y - c.y
    wx, wy = anchor.x - c.x, anchor.y - c.y
    r2 = r * r
    alpha = wx * wx + wy * wy - r2
    beta = 2.0 * (r2 - (ux * wx + uy * wy))
    gamma = ux * ux + uy * uy - r2
    if gamma >= 0.0:
        return 0.0
    if alpha == 0.0:
        # anchor on the boundary; beta > 0 for any contained p != anchor
        return min(1.0, -gamma / beta)
    disc = beta * beta - 4.0 * alpha * gamma
    sq = math.sqrt(max(disc, 0.0))
    root1 = (-beta + sq) / (2.0 * alpha)
    root2 = (-beta - sq) / (2.0 * alpha)
    s = min(root1, root2) if min(root1, root2) >= 0.0 else max(root1, root2)
    return min(max(s, 0.0), 1.0)


def bisection_exit(d: Disc, anchor: Point, p: Point, iters: int = 100) -> float:
    """First boundary crossing of the shrink path, by bisection on
    g(s) = |p - center(s)| - radius(s); g is convex with g(0) <= 0 < g(1)."""

    def g(s: float) -> float:
        cx = (1 - s) * d.center.x + s * anchor.x
        cy = (1 - s) * d.center.y + s * anchor.y
        return math.hypot(p.x - cx, p.y - cy) - (1 - s) * d.radius

    if g(0.0) >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def _event_groups(g):
    """Per disc j and anchor index a it contains: the loss events toward a,
    each the frozenset of contained positions left, grouped by equal exit
    parameter, as (j, a, contained, groups)."""
    for j, (b, contained) in enumerate(zip(g.side_b, g.nbrs_b)):
        pts = [g.side_a[i] for i in contained]
        for a, anchor in zip(contained, pts):
            exits = sorted((_exit_parameter(p, b.center, b.radius, anchor), v)
                           for v, p in enumerate(pts) if not (p.x == anchor.x and p.y == anchor.y))
            remaining, events = set(range(len(pts))), []
            for s, v in exits:
                remaining.discard(v)
                events.append((s, frozenset(remaining)))
            groups = [[left for _, left in group] for _, group in itertools.groupby(events, key=lambda ev: ev[0])]
            yield j, a, contained, groups


def event_canonical_tuples(g, t: int) -> frozenset:
    """Canonical t-tuples of the point/disc incidence graph `g`: a disc of
    exactly t points counts unshrunk; toward each anchor it contains, every
    loss event stores the frozenset of points left, the events are grouped by
    equal exit parameter, and the last event of a group counts when its set
    has exactly t points."""
    found = {tuple(contained) for contained in g.nbrs_b if len(contained) == t}
    for _, _, contained, groups in _event_groups(g):
        found.update(tuple(contained[v] for v in sorted(group[-1])) for group in groups if len(group[-1]) == t)
    return frozenset(found)


def event_cut_ties(g, t: int) -> list:
    """The (disc, anchor) index pairs, in scan order, where an event leaves
    exactly t points but is not the last of its group: the path skips the
    sets of t points there."""
    return [(j, a) for j, a, _, groups in _event_groups(g)
            if any(len(left) == t for group in groups for left in group[:-1])]
