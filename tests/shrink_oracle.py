"""Two oracles of the disc shrink.  `bisection_exit` is the scalar bisection
that `suite.bisection_exits` replaced, kept as its test oracle and as the
exit-parameter oracle of `shrink_exits`: one path at a time, 100 halvings of
a Python float interval.  `event_canonical_tuples` is the per-event form of
`shrink_canonical_tuples`: every loss records the set left after it."""

import itertools
import math

from ztnet.geometry import Disc, Point
from ztnet.points_pseudodiscs import _exit_parameter


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


def event_canonical_tuples(g, t: int) -> frozenset:
    """Canonical t-tuples of the point/disc incidence graph `g`: a disc of
    exactly t points counts unshrunk; toward each anchor it contains, every
    loss event stores the frozenset of points left, the events are grouped by
    equal exit parameter, and the last event of a group counts when its set
    has exactly t points."""
    found = set()
    for b, contained in zip(g.side_b, g.nbrs_b):
        if len(contained) < t:
            continue
        if len(contained) == t:
            found.add(tuple(contained))
        pts = [g.side_a[i] for i in contained]
        for anchor in pts:
            exits = sorted((_exit_parameter(p, b.center, b.radius, anchor), v)
                           for v, p in enumerate(pts) if not (p.x == anchor.x and p.y == anchor.y))
            remaining, events = set(range(len(pts))), []
            for s, v in exits:
                remaining.discard(v)
                events.append((s, frozenset(remaining)))
            for _, group in itertools.groupby(events, key=lambda ev: ev[0]):
                *_, (_, last) = group
                if len(last) == t:
                    found.add(tuple(contained[v] for v in sorted(last)))
    return frozenset(found)
