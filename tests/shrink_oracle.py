"""The scalar bisection that `suite.bisection_exits` replaced, kept as its
test oracle and as the exit-parameter oracle of `shrink_events`: one path at
a time, 100 halvings of a Python float interval."""

import math

from ztnet.geometry import Disc, Point


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
