"""Disc shrinking toward anchor points and the point/disc counting chain.

A disc shrinks along the straight path center(s) = (1-s) c + s a,
radius(s) = (1-s) r, ending at the anchor point a at s = 1.  Every
intermediate object is a disc, so a family stays a family of pseudo-discs
throughout.  The contained point set only loses points along the path, so
the exit order, the points sorted by exit parameter s and then by index,
fixes every set the path passes through: after the first k losses of a disc
of d points, d - k remain.  The sets of size exactly t form the canonical
tuple family; a disc costs one sorted exit list per anchor, O(d^2 log d).

The tuple, coverage and chain functions take the point/disc incidence graph
the caller already holds; coverage and the chain read its `nbrs_a` through
`hypergraph.containing_rows`.  The chain is `hypergraph.counting_chain` at
k = t; it holds on a K_{t,t}-free graph, and checking freeness is the
caller's job, as for `zarankiewicz.num_edges_bound`.
"""

from __future__ import annotations

import math

from .errors import DegenerateInput, PreconditionViolated
from .geometry import Disc, Point, point_in_disc
from .hypergraph import (
    BipartiteIntersectionGraph, CanonicalTupleFamily, ChainReport, containing_rows, counting_chain)


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


def _require_inside(pts, d: Disc, what: str) -> None:
    """Raise PreconditionViolated on the first of `pts` outside `d`."""
    for p in pts:
        if not point_in_disc(p, d):
            raise PreconditionViolated(f"{what} {p} lies outside the disc {d}")


def _exits(d: Disc, anchor: Point, pts) -> list[tuple[float, int]]:
    """`shrink_exits` without its containment checks."""
    c, r, ax, ay = d.center, d.radius, anchor.x, anchor.y
    return sorted((_exit_parameter(p, c, r, anchor), i) for i, p in enumerate(pts) if p.x != ax or p.y != ay)


def shrink_exits(d: Disc, anchor: Point, pts: list[Point]) -> list[tuple[float, int]]:
    """Loss events of the contained set along the shrink path toward `anchor`,
    as (s, i) pairs for the points pts[i], sorted by exit parameter s and then
    by index, so simultaneous exits are consecutive.  Points equal to the
    anchor never exit and are left out."""
    _require_inside([anchor], d, "anchor")
    _require_inside(pts, d, "point")
    return _exits(d, anchor, pts)


def shrink_canonical_tuples(g: BipartiteIntersectionGraph, t: int) -> CanonicalTupleFamily:
    """Point t-subsets realizable as b cap A for some shrunk copy b of a disc,
    on the incidence graph `g` of points (side a) and discs (side b), as
    ascending index tuples.

    A disc of exactly t points counts unshrunk.  Toward each anchor in a disc
    of d > t points, the points left after the first d - t losses count.  If
    the (d-t)-th loss ties with the next, the path never holds t points there,
    so the points are not in general position and DegenerateInput names them.
    The neighbour lists are ascending, so each set's tuple is too.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    for side, objs, kind in (("a", g.side_a, Point), ("b", g.side_b, Disc)):
        if not all(type(o) is kind for o in objs):
            raise PreconditionViolated(f"side {side} must contain {kind.__name__.lower()}s only")
    found: set[tuple[int, ...]] = set()
    for j, (b, contained) in enumerate(zip(g.side_b, g.nbrs_b)):
        cut = len(contained) - t
        if cut < 0:
            continue  # the contained set only shrinks
        local_pts = [g.side_a[i] for i in contained]
        _require_inside(local_pts, b, "point")
        if cut == 0:
            found.add(tuple(contained))
            continue
        for a, anchor in zip(contained, local_pts):
            exits = _exits(b, anchor, local_pts)
            if len(exits) > cut and exits[cut - 1][0] == exits[cut][0]:
                tied = [contained[v] for s, v in exits if s == exits[cut][0]]
                raise DegenerateInput(
                    f"disc {j} shrunk toward anchor point {a}: points {tied} leave it at once, from "
                    f"more than {t} points to fewer; the shrink tuples need points in general position")
            if len(exits) >= cut:
                lost = {v for _, v in exits[:cut]}
                found.add(tuple(i for v, i in enumerate(contained) if v not in lost))
    return CanonicalTupleFamily(k=t, tuples=frozenset(found))


def coverage_violations(g: BipartiteIntersectionGraph, t: int) -> list[tuple[int, int]]:
    """(disc, point) pairs of the incidence graph `g` violating tuple coverage.

    Whenever a disc contains at least t points, every contained point must lie
    in at least one canonical t-tuple inside that disc: shrinking the disc
    toward the point passes through a contained set of size exactly t.
    """
    return _uncovered(shrink_canonical_tuples(g, t).tuples, g, t)


def _uncovered(tuples, g: BipartiteIntersectionGraph, t: int) -> list[tuple[int, int]]:
    """(b, a) pairs, row-major, where a row N(b) of `g` of >= t indices holds a
    but none of the `tuples` inside it does (an empty tuple covers nothing)."""
    covered = [set() for _ in range(g.n)]  # per row, the union of the tuples inside it
    for tp, held in containing_rows(filter(None, tuples), g.nbrs_a):
        for j in held:
            covered[j].update(tp)
    return [(j, i) for j, row in enumerate(g.nbrs_b) if len(row) >= t for i in row if i not in covered[j]]


def counting_inequality_check(g: BipartiteIntersectionGraph, t: int) -> ChainReport:
    """The chain sum floor(d_i/t) <= sum x_i <= (t-1)|F| on the incidence graph
    `g`, through `hypergraph.counting_chain` at k = t: d_i counts the points
    inside disc i, x_i the canonical t-tuples inside it, and floor(d_i/t) <=
    x_i holds per disc.  The upper chain needs `g` to be K_{t,t}-free, which
    the caller checks (`zarankiewicz.find_ktt_witness`)."""
    fam = shrink_canonical_tuples(g, t)
    return counting_chain(fam.tuples, g, t, t, lambda d: d // t)
