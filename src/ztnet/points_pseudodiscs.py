"""Disc shrinking toward anchor points and the point/disc counting chain.

A disc shrinks along the straight path center(s) = (1-s) c + s a,
radius(s) = (1-s) r, ending at the anchor point a at s = 1.  Every
intermediate object is a disc, so a family stays a family of pseudo-discs
throughout.  The contained point set decreases along the path; recording it
after every loss event enumerates the realizable subsets, and the sets of
size exactly t form the canonical tuple family.

The tuple, coverage and chain functions take the point/disc incidence graph
the caller already holds; coverage and the chain read its `nbrs_a` through
`hypergraph.containing_rows`.  The chain is `hypergraph.counting_chain` at
k = t; it holds on a K_{t,t}-free graph, and checking freeness is the
caller's job, as for `zarankiewicz.num_edges_bound`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import PreconditionViolated
from .geometry import Disc, Point, point_in_disc
from .hypergraph import (
    BipartiteIntersectionGraph, CanonicalTupleFamily, ChainReport, containing_rows, counting_chain)


@dataclass(frozen=True)
class ShrinkEvent:
    """One loss along a shrink trajectory.

    `remaining` is the contained set right after the event (indices into the
    `pts` argument).  Events are sorted by increasing s and `remaining`
    strictly decreases across loss events; the list ends with a terminator at
    s = 1 whose `remaining` repeats the never-exiting anchor indices and whose
    `lost_point` is the first anchor index (-1 if the anchor is not among the
    points).
    """

    s: float
    lost_point: int
    remaining: frozenset[int]


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


def shrink_events(d: Disc, anchor: Point, pts: list[Point]) -> list[ShrinkEvent]:
    """Loss events of the contained set along the shrink path toward `anchor`.

    Points equal to the anchor never exit.  Simultaneous exits produce
    consecutive events with equal s, ordered by point index.
    """
    if not point_in_disc(anchor, d):
        raise PreconditionViolated(f"anchor {anchor} lies outside the disc {d}")
    for p in pts:
        if not point_in_disc(p, d):
            raise PreconditionViolated(f"point {p} lies outside the disc {d}")
    anchor_idx = [i for i, p in enumerate(pts) if p.x == anchor.x and p.y == anchor.y]
    exits = []
    for i, p in enumerate(pts):
        if p.x == anchor.x and p.y == anchor.y:
            continue
        exits.append((_exit_parameter(p, d.center, d.radius, anchor), i))
    exits.sort()
    events = []
    remaining = set(range(len(pts)))
    for s, i in exits:
        remaining.discard(i)
        events.append(ShrinkEvent(s=s, lost_point=i, remaining=frozenset(remaining)))
    events.append(
        ShrinkEvent(
            s=1.0,
            lost_point=anchor_idx[0] if anchor_idx else -1,
            remaining=frozenset(anchor_idx),
        )
    )
    return events


def shrink_canonical_tuples(g: BipartiteIntersectionGraph, t: int) -> CanonicalTupleFamily:
    """Point t-subsets realizable as b cap A for some shrunk copy b of a disc,
    on the incidence graph `g` of points (side a) and discs (side b), as
    ascending index tuples.

    For every disc holding at least t points and every contained anchor, walk
    the loss events; the contained sets of size exactly t, after a batch of
    simultaneous losses or unshrunk, form the family.  Simultaneous losses are
    one event, so the artificial intermediate set between them is not
    recorded.  The neighbour lists are ascending, so each set's tuple is too.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    found: set[tuple[int, ...]] = set()
    for b, contained in zip(g.side_b, g.nbrs_b):
        if len(contained) < t:
            continue  # the contained set only shrinks
        if len(contained) == t:
            found.add(tuple(contained))
        local_pts = [g.side_a[i] for i in contained]
        for anchor in local_pts:
            for _, group in itertools.groupby(shrink_events(b, anchor, local_pts)[:-1], key=lambda ev: ev.s):
                *_, last = group
                if len(last.remaining) == t:
                    found.add(tuple(contained[v] for v in sorted(last.remaining)))
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
