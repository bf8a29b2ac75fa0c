"""Disc shrinking toward anchor points and the point/disc counting chain.

A disc shrinks along the straight path center(s) = (1-s) c + s a,
radius(s) = (1-s) r, ending at the anchor point a at s = 1.  Every
intermediate object is a disc, so a family stays a family of pseudo-discs
throughout.  The contained point set only loses points along the path, so
the exit order, the points sorted by exit parameter s and then by index,
fixes every set the path passes through: after the first k losses of a disc
of d points, d - k remain.  The sets of size exactly t form the canonical
tuple family.  `exit_parameters` solves for the exits in numpy, elementwise,
and a disc costs one d x d exit matrix sorted by row, O(d^2 log d); the
scalar form it replaced is the test oracle in `tests/shrink_oracle.py`.

The tuple, coverage and chain functions take the point/disc incidence graph
the caller already holds and read its families' columns; coverage and the
chain read its `nbrs_a` through `hypergraph.containing_rows`.  The chain is
`hypergraph.counting_chain` at k = t; it holds on a K_{t,t}-free graph, and
checking freeness is the caller's job, as for `zarankiewicz.num_edges_bound`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, PreconditionViolated
from .geometry import DISC, POINT, Family
from .hypergraph import (
    BipartiteIntersectionGraph, CanonicalTupleFamily, ChainReport, containing_rows, counting_chain)


def exit_parameters(cx, cy, r, ax, ay, px, py) -> np.ndarray:
    """Smallest s in [0, 1] with |p - center(s)| = radius(s), elementwise over
    the broadcast disc centres and radii, anchors and points.

    Quadratic in s: with u = p - c, w = anchor - c,
    (w.w - r^2) s^2 + 2 (r^2 - u.w) s + (u.u - r^2) = 0.
    The leading coefficient is <= 0 and the constant term is <= 0 for a
    contained point, so the smaller root is the unique exit in (0, 1); a
    point already on the boundary exits at s = 0, and with the anchor on the
    boundary (leading coefficient 0) the equation is linear.  Where squared
    offsets overflow (coordinates above about 1.3e154) the result is NaN.
    """
    # huge coordinates overflow to inf and nan silently, as Python floats do,
    # and the branches np.where drops may divide by 0
    with np.errstate(all="ignore"):
        ux, uy = px - cx, py - cy
        wx, wy = ax - cx, ay - cy
        r2 = r * r
        alpha = wx * wx + wy * wy - r2
        beta = 2.0 * (r2 - (ux * wx + uy * wy))
        gamma = ux * ux + uy * uy - r2
        linear = np.minimum(1.0, -gamma / beta)
        sq = np.sqrt(np.maximum(beta * beta - 4.0 * alpha * gamma, 0.0))
        root1 = (-beta + sq) / (2.0 * alpha)
        root2 = (-beta - sq) / (2.0 * alpha)
    low = np.minimum(root1, root2)
    s = np.minimum(np.maximum(np.where(low >= 0.0, low, np.maximum(root1, root2)), 0.0), 1.0)
    return np.where(gamma >= 0.0, 0.0, np.where(alpha == 0.0, linear, s))


def shrink_canonical_tuples(g: BipartiteIntersectionGraph, t: int) -> CanonicalTupleFamily:
    """Point t-subsets realizable as b cap A for some shrunk copy b of a disc,
    on the incidence graph `g` of a point `Family` (side a) and a disc
    `Family` (side b), as ascending index tuples.

    A disc of exactly t points counts unshrunk.  A disc of d > t points takes
    one d x d exit matrix, a row per anchor; toward each anchor, the points
    left after the first d - t losses of its sorted row count.  If the
    (d-t)-th loss ties with the next, the path never holds t points there, so
    the points are not in general position and DegenerateInput names them; a
    disc whose exits are NaN (`exit_parameters`' overflow) raises it too.
    The graph's edges passed `point_in_disc` bit for bit, and its neighbour
    lists are ascending, so each set's tuple is too.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    for side, fam, code, kind in (("a", g.side_a, POINT, "points"), ("b", g.side_b, DISC, "discs")):
        if not (isinstance(fam, Family) and (fam.codes == code).all()):
            raise PreconditionViolated(f"side {side} must contain {kind} only")
    (px, _, py, _, _), (cx, _, cy, _, rad) = g.side_a.fields, g.side_b.fields
    found: set[tuple[int, ...]] = set()
    for j, contained in enumerate(g.nbrs_b):
        cut = len(contained) - t
        if cut < 0:
            continue  # the contained set only shrinks
        if cut == 0:
            found.add(tuple(contained))
            continue
        idx = np.array(contained)
        x, y = px[idx], py[idx]
        copies = (x[:, None] == x) & (y[:, None] == y)  # the anchor's copies never exit
        exits = exit_parameters(cx[j], cy[j], rad[j], x[:, None], y[:, None], x, y)
        if np.isnan(exits).any():
            raise DegenerateInput(
                f"disc {j}: its shrink exits are NaN, as squared offsets overflow (coordinates above about 1.3e154)")
        order = np.lexsort((exits, copies))  # per row: the k exits by s, then by index; the copies last
        s, k = np.take_along_axis(exits, order, axis=1), len(idx) - copies.sum(axis=1)
        if (tied := np.flatnonzero((k > cut) & (s[:, cut - 1] == s[:, cut]))).size:
            a = tied[0]
            raise DegenerateInput(
                f"disc {j} shrunk toward anchor point {contained[a]}: points "
                f"{idx[order[a, : k[a]][s[a, : k[a]] == s[a, cut]]].tolist()} leave it at once, from "
                f"more than {t} points to fewer; the shrink tuples need points in general position")
        left = idx[np.sort(order[:, cut:], axis=1)]  # the t points left after d - t losses
        found.update(map(tuple, left[k >= cut].tolist()))
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
