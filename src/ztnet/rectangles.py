"""Rectangle-intersection machinery: type census, crossing graph,
canonical segment tuples, the segment Delaunay graph with its planar drawing,
and the counting-inequality report.

The census classifies the intersection graph's edges in numpy, straight from
the candidate grid's (rows, cols) edge arrays, one block at a time, and builds
no graph.  The report's chain is `hypergraph.counting_chain` on the crossing
graph, the one graph the report builds; checking that the rectangle graph is
K_{t,t}-free is the caller's job.

A k-tuple of horizontal segments is canonical when some vertical segment
meets exactly those k among all the segments.  Stab sets are constant on the
open intervals between consecutive endpoint abscissae, and within one
interval the realizable exact stab sets are precisely the runs of consecutive
segments in the y-order of the active set, so a sweep over the interval
decomposition enumerates the family exactly.  The sweep yields each run at
least once, at the first interval where it is consecutive, by looking only
at the windows around the segments each abscissa inserts or deletes: that
costs O((n + |F|)·k) rather than O(n·|active|).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .geometry import HORIZONTAL, VERTICAL, Family, check_general_position
from .hypergraph import (
    BipartiteIntersectionGraph, CanonicalTupleFamily, ChainReport, Graph, _edge_blocks, counting_chain)


@dataclass(frozen=True)
class IntersectionTypeCounts:
    type1: int  # a strictly inside b
    type2: int  # b strictly inside a
    type3: int  # vertical edge of b crosses horizontal edge of a
    type4: int  # vertical edge of a crosses horizontal edge of b

    @property
    def total(self) -> int:
        return self.type1 + self.type2 + self.type3 + self.type4


def horizontal_edges_of(rects) -> Family:
    """Bottom and top edges of each rectangle; rect i owns indices 2i, 2i+1."""
    return _edges_of(rects, HORIZONTAL)


def vertical_edges_of(rects) -> Family:
    """Left and right edges of each rectangle; rect j owns indices 2j, 2j+1."""
    return _edges_of(rects, VERTICAL)


def _edges_of(rects, code: int) -> Family:
    """The rectangles' edges along one axis, from their columns."""
    fields = (box := Family.of(rects).fields).repeat(2, axis=1)
    fixed = 2 if code == HORIZONTAL else 0  # the rows of the edge's constant coordinate
    fields[fixed] = fields[fixed + 1] = box[fixed : fixed + 2].T.ravel()
    return Family(code, fields)


# ---------------------------------------------------------------------------
# census and crossing graph


def intersection_type_census(a_rects, b_rects) -> IntersectionTypeCounts:
    """Classify every intersecting (a, b) pair into exactly one of four types.

    Families with two edges on one line raise DegenerateInput.  Only the
    edges are classified, with no graph built: `_edge_blocks` yields them one
    grid block at a time, and numpy compares each block, gathered from the
    families' columns, by the per-pair rule of `tests/census_oracle.py`.  The
    crossings of b's vertical edges with a's horizontal edges form the product
    of the verticals that lie in a's x-span and the horizontals that lie in
    b's y-span (type 3), and the other way round for type 4.  When both exist,
    the lexicographically smaller leftmost crossing wins; its abscissa is a
    coordinate of b for type 3 and of a for type 4, and no two edge lines
    coincide, so x alone decides.  An edge that classifies as disjoint raises,
    so the partition identity total == |E| holds by construction.
    """
    a_rects, b_rects = Family.of(a_rects), Family.of(b_rects)
    if not check_general_position(a_rects + b_rects):
        raise DegenerateInput("rectangle families share an edge line")
    counts = [0, 0, 0, 0]
    a_box, b_box = a_rects.fields[:4], b_rects.fields[:4]
    for rows, cols in _edge_blocks(a_rects, b_rects):
        axl, axh, ayl, ayh = (v[rows] for v in a_box)
        bxl, bxh, byl, byh = (v[cols] for v in b_box)
        overlap = (axl <= bxh) & (bxl <= axh) & (ayl <= byh) & (byl <= ayh)
        a_in_b = (bxl < axl) & (axh < bxh) & (byl < ayl) & (ayh < byh)
        b_in_a = (axl < bxl) & (bxh < axh) & (ayl < byl) & (byh < ayh)
        b_left_in, b_right_in = (axl <= bxl) & (bxl <= axh), (axl <= bxh) & (bxh <= axh)
        a_left_in, a_right_in = (bxl <= axl) & (axl <= bxh), (bxl <= axh) & (axh <= bxh)
        a_rows_in = ((byl <= ayl) & (ayl <= byh)) | ((byl <= ayh) & (ayh <= byh))
        b_rows_in = ((ayl <= byl) & (byl <= ayh)) | ((ayl <= byh) & (byh <= ayh))
        crosses3 = (b_left_in | b_right_in) & a_rows_in
        crosses4 = (a_left_in | a_right_in) & b_rows_in
        x3 = np.where(b_left_in, bxl, bxh)  # leftmost type-3 crossing, where one exists
        x4 = np.where(a_left_in, axl, axh)
        crossing = overlap & ~a_in_b & ~b_in_a
        type3 = crossing & crosses3 & (~crosses4 | (x3 < x4))
        type4 = crossing & crosses4 & ~type3
        unclassified = crossing & ~crosses3 & ~crosses4
        for bad, error, message in (
            (~overlap, AssertionError, "intersecting pair classifies as disjoint"),
            (unclassified, DegenerateInput, "rectangle pair in unclassifiable contact"),
        ):
            if bad.any():
                e = int(np.flatnonzero(bad)[0])
                raise error(f"{message}: {a_rects[rows[e]]}, {b_rects[cols[e]]}")
        for k, mask in enumerate((a_in_b, b_in_a, type3, type4)):
            counts[k] += int(mask.sum())
    return IntersectionTypeCounts(*counts)


def crossing_graph(a_rects, b_rects) -> BipartiteIntersectionGraph:
    """Bipartite crossing graph: horizontal edges of A (side A) vs vertical
    edges of B (side B), with exactly two vertices per rectangle."""
    return BipartiteIntersectionGraph.from_families(
        horizontal_edges_of(a_rects), vertical_edges_of(b_rects)
    )


# ---------------------------------------------------------------------------
# canonical tuples by interval sweep


def _interval_runs(hsegs, k: int):
    """Yield (run, witness_x) for the length-k consecutive runs of the y-sorted
    active set on the open intervals between consecutive endpoint abscissae.

    The active list holds segment indices in ascending y-rank (y, ties broken
    by index), so a run is a plain slice of it.  After an abscissa's deletions
    and insertions, only the windows that hold a touched segment are yielded:
    an inserted segment, or the still-active upper neighbour of a deleted one.
    A run that is new on an interval holds an inserted segment or spans the
    gap a deletion left, so every run is yielded at least once, at the first
    interval where it is consecutive, in the full sweep's order; some are
    yielded again later.  At most 2·k·n runs come out (one segment per
    deletion and one per insertion, k windows each), so the sweep costs
    O((n + |F|)·k) beyond the bisects and list shifts of the active list.
    An abscissa where one segment ends and another starts raises
    DegenerateInput naming it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hsegs = Family.of(hsegs)
    starts: dict[float, list[int]] = {}
    ends: dict[float, list[int]] = {}
    for i, (lo, hi) in enumerate(zip(hsegs.fields[0].tolist(), hsegs.fields[1].tolist())):
        starts.setdefault(lo, []).append(i)
        ends.setdefault(hi, []).append(i)
    if shared := starts.keys() & ends.keys():
        raise DegenerateInput(
            f"a segment ends at x = {min(shared)!r} where another starts; "
            "the sweep needs distinct start and end abscissae"
        )
    abscissae = sorted(set(starts) | set(ends))
    # position in the y-order, ties broken by index: the inverse of the stable order
    rank = np.argsort(np.argsort(hsegs.fields[2], kind="stable"), kind="stable").tolist()
    y_rank = rank.__getitem__
    active: list[int] = []  # the active segments, by ascending y-rank
    for xi in range(len(abscissae) - 1):
        x = abscissae[xi]
        touched = []
        for i in ends.get(x, ()):
            p = bisect_left(active, rank[i], key=y_rank)
            del active[p]
            touched.extend(active[p : p + 1])
        for i in starts.get(x, ()):
            insort(active, i, key=y_rank)
            touched.append(i)
        last = len(active) - k
        if not touched or last < 0:
            continue
        los = set()
        for i in touched:
            p = bisect_left(active, rank[i], key=y_rank)
            if p < len(active) and active[p] == i:
                los.update(range(max(p - k + 1, 0), min(p, last) + 1))
        witness = (x + abscissae[xi + 1]) / 2.0
        for lo in sorted(los):
            yield tuple(active[lo : lo + k]), witness


def canonical_segment_tuples(hsegs, k: int) -> CanonicalTupleFamily:
    """All k-subsets realizable as the exact stab set of some vertical segment.

    No segment may end at an abscissa where another starts: the sweep sees
    only the open intervals between endpoint abscissae, so it would miss the
    stab sets of a vertical there, and such input raises DegenerateInput.
    The edges of rectangles in general position
    (`geometry.check_general_position`) meet this."""
    return CanonicalTupleFamily(k=k, tuples=frozenset(tuple(sorted(run)) for run, _ in _interval_runs(hsegs, k)))


# ---------------------------------------------------------------------------
# segment Delaunay graph and its planar drawing


SVG_WIDTH = 640.0  # drawing width in SVG user units, padding excluded


@dataclass
class SegmentDelaunay:
    """Delaunay graph of the vertical-stab hypergraph of horizontal segments."""

    hsegs: Family
    graph: Graph
    witness_x: dict[tuple[int, int], float]

    def to_svg(self) -> str:
        """Planar drawing: vertices at right endpoints, each edge a 3-leg path that
        runs along one segment, jumps over the witness vertical, and follows the
        other segment to its right endpoint."""
        if not self.hsegs:
            return '<svg xmlns="http://www.w3.org/2000/svg" width="16" height="16"/>'
        los, his, ys = self.hsegs.fields[:3].tolist()
        x_min, x_max = min(los + his), max(los + his)
        y_min, y_max = min(ys), max(ys)
        span_x = (x_max - x_min) or 1.0
        span_y = (y_max - y_min) or 1.0

        width = SVG_WIDTH
        height = width * span_y / span_x
        pad = 0.05 * width

        def tx(x: float) -> float:
            return pad + (x - x_min) / span_x * width

        def ty(y: float) -> float:
            return pad + (y_max - y) / span_y * height

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * pad:.1f}" '
            f'height="{height + 2 * pad:.1f}" '
            f'viewBox="0 0 {width + 2 * pad:.1f} {height + 2 * pad:.1f}">'
        ]
        for lo, hi, y in zip(los, his, ys):
            parts.append(
                f'<line x1="{tx(lo):.3f}" y1="{ty(y):.3f}" '
                f'x2="{tx(hi):.3f}" y2="{ty(y):.3f}" '
                'stroke="#bbbbbb" stroke-width="1.5"/>'
            )
        for pts in delaunay_drawing_paths(self).values():
            coords = " ".join(f"{tx(x):.3f},{ty(y):.3f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="#33678f" stroke-width="0.8"/>'
            )
        for hi, y in zip(his, ys):
            parts.append(
                f'<circle cx="{tx(hi):.3f}" cy="{ty(y):.3f}" r="2.2" fill="#222222"/>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


def segment_delaunay(hsegs) -> SegmentDelaunay:
    """Graph on the segments whose edges are the canonical pairs; each edge
    keeps the first witness abscissa of the sweep.  It has the precondition
    of `canonical_segment_tuples`: no segment ends where another starts, else
    DegenerateInput."""
    hsegs, witness_x = Family.of(hsegs), {}
    for (i, j), x in _interval_runs(hsegs, 2):
        witness_x.setdefault((i, j) if i < j else (j, i), x)
    return SegmentDelaunay(hsegs, Graph.from_edges(len(hsegs), witness_x), witness_x)


def delaunay_drawing_paths(dela: "SegmentDelaunay") -> dict[tuple[int, int], list[tuple[float, float]]]:
    """Data-space polyline per edge: right endpoint of one segment, along it to
    the witness abscissa, down the witness vertical, along the other segment to
    its right endpoint.  Paths are nudged off the segments by a per-edge hair
    (at most a tenth of the smallest y-gap) so overlapping strokes stay
    distinguishable without disturbing the vertical order.

    Paths of vertex-disjoint edges never cross: a crossing would put a third
    active segment strictly inside the witness vertical's span, contradicting
    the exact two-element stab set.
    """
    _, his, ys = dela.hsegs.fields[:3].tolist()
    levels = sorted(set(ys))
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    eps_draw = (min(gaps) / 10.0) if gaps else 0.01
    paths = {}
    for rank, (i, j) in enumerate(zip(dela.graph.rows.tolist(), dela.graph.cols.tolist())):
        off = eps_draw * (1 + rank % 7) / 7.0
        xw = dela.witness_x[(i, j)]
        yi, yj = ys[i] + off, ys[j] + off
        paths[(i, j)] = [(his[i], yi), (xw, yi), (xw, yj), (his[j], yj)]
    return paths


# ---------------------------------------------------------------------------
# hereditary Euler-bound check


@dataclass
class PlanarityReport:
    passed: bool
    violations: int
    samples_checked: int


def _euler_bound(k: int) -> int:
    if k >= 3:
        return 3 * k - 6
    return (0, 0, 1)[k]


BLOCK_ROWS = 64  # samples drawn and counted per numpy block


def _sample_blocks(g: Graph, samples: int, seed: int):
    """Random induced subgraphs of `g`, BLOCK_ROWS at a time, as pairs
    (keep, counts): keep[r] marks the vertices sample r keeps and counts[r]
    is its number of induced edges.

    A block is one Bernoulli mask: row r keeps each vertex whose uniform key
    falls below the row's own uniform level, so its kept count is uniform on
    0..n and, given that count, its kept set is a uniform subset.  Int seeds
    follow random.Random's rule, abs(seed), into numpy's default generator,
    imported here only so that importing ztnet leaves numpy.random unloaded."""
    from numpy.random import default_rng

    n, rng = g.vertex_count, default_rng(abs(seed))
    for lo in range(0, samples, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, samples - lo)
        keep = rng.random((rows, n)) < rng.random((rows, 1))
        kept_by_vertex = np.ascontiguousarray(keep.T)
        yield keep, np.count_nonzero(kept_by_vertex[g.rows] & kept_by_vertex[g.cols], axis=0)


def hereditary_planarity_check(g: Graph, samples: int, seed: int) -> PlanarityReport:
    """Euler bound |E| <= 3|V|-6 on the full graph and on `samples` random
    induced subgraphs drawn from `seed`, drawn and counted in numpy blocks of
    BLOCK_ROWS samples (see `_sample_blocks`).  Each count is held against
    the bound for the number of vertices its sample kept."""
    n = g.vertex_count
    bound = np.array([_euler_bound(k) for k in range(n + 1)])
    violations = int(len(g.rows) > bound[n])
    for keep, counts in _sample_blocks(g, samples, seed):
        violations += int((counts > bound[keep.sum(axis=1)]).sum())
    return PlanarityReport(
        passed=violations == 0,
        violations=violations,
        samples_checked=max(samples, 0) + 1,
    )


# ---------------------------------------------------------------------------
# the counting-inequality report


def rectangle_bound_report(a_rects, b_rects, t: int) -> tuple[IntersectionTypeCounts, ChainReport]:
    """The census of the rectangle intersection graph, and the counting chain
    of its crossing graph through `hypergraph.counting_chain` at k = 2t-1.

    Upper chain: sum x_i <= (2t-2) |F|, since 2t-1 vertical vertices crossing
    one canonical tuple would span t B-rectangles against t A-rectangles; it
    needs the rectangle graph to be K_{t,t}-free, which the caller checks.
    Lower chain: d_i - 2t + 2 <= x_i per vertical vertex, every consecutive
    (2t-1)-run of its crossed segments being canonical.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    a_rects, b_rects = Family.of(a_rects), Family.of(b_rects)
    census = intersection_type_census(a_rects, b_rects)  # raises DegenerateInput first
    k_graph, k = crossing_graph(a_rects, b_rects), 2 * t - 1
    fam = canonical_segment_tuples(k_graph.side_a, k).tuples
    return census, counting_chain(fam, k_graph, t, k, lambda d: d - k + 1)
