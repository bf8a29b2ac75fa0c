"""Finite hypergraph machinery.

A bipartite graph G on sides A (size m) and B (size n) induces a primal
hypergraph on A whose hyperedges are the neighborhoods N(b), and a dual
hypergraph on B built the same way from the N(a).  Hyperedge multiplicity is
retained (each defining object stays a separate hyperedge).

Both graph types store their edges once, as row-major (rows, cols) index
arrays; the bipartite graph's neighbour bitmasks are derived from them, and
the primal and dual hypergraphs hold those mask lists themselves.
Hyperedges and vertex subsets are int bitmasks throughout.

`BipartiteIntersectionGraph.from_families` is the one way two families become
a graph.  Behind it a uniform-grid round kernel and a chunked box kernel are
both bitwise equal to `geometry.intersects`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import geometry
from .geometry import AxisRect, Disc, Frame, Point, Segment, intersects

# ---------------------------------------------------------------------------
# bitmask helpers


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int):
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits_of(mask))


def holder_masks(rows: list[int]) -> dict[int, int]:
    """The transpose of the row bitmasks: each index held by some row maps to
    the bitmask of the rows that hold it."""
    holders: dict[int, int] = {}
    for r, row in enumerate(rows):
        for v in bits_of(row):
            holders[v] = holders.get(v, 0) | 1 << r
    return holders


def containing_rows(tuples, rows: list[int]):
    """Yield (tuple, held) for each index tuple, where the bitmask `held` marks
    the rows (bitmasks over the indices) that contain the whole tuple.

    A tuple's mask is the AND of its members' `holder_masks`, so the cost is
    O(sum |row| + |tuples| * k) big-int operations, not one subset test per
    (tuple, row) pair.  The empty tuple lies in every row."""
    holders, every_row = holder_masks(rows), (1 << len(rows)) - 1
    for tp in tuples:
        held = every_row
        for v in tp:
            held &= holders.get(v, 0)
        yield tp, held


def contained_counts(tuples, rows: list[int]) -> list[int]:
    """For every row bitmask, how many of the index `tuples` lie inside it."""
    counts = [0] * len(rows)
    for _, held in containing_rows(tuples, rows):
        for r in bits_of(held):
            counts[r] += 1
    return counts


# ---------------------------------------------------------------------------
# data types


@dataclass(eq=False)
class BipartiteIntersectionGraph:
    """Two object families plus the edges (rows[k], cols[k]), i in A and j in
    B, as int64 arrays in row-major order without repeats.

    The arrays are the one stored adjacency form: the neighbour bitmasks
    `adj_a` / `adj_b`, the degrees and the `edges` view are derived from them,
    and the masks and the view are cached, so callers must not mutate them.
    `from_families` and `from_edges` build the arrays.
    """

    side_a: list
    side_b: list
    rows: np.ndarray
    cols: np.ndarray

    @property
    def m(self) -> int:
        return len(self.side_a)

    @property
    def n(self) -> int:
        return len(self.side_b)

    @property
    def edge_count(self) -> int:
        return len(self.rows)

    @classmethod
    def from_families(cls, fam_a, fam_b) -> "BipartiteIntersectionGraph":
        """Build the intersection graph: (i, j) is an edge iff the objects meet.
        The kernels yield the edges row-major, block by block of A."""
        fam_a, fam_b = list(fam_a), list(fam_b)
        blocks = [np.zeros((2, 0), np.int64), *map(np.stack, _edge_blocks(fam_a, fam_b))]
        return cls(fam_a, fam_b, *np.concatenate(blocks, axis=1))

    @classmethod
    def from_edges(cls, side_a, side_b, pairs: Iterable[tuple[int, int]]) -> "BipartiteIntersectionGraph":
        """Graph on the given sides with the explicit index pairs (i, j), i in A
        and j in B; repeats count once.  Out-of-range pairs raise ValueError."""
        side_a, side_b = list(side_a), list(side_b)
        ij = np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)
        bad = ((ij < 0) | (ij >= [len(side_a), len(side_b)])).any(axis=1)
        if bad.any():
            raise ValueError(f"edge {tuple(ij[bad][0].tolist())} out of range for a {len(side_a)} x {len(side_b)} graph")
        return cls(side_a, side_b, *ij.T)

    @cached_property
    def _masks(self) -> tuple[list[int], list[int]]:
        """`adj_a`, the bitmask of N(a) over the B indices for every a in A,
        and `adj_b`, of N(b) over the A indices for every b in B, in one pass."""
        adj_a, adj_b = [0] * self.m, [0] * self.n
        for i, j in zip(self.rows.tolist(), self.cols.tolist()):
            adj_a[i] |= 1 << j
            adj_b[j] |= 1 << i
        return adj_a, adj_b

    adj_a = property(lambda self: self._masks[0])
    adj_b = property(lambda self: self._masks[1])

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as a set of (i, j) index pairs: a view of the arrays kept
        for the benchmark harness and the tests, as the package reads the arrays."""
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))

    def degrees_a(self) -> list[int]:
        return np.bincount(self.rows, minlength=self.m).tolist()

    def degrees_b(self) -> list[int]:
        return np.bincount(self.cols, minlength=self.n).tolist()

    def induced(self, keep_a: Iterable[int], keep_b: Iterable[int]) -> "BipartiteIntersectionGraph":
        """Subgraph on the given vertex subsets, reindexed in sorted order."""
        ka = np.unique(np.fromiter(keep_a, dtype=np.int64))
        kb = np.unique(np.fromiter(keep_b, dtype=np.int64))
        new_a, new_b = np.full(self.m, -1), np.full(self.n, -1)
        new_a[ka], new_b[kb] = np.arange(len(ka)), np.arange(len(kb))
        rows, cols = new_a[self.rows], new_b[self.cols]
        kept = (rows >= 0) & (cols >= 0)
        sides = [self.side_a[i] for i in ka.tolist()], [self.side_b[j] for j in kb.tolist()]
        return BipartiteIntersectionGraph(*sides, rows[kept], cols[kept])


@dataclass
class Hypergraph:
    """Hyperedge k is the bitmask edge_masks[k] over 0..vertex_count-1."""

    vertex_count: int
    edge_masks: list[int]

    def __post_init__(self):
        if self.edge_masks and (min(self.edge_masks) < 0 or max(self.edge_masks) >> self.vertex_count):
            raise ValueError(f"hyperedge mask out of range 0..{self.vertex_count - 1}")


@dataclass(eq=False)
class Graph:
    """Plain graph: the edges (rows[k], cols[k]), rows[k] < cols[k], as int64
    arrays in row-major order without repeats, built by `from_edges`."""

    vertex_count: int
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on n vertices with the index pairs (i, j); repeats count once.
        A pair out of range, or with i >= j, raises ValueError."""
        ij = np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)
        bad = (ij[:, 0] < 0) | (ij[:, 0] >= ij[:, 1]) | (ij[:, 1] >= n)
        if bad.any():
            raise ValueError(f"bad edge {tuple(ij[bad][0].tolist())} on {n} vertices")
        return cls(n, *ij.T)


@dataclass
class VCProfile:
    vc_dim: int
    witness_shattered_set: frozenset[int]
    cap_reached: bool


# ---------------------------------------------------------------------------
# intersection kernels (agree bitwise with geometry.intersects)

CHUNK_ROWS = 256  # rows of A per intersection_matrix call in from_families
GRID_PAIRS = 1 << 17  # candidate pairs per block of A in the round grid
_GRID_CELLS = 1 << 20  # cells per axis at most, so cell keys fit in int64
_BOX = {Point, AxisRect, Frame}


def _edge_blocks(fam_a, fam_b):
    """Yield the edges as (rows, cols) arrays, row-major: the round grid for one
    side of discs against points or discs, else CHUNK_ROWS rows of A at a time."""
    if not fam_a or not fam_b:
        return
    kinds_a, kinds_b = ({type(o) for o in fam} for fam in (fam_a, fam_b))
    if (kinds_a == {Disc} and kinds_b <= {Point, Disc}) or (kinds_b == {Disc} and kinds_a <= {Point, Disc}):
        yield from _round_grid(fam_a, fam_b)
        return
    for lo in range(0, len(fam_a), CHUNK_ROWS):
        rows, cols = np.nonzero(intersection_matrix(fam_a[lo : lo + CHUNK_ROWS], fam_b))
        yield rows + lo, cols


def intersection_matrix(fam_a, fam_b) -> np.ndarray:
    """Boolean matrix M[i, j] = intersects(fam_a[i], fam_b[j]).

    The box kernel takes points, rects and frames, or segments, as closed,
    possibly degenerate boxes; other mixes fall back to the scalar predicate.
    """
    if len(fam_a) == 0 or len(fam_b) == 0:
        return np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    kinds = {type(o) for o in fam_a} | {type(o) for o in fam_b}
    if kinds <= _BOX or kinds == {Segment}:
        return _box_matrix(fam_a, fam_b)
    mat = np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    for i, a in enumerate(fam_a):
        for j, b in enumerate(fam_b):
            mat[i, j] = intersects(a, b)
    return mat


def _round_fields(fam):
    """Centre x, centre y and radius per object; a point has radius 0.0."""
    return np.array([[o.x if type(o) is Point else o.center.x for o in fam],
                     [o.y if type(o) is Point else o.center.y for o in fam],
                     [0.0 if type(o) is Point else o.radius for o in fam]])


def _round_grid(fam_a, fam_b):
    """Round kernel (a point is a disc of radius 0) on a uniform grid of side w >=
    (max ra + max rb) * (1 + 4 * REL_TOL): objects that meet are at most one cell
    apart per axis, as 3 * REL_TOL outweighs the rounding of cell coordinates below
    _GRID_CELLS.  B is sorted by key cx * ny + cy, so a neighbouring column of three
    cells is one key range; A goes in blocks of <= GRID_PAIRS pairs (or one row)."""
    ax, ay, ar = _round_fields(fam_a)
    bx, by, br = _round_fields(fam_b)
    xs, ys = np.concatenate((ax, bx)), np.concatenate((ay, by))
    x0, y0, span = xs.min(), ys.min(), np.maximum(np.ptp(xs), np.ptp(ys))
    w = np.maximum((ar.max() + br.max()) * (1.0 + 4 * geometry.REL_TOL), span / _GRID_CELLS)
    # if a radius sum or a span overflows, or a centre is not finite, w is inf
    # or nan, every quotient is 0 or nan, and nan_to_num puts all in cell 0
    cells = ((ax, x0), (ay, y0), (bx, x0), (by, y0))
    acx, acy, bcx, bcy = (np.nan_to_num(np.floor((v - o) / w)).astype(np.int64) for v, o in cells)
    ny = max(acy.max(), bcy.max()) + 2  # keys cy - 1 and cy + 1 stay off occupied cells
    order = np.argsort(bcx * ny + bcy, kind="stable")
    keys, akey = (bcx * ny + bcy)[order], acx * ny + acy
    starts = np.stack([np.searchsorted(keys, akey + d - 1) for d in (-ny, 0, ny)], axis=1).ravel()
    stops = np.stack([np.searchsorted(keys, akey + d + 1, "right") for d in (-ny, 0, ny)], axis=1).ravel()
    lengths = stops - starts  # three column ranges per row of A, in row order
    counts = lengths.reshape(-1, 3).sum(axis=1)
    row_end = np.concatenate(([0], np.cumsum(counts)))
    n, lo = len(bx), 0
    while lo < len(ax):
        hi = max(lo + 1, int(np.searchsorted(row_end, row_end[lo] + GRID_PAIRS, "right")) - 1)
        st, ln = starts[3 * lo : 3 * hi], lengths[3 * lo : 3 * hi]
        i = np.repeat(np.arange(lo, hi), counts[lo:hi])
        j = order[np.arange(len(i)) - np.repeat(np.cumsum(ln) - ln - st, ln)]
        # Every pair holds a disc, so (ra + rb) * (1 + REL_TOL) is the scalar
        # predicate's slack bit for bit: 0.0 + r == r, and (-dx)**2 == dx**2.
        dx = ax[i] - bx[j]
        dy = ay[i] - by[j]
        slack = (ar[i] + br[j]) * (1.0 + geometry.REL_TOL)
        hit = dx * dx + dy * dy <= slack * slack
        key = np.sort(i[hit] * n + j[hit])  # row-major, as the edges are inserted
        yield key // n, key % n
        lo = hi


def _box_fields(fam):
    """x_lo, x_hi, y_lo, y_hi per object as a closed box, and the frame flags."""
    rows = []
    for o in fam:
        if type(o) is Point:
            rows.append((o.x, o.x, o.y, o.y))
        elif type(o) is Segment:
            ends, fixed = (o.lo, o.hi), (o.fixed, o.fixed)
            rows.append(ends + fixed if o.orientation == "horizontal" else fixed + ends)
        else:
            rows.append((o.x_lo, o.x_hi, o.y_lo, o.y_hi))
    return (*np.array(rows).T, np.array([type(o) is Frame for o in fam]))


def _box_matrix(fam_a, fam_b) -> np.ndarray:
    """Closed boxes overlap, unless one lies strictly inside a frame's hole."""
    axl, axh, ayl, ayh, a_frame = (v[:, None] for v in _box_fields(fam_a))
    bxl, bxh, byl, byh, b_frame = _box_fields(fam_b)
    mat = (axl <= bxh) & (bxl <= axh) & (ayl <= byh) & (byl <= ayh)
    if a_frame.any():
        mat &= ~(a_frame & (axl < bxl) & (bxh < axh) & (ayl < byl) & (byh < ayh))
    if b_frame.any():
        mat &= ~(b_frame & (bxl < axl) & (axh < bxh) & (byl < ayl) & (ayh < byh))
    return mat


# ---------------------------------------------------------------------------
# hypergraph operations


def primal_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the A indices holding the graph's N(b) masks, `adj_b`."""
    return Hypergraph(g.m, g.adj_b)


def dual_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the B indices holding the graph's N(a) masks, `adj_a`."""
    return Hypergraph(g.n, g.adj_a)


def delaunay_graph(h: Hypergraph) -> Graph:
    """Graph whose edges are the distinct hyperedges of cardinality exactly 2."""
    return Graph.from_edges(h.vertex_count, (tuple(bits_of(em)) for em in h.edge_masks if em.bit_count() == 2))


def vc_dimension(h: Hypergraph, cap: int = 6) -> VCProfile:
    """Exact VC-dimension by subset enumeration, clipped at `cap`.

    If the returned dimension equals `cap`, larger shattered sets were not
    ruled out and `cap_reached` is set.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    distinct_masks = list(set(h.edge_masks))
    best = 0
    witness: frozenset[int] = frozenset()
    n = h.vertex_count
    for size in range(1, min(cap, n) + 1):
        found = None
        needed = 1 << size
        if len(distinct_masks) < needed:
            break
        for combo in itertools.combinations(range(n), size):
            s_mask = mask_of(combo)
            traces = set()
            for em in distinct_masks:
                traces.add(em & s_mask)
                if len(traces) == needed:
                    break
            if len(traces) == needed:
                found = combo
                break
        if found is None:
            break
        best = size
        witness = frozenset(found)
    return VCProfile(vc_dim=best, witness_shattered_set=witness, cap_reached=best == cap)

