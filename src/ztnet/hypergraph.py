"""Finite hypergraph machinery.

A bipartite graph G on sides A (size m) and B (size n) induces a primal
hypergraph on A whose hyperedges are the neighborhoods N(b), and a dual
hypergraph on B built the same way from the N(a).  Hyperedge multiplicity is
retained (each defining object stays a separate hyperedge); `dedup_view`
gives the distinct traces when counting wants sets rather than objects.

Vertex subsets are manipulated as int bitmasks internally; the public data
model stays frozensets.

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


def containing_rows(tuples, rows: list[int]):
    """Yield (tuple, held) for each index tuple, where the bitmask `held` marks
    the rows (bitmasks over the indices) that contain the whole tuple.

    The rows are transposed once into one row mask per index, and a tuple's
    mask is the AND of its members' masks, so the cost is O(sum |row| +
    |tuples| * k) big-int operations, not one subset test per (tuple, row)
    pair.  The empty tuple lies in every row."""
    holders: dict[int, int] = {}
    for r, row in enumerate(rows):
        bit = 1 << r
        for v in bits_of(row):
            holders[v] = holders.get(v, 0) | bit
    every_row = (1 << len(rows)) - 1
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


@dataclass
class BipartiteIntersectionGraph:
    """Two object families plus the edge set E as index pairs (i in A, j in B).

    `edges` is the constructor input and the public view.  The neighbour
    bitmasks `adj_a` / `adj_b` are derived from it once and cached, and every
    degree and neighbourhood is read from them, so callers must not mutate
    `edges` after construction.
    """

    side_a: list
    side_b: list
    edges: set[tuple[int, int]]

    @property
    def m(self) -> int:
        return len(self.side_a)

    @property
    def n(self) -> int:
        return len(self.side_b)

    @classmethod
    def from_families(cls, fam_a, fam_b) -> "BipartiteIntersectionGraph":
        """Build the intersection graph: (i, j) is an edge iff the objects meet.
        Edges are inserted in row-major order, block by block of A."""
        fam_a, fam_b = list(fam_a), list(fam_b)
        edges: set[tuple[int, int]] = set()
        index = np.arange(max(len(fam_a), len(fam_b))).astype(object)  # one int per index, shared by the edge tuples
        for rows, cols in _edge_blocks(fam_a, fam_b):
            edges.update(zip(index[rows].tolist(), index[cols].tolist()))
        return cls(fam_a, fam_b, edges)

    @cached_property
    def adj_a(self) -> list[int]:
        """Bitmask of N(a) over the B indices, for every a in A."""
        adj = [0] * self.m
        for i, j in self.edges:
            adj[i] |= 1 << j
        return adj

    @cached_property
    def adj_b(self) -> list[int]:
        """Bitmask of N(b) over the A indices, for every b in B."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[j] |= 1 << i
        return adj

    def degrees_a(self) -> list[int]:
        return [mask.bit_count() for mask in self.adj_a]

    def degrees_b(self) -> list[int]:
        return [mask.bit_count() for mask in self.adj_b]

    def induced(self, keep_a: Iterable[int], keep_b: Iterable[int]) -> "BipartiteIntersectionGraph":
        """Subgraph on the given vertex subsets, reindexed in sorted order."""
        ka = sorted(set(keep_a))
        kb = sorted(set(keep_b))
        amap = {old: new for new, old in enumerate(ka)}
        bmap = {old: new for new, old in enumerate(kb)}
        edges = {
            (amap[i], bmap[j]) for i, j in self.edges if i in amap and j in bmap
        }
        return BipartiteIntersectionGraph(
            [self.side_a[i] for i in ka], [self.side_b[j] for j in kb], edges
        )


@dataclass
class Hypergraph:
    vertex_count: int
    hyperedges: list[frozenset[int]]

    def __post_init__(self):
        if self.hyperedges and self.vertex_count:
            for e in self.hyperedges:
                if e and (min(e) < 0 or max(e) >= self.vertex_count):
                    raise ValueError(f"hyperedge {sorted(e)} out of range 0..{self.vertex_count - 1}")
        elif any(self.hyperedges) and not self.vertex_count:
            raise ValueError("nonempty hyperedge on an empty vertex set")

    def dedup_view(self) -> list[frozenset[int]]:
        """Distinct hyperedge sets, in first-occurrence order."""
        return list(dict.fromkeys(self.hyperedges))

    @cached_property
    def edge_masks(self) -> list[int]:
        return [mask_of(e) for e in self.hyperedges]


@dataclass
class Graph:
    """Plain graph; edges are unordered index pairs stored as (i, j) with i < j."""

    vertex_count: int
    edges: set[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.vertex_count):
                raise ValueError(f"bad edge ({i}, {j}) on {self.vertex_count} vertices")


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
    """Hypergraph on the A indices; one hyperedge N(b) per vertex b of B."""
    h = Hypergraph(g.m, [set_of(mask) for mask in g.adj_b])
    h.edge_masks = list(g.adj_b)  # the graph's masks fill the hyperedge-mask cache
    return h


def dual_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the B indices; one hyperedge N(a) per vertex a of A."""
    h = Hypergraph(g.n, [set_of(mask) for mask in g.adj_a])
    h.edge_masks = list(g.adj_a)
    return h


def delaunay_graph(h: Hypergraph) -> Graph:
    """Graph whose edges are the distinct hyperedges of cardinality exactly 2."""
    return Graph(h.vertex_count, {tuple(sorted(e)) for e in h.hyperedges if len(e) == 2})


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

