"""Finite hypergraph machinery.

A bipartite graph G on sides A (size m) and B (size n) induces a primal
hypergraph on A whose hyperedges are the neighborhoods N(b), and a dual
hypergraph on B built the same way from the N(a).  Hyperedge multiplicity is
retained (each defining object stays a separate hyperedge); `dedup_view`
gives the distinct traces when counting wants sets rather than objects.

Vertex subsets are manipulated as int bitmasks internally; the public data
model stays frozensets.

`BipartiteIntersectionGraph.from_families` is the one way two families become
a graph; `intersection_matrix` behind it has a round and a box kernel, both
bitwise equal to `geometry.intersects`.
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


def contained_counts(tuples, rows: list[int]) -> list[int]:
    """For every row bitmask, how many of the index `tuples` lie inside it."""
    tuple_masks = [mask_of(tp) for tp in tuples]
    return [sum(1 for tm in tuple_masks if tm & row == tm) for row in rows]


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
        The matrix is built CHUNK_ROWS rows of A at a time, in O(n) memory."""
        fam_a, fam_b = list(fam_a), list(fam_b)
        edges: set[tuple[int, int]] = set()
        for lo in range(0, len(fam_a), CHUNK_ROWS):
            rows, cols = np.nonzero(intersection_matrix(fam_a[lo : lo + CHUNK_ROWS], fam_b))
            edges.update(zip((rows + lo).tolist(), cols.tolist()))
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
# vectorized intersection matrices (agree bitwise with geometry.intersects)

CHUNK_ROWS = 256  # rows of A per intersection_matrix call in from_families
_ROUND = {Point, Disc}
_BOX = {Point, AxisRect, Frame}


def intersection_matrix(fam_a, fam_b) -> np.ndarray:
    """Boolean matrix M[i, j] = intersects(fam_a[i], fam_b[j]).

    The round kernel takes one side of discs against points or discs (a point
    is a disc of radius 0); the box kernel takes points, rects and frames, or
    segments, as closed, possibly degenerate boxes.  Other mixes fall back to
    the scalar predicate.
    """
    if len(fam_a) == 0 or len(fam_b) == 0:
        return np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    kinds_a = {type(o) for o in fam_a}
    kinds_b = {type(o) for o in fam_b}
    if (kinds_a == {Disc} and kinds_b <= _ROUND) or (kinds_b == {Disc} and kinds_a <= _ROUND):
        return _round_matrix(fam_a, fam_b)
    if kinds_a | kinds_b <= _BOX or kinds_a | kinds_b == {Segment}:
        return _box_matrix(fam_a, fam_b)
    mat = np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    for i, a in enumerate(fam_a):
        for j, b in enumerate(fam_b):
            mat[i, j] = intersects(a, b)
    return mat


def _round_fields(fam):
    """Centre x, centre y and radius per object; a point has radius 0.0."""
    rows = [(o.x, o.y, 0.0) if type(o) is Point else (o.center.x, o.center.y, o.radius) for o in fam]
    return np.array(rows).T


def _round_matrix(fam_a, fam_b) -> np.ndarray:
    # Every pair holds a disc, so (ra + rb) * (1 + REL_TOL) is the scalar
    # predicate's slack bit for bit: 0.0 + r == r, and (-dx)**2 == dx**2.
    ax, ay, ar = (v[:, None] for v in _round_fields(fam_a))
    bx, by, br = _round_fields(fam_b)
    dx = ax - bx
    dy = ay - by
    slack = (ar + br) * (1.0 + geometry.REL_TOL)
    return dx * dx + dy * dy <= slack * slack


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


def induced_subhypergraph(h: Hypergraph, keep: Iterable[int]) -> Hypergraph:
    """Traces e & keep, with vertices reindexed over sorted(keep)."""
    kept = sorted(set(keep))
    if kept and (kept[0] < 0 or kept[-1] >= h.vertex_count):
        raise ValueError("keep set not contained in the vertex set")
    remap = {old: new for new, old in enumerate(kept)}
    traces = [frozenset(remap[v] for v in e if v in remap) for e in h.hyperedges]
    return Hypergraph(len(kept), traces)


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

