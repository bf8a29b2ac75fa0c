"""Finite hypergraph machinery.

A bipartite graph G on sides A (size m) and B (size n) induces a primal
hypergraph on A whose hyperedges are the neighborhoods N(b), and a dual
hypergraph on B built the same way from the N(a).  Hyperedge multiplicity is
retained (each defining object stays a separate hyperedge, tracked through
`source_labels`); `dedup_view` gives the distinct traces when counting wants
sets rather than objects.

Vertex subsets are manipulated as int bitmasks internally; the public data
model stays frozensets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import geometry
from .geometry import AxisRect, Disc, Frame, Point, intersects

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
        """Build the intersection graph: (i, j) is an edge iff the objects meet."""
        mat = intersection_matrix(fam_a, fam_b)
        edges = {(int(i), int(j)) for i, j in np.argwhere(mat)}
        return cls(list(fam_a), list(fam_b), edges)

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

    def neighborhoods_of_b(self) -> list[frozenset[int]]:
        """N(b) for every b in B, as subsets of A indices."""
        return [set_of(mask) for mask in self.adj_b]

    def neighborhoods_of_a(self) -> list[frozenset[int]]:
        return [set_of(mask) for mask in self.adj_a]

    def swapped(self) -> "BipartiteIntersectionGraph":
        return BipartiteIntersectionGraph(
            list(self.side_b), list(self.side_a), {(j, i) for i, j in self.edges}
        )

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
    source_labels: Optional[list] = None

    def __post_init__(self):
        if self.hyperedges and self.vertex_count:
            for e in self.hyperedges:
                if e and (min(e) < 0 or max(e) >= self.vertex_count):
                    raise ValueError(f"hyperedge {sorted(e)} out of range 0..{self.vertex_count - 1}")
        elif any(self.hyperedges) and not self.vertex_count:
            raise ValueError("nonempty hyperedge on an empty vertex set")
        if self.source_labels is not None and len(self.source_labels) != len(self.hyperedges):
            raise ValueError("source_labels must align with hyperedges")

    def dedup_view(self) -> list[frozenset[int]]:
        """Distinct hyperedge sets, in first-occurrence order."""
        seen = set()
        out = []
        for e in self.hyperedges:
            if e not in seen:
                seen.add(e)
                out.append(e)
        return out

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


def _all_type(fam, kind) -> bool:
    return len(fam) > 0 and all(type(o) is kind for o in fam)


def intersection_matrix(fam_a, fam_b) -> np.ndarray:
    """Boolean matrix M[i, j] = intersects(fam_a[i], fam_b[j]).

    Uses vectorized paths for homogeneous disc/point/rect/frame families and
    falls back to the scalar predicate otherwise.
    """
    if len(fam_a) == 0 or len(fam_b) == 0:
        return np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    if _all_type(fam_a, Disc) and _all_type(fam_b, Disc):
        return _disc_disc_matrix(fam_a, fam_b)
    if _all_type(fam_a, Point) and _all_type(fam_b, Disc):
        return _point_disc_matrix(fam_a, fam_b)
    if _all_type(fam_a, Disc) and _all_type(fam_b, Point):
        return _point_disc_matrix(fam_b, fam_a).T
    if _all_type(fam_a, AxisRect) and _all_type(fam_b, AxisRect):
        return _rect_overlap_matrix(fam_a, fam_b)
    if _all_type(fam_a, Frame) and _all_type(fam_b, Frame):
        overlap = _rect_overlap_matrix(fam_a, fam_b)
        a_in_b = _strict_inside_matrix(fam_a, fam_b)
        b_in_a = _strict_inside_matrix(fam_b, fam_a).T
        return overlap & ~a_in_b & ~b_in_a
    mat = np.zeros((len(fam_a), len(fam_b)), dtype=bool)
    for i, a in enumerate(fam_a):
        for j, b in enumerate(fam_b):
            mat[i, j] = intersects(a, b)
    return mat


def _disc_disc_matrix(fam_a, fam_b) -> np.ndarray:
    ax = np.array([d.center.x for d in fam_a])[:, None]
    ay = np.array([d.center.y for d in fam_a])[:, None]
    ar = np.array([d.radius for d in fam_a])[:, None]
    bx = np.array([d.center.x for d in fam_b])[None, :]
    by = np.array([d.center.y for d in fam_b])[None, :]
    br = np.array([d.radius for d in fam_b])[None, :]
    dx = ax - bx
    dy = ay - by
    slack = (ar + br) * (1.0 + geometry.REL_TOL)
    return dx * dx + dy * dy <= slack * slack


def _point_disc_matrix(pts, discs) -> np.ndarray:
    px = np.array([p.x for p in pts])[:, None]
    py = np.array([p.y for p in pts])[:, None]
    cx = np.array([d.center.x for d in discs])[None, :]
    cy = np.array([d.center.y for d in discs])[None, :]
    r = np.array([d.radius for d in discs])[None, :]
    dx = px - cx
    dy = py - cy
    slack = r * (1.0 + geometry.REL_TOL)
    return dx * dx + dy * dy <= slack * slack


def _rect_fields(fam):
    return (
        np.array([r.x_lo for r in fam]),
        np.array([r.x_hi for r in fam]),
        np.array([r.y_lo for r in fam]),
        np.array([r.y_hi for r in fam]),
    )


def _rect_overlap_matrix(fam_a, fam_b) -> np.ndarray:
    axl, axh, ayl, ayh = _rect_fields(fam_a)
    bxl, bxh, byl, byh = _rect_fields(fam_b)
    return (
        (axl[:, None] <= bxh[None, :])
        & (bxl[None, :] <= axh[:, None])
        & (ayl[:, None] <= byh[None, :])
        & (byl[None, :] <= ayh[:, None])
    )


def _strict_inside_matrix(inner, outer) -> np.ndarray:
    ixl, ixh, iyl, iyh = _rect_fields(inner)
    oxl, oxh, oyl, oyh = _rect_fields(outer)
    return (
        (oxl[None, :] < ixl[:, None])
        & (ixh[:, None] < oxh[None, :])
        & (oyl[None, :] < iyl[:, None])
        & (iyh[:, None] < oyh[None, :])
    )


# ---------------------------------------------------------------------------
# hypergraph operations


def primal_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the A indices; one hyperedge N(b) per vertex b of B."""
    h = Hypergraph(g.m, g.neighborhoods_of_b(), source_labels=list(range(g.n)))
    h.edge_masks = list(g.adj_b)  # the graph's masks fill the hyperedge-mask cache
    return h


def dual_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the B indices; one hyperedge N(a) per vertex a of A."""
    h = Hypergraph(g.n, g.neighborhoods_of_a(), source_labels=list(range(g.m)))
    h.edge_masks = list(g.adj_a)
    return h


def induced_subhypergraph(h: Hypergraph, keep: Iterable[int]) -> Hypergraph:
    """Traces e & keep, with vertices reindexed over sorted(keep)."""
    kept = sorted(set(keep))
    if kept and (kept[0] < 0 or kept[-1] >= h.vertex_count):
        raise ValueError("keep set not contained in the vertex set")
    remap = {old: new for new, old in enumerate(kept)}
    traces = [frozenset(remap[v] for v in e if v in remap) for e in h.hyperedges]
    labels = list(h.source_labels) if h.source_labels is not None else None
    return Hypergraph(len(kept), traces, source_labels=labels)


def delaunay_graph(h: Hypergraph) -> Graph:
    """Graph whose edges are the distinct hyperedges of cardinality exactly 2."""
    edges = set()
    for e in h.dedup_view():
        if len(e) == 2:
            i, j = sorted(e)
            edges.add((i, j))
    return Graph(h.vertex_count, edges)


def small_hyperedges(h: Hypergraph, t: int) -> set[frozenset[int]]:
    """Distinct nonempty hyperedges of size at most t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return {e for e in h.dedup_view() if 1 <= len(e) <= t}


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

