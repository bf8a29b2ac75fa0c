"""Finite hypergraph machinery.

A bipartite graph G on sides A (size m) and B (size n) induces a primal
hypergraph on A whose hyperedges are the neighborhoods N(b), and a dual
hypergraph on B built the same way from the N(a).  Hyperedge multiplicity is
retained (each defining object stays a separate hyperedge).

Both graph types store their edges once, as row-major (rows, cols) index
arrays.  The bipartite graph derives one cached adjacency view from them:
ascending neighbour lists, which the K_{t,t} witness search, the pruner and
the tuple counts read, and which the primal and dual hypergraphs hold as
their hyperedges.  Bitmasks appear only over local universes: the rows of a
transpose (`holder_masks`), or a search's own relabelled vertices.

`counting_chain` is the one home of the counting lemma that turns a small
canonical tuple family (`CanonicalTupleFamily`, ascending index tuples) into
an edge bound, for points in discs and for rectangle crossings alike; it
counts containment from the tuple side.

`BipartiteIntersectionGraph.from_families` is the one way two families become
a graph: one candidate grid, and predicates bitwise equal to `intersects`.
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from . import geometry
from .errors import InequalityViolated
from .geometry import AxisRect, Disc, Frame, Point, Segment, intersects

# ---------------------------------------------------------------------------
# bitmask helpers


def bits_of(mask: int):
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def holder_masks(rows: Sequence[Sequence[int]]) -> dict[int, int]:
    """The transpose of the rows (lists of indices): each index held by some
    row maps to the bitmask of the rows that hold it."""
    holders: dict[int, int] = {}
    for r, row in enumerate(rows):
        bit = 1 << r
        for v in row:
            holders[v] = holders.get(v, 0) | bit
    return holders


def containing_rows(tuples, rows: Sequence[Sequence[int]]):
    """Yield (tuple, held) for each index tuple, where the bitmask `held` marks
    the rows (lists of indices) that contain the whole tuple.

    A tuple's mask is the AND of its members' `holder_masks`, so the cost is
    O(sum |row| + |tuples| * k) big-int operations, not one subset test per
    (tuple, row) pair.  The empty tuple lies in every row."""
    holders, every_row = holder_masks(rows), (1 << len(rows)) - 1
    for tp in tuples:
        held = every_row
        for v in tp:
            held &= holders.get(v, 0)
        yield tp, held


def contained_counts(tuples, rows: Sequence[Sequence[int]]) -> list[int]:
    """For every row (a list of indices), how many of the index `tuples` lie
    inside it."""
    counts = [0] * len(rows)
    for _, held in containing_rows(tuples, rows):
        for r in bits_of(held):
            counts[r] += 1
    return counts


@dataclass(frozen=True)
class CanonicalTupleFamily:
    """The canonical k-subsets of a counting chain, each an ascending tuple."""

    k: int
    tuples: frozenset[tuple[int, ...]]

    def size(self) -> int:
        return len(self.tuples)


@dataclass
class ChainReport:
    """The counting chain lower_sum <= x_sum <= x_upper: row i has degrees[i]
    members and holds x_counts[i] of the |F| = family_size canonical tuples."""

    t: int
    family_size: int
    lower_sum: int  # sum of lower(d_i)
    x_sum: int
    x_upper: int  # (k-1) |F|
    degrees: list[int]
    x_counts: list[int]


def counting_chain(tuples, rows: Sequence[Sequence[int]], t: int, k: int, lower: Callable[[int], int]) -> ChainReport:
    """The counting lemma on the canonical k-tuples `tuples` (a set) and the
    rows (neighbour lists) of a K_{t,t}-free graph: a row of d members holds
    x_i >= lower(d) tuples, and no tuple lies inside k rows, so
    sum x_i <= (k-1)|F|.  Freeness is the caller's to check; a broken bound
    raises InequalityViolated."""
    degrees, x_counts = [len(row) for row in rows], contained_counts(tuples, rows)
    lows = [lower(d) for d in degrees]
    short = [i for i, (low, x) in enumerate(zip(lows, x_counts)) if x < low]
    x_sum, x_upper = sum(x_counts), (k - 1) * len(tuples)
    if short or x_sum > x_upper:
        raise InequalityViolated(
            f"counting chain broken at k = {k}: rows {short[:5]} hold fewer canonical tuples "
            f"than their lower bound; sum x_i = {x_sum}, (k-1)|F| = {x_upper}"
        )
    return ChainReport(t, len(tuples), sum(lows), x_sum, x_upper, degrees, x_counts)


# ---------------------------------------------------------------------------
# data types


@dataclass(eq=False)
class BipartiteIntersectionGraph:
    """Two object families plus the edges (rows[k], cols[k]), i in A and j in
    B, as int64 arrays in row-major order without repeats.

    The arrays are the one stored adjacency form: the neighbour lists
    `nbrs_a` / `nbrs_b`, the degrees and the `edges` view are derived from
    them, and the lists and the view are cached, so callers must not mutate
    them.
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
        The grid yields the edges row-major, in at least one block of A."""
        fam_a, fam_b = list(fam_a), list(fam_b)
        return cls(fam_a, fam_b, *np.concatenate([np.stack(b) for b in _edge_blocks(fam_a, fam_b)], axis=1))

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
    def _lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """`nbrs_a`, the ascending list of N(a) for every a in A, and `nbrs_b`,
        of N(b) for every b in B, in one pass: row-major order sorts both."""
        enabled = gc.isenabled()
        gc.disable()  # lists of ints form no cycles, so the collector would only rescan them
        try:
            nbrs_a: list[list[int]] = [[] for _ in range(self.m)]
            nbrs_b: list[list[int]] = [[] for _ in range(self.n)]
            for i, j in zip(self.rows.tolist(), self.cols.tolist()):
                nbrs_a[i].append(j)
                nbrs_b[j].append(i)
        finally:
            if enabled:
                gc.enable()
        return nbrs_a, nbrs_b

    nbrs_a = property(lambda self: self._lists[0])
    nbrs_b = property(lambda self: self._lists[1])

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
    """Hyperedge k is the strictly ascending vertex list edges[k] over
    0..vertex_count-1.  The primal and dual hypergraphs hold their graph's
    neighbour lists, so callers must not mutate them."""

    vertex_count: int
    edges: list[list[int]]

    def __post_init__(self):
        for e in self.edges:
            if not all(map(operator.lt, e, itertools.islice(e, 1, None))):
                raise ValueError(f"hyperedge {list(e)} is not a strictly ascending vertex list")
            if e and (e[0] < 0 or e[-1] >= self.vertex_count):
                raise ValueError(f"hyperedge {list(e)} out of range 0..{self.vertex_count - 1}")


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
# the intersection kernel (agrees bitwise with geometry.intersects)

GRID_PAIRS = 1 << 15  # candidate pairs per block of A
_GRID_CELLS = 1 << 20  # cells per axis at most, so cell keys fit in int64
_LAYOUT = {  # the attributes holding x_lo, x_hi, y_lo, y_hi, radius (None: 0.0); a Segment's by orientation
    Point: ("x", "x", "y", "y", None), Disc: ("center.x", "center.x", "center.y", "center.y", "radius"),
    AxisRect: ("x_lo", "x_hi", "y_lo", "y_hi", None), Frame: ("x_lo", "x_hi", "y_lo", "y_hi", None),
    "horizontal": ("lo", "hi", "fixed", "fixed", None), "vertical": ("fixed", "fixed", "lo", "hi", None)}


def _fields(fam):
    """x_lo, x_hi, y_lo, y_hi and radius per object, a closed box plus a radius
    (a disc is its centre plus its radius), and the frame flags or None."""
    kinds = list(map(type, fam))
    if Segment in kinds:
        kinds = [o.orientation if k is Segment else k for k, o in zip(kinds, fam)]
    fields, one_kind = np.zeros((5, len(fam))), len(set(kinds)) == 1
    for kind in set(kinds):
        idx = slice(None) if one_kind else np.flatnonzero([k == kind for k in kinds])
        part = fam if one_kind else [fam[k] for k in idx.tolist()]
        got = {a: np.fromiter(map(operator.attrgetter(a), part), float, len(part)) for a in set(_LAYOUT[kind]) - {None}}
        for row, name in zip(fields, _LAYOUT[kind]):
            row[idx] = got.get(name, 0.0)
    return (*fields, np.array([k is Frame for k in kinds]) if Frame in kinds else None)


def _edge_blocks(fam_a, fam_b):
    """Yield the edges as (rows, cols) arrays, row-major, one block of A at a time:
    of the pairs `_candidates` proposes, `test` keeps those that meet, by the round
    predicate when every pair holds a disc, the box predicate for points, rects and
    frames or for segments, else `intersects`.  Unsupported kinds raise TypeError first."""
    reps_a, reps_b = ({type(o): o for o in fam} for fam in (fam_a, fam_b))
    for a, b in itertools.product(reps_a.values(), reps_b.values()):
        intersects(a, b)  # raises TypeError on an unsupported pair
    kinds, fa, fb, n = reps_a.keys() | reps_b.keys(), _fields(fam_a), _fields(fam_b), len(fam_b)

    def kept(mask, i, j):
        k = np.flatnonzero(mask)
        return i[k], j[k]

    if kinds <= {Point, Disc} and Point not in reps_a.keys() & reps_b.keys():
        # point_in_disc and _disc_disc bit for bit, as 0.0 + r == r: pairs whose
        # squared slack overflows take geometry._quarter_within's scaled form.
        # None does unless the largest radii's does, so finite families skip it.
        big = (float(np.max(fa[4], initial=0.0)) + float(np.max(fb[4], initial=0.0))) * (1.0 + geometry.REL_TOL)

        def test(i, j):
            dx, dy = fa[0][i] - fb[0][j], fa[2][i] - fb[2][j]
            slack = (fa[4][i] + fb[4][j]) * (1.0 + geometry.REL_TOL)
            near = dx * dx + dy * dy <= slack * slack
            if not big * big < math.inf:
                k = np.flatnonzero(slack * slack == math.inf)
                i4, j4 = i[k], j[k]
                slack = (fa[4][i4] * 0.25 + fb[4][j4] * 0.25) * (1.0 + geometry.REL_TOL)
                qx, qy = (fa[0][i4] * 0.25 - fb[0][j4] * 0.25) / slack, (fa[2][i4] * 0.25 - fb[2][j4] * 0.25) / slack
                near[k] = qx * qx + qy * qy <= 1.0
            return kept(near, i, j)
    elif kinds <= {Point, AxisRect, Frame} or kinds == {Segment}:
        def inside(inner, k, outer, o):  # box k of the fields `inner` strictly inside box o of `outer`
            return ((outer[0][o] < inner[0][k]) & (inner[1][k] < outer[1][o])
                    & (outer[2][o] < inner[2][k]) & (inner[3][k] < outer[3][o]))

        def test(i, j):
            # closed boxes overlap, unless one lies strictly inside a frame's hole;
            # each test sees only the pairs the one before kept
            i, j = kept((fa[0][i] <= fb[1][j]) & (fb[0][j] <= fa[1][i]), i, j)
            i, j = kept((fa[2][i] <= fb[3][j]) & (fb[2][j] <= fa[3][i]), i, j)
            if fa[5] is not None:
                i, j = kept(~(fa[5][i] & inside(fb, j, fa, i)), i, j)
            if fb[5] is not None:
                i, j = kept(~(fb[5][j] & inside(fa, i, fb, j)), i, j)
            return i, j
    else:
        def test(i, j):
            hits = map(intersects, map(fam_a.__getitem__, i.tolist()), map(fam_b.__getitem__, j.tolist()))
            return kept(np.fromiter(hits, bool, len(i)), i, j)
    for i, j in _candidates(fa, fb):
        # huge coordinates overflow to inf and nan, which the predicates expect; the
        # errstate is left before each yield, so it never reaches the caller
        with np.errstate(over="ignore", invalid="ignore"):
            i, j = test(i, j)
        yield np.divmod(np.sort(i * n + j), n)  # row-major, as the edges are stored


def _candidates(fa, fb):
    """Yield (i, j) arrays of the pairs that may meet, in blocks of <= GRID_PAIRS
    pairs (or one row of A), rows ascending; all m * n at once if they fit.  Keyed
    by their low sides on a grid of side w >= max(reach_A + r_B, reach_B + r_A) *
    (1 + 4 * REL_TOL), reach being the largest box side plus the largest radius,
    objects that meet are at most one cell apart per axis: 3 * REL_TOL outweighs
    the rounding of cell coordinates below _GRID_CELLS.  B is sorted by key
    cx * ny + cy, so a column of three neighbouring cells is one key range."""
    m, n = len(fa[0]), len(fb[0])
    if m * n <= GRID_PAIRS:
        yield np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
        return
    xs, ys = np.concatenate((fa[0], fb[0])), np.concatenate((fa[2], fb[2]))
    # an overflowing reach or span, or a coordinate not finite, makes w inf or nan: all in cell 0
    with np.errstate(over="ignore", invalid="ignore"):
        reach_a, reach_b = (np.maximum(f[1] - f[0], f[3] - f[2]).max() + f[4].max() for f in (fa, fb))
        w = np.maximum(reach_a + fb[4].max(), reach_b + fa[4].max()) * (1.0 + 4 * geometry.REL_TOL)
        w = np.maximum(w, np.maximum(np.ptp(xs), np.ptp(ys)) / _GRID_CELLS)
        cx, cy = (np.nan_to_num(np.floor((v - v.min()) / w)).astype(np.int64) for v in (xs, ys))
    ny = cy.max() + 2  # keys cy - 1 and cy + 1 stay off occupied cells
    akey, bkey = np.split(cx * ny + cy, [m])
    order, a_order = np.argsort(bkey, kind="stable"), np.argsort(akey, kind="stable")
    low = akey[a_order] + np.array([[-ny - 1], [-1], [ny - 1]])  # ascending queries search fast
    starts, stops = np.empty((2, m, 3), np.int64)  # three key ranges per row of A
    starts[a_order] = np.searchsorted(bkey[order], low).T
    stops[a_order] = np.searchsorted(bkey[order], low + 2, "right").T
    starts, lengths = starts.ravel(), (stops - starts).ravel()
    counts = lengths.reshape(-1, 3).sum(axis=1)
    row_end = np.concatenate(([0], np.cumsum(counts)))
    lo = 0
    while lo < m:
        hi = max(lo + 1, int(np.searchsorted(row_end, row_end[lo] + GRID_PAIRS, "right")) - 1)
        st, ln = starts[3 * lo : 3 * hi], lengths[3 * lo : 3 * hi]
        i = np.repeat(np.arange(lo, hi), counts[lo:hi])
        yield i, order[np.arange(len(i)) - np.repeat(np.cumsum(ln) - ln - st, ln)]
        lo = hi


# ---------------------------------------------------------------------------
# hypergraph operations


def _trusted_hypergraph(vertex_count: int, edges: list[list[int]]) -> Hypergraph:
    """A Hypergraph over a graph's own neighbour lists, built without
    `__post_init__`'s check: the lists are ascending and in range by
    construction."""
    h = object.__new__(Hypergraph)
    h.vertex_count, h.edges = vertex_count, edges
    return h


def primal_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the A indices holding the graph's N(b) lists, `nbrs_b`."""
    return _trusted_hypergraph(g.m, g.nbrs_b)


def dual_hypergraph(g: BipartiteIntersectionGraph) -> Hypergraph:
    """Hypergraph on the B indices holding the graph's N(a) lists, `nbrs_a`."""
    return _trusted_hypergraph(g.n, g.nbrs_a)


def delaunay_graph(h: Hypergraph) -> Graph:
    """Graph whose edges are the distinct hyperedges of cardinality exactly 2."""
    return Graph.from_edges(h.vertex_count, (tuple(e) for e in h.edges if len(e) == 2))


def vc_dimension(h: Hypergraph, cap: int = 6) -> VCProfile:
    """Exact VC-dimension by subset enumeration, clipped at `cap`.

    A vertex combo is shattered when splitting the distinct hyperedges by
    each combo vertex in turn (holding it or not) never leaves a part empty:
    the final parts are the hyperedges of each of the 2^size traces.  Parts
    are bitmasks over the distinct hyperedges, split by `holder_masks`.

    If the returned dimension equals `cap`, larger shattered sets were not
    ruled out and `cap_reached` is set.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    distinct = list(set(map(tuple, h.edges)))
    col, every = holder_masks(distinct), (1 << len(distinct)) - 1
    best = 0
    witness: frozenset[int] = frozenset()
    n = h.vertex_count
    for size in range(1, min(cap, n) + 1):
        found = None
        if len(distinct) < 1 << size:
            break
        for combo in itertools.combinations(range(n), size):
            parts = [every]
            for v in combo:
                held = col.get(v, 0)
                parts = [p for part in parts for p in (part & held, part & ~held)]
                if not all(parts):
                    break
            else:
                found = combo
                break
        if found is None:
            break
        best = size
        witness = frozenset(found)
    return VCProfile(vc_dim=best, witness_shattered_set=witness, cap_reached=best == cap)
