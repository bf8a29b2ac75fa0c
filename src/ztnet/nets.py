"""Epsilon-net and epsilon-t-net construction and verification.

An epsilon-net stabs every hyperedge of size >= eps * (vertex count); an
epsilon-t-net is a family of t-subsets such that every such heavy hyperedge
fully contains at least one of them.

Epsilon is handled as an exact fraction throughout.  Float inputs are
converted through their shortest decimal representation, so eps=0.1 means
exactly 1/10 and a hyperedge of size 20 is heavy at eps=0.1, n=200.  All
heavy/light cutoffs across the package go through `heavy_threshold`.

Hyperedges are ascending vertex lists here: every verifier and constructor
reads the one heavy view `heavy_dedup_edges`, the distinct heavy hyperedges as
ascending tuples, and a net's t-subsets are ascending tuples too.  The
stacked cover samples each layer from the parent hypergraph's lists, traced
over the unused vertices by a membership filter; the structural net's vertex
removal is a smallest-last order kept incrementally, in O(sum |e & cover|)
plus heap operations.  The verifier, the exhaustive minimum and the removal
order read the heavy edges' `holder_lists`.  Bitmasks run only over heavy
edge positions: the greedy net's column masks and the exhaustive minimum's
candidate masks.  Only the exhaustive minimum lists every candidate t-subset.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import BudgetExceeded, InfeasibleNet, PreconditionViolated
from .hypergraph import Hypergraph, containing_rows, holder_lists, holder_masks

EpsilonLike = Union[Fraction, float, int, str]

DEFAULT_SEARCH_BUDGET = 2**22


def as_fraction(eps: EpsilonLike) -> Fraction:
    """Exact fraction for an epsilon value; floats go via their decimal repr."""
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, float):
        return Fraction(repr(eps))
    return Fraction(eps)


def heavy_threshold(eps: EpsilonLike, vertex_count: int) -> int:
    """Smallest integer size counted as heavy: ceil(eps * n), at least 1."""
    e = as_fraction(eps)
    if not 0 < e <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {e}")
    return max(1, math.ceil(e * vertex_count))


def heavy_dedup_edges(
    h: Hypergraph, eps: EpsilonLike, t: int = 1, pool: Optional[list[int]] = None
) -> list[tuple[int, ...]]:
    """The distinct hyperedges of size >= eps * n, as ascending tuples, first
    occurrence first; given a vertex list `pool`, the distinct traces over it
    of size >= eps * |pool|.  Raises InfeasibleNet if one has fewer than t
    vertices."""
    if t < 1:
        raise ValueError("t must be >= 1")
    edges = h.edges
    if pool is not None:
        in_pool = set(pool)
        edges = (tuple(filter(in_pool.__contains__, e)) for e in edges)
    thr = heavy_threshold(eps, h.vertex_count if pool is None else len(pool))
    heavy = list(dict.fromkeys(tuple(e) for e in edges if len(e) >= thr))
    for e in heavy:
        if len(e) < t:
            raise InfeasibleNet(f"heavy hyperedge {list(e)} has fewer than "
                                f"t={t} vertices; no valid net exists")
    return heavy


@dataclass
class TNet:
    """A set of t-subsets of vertex indices, each a strictly ascending tuple,
    built for a given epsilon."""

    t: int
    tuples: frozenset[tuple[int, ...]]
    epsilon: Fraction

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be >= 1")
        for tp in self.tuples:
            if type(tp) is not tuple or len(tp) != self.t or not all(map(operator.lt, tp, tp[1:])):
                raise ValueError(f"net tuple {tp} is not a strictly ascending {self.t}-tuple")

    def size(self) -> int:
        return len(self.tuples)


@dataclass
class NetBuildTrace:
    """The stacked cover set of the two-stage net construction: `cover_set` is
    the union of the pairwise-disjoint `layer_nets`."""

    cover_set: frozenset[int]
    layer_nets: list[frozenset[int]]


# ---------------------------------------------------------------------------
# verification


def verify_t_net(h: Hypergraph, eps: EpsilonLike, net: TNet) -> Optional[tuple[int, ...]]:
    """None if every heavy hyperedge contains some net tuple, else the first
    distinct heavy hyperedge that contains none, as an ascending tuple.

    The heavy edges each tuple lies in come from `containing_rows` over their
    `holder_lists`; their union is the covered ones."""
    for tp in net.tuples:
        if tp[0] < 0 or tp[-1] >= h.vertex_count:
            raise ValueError(f"net tuple {list(tp)} out of vertex range")
    heavy = heavy_dedup_edges(h, eps)
    covered = {j for _, held in containing_rows(net.tuples, holder_lists(heavy, h.vertex_count)) for j in held}
    return next((e for j, e in enumerate(heavy) if j not in covered), None)


# ---------------------------------------------------------------------------
# sampled epsilon-nets and the stacked cover set


def _sampled_net(heavy: list[tuple[int, ...]], pool: Sequence[int], e: Fraction, seed: int) -> frozenset[int]:
    """A verify-and-retry random eps-net over the vertex sequence `pool`,
    given the heavy edges to stab: the sample size starts at
    ceil((8/eps) ln(4/eps)) + 8, doubles on each failure, and is capped at
    len(pool), where the whole pool stabs every nonempty edge.
    `random.sample` picks its indices from len(pool) alone, so a pool
    samples as its positions would, mapped through it."""
    ef = float(e)
    size = min(len(pool), math.ceil((8.0 / ef) * math.log(4.0 / ef)) + 8)
    rng = random.Random(seed)
    while size < len(pool):
        sample = frozenset(rng.sample(pool, size))
        if not any(sample.isdisjoint(e) for e in heavy):
            return sample
        size = min(2 * size, len(pool))
    return frozenset(pool)


def _stacked_cover(h: Hypergraph, e: Fraction, t: int, seed: int) -> tuple[NetBuildTrace, list[tuple[int, ...]]]:
    """The cover set, >= t vertices of each heavy edge (an eps-net, then (eps/2)-nets of the
    unused vertices' traces, still heavy as eps*n >= 2t), and `heavy_dedup_edges(h, e)`."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = h.vertex_count
    if e * n < 2 * t:
        raise PreconditionViolated(
            f"stacked cover needs eps*n >= 2t; got {e} * {n} < {2 * t}"
        )
    rng = random.Random(seed)
    top = heavy_dedup_edges(h, e)
    pool = list(range(n))  # the unused vertices, sorted
    layers: list[frozenset[int]] = []
    for i in range(t):
        layer_eps = e if i == 0 else e / 2
        layer = frozenset()
        if pool:
            heavy = top if i == 0 else heavy_dedup_edges(h, layer_eps, pool=pool)
            layer = _sampled_net(heavy, pool, layer_eps, rng.randrange(2**32))
            pool = [v for v in pool if v not in layer]
        layers.append(layer)
    return NetBuildTrace(cover_set=frozenset().union(*layers), layer_nets=layers), top


def pseudodisc_t_net(
    h: Hypergraph, eps: EpsilonLike, t: int, seed: int
) -> tuple[TNet, NetBuildTrace]:
    """Structural epsilon-t-net: stacked cover set, then greedy vertex removal.

    On the heavy hyperedges' traces over the cover set, repeatedly pick the
    vertex contained in the fewest distinct size-exactly-t traces (tie-break:
    lowest index), add every size-t trace containing it to the net, and
    delete it.  Every heavy hyperedge keeps >= t cover vertices until some
    step reduces its trace from size t to t-1, and at that step the trace
    enters the net, so the output is valid regardless of the selection order.
    Only vertices of traces of >= t cover vertices are candidates: any other
    has count 0 throughout.
    """
    e = as_fraction(eps)
    trace, heavy = _stacked_cover(h, e, t, seed)
    return TNet(t=t, tuples=_removal_net(heavy, trace.cover_set, t), epsilon=e), trace


def _removal_net(heavy: list[tuple[int, ...]], cover: frozenset[int], t: int) -> frozenset[tuple[int, ...]]:
    """The structural net's tuples, by a smallest-last order (Matula & Beck).

    Removing v shrinks only the traces over the cover that hold v, so this
    costs O(sum |e & cover|) plus heap operations.  A trace's tuple is read
    when its size reaches t and when it drops below, and `mult` counts the
    traces behind each distinct size-t tuple, so a vertex's count moves only
    when a tuple appears or goes.  Stale (count, v) heap entries are skipped;
    ties go to the lowest index.
    """
    traces = [tr for e in heavy if len(tr := tuple(filter(cover.__contains__, e))) >= t]
    sizes = [len(vs) for vs in traces]
    holders = holder_lists(traces, max(cover, default=-1) + 1)
    count = {v: 0 for v, held in enumerate(holders) if held}  # the live candidates
    mult: dict[tuple[int, ...], int] = {}
    heap = [(0, v) for v in count]  # heapified once the size-t traces are in

    def move(key: tuple[int, ...], step: int) -> None:
        mult[key] = mult.get(key, 0) + step
        if mult[key] == (step > 0):  # 0 -> 1 or 1 -> 0
            for u in filter(count.__contains__, key):
                count[u] += step
                heapq.heappush(heap, (count[u], u))

    for vs in traces:
        if len(vs) == t:
            move(vs, 1)
    heapq.heapify(heap)
    net = set()
    while heap:
        c, v = heapq.heappop(heap)
        if count.get(v) != c:
            continue  # stale: v is gone or its count moved
        del count[v]
        for k in holders[v]:
            sizes[k] -= 1
            if sizes[k] == t:
                move(tuple(filter(count.__contains__, traces[k])), 1)
            elif sizes[k] == t - 1:
                net.add(key := tuple(u for u in traces[k] if u == v or u in count))
                move(key, -1)
    return frozenset(net)


# ---------------------------------------------------------------------------
# greedy cover and the exhaustive minimum oracle


def greedy_cover_t_net(h: Hypergraph, eps: EpsilonLike, t: int) -> TNet:
    """Greedy set cover over the t-subsets of the heavy hyperedges.

    While some heavy hyperedge is uncovered, add the t-subset contained in the
    most uncovered heavy hyperedges (tie-break: lexicographically smallest).
    Each pick walks t-tuples of the vertices on uncovered edges depth-first in
    lexicographic order, ANDing column masks (col[v]: heavy edges holding v).
    It cuts prefixes counting <= the best so far (counts only fall as vertices
    join; later tuples lose ties) and stops once it meets the previous pick's
    count, since no pick can cover more edges than the pick before it.
    """
    e = as_fraction(eps)
    heavy = heavy_dedup_edges(h, e, t)
    col = holder_masks(heavy)

    def walk(prefix: tuple[int, ...], mask: int, start: int) -> None:
        nonlocal best, pick, pick_mask
        for i in range(start, len(verts) - t + len(prefix) + 1):
            m = mask & col[verts[i]]
            if m.bit_count() > best:
                if len(prefix) + 1 < t:
                    walk(prefix + (verts[i],), m, i + 1)
                else:
                    best, pick, pick_mask = m.bit_count(), prefix + (verts[i],), m
            if best == limit:
                return

    uncovered, limit, chosen, verts = (1 << len(heavy)) - 1, len(heavy), [], sorted(col)
    while uncovered:
        verts = [v for v in verts if col[v] & uncovered]
        best, pick, pick_mask = 0, (), 0
        walk((), uncovered, 0)
        if not best:  # cannot happen: every uncovered edge holds a t-tuple
            raise AssertionError("greedy cover stalled")
        chosen.append(pick)
        uncovered, limit = uncovered & ~pick_mask, best
    return TNet(t=t, tuples=frozenset(chosen), epsilon=e)


def min_t_net_bruteforce(
    h: Hypergraph, eps: EpsilonLike, t: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> TNet:
    """Minimum-cardinality valid epsilon-t-net by increasing-size exhaustive search.

    Only candidate tuples (t-subsets of heavy hyperedges) can appear in a
    minimal net.  Raises BudgetExceeded when more than `budget` candidate
    combinations would have to be examined.
    """
    e = as_fraction(eps)
    heavy = heavy_dedup_edges(h, e, t)
    if not heavy:
        return TNet(t=t, tuples=frozenset(), epsilon=e)
    cands = sorted({c for edge in heavy for c in itertools.combinations(edge, t)})
    cover = {c: sum(1 << j for j in held) for c, held in containing_rows(cands, holder_lists(heavy, h.vertex_count))}
    full = (1 << len(heavy)) - 1
    examined = 0
    for k in range(1, len(cands) + 1):
        for combo in itertools.combinations(cands, k):
            examined += 1
            if examined > budget:
                raise BudgetExceeded(f"exhausted search budget {budget} at net size {k}")
            acc = 0
            for c in combo:
                acc |= cover[c]
            if acc == full:
                return TNet(t=t, tuples=frozenset(combo), epsilon=e)
    raise AssertionError("unreachable: the full candidate set is always a cover")
