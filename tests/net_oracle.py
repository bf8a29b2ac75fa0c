"""Test oracles for the net constructors.

The candidate-table greedy that `greedy_cover_t_net`'s branch-and-bound walk
replaced: it lists every t-subset of every heavy hyperedge up front, then takes
the big-int `max` over the whole table.

The structural net as it was before its cover layers were drawn on the parent's
masks: every layer samples an eps-net of the induced subhypergraph on the
unused vertices, and the removal loop (`rescan_removal`) rescans the whole
cover until it is empty.  Only the unread per-step removal log is left out.

The structural net's removal loop as it was before the smallest-last order was
kept incrementally (`mask_removal`, and `mask_loop_t_net` on the library's
cover): each step recounts every live trace of >= t cover vertices over every
candidate, and the loop ends with the last such trace.

The verifiers and constructors as they were while hyperedges were bitmasks
over the whole vertex range (`heavy_masks`, `mask_verify_epsilon_net`,
`mask_verify_t_net`, `mask_sampled_net`, `mask_stacked_cover`,
`mask_smallest_last`, `mask_pseudodisc_t_net`, `mask_greedy_t_net`): the same
bodies, on masks built from the hyperedge lists with `mask_of`.  They give
the same nets, cover layers, witnesses and errors as the list versions.  The
pre-mask `sampled_epsilon_net` already verifies its samples on such masks.
"""

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from graph_oracle import mask_of

from ztnet.errors import InfeasibleNet, PreconditionViolated
from ztnet.hypergraph import Hypergraph, bits_of
from ztnet.nets import (
    EpsilonLike,
    NetBuildTrace,
    TNet,
    as_fraction,
    heavy_threshold,
)
from ztnet.nets import stacked_cover_set as library_cover_set


def heavy_masks(
    h: Hypergraph, eps: EpsilonLike, t: int = 1, pool: Optional[list[int]] = None
) -> list[int]:
    """Masks of the distinct hyperedges of size >= eps * n, first occurrence
    first; given a vertex list `pool`, of the distinct traces over it of size
    >= eps * |pool|.  Raises InfeasibleNet if one has fewer than t vertices."""
    if t < 1:
        raise ValueError("t must be >= 1")
    masks = [mask_of(e) for e in h.edges]
    if pool is not None:
        pool_mask = mask_of(pool)
        masks = [em & pool_mask for em in masks]
    thr = heavy_threshold(eps, h.vertex_count if pool is None else len(pool))
    heavy = list(dict.fromkeys(em for em in masks if em.bit_count() >= thr))
    for em in heavy:
        if em.bit_count() < t:
            raise InfeasibleNet(f"heavy hyperedge {list(bits_of(em))} has fewer than "
                                f"t={t} vertices; no valid net exists")
    return heavy


def mask_verify_epsilon_net(h: Hypergraph, eps: EpsilonLike, s) -> Optional[tuple[int, ...]]:
    """None if `s` stabs every heavy hyperedge, else the first missed one."""
    s = frozenset(s)
    if s and (min(s) < 0 or max(s) >= h.vertex_count):
        raise ValueError("net contains out-of-range vertex indices")
    s_mask = mask_of(s)
    for em in heavy_masks(h, eps):
        if em & s_mask == 0:
            return tuple(bits_of(em))
    return None


def mask_verify_t_net(h: Hypergraph, eps: EpsilonLike, net: TNet) -> Optional[tuple[int, ...]]:
    """None if every heavy hyperedge contains some net tuple, else the first
    distinct one that contains none."""
    tuple_masks = []
    for tp in net.tuples:
        if min(tp) < 0 or max(tp) >= h.vertex_count:
            raise ValueError(f"net tuple {list(tp)} out of vertex range")
        tuple_masks.append(mask_of(tp))
    for em in heavy_masks(h, eps):
        if not any(tm & em == tm for tm in tuple_masks):
            return tuple(bits_of(em))
    return None


def mask_sampled_net(heavy: list[int], pool: Sequence[int], e: Fraction, seed: int) -> frozenset[int]:
    """Verify-and-retry sampling over the vertex sequence `pool`, given the
    heavy masks to stab."""
    ef = float(e)
    size = min(len(pool), math.ceil((8.0 / ef) * math.log(4.0 / ef)) + 8)
    rng = random.Random(seed)
    while size < len(pool):
        sample = rng.sample(pool, size)
        sample_mask = mask_of(sample)
        if all(em & sample_mask for em in heavy):
            return frozenset(sample)
        size = min(2 * size, len(pool))
    return frozenset(pool)


def mask_stacked_cover(h: Hypergraph, eps: EpsilonLike, t: int, seed: int) -> tuple[NetBuildTrace, list[int]]:
    """`nets.stacked_cover_set` with each later layer drawn from the parent's
    masks ANDed with the unused vertices, and the first layer's heavy masks."""
    e = as_fraction(eps)
    if t < 1:
        raise ValueError("t must be >= 1")
    n = h.vertex_count
    if e * n < 2 * t:
        raise PreconditionViolated(
            f"stacked cover needs eps*n >= 2t; got {e} * {n} < {2 * t}"
        )
    rng = random.Random(seed)
    top = heavy_masks(h, e)
    pool = list(range(n))
    layers: list[frozenset[int]] = []
    for i in range(t):
        layer_eps = e if i == 0 else e / 2
        layer = frozenset()
        if pool:
            heavy = top if i == 0 else heavy_masks(h, layer_eps, pool=pool)
            layer = mask_sampled_net(heavy, pool, layer_eps, rng.randrange(2**32))
            pool = [v for v in pool if v not in layer]
        layers.append(layer)
    return NetBuildTrace(cover_set=frozenset().union(*layers), layer_nets=layers), top


def mask_smallest_last(heavy: list[int], cover: frozenset[int], t: int) -> frozenset[tuple[int, ...]]:
    """`nets._removal_net` on masks: the traces over the cover are ANDed and
    popcounted, then the same incremental smallest-last order runs."""
    cover_mask = mask_of(cover)
    traces = [tuple(bits_of(tm)) for em in heavy if (tm := em & cover_mask).bit_count() >= t]
    sizes = [len(vs) for vs in traces]
    holders: dict[int, list[int]] = {}
    for k, vs in enumerate(traces):
        for v in vs:
            holders.setdefault(v, []).append(k)
    count = dict.fromkeys(holders, 0)
    mult: dict[tuple[int, ...], int] = {}
    heap = [(0, v) for v in count]

    def move(key: tuple[int, ...], step: int) -> None:
        mult[key] = mult.get(key, 0) + step
        if mult[key] == (step > 0):
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
            continue
        del count[v]
        for k in holders[v]:
            sizes[k] -= 1
            if sizes[k] == t:
                move(tuple(filter(count.__contains__, traces[k])), 1)
            elif sizes[k] == t - 1:
                net.add(key := tuple(u for u in traces[k] if u == v or u in count))
                move(key, -1)
    return frozenset(net)


def mask_pseudodisc_t_net(h: Hypergraph, eps: EpsilonLike, t: int, seed: int) -> tuple[TNet, NetBuildTrace]:
    """`nets.pseudodisc_t_net` on `mask_stacked_cover` and `mask_smallest_last`."""
    e = as_fraction(eps)
    trace, heavy = mask_stacked_cover(h, e, t, seed)
    return TNet(t=t, tuples=mask_smallest_last(heavy, trace.cover_set, t), epsilon=e), trace


def mask_greedy_t_net(h: Hypergraph, eps: EpsilonLike, t: int) -> TNet:
    """`nets.greedy_cover_t_net` with its column masks transposed from the
    heavy masks bit by bit."""
    e = as_fraction(eps)
    heavy = heavy_masks(h, e, t)
    col: dict[int, int] = {}
    for r, em in enumerate(heavy):
        for v in bits_of(em):
            col[v] = col.get(v, 0) | 1 << r

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
        if not best:
            raise AssertionError("greedy cover stalled")
        chosen.append(pick)
        uncovered, limit = uncovered & ~pick_mask, best
    return TNet(t=t, tuples=frozenset(chosen), epsilon=e)


def _candidate_cover(heavy: list[int], t: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Distinct t-subsets of the heavy hyperedges in lexicographic order, and
    for each one the mask of the heavy[j] that contain it."""
    cover: dict[tuple[int, ...], int] = {}
    for j, em in enumerate(heavy):
        if em.bit_count() < t:
            raise InfeasibleNet(
                f"heavy hyperedge {list(bits_of(em))} has fewer than t={t} vertices; "
                "no valid net exists"
            )
        for c in itertools.combinations(bits_of(em), t):
            cover[c] = cover.get(c, 0) | (1 << j)
    cands = sorted(cover)
    return cands, [cover[c] for c in cands]


def table_greedy_t_net(h: Hypergraph, eps: EpsilonLike, t: int) -> TNet:
    """While some heavy hyperedge is uncovered, add the candidate contained in
    the most uncovered heavy hyperedges (tie-break: lexicographically smallest)."""
    e = as_fraction(eps)
    if t < 1:
        raise ValueError("t must be >= 1")
    heavy = heavy_masks(h, e)
    if not heavy:
        return TNet(t=t, tuples=frozenset(), epsilon=e)
    cands, cover = _candidate_cover(heavy, t)
    uncovered = (1 << len(heavy)) - 1
    chosen: list[tuple[int, ...]] = []
    while uncovered:
        # max keeps the first maximum: ties go to the smallest candidate
        best = max(range(len(cands)), key=lambda k: (cover[k] & uncovered).bit_count())
        if not cover[best] & uncovered:
            raise AssertionError("greedy cover stalled")
        chosen.append(cands[best])
        uncovered &= ~cover[best]
    return TNet(t=t, tuples=frozenset(chosen), epsilon=e)


def induced_subhypergraph(h: Hypergraph, keep: Iterable[int]) -> Hypergraph:
    """Traces e & keep, with vertices reindexed over sorted(keep)."""
    kept = sorted(set(keep))
    if kept and (kept[0] < 0 or kept[-1] >= h.vertex_count):
        raise ValueError("keep set not contained in the vertex set")
    remap = {old: new for new, old in enumerate(kept)}
    traces = [[remap[v] for v in e if v in remap] for e in h.edges]
    return Hypergraph(len(kept), traces)


def sampled_epsilon_net(h: Hypergraph, eps: EpsilonLike, seed: int) -> frozenset[int]:
    """Verify-and-retry random epsilon-net.

    Sample size starts at ceil((8/eps) ln(4/eps)) + 8, doubles on each
    verification failure, and is capped at the vertex count (the full vertex
    set stabs every nonempty hyperedge).
    """
    e = as_fraction(eps)
    if not 0 < e <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {e}")
    n = h.vertex_count
    if n == 0:
        raise PreconditionViolated("sampled_epsilon_net needs a nonempty vertex set")
    ef = float(e)
    size = min(n, math.ceil((8.0 / ef) * math.log(4.0 / ef)) + 8)
    rng = random.Random(seed)
    while True:
        if size >= n:
            return frozenset(range(n))
        candidate = frozenset(rng.sample(range(n), size))
        if mask_verify_epsilon_net(h, e, candidate) is None:
            return candidate
        size = min(2 * size, n)


def stacked_cover_set(h: Hypergraph, eps: EpsilonLike, t: int, seed: int) -> NetBuildTrace:
    """Layered cover set: every heavy hyperedge contains >= t of its vertices.

    The first layer is an eps-net of the hypergraph; each later layer is an
    (eps/2)-net of the hypergraph induced on the vertices not yet used.
    Requires eps * n >= 2t, which makes a heavy hyperedge, minus up to t-1
    already-covered vertices, still heavy at eps/2 in every later layer.
    """
    e = as_fraction(eps)
    if t < 1:
        raise ValueError("t must be >= 1")
    n = h.vertex_count
    if e * n < 2 * t:
        raise PreconditionViolated(
            f"stacked cover needs eps*n >= 2t; got {e} * {n} < {2 * t}"
        )
    rng = random.Random(seed)
    remaining = set(range(n))
    layers: list[frozenset[int]] = []
    for i in range(t):
        layer_eps = e if i == 0 else e / 2
        if not remaining:
            layers.append(frozenset())
            continue
        kept = sorted(remaining)
        sub = induced_subhypergraph(h, kept)
        sub_net = sampled_epsilon_net(sub, layer_eps, rng.randrange(2**32))
        layer = frozenset(kept[v] for v in sub_net)
        layers.append(layer)
        remaining -= layer
    cover = frozenset().union(*layers) if layers else frozenset()
    return NetBuildTrace(cover_set=cover, layer_nets=layers)


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
    Light hyperedges need no coverage and contribute no tuples; with no heavy
    hyperedge at all the net is empty.
    """
    e = as_fraction(eps)
    trace = stacked_cover_set(h, e, t, seed)
    net = TNet(t=t, tuples=rescan_removal(heavy_masks(h, e), trace.cover_set, t), epsilon=e)
    return net, trace


def rescan_removal(source_masks: list[int], cover: frozenset[int], t: int) -> frozenset[tuple[int, ...]]:
    """Remove every cover vertex in turn, recounting the distinct size-t traces
    of `source_masks` over the remaining cover at each step."""
    remaining = sorted(cover)
    remaining_mask = mask_of(remaining)
    net_tuples: set[tuple[int, ...]] = set()
    while remaining:
        traces = (em & remaining_mask for em in source_masks)
        size_t_traces = {tm for tm in traces if tm.bit_count() == t}
        counts = {v: 0 for v in remaining}
        for tm in size_t_traces:
            for v in bits_of(tm):
                counts[v] += 1
        chosen = min(remaining, key=lambda v: (counts[v], v))
        added = [tm for tm in size_t_traces if (tm >> chosen) & 1]
        net_tuples.update(tuple(bits_of(tm)) for tm in added)
        remaining.remove(chosen)
        remaining_mask &= ~(1 << chosen)
    return frozenset(net_tuples)


def mask_loop_t_net(
    h: Hypergraph, eps: EpsilonLike, t: int, seed: int
) -> tuple[TNet, NetBuildTrace]:
    """The library's cover set, then the per-step recount `mask_removal`."""
    e = as_fraction(eps)
    trace = library_cover_set(h, e, t, seed)
    net = TNet(t=t, tuples=mask_removal(heavy_masks(h, e), trace.cover_set, t), epsilon=e)
    return net, trace


def mask_removal(heavy: list[int], cover: frozenset[int], t: int) -> frozenset[tuple[int, ...]]:
    """Keep the traces of >= t cover vertices as masks; at each step count the
    size-t ones over the candidates, remove the first minimum, and drop the
    traces that fall below t."""
    cover_mask = mask_of(cover)
    traces = {tm for em in heavy if (tm := em & cover_mask).bit_count() >= t}
    candidates = sorted({v for tm in traces for v in bits_of(tm)})
    net_masks: set[int] = set()
    while traces:
        size_t = [tm for tm in traces if tm.bit_count() == t]
        counts = dict.fromkeys(candidates, 0)
        for tm in size_t:
            for v in bits_of(tm):
                counts[v] += 1
        chosen = min(candidates, key=counts.__getitem__)  # first minimum: lowest index
        bit = 1 << chosen
        net_masks.update(tm for tm in size_t if tm & bit)
        candidates.remove(chosen)
        hit = [tm for tm in traces if tm & bit]
        traces.difference_update(hit)
        traces.update(rest for tm in hit if (rest := tm ^ bit).bit_count() >= t)
    return frozenset(tuple(bits_of(tm)) for tm in net_masks)
