"""The candidate-table greedy that `greedy_cover_t_net`'s branch-and-bound
walk replaced, kept as its test oracle: it lists every t-subset of every heavy
hyperedge up front, then takes the big-int `max` over the whole table."""

import itertools

from ztnet.errors import InfeasibleNet
from ztnet.hypergraph import Hypergraph, bits_of
from ztnet.nets import EpsilonLike, TNet, _heavy_masks, as_fraction


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
    heavy = _heavy_masks(h, e)
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
    return TNet(t=t, tuples=frozenset(frozenset(c) for c in chosen), epsilon=e)
