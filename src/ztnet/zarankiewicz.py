"""Biclique detection and the recursive edge-count bound for K_{t,t}-free graphs.

The bound algorithm partitions each side into heavy vertices (degree at least
eps times the opposite side) and light ones, charges every edge with a light
endpoint to the additive term n*floor(eps*m) + m*floor(eps'*n), and recurses
on the heavy-by-heavy subgraph.  The additive term is a valid upper bound for
the light contribution regardless of any freeness or net assumption, so the
final bound dominates |E| unconditionally; nets are built per level to report
the sizes that drive the heavy-set analysis.

The K_{t,t} witness search reads the graph's ascending neighbour lists and
alive flags, never a mask as long as a side: each first vertex of a prefix
relabels its alive neighbourhood into a local bit universe of its own.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional

from .errors import BudgetExceeded, InvalidNet
from .hypergraph import (
    BipartiteIntersectionGraph,
    bits_of,
    dual_hypergraph,
    primal_hypergraph,
)
from .nets import (
    EpsilonLike,
    TNet,
    as_fraction,
    greedy_cover_t_net,
    heavy_threshold,
    pseudodisc_t_net,
    verify_t_net,
)

DEFAULT_ENUM_BUDGET = 2**22

BUDGET_ENV_VAR = "ZTNET_BUDGET"


def resolve_budget(explicit: Optional[int] = None) -> int:
    """Explicit budget, else the ZTNET_BUDGET env var, else the default; a
    negative budget raises ValueError naming its source."""
    if explicit is not None:
        name, budget = "budget", explicit
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_ENUM_BUDGET
        try:
            name, budget = BUDGET_ENV_VAR, int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if budget < 0:
        raise ValueError(f"{name} must be >= 0, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# K_{t,t} detection


class BicliqueSearch:
    """Lexicographic depth-first search for K_{t,t} witnesses on neighbour lists.

    A prefix grows only while its common neighbourhood keeps t vertices, and
    only by neighbours of that neighbourhood above its last vertex, so every
    prefix of two or more lies inside some N(b).  The prefixes of a first
    vertex v work in a local universe (Eppstein's bounded-arboricity biclique
    listing): the alive N(v) relabelled to bits 0..d-1 in ascending order,
    and for every alive vertex above v two hops away, the small mask of the
    N(v) it sees.  Each tested extension is one step, counted over all
    calls; step budget + 1 raises BudgetExceeded.
    """

    def __init__(self, t: int, budget: int, stage: str):
        self.t, self.budget, self.stage, self.steps = t, budget, stage, 0

    def first(self, nbrs: list[list[int]], partner: list[list[int]], alive, partner_alive,
              lower=None):
        """First t-subset of the `alive` vertices, in lexicographic order from
        the cursor `lower` on, whose alive neighbours share at least t: the
        subset and its first t shared neighbours, or None.  `nbrs` and
        `partner` hold the ascending neighbour lists of this side and of the
        other, and `partner_alive` flags the other side's alive vertices;
        `lower` may name vertices no longer alive."""
        t = self.t

        def step():
            self.steps += 1
            if self.steps > self.budget:
                inside = sum(math.comb(sum(1 for u in row if alive[u]), t)
                             for b, row in enumerate(partner) if partner_alive[b])
                raise BudgetExceeded(
                    f"{self.stage} stopped after {self.budget} search steps (budget "
                    f"{self.budget}); the neighbourhoods hold sum_b C(deg b, {t}) = "
                    f"{inside} {t}-subsets; raise --budget or {BUDGET_ENV_VAR}"
                )

        def extend(prefix: tuple, common: int, cand: list[int], tight: bool):
            k = len(prefix)
            if tight:  # the prefix is the cursor's, so stay at or above it
                cand = cand[bisect_left(cand, lower[k]):]
            for v in cand:
                step()
                shared = common & masks[v]
                if shared.bit_count() < t:
                    continue
                if k + 1 == t:
                    return prefix + (v,), shared
                hop = [u for u in above[bisect_right(above, v):] if masks[u] & shared]
                if found := extend(prefix + (v,), shared, hop, tight and v == lower[k]):
                    return found
            return None

        tight = lower is not None
        for v in range(lower[0] if tight else 0, len(nbrs)):
            if not alive[v]:
                continue
            step()
            local = [y for y in nbrs[v] if partner_alive[y]]
            if len(local) < t:
                continue
            if t == 1:
                return (v,), (local[0],)
            masks: dict[int, int] = {}
            bit = 1
            for y in local:
                for u in partner[y]:
                    if u > v and alive[u]:
                        masks[u] = masks.get(u, 0) | bit
                bit <<= 1
            above = sorted(masks)
            if found := extend((v,), (1 << len(local)) - 1, above, tight and v == lower[0]):
                prefix, shared = found
                return prefix, tuple(local[b] for b in itertools.islice(bits_of(shared), t))
        return None


def find_ktt_witness(
    g: BipartiteIntersectionGraph, t: int, budget: Optional[int] = None
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First complete t-by-t biclique, or None if the graph is K_{t,t}-free.

    The lexicographically first t-subset of the smaller side (ties prefer A)
    with t common neighbours, and the first t of those.  `BicliqueSearch`
    looks only inside the neighbourhoods and raises BudgetExceeded after
    `budget` search steps.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if min(g.m, g.n) < t:
        return None
    search = BicliqueSearch(t, resolve_budget(budget), "witness search")
    every_a, every_b = b"\x01" * g.m, b"\x01" * g.n
    if g.m <= g.n:
        return search.first(g.nbrs_a, g.nbrs_b, every_a, every_b)
    found = search.first(g.nbrs_b, g.nbrs_a, every_b, every_a)
    return None if found is None else (found[1], found[0])


# ---------------------------------------------------------------------------
# heavy/light partitioning


@dataclass
class HeavyLightPartition:
    epsilon: Fraction
    epsilon_prime: Fraction
    heavy_a: frozenset[int]
    heavy_b: frozenset[int]
    threshold_a: int  # heavy_threshold(eps', n): minimal heavy degree on side A
    threshold_b: int  # heavy_threshold(eps, m): minimal heavy degree on side B


def heavy_light_partition(
    g: BipartiteIntersectionGraph, eps: EpsilonLike, eps_prime: EpsilonLike
) -> HeavyLightPartition:
    """Exact threshold partition: a in A' iff deg(a) >= eps' * n, b in B' iff deg(b) >= eps * m.

    Both cutoffs go through `heavy_threshold`, so an isolated vertex is never
    heavy, even when the opposite side is empty.
    """
    e = as_fraction(eps)
    ep = as_fraction(eps_prime)
    thr_a = heavy_threshold(ep, g.n)
    thr_b = heavy_threshold(e, g.m)
    deg_a = g.degrees_a()
    deg_b = g.degrees_b()
    return HeavyLightPartition(
        epsilon=e,
        epsilon_prime=ep,
        heavy_a=frozenset(v for v in range(g.m) if deg_a[v] >= thr_a),
        heavy_b=frozenset(w for w in range(g.n) if deg_b[w] >= thr_b),
        threshold_a=thr_a,
        threshold_b=thr_b,
    )


@dataclass
class HeavyCountReport:
    side: str
    heavy_count: int
    bound: int
    net_size: int
    passed: bool


def heavy_count_check(
    g: BipartiteIntersectionGraph, t: int, net: TNet, side: str
) -> HeavyCountReport:
    """Check heavy-vertex count <= (t-1) * |net| on the chosen side.

    side "B": `net` must be a valid eps-t-net of the primal hypergraph; the
    heavy vertices are the b in B with deg(b) >= eps * m.  side "A" is the
    mirror statement through the dual hypergraph.  The inequality must hold
    whenever the graph is K_{t,t}-free and the net verifies.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if side == "B":
        h, count, degrees = primal_hypergraph(g), g.m, g.degrees_b()
    else:
        h, count, degrees = dual_hypergraph(g), g.n, g.degrees_a()
    witness = verify_t_net(h, net.epsilon, net)
    if witness is not None:
        raise InvalidNet(f"net misses heavy hyperedge {list(witness)}")
    thr = heavy_threshold(net.epsilon, count)
    heavy = sum(1 for d in degrees if d >= thr)
    bound = (t - 1) * net.size()
    return HeavyCountReport(
        side=side, heavy_count=heavy, bound=bound, net_size=net.size(), passed=heavy <= bound
    )


# ---------------------------------------------------------------------------
# the recursive bound algorithm


EpsRule = Callable[[int, int, int], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class NetBuilder:
    """A net constructor (h, eps, t, seed) -> TNet and the least heavy
    hyperedge size eps * |V| it accepts, in multiples of t."""

    build: Callable[..., TNet]
    min_heavy: int

    def __call__(self, h, eps, t, seed) -> TNet:
        return self.build(h, eps, t, seed)


# The constructors are looked up by module-global name at call time, so a
# wrapper installed on the module attribute sees calls.  Any net needs heavy
# hyperedges of t vertices; the pseudo-disc net's stacked cover needs 2t.
NET_BUILDERS: dict[str, NetBuilder] = {
    "greedy": NetBuilder(lambda h, eps, t, seed: greedy_cover_t_net(h, eps, t), 1),
    "pseudodisc": NetBuilder(lambda h, eps, t, seed: pseudodisc_t_net(h, eps, t, seed)[0], 2),
}


def degree_cutoff_rule(m: int, n: int, t: int) -> tuple[Fraction, Fraction]:
    """Heavy-degree cutoff 2 * t^6 on both sides, clamped to eps <= 1."""
    cut = 2 * t**6
    return min(Fraction(1), Fraction(cut, m)), min(Fraction(1), Fraction(cut, n))


@dataclass
class BoundLevel:
    level: int
    m: int
    n: int
    eps: Optional[Fraction]
    eps_prime: Optional[Fraction]
    s: Optional[int]
    s_prime: Optional[int]
    heavy_a: int
    heavy_b: int
    additive: int  # this level's contribution to the bound
    kind: str  # "recurse" | "base-light" | "base-trivial"


@dataclass
class BoundReport:
    levels: list[BoundLevel]
    bound: int
    actual_edges: int

    CSV_COLUMNS = (*(f.name for f in fields(BoundLevel) if f.name != "kind"), "bound", "edges")

    def csv_rows(self) -> list[list[str]]:
        return [
            [
                "" if v is None else str(v)
                for v in [getattr(lv, c) for c in self.CSV_COLUMNS[:-2]]
                + [self.bound, self.actual_edges]
            ]
            for lv in self.levels
        ]


def num_edges_bound(
    g: BipartiteIntersectionGraph,
    t: int,
    net_builder: NetBuilder = NET_BUILDERS["greedy"],
    eps_rule: Optional[EpsRule] = None,
    seed: int = 0,
) -> BoundReport:
    """Recursive upper bound on |E| with per-level net size reporting.

    Per level: choose (eps, eps'), partition into heavy/light, add the light
    contribution n*floor(eps*m) + m*floor(eps'*n), and recurse on the
    heavy-by-heavy subgraph.  Base cases: an empty side contributes 0; a side
    smaller than r*t (r is the builder's `min_heavy`), or a heavy product that
    fails to shrink, contributes the trivial m*n (no nets are built there).
    On recursing levels and on the final heavy-empty level the primal and
    dual nets are built and verified in turn (a miss raises InvalidNet), and
    their sizes recorded.

    The epsilon choice is free, so a rule output below r*t/m (resp. r*t/n) is
    raised to it: below t/m a heavy hyperedge could have fewer than t
    vertices and no valid net would exist, the pseudo-disc net (r = 2) needs
    eps*m >= 2t for its stacked cover, and a larger epsilon only grows the
    already-valid additive term.

    The caller is responsible for the K_{t,t}-freeness of `g`; the returned
    bound dominates |E| regardless, but the net-size analysis is only
    meaningful on free graphs.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    rule = eps_rule if eps_rule is not None else degree_cutoff_rule
    floor = net_builder.min_heavy * t
    levels: list[BoundLevel] = []
    current = g
    level = 0
    while current.m and current.n:
        m, n = current.m, current.n
        eps, eps_prime, na, nb = None, None, 0, 0
        if m >= floor and n >= floor:
            eps, eps_prime = rule(m, n, t)
            eps = max(eps, Fraction(floor, m))
            eps_prime = max(eps_prime, Fraction(floor, n))
            part = heavy_light_partition(current, eps, eps_prime)
            na, nb = len(part.heavy_a), len(part.heavy_b)
        sizes, additive, kind = [None, None], m * n, "base-trivial"
        if eps is not None and na * nb < m * n:
            sides = ((primal_hypergraph(current), eps), (dual_hypergraph(current), eps_prime))
            for k, (h, side_eps) in enumerate(sides):
                net = net_builder(h, side_eps, t, seed * 7919 + 2 * level + k)
                witness = verify_t_net(h, side_eps, net)
                if witness is not None:
                    raise InvalidNet(f"level {level} net misses hyperedge {list(witness)}")
                sizes[k] = net.size()
            additive = n * math.floor(eps * m) + m * math.floor(eps_prime * n)
            kind = "recurse" if (na and nb) else "base-light"
        levels.append(BoundLevel(level, m, n, eps, eps_prime, *sizes, na, nb, additive, kind))
        if kind != "recurse":
            break
        current = current.induced(part.heavy_a, part.heavy_b)
        level += 1
    return BoundReport(levels, sum(lv.additive for lv in levels), g.edge_count)
