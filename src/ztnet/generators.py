"""Seeded instance generators and the biclique-freeness pruner.

Every kind fills the unit square.  Rectangle coordinates are drawn without
replacement from a grid of resolution 2^-21, so every generated rectangle
family is in general position by construction.  The `parity` parameter splits
the grid into even and odd values: two families generated with opposite parity
never share an edge coordinate, keeping their union in general position
without shared state between the calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import ParamOutOfRange
from .geometry import AxisRect, Disc, Frame, Point
from .hypergraph import BipartiteIntersectionGraph, bits_of
from .zarankiewicz import _lex_witness, resolve_budget

GRID_POW = 20
_G = 1 << GRID_POW  # grid cells per axis; values are doubled and offset by parity
DYADIC_MAX_LEVEL = 6  # dyadic_rects side lengths run from 2^-1 to 2^-6

KINDS = (
    "random_discs",
    "random_rects",
    "random_frames",
    "grid_points",
    "random_points",
    "dyadic_rects",
)


@dataclass(frozen=True)
class GenParams:
    """Knobs shared by the generator kinds; each kind reads the fields it needs."""

    radius_lo: float = 0.04
    radius_hi: float = 0.10
    extent_lo: float = 0.02
    extent_hi: float = 0.12
    parity: int = 0

    def __post_init__(self):
        if not 0 < self.radius_lo <= self.radius_hi:
            raise ParamOutOfRange("need 0 < radius_lo <= radius_hi")
        if not 0 < self.extent_lo <= self.extent_hi <= 1:
            raise ParamOutOfRange("need 0 < extent_lo <= extent_hi <= 1")
        if self.parity not in (0, 1):
            raise ParamOutOfRange("parity must be 0 or 1")


def generate(kind: str, count: int, params: Optional[GenParams] = None, seed: int = 0) -> list:
    """Deterministically generate `count` objects of the given kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if count < 0:
        raise ParamOutOfRange("count must be >= 0")
    p = params if params is not None else GenParams()
    rng = random.Random(seed)

    if kind == "random_discs":
        return [
            Disc(Point(rng.random(), rng.random()), rng.uniform(p.radius_lo, p.radius_hi))
            for _ in range(count)
        ]

    if kind == "random_points":
        return [Point(rng.random(), rng.random()) for _ in range(count)]

    if kind == "grid_points":
        if count == 0:
            return []
        k = math.isqrt(count - 1) + 1
        pts = []
        for idx in range(count):
            i, j = divmod(idx, k)
            pts.append(Point((j + 1) / (k + 1), (i + 1) / (k + 1)))
        return pts

    if kind in ("random_rects", "random_frames"):
        cls = AxisRect if kind == "random_rects" else Frame
        xs = _distinct_intervals(rng, count, p)
        ys = _distinct_intervals(rng, count, p)
        scale = 1.0 / (2 * _G)
        return [
            cls(xs[i][0] * scale, xs[i][1] * scale, ys[i][0] * scale, ys[i][1] * scale)
            for i in range(count)
        ]

    # dyadic_rects: [a 2^-j, (a+1) 2^-j] x [b 2^-k, (b+1) 2^-k]
    rects = []
    for _ in range(count):
        j = rng.randint(1, DYADIC_MAX_LEVEL)
        k = rng.randint(1, DYADIC_MAX_LEVEL)
        a = rng.randrange(1 << j)
        b = rng.randrange(1 << k)
        rects.append(AxisRect(a / (1 << j), (a + 1) / (1 << j), b / (1 << k), (b + 1) / (1 << k)))
    return rects


def _distinct_intervals(rng: random.Random, count: int, p: GenParams) -> list[tuple[int, int]]:
    """(lo, hi) grid-value pairs, all 2*count endpoint values distinct.

    Values are of the form 2*g + parity, so opposite parities never collide.
    """
    lo_units = max(1, round(p.extent_lo * _G))
    hi_units = max(lo_units, round(p.extent_hi * _G))
    if count and 2 * count > _G - hi_units:
        raise ParamOutOfRange("count too large for distinct grid coordinates")
    used: set[int] = set()
    out = []
    for _ in range(count):
        while True:
            w = rng.randint(lo_units, hi_units)
            g = rng.randrange(_G - w)
            if g not in used and g + w not in used:
                used.add(g)
                used.add(g + w)
                out.append((2 * g + p.parity, 2 * (g + w) + p.parity))
                break
    return out


# ---------------------------------------------------------------------------
# pruning to K_{t,t}-freeness


@dataclass
class PruneResult:
    graph: BipartiteIntersectionGraph
    kept_a: list[int]  # surviving original A indices, in order
    kept_b: list[int]
    deleted_a: list[int]  # deletion order
    deleted_b: list[int]
    witnesses_found: int


def prune_to_ktt_free(
    g: BipartiteIntersectionGraph, t: int, budget: Optional[int] = None
) -> PruneResult:
    """Delete vertices until no complete t-by-t biclique remains.

    Repeatedly find the first witness in the lexicographic scan order of the
    smaller side (ties prefer A) and delete its vertex of maximum current
    degree, tie-breaking toward the B side and then the lowest index.  The
    heuristic is deterministic.

    Deletions only ever destroy bicliques, so the lexicographic scan never
    needs to revisit positions before the last witness; the scan keeps one
    resume cursor per side while remaining equivalent to a fresh scan after
    every deletion.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    budget = resolve_budget(budget)
    adj_a = list(g.adj_a)
    adj_b = list(g.adj_b)
    active_a = list(range(g.m))
    active_b = list(range(g.n))
    cursors: dict[str, Optional[tuple]] = {"A": None, "B": None}
    deleted_a: list[int] = []
    deleted_b: list[int] = []
    witnesses = 0

    def delete(side: str, v: int):
        if side == "A":
            for j in bits_of(adj_a[v]):
                adj_b[j] &= ~(1 << v)
            adj_a[v] = 0
            active_a.remove(v)
            deleted_a.append(v)
        else:
            for i in bits_of(adj_b[v]):
                adj_a[i] &= ~(1 << v)
            adj_b[v] = 0
            active_b.remove(v)
            deleted_b.append(v)

    while len(active_a) >= t and len(active_b) >= t:
        side = "A" if len(active_a) <= len(active_b) else "B"
        pool, adj = (active_a, adj_a) if side == "A" else (active_b, adj_b)
        found = _lex_witness(pool, adj, t, budget, cursors[side])
        if found is None:
            break
        combo, partner = found
        cursors[side] = combo
        witnesses += 1
        wit_a, wit_b = (combo, partner) if side == "A" else (partner, combo)
        candidates = [("A", v, adj_a[v].bit_count()) for v in wit_a]
        candidates += [("B", v, adj_b[v].bit_count()) for v in wit_b]
        best = max(candidates, key=lambda sv: (sv[2], sv[0] == "B", -sv[1]))
        delete(best[0], best[1])

    pruned = g.induced(active_a, active_b)
    return PruneResult(
        graph=pruned,
        kept_a=list(active_a),
        kept_b=list(active_b),
        deleted_a=deleted_a,
        deleted_b=deleted_b,
        witnesses_found=witnesses,
    )
