"""Seeded instance generators and the biclique-freeness pruner.

Every kind fills the unit square.  Rectangle coordinates are drawn without
replacement from a grid of resolution 2^-21, so every generated rectangle
family is in general position by construction.  The `parity` parameter splits
the grid into even and odd values: two families generated with opposite parity
never share an edge coordinate, keeping their union in general position
without shared state between the calls.

The pruner deletes witness vertices until no K_{t,t} remains.  It keeps alive
flags and live degrees over the graph's neighbour lists, so a deletion costs
the deleted vertex's degree, not a pass over side-long masks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import ParamOutOfRange
from .geometry import AxisRect, Disc, Frame, Point
from .hypergraph import BipartiteIntersectionGraph
from .zarankiewicz import BicliqueSearch, resolve_budget

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
        if not 0 < self.radius_lo <= self.radius_hi < math.inf:
            raise ParamOutOfRange("need 0 < radius_lo <= radius_hi < inf")
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

    Repeatedly take the witness `find_ktt_witness` would return and delete
    its vertex of maximum current degree, tie-breaking toward the B side and
    then the lowest index.  The heuristic is deterministic.

    Deletions only ever destroy bicliques, so the search resumes from one
    cursor per side, at the side's last witness, and stays equivalent to a
    fresh search after every deletion.  One `BicliqueSearch` serves the
    whole prune, so `budget` bounds the steps of all its searches together.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    search = BicliqueSearch(t, resolve_budget(budget), "prune")
    nbrs = {"A": g.nbrs_a, "B": g.nbrs_b}
    alive = {"A": bytearray(b"\x01") * g.m, "B": bytearray(b"\x01") * g.n}
    degree = {s: [len(row) for row in nbrs[s]] for s in "AB"}  # live degrees
    left = {"A": g.m, "B": g.n}
    deleted: dict[str, list[int]] = {"A": [], "B": []}
    cursors: dict[str, Optional[tuple]] = {"A": None, "B": None}
    other = {"A": "B", "B": "A"}
    while left["A"] >= t and left["B"] >= t:
        side = "A" if left["A"] <= left["B"] else "B"
        found = search.first(nbrs[side], nbrs[other[side]], alive[side], alive[other[side]],
                             cursors[side])
        if found is None:
            break
        cursors[side] = found[0]
        witness = {side: found[0], other[side]: found[1]}
        vside, v = max(
            ((s, u) for s in "AB" for u in witness[s]),
            key=lambda su: (degree[su[0]][su[1]], su[0] == "B", -su[1]),
        )
        alive[vside][v] = 0
        for u in nbrs[vside][v]:
            degree[other[vside]][u] -= 1
        left[vside] -= 1
        deleted[vside].append(v)

    kept_a, kept_b = (list(itertools.compress(range(len(f)), f)) for f in (alive["A"], alive["B"]))
    return PruneResult(
        g.induced(kept_a, kept_b), kept_a, kept_b, deleted["A"], deleted["B"],
        len(deleted["A"]) + len(deleted["B"]),  # one deletion per witness
    )
