"""Seeded instance generators and the biclique-freeness pruner.

Every kind fills the unit square.  Rectangle coordinates are drawn without
replacement from a grid of resolution 2^-21, so every generated rectangle
family is in general position by construction.  The `parity` parameter splits
the grid into even and odd values: two families generated with opposite parity
never share an edge coordinate, keeping their union in general position
without shared state between the calls.

A kind comes out as a `geometry.Family` whose columns hold, bit for bit, the
values of the scalar draws (`tests/generator_oracle.py`), computed in bulk
from the words `random.Random(seed).getrandbits(32 * n)` holds, first drawn
least significant; its objects are built only on demand.

The pruner deletes witness vertices until no K_{t,t} remains.  It keeps alive
flags and live degrees over the graph's neighbour lists, so a deletion costs
the deleted vertex's degree, not a pass over side-long masks, and the witness
search of each side resumes where it last stopped.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParamOutOfRange
from .geometry import DISC, FRAME, POINT, RECT, Family
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


def generate(kind: str, count: int, params: Optional[GenParams] = None, seed: int = 0) -> Family:
    """Deterministically generate `count` objects of the given kind, as a family."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if count < 0:
        raise ParamOutOfRange("count must be >= 0")
    p = params if params is not None else GenParams()
    rng = random.Random(seed)

    if kind == "random_discs":  # Disc(Point(random(), random()), uniform(lo, hi)), disc by disc
        x, y, u = _randoms(rng, count, 3)
        return Family(DISC, (x, x, y, y, p.radius_lo + (p.radius_hi - p.radius_lo) * u))

    if kind in ("random_points", "grid_points"):
        k = math.isqrt(max(count - 1, 0)) + 1  # grid_points: row i, column j of a k-wide grid
        i, j = np.divmod(np.arange(count), k)
        x, y = _randoms(rng, count, 2) if kind == "random_points" else ((j + 1) / (k + 1), (i + 1) / (k + 1))
        return Family(POINT, (x, x, y, y, np.zeros(count)))

    block = 8 * count + 64  # words drawn at a time: a rect takes about 5, a dyadic rect about 6
    words = itertools.chain.from_iterable(iter(lambda: _word_array(rng, block).tolist(), None))
    if kind in ("random_rects", "random_frames"):
        xs = _distinct_intervals(words, count, p)
        ys = _distinct_intervals(words, count, p)
        fields = np.vstack((xs, ys, np.zeros((1, count)))) * (1.0 / (2 * _G))
        return Family(RECT if kind == "random_rects" else FRAME, fields)

    # dyadic_rects: [a 2^-j, (a+1) 2^-j] x [b 2^-k, (b+1) 2^-k]
    rows = []
    for _ in range(count):
        j, k = 1 + _below(words, DYADIC_MAX_LEVEL), 1 + _below(words, DYADIC_MAX_LEVEL)
        a, b = _below(words, 1 << j), _below(words, 1 << k)
        rows.append((a / (1 << j), (a + 1) / (1 << j), b / (1 << k), (b + 1) / (1 << k), 0.0))
    return Family(RECT, np.array(rows).reshape(-1, 5).T)


def _word_array(rng: random.Random, n: int) -> np.ndarray:
    """The next n 32-bit words of rng's stream, in draw order."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _randoms(rng: random.Random, count: int, per: int) -> np.ndarray:
    """`per` rows of `count` rng.random() values, ((a >> 5) * 2^26 + (b >> 6)) / 2^53 each."""
    w = _word_array(rng, 2 * per * count).reshape(count, per, 2)
    return (((w[..., 0] >> 5) * 67108864.0 + (w[..., 1] >> 6)) * (1.0 / 9007199254740992.0)).T


def _below(words, n: int) -> int:
    """randrange(n), 0 < n < 2^32: a word's top n.bit_length() bits, redrawn while >= n."""
    shift = 32 - n.bit_length()
    while (r := next(words) >> shift) >= n:
        pass
    return r


def _distinct_intervals(words, count: int, p: GenParams) -> np.ndarray:
    """(lo, hi) grid-value rows, all 2*count endpoint values distinct: per
    interval, w = randint(lo_units, hi_units) and g = randrange(_G - w) on the
    word iterator, drawn again while g or g + w is taken.

    Values are of the form 2*g + parity, so opposite parities never collide.
    """
    lo_units = max(1, round(p.extent_lo * _G))
    hi_units = max(lo_units, round(p.extent_hi * _G))
    if count and 2 * count > _G - hi_units:
        raise ParamOutOfRange("count too large for distinct grid coordinates")
    used: set[int] = set()
    out = []
    while len(out) < count:
        w = lo_units + _below(words, hi_units - lo_units + 1)
        g = _below(words, _G - w)
        if g not in used and g + w not in used:
            used.add(g)
            used.add(g + w)
            out.append((2 * g + p.parity, 2 * (g + w) + p.parity))
    return np.array(out, float).reshape(-1, 2).T  # exact: values are below 2^22


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
    fresh search after every deletion.  Each side has one `BicliqueSearch.scan`,
    which resumes inside the universe it built for that witness's first
    vertex.  One `BicliqueSearch` serves the whole prune, so `budget` bounds
    the steps of both scans together.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    search = BicliqueSearch(t, resolve_budget(budget), "prune")
    nbrs = (g.nbrs_a, g.nbrs_b)  # side 0 is A, side 1 is B
    alive = (bytearray(b"\x01") * g.m, bytearray(b"\x01") * g.n)
    degree = tuple([len(row) for row in rows] for rows in nbrs)  # live degrees
    left = [g.m, g.n]
    deleted: tuple[list[int], list[int]] = ([], [])
    scans = [search.scan(nbrs[s], nbrs[1 - s], alive[s], alive[1 - s]) for s in (0, 1)]
    while left[0] >= t and left[1] >= t:
        s = 0 if left[0] <= left[1] else 1
        found = next(scans[s], None)
        if found is None:
            break
        # the most live degree, ties toward B, then toward the lowest index
        _, vside, v = max((degree[w][u], w, -u) for w, ws in ((s, found[0]), (1 - s, found[1])) for u in ws)
        v = -v
        alive[vside][v] = 0
        for u in nbrs[vside][v]:
            degree[1 - vside][u] -= 1
        left[vside] -= 1
        deleted[vside].append(v)

    kept_a, kept_b = (list(itertools.compress(range(len(f)), f)) for f in alive)
    return PruneResult(
        g.induced(kept_a, kept_b), kept_a, kept_b, deleted[0], deleted[1],
        len(deleted[0]) + len(deleted[1]),  # one deletion per witness
    )
