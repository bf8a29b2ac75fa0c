"""The scalar generators that `generators.generate` replaced, kept as its test
oracle: one `random.Random(seed)` call per draw, one object at a time.

`generate` fills a family's columns from the same words in bulk; its objects
must equal these bit for bit.  `redraws`, when given, collects how many
candidate intervals each `_distinct_intervals` call drew again because an
endpoint was taken.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ztnet.errors import ParamOutOfRange
from ztnet.generators import _G, DYADIC_MAX_LEVEL, KINDS, GenParams
from ztnet.geometry import AxisRect, Disc, Frame, Point


def generate(kind: str, count: int, params: Optional[GenParams] = None, seed: int = 0,
             redraws: Optional[list] = None) -> list:
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
        xs = _distinct_intervals(rng, count, p, redraws)
        ys = _distinct_intervals(rng, count, p, redraws)
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


def _distinct_intervals(rng: random.Random, count: int, p: GenParams,
                        redraws: Optional[list] = None) -> list[tuple[int, int]]:
    """(lo, hi) grid-value pairs, all 2*count endpoint values distinct.

    Values are of the form 2*g + parity, so opposite parities never collide.
    """
    lo_units = max(1, round(p.extent_lo * _G))
    hi_units = max(lo_units, round(p.extent_hi * _G))
    if count and 2 * count > _G - hi_units:
        raise ParamOutOfRange("count too large for distinct grid coordinates")
    used: set[int] = set()
    out = []
    collisions = 0
    for _ in range(count):
        while True:
            w = rng.randint(lo_units, hi_units)
            g = rng.randrange(_G - w)
            if g not in used and g + w not in used:
                used.add(g)
                used.add(g + w)
                out.append((2 * g + p.parity, 2 * (g + w) + p.parity))
                break
            collisions += 1
    if redraws is not None:
        redraws.append(collisions)
    return out
