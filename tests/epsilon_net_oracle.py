"""The public wrappers that left `ztnet.nets`, kept as test oracles: no CLI
command, suite check, script or benchmark reaches them.

`sampled_epsilon_net` is the structural net's layer sampler
(`nets._sampled_net`) over the whole vertex range, `verify_epsilon_net`
checks a stabbing set against the one heavy view (`verify_t_net` at t = 1
checks an epsilon-net in the package itself), and `stacked_cover_set` is the
structural net's cover set alone (`nets._stacked_cover`).
"""

from __future__ import annotations

from typing import Optional

from ztnet.errors import PreconditionViolated
from ztnet.hypergraph import Hypergraph
from ztnet.nets import EpsilonLike, NetBuildTrace, _sampled_net, _stacked_cover, as_fraction, heavy_dedup_edges


def verify_epsilon_net(h: Hypergraph, eps: EpsilonLike, s) -> Optional[tuple[int, ...]]:
    """None if `s` stabs every heavy hyperedge, else the first missed heavy
    hyperedge as an ascending tuple."""
    s = frozenset(s)
    if s and (min(s) < 0 or max(s) >= h.vertex_count):
        raise ValueError("net contains out-of-range vertex indices")
    return next((e for e in heavy_dedup_edges(h, eps) if s.isdisjoint(e)), None)


def sampled_epsilon_net(h: Hypergraph, eps: EpsilonLike, seed: int) -> frozenset[int]:
    """Verify-and-retry random epsilon-net.

    Sample size starts at ceil((8/eps) ln(4/eps)) + 8, doubles on each
    verification failure, and is capped at the vertex count (the full vertex
    set stabs every nonempty hyperedge).
    """
    e = as_fraction(eps)
    heavy = heavy_dedup_edges(h, e)
    if h.vertex_count == 0:
        raise PreconditionViolated("sampled_epsilon_net needs a nonempty vertex set")
    return _sampled_net(heavy, range(h.vertex_count), e, seed)


def stacked_cover_set(h: Hypergraph, eps: EpsilonLike, t: int, seed: int) -> NetBuildTrace:
    """Layered cover set: every heavy hyperedge contains >= t of its vertices.

    The first layer is an eps-net of the hypergraph; each later layer is an
    (eps/2)-net of the traces on the vertices not yet used, drawn from the
    hypergraph's own lists.  Requires eps * n >= 2t, which makes a heavy
    hyperedge, minus up to t-1 already-covered vertices, still heavy at eps/2
    in every later layer.
    """
    return _stacked_cover(h, as_fraction(eps), t, seed)[0]
