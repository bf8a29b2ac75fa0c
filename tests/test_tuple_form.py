"""Every k-subset the package emits is a strictly ascending tuple of k Python
ints: the t-subsets of the greedy, structural and brute-force nets, and the
canonical families of the segment sweep and of disc shrinking."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ztnet.errors import BudgetExceeded, InfeasibleNet, PreconditionViolated
from ztnet.geometry import Disc, Point, Segment
from ztnet.hypergraph import BipartiteIntersectionGraph, Hypergraph
from ztnet.nets import greedy_cover_t_net, min_t_net_bruteforce, pseudodisc_t_net
from ztnet.points_pseudodiscs import shrink_canonical_tuples
from ztnet.rectangles import canonical_segment_tuples


def assert_ascending(tuples, k):
    for tp in tuples:
        assert type(tp) is tuple and len(tp) == k, tp
        assert all(type(v) is int for v in tp), tp
        assert all(a < b for a, b in zip(tp, tp[1:])), tp


@st.composite
def hypergraphs(draw):
    """A hypergraph on 4-12 vertices with 1-8 hyperedges, repeats allowed, and
    eps in (0, 1] at twelfths."""
    n = draw(st.integers(4, 12))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1)).map(sorted), min_size=1, max_size=8))
    return Hypergraph(n, edges), Fraction(draw(st.integers(1, 12)), 12)


class TestNets:
    @settings(max_examples=200, deadline=None)
    @given(hypergraphs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_every_net_tuple_is_ascending(self, inputs, t, seed):
        h, eps = inputs
        builds = (
            lambda: greedy_cover_t_net(h, eps, t),
            lambda: pseudodisc_t_net(h, eps, t, seed)[0],
            lambda: min_t_net_bruteforce(h, eps, t, budget=20000),
        )
        for build in builds:
            try:
                net = build()
            except (BudgetExceeded, InfeasibleNet, PreconditionViolated):
                continue
            assert_ascending(net.tuples, t)


class TestCanonicalFamilies:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4), st.integers(-5, 5)), max_size=14),
           st.integers(1, 4))
    def test_segment_tuples_are_ascending(self, shapes, k):
        # even starts and odd ends: no segment ends where another starts; the
        # y-order often differs from the index order
        segs = [Segment("horizontal", float(y), 2.0 * lo, 2.0 * (lo + w) - 1) for lo, w, y in shapes]
        assert_ascending(canonical_segment_tuples(segs, k).tuples, k)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=14),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 6)), max_size=6),
           st.integers(1, 3))
    def test_shrink_tuples_are_ascending(self, pts, discs, t):
        g = BipartiteIntersectionGraph.from_families(
            [Point(x / 2, y / 2) for x, y in pts], [Disc(Point(x / 2, y / 2), r / 2) for x, y, r in discs])
        assert_ascending(shrink_canonical_tuples(g, t).tuples, t)
