import math
import random

import pytest
from containment_oracle import rows_graph
from containment_oracle import uncovered as row_side_uncovered
from hypothesis import example, given, settings
from hypothesis import strategies as st
from shrink_oracle import bisection_exit

from ztnet.errors import PreconditionViolated
from ztnet.generators import GenParams, generate, prune_to_ktt_free
from ztnet.geometry import Disc, Point, point_in_disc
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.points_pseudodiscs import (
    _uncovered,
    counting_inequality_check,
    coverage_violations,
    shrink_canonical_tuples,
    shrink_events,
)


def pd_instance(n_pts, n_discs, seed):
    pts = generate("random_points", n_pts, None, 2 * seed)
    discs = generate(
        "random_discs", n_discs, GenParams(radius_lo=0.08, radius_hi=0.2), 2 * seed + 1
    )
    return pts, discs


def pruned_pd_graph(n_pts, n_discs, seed):
    """The K_{2,2}-free incidence graph left after pruning `pd_instance`."""
    return prune_to_ktt_free(BipartiteIntersectionGraph.from_families(*pd_instance(n_pts, n_discs, seed)), 2).graph


class TestShrinkEvents:
    def test_anchor_only_sentinel(self):
        d = Disc(Point(0, 0), 1)
        anchor = Point(0.2, 0.1)
        events = shrink_events(d, anchor, [anchor])
        assert len(events) == 1
        assert events[0].s == 1.0 and events[0].remaining == frozenset({0})

    def test_quadratic_example(self):
        d = Disc(Point(0, 0), 2)
        anchor = Point(1, 0)
        events = shrink_events(d, anchor, [anchor, Point(0, 1.5)])
        expected = (8 - math.sqrt(43)) / 6
        assert events[0].lost_point == 1
        assert math.isclose(events[0].s, expected, rel_tol=1e-12)
        assert events[0].remaining == frozenset({0})
        assert events[-1].remaining == frozenset({0})

    def test_boundary_point_exits_immediately(self):
        d = Disc(Point(0, 0), 1)
        events = shrink_events(d, Point(0, 0), [Point(1, 0)])
        assert events[0].s == 0.0

    def test_preconditions(self):
        d = Disc(Point(0, 0), 1)
        with pytest.raises(PreconditionViolated):
            shrink_events(d, Point(5, 5), [])
        with pytest.raises(PreconditionViolated):
            shrink_events(d, Point(0, 0), [Point(3, 0)])

    def test_matches_bisection_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            cx, cy, r = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 3)
            d = Disc(Point(cx, cy), r)

            def inside():
                rad = r * math.sqrt(rng.random())
                ang = rng.uniform(0, 2 * math.pi)
                return Point(cx + rad * math.cos(ang), cy + rad * math.sin(ang))

            anchor, p = inside(), inside()
            if p == anchor:
                continue
            s_impl = shrink_events(d, anchor, [p])[0].s
            s_oracle = bisection_exit(d, anchor, p)
            assert math.isclose(s_impl, s_oracle, rel_tol=1e-9, abs_tol=1e-12)

    def test_chain_monotone_and_anchor_persists(self):
        rng = random.Random(4)
        d = Disc(Point(0, 0), 1)
        anchor = Point(0.1, -0.2)
        pts = [anchor]
        for _ in range(12):
            rad = math.sqrt(rng.random())
            ang = rng.uniform(0, 2 * math.pi)
            pts.append(Point(rad * math.cos(ang), rad * math.sin(ang)))
        events = shrink_events(d, anchor, pts)
        prev_s = 0.0
        prev_remaining = frozenset(range(len(pts)))
        for ev in events[:-1]:
            assert ev.s >= prev_s
            assert ev.remaining < prev_remaining
            assert 0 in ev.remaining  # anchor index
            prev_s, prev_remaining = ev.s, ev.remaining


class TestCanonicalTuples:
    def test_exact_t_disc_contributes(self):
        pts = [Point(0.1, 0), Point(-0.1, 0)]
        fam = shrink_canonical_tuples(BipartiteIntersectionGraph.from_families(pts, [Disc(Point(0, 0), 1)]), 2)
        assert (0, 1) in fam.tuples

    def test_small_disc_contributes_nothing(self):
        pts = [Point(0.1, 0)]
        fam = shrink_canonical_tuples(BipartiteIntersectionGraph.from_families(pts, [Disc(Point(0, 0), 1)]), 2)
        assert fam.tuples == frozenset()

    def test_matches_trajectory_oracle(self):
        pts, discs = pd_instance(30, 10, seed=3)
        fam = shrink_canonical_tuples(BipartiteIntersectionGraph.from_families(pts, discs), 2)
        oracle = set()
        for b in discs:
            contained = [i for i, p in enumerate(pts) if point_in_disc(p, b)]
            if len(contained) == 2:
                oracle.add(tuple(contained))
            for anchor in contained:
                # replay the trajectory with bisection-based exit parameters
                exits = []
                for i in contained:
                    if pts[i] == pts[anchor]:
                        continue
                    exits.append((bisection_exit(b, pts[anchor], pts[i]), i))
                exits.sort()
                current = set(contained)
                pos = 0
                while pos < len(exits):
                    s = exits[pos][0]
                    while pos < len(exits) and math.isclose(
                        exits[pos][0], s, rel_tol=1e-12, abs_tol=1e-12
                    ):
                        current.discard(exits[pos][1])
                        pos += 1
                    if len(current) == 2:
                        oracle.add(tuple(sorted(current)))
        assert fam.tuples == frozenset(oracle)

    def test_coverage_invariant(self):
        for seed in range(8):
            g = BipartiteIntersectionGraph.from_families(*pd_instance(40, 15, seed))
            assert coverage_violations(g, 2) == []
            assert coverage_violations(g, 3) == []


class TestCoverage:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), max_size=4).map(tuple), max_size=12),
        st.lists(st.sets(st.integers(0, 7)).map(sorted), max_size=10),  # indices 8 and 9 in no row
        st.integers(0, 4),
    )
    @example([()], [[0, 1, 2], []], 0)  # the empty tuple covers no index
    @example([(0, 1), (0, 1)], [[0, 1, 2], [0, 1]], 2)  # a duplicated tuple
    @example([(0, 9)], [[0, 1]], 2)  # a tuple with an index that no row holds
    @example([(0, 1)], [], 2)  # no rows
    def test_uncovered_matches_row_side_scan(self, tuples, rows, t):
        assert _uncovered(tuples, rows_graph(rows, 10), t) == row_side_uncovered(tuples, rows, t)


class TestCountingChains:
    def test_no_discs(self):
        rep = counting_inequality_check(BipartiteIntersectionGraph.from_families([Point(0, 0)], []), 2)
        assert rep.degrees == [] and rep.x_sum == 0 and rep.family_size == 0

    def test_single_disc_exact_t(self):
        pts = [Point(0.1, 0), Point(-0.1, 0)]
        rep = counting_inequality_check(BipartiteIntersectionGraph.from_families(pts, [Disc(Point(0, 0), 1)]), 2)
        assert rep.lower_sum == 1 and rep.x_sum == 1 and rep.x_upper == 1

    def test_chain_on_pruned_instances(self):
        for seed in range(5):
            g = pruned_pd_graph(60, 40, seed)
            rep = counting_inequality_check(g, 2)
            assert rep.lower_sum <= rep.x_sum <= rep.x_upper
            assert sum(rep.degrees) == g.edge_count

    def test_tuple_multiplicity_on_free_instances(self):
        # a canonical t-tuple fits inside at most t-1 discs once no K_{t,t} remains
        for seed in range(4):
            g = pruned_pd_graph(50, 30, seed)
            kept_pts, kept_discs = g.side_a, g.side_b
            fam = shrink_canonical_tuples(g, 2)
            for tup in fam.tuples:
                holders = sum(
                    1
                    for b in kept_discs
                    if all(point_in_disc(kept_pts[i], b) for i in tup)
                )
                assert holders <= 1
