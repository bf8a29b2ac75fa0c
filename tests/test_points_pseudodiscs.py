import math
import random

import numpy as np
import pytest
from containment_oracle import rows_graph
from containment_oracle import uncovered as row_side_uncovered
from hypothesis import example, given, settings
from hypothesis import strategies as st
from shrink_oracle import _exit_parameter, bisection_exit, event_canonical_tuples, event_cut_ties

from ztnet.errors import DegenerateInput, PreconditionViolated
from ztnet.generators import GenParams, generate, prune_to_ktt_free
from ztnet.geometry import AxisRect, Disc, Point, point_in_disc
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.points_pseudodiscs import (
    _uncovered,
    counting_inequality_check,
    coverage_violations,
    exit_parameters,
    shrink_canonical_tuples,
    shrink_exits,
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


_GRID = st.integers(-4, 4)  # coordinates in quarters


@st.composite
def grid_paths(draw):
    """(cx, cy, r, ax, ay, px, py) on the step-1/4 grid, anchor and point in the
    disc: many sit on the circle, where a point exits at 0 and an anchor makes
    the leading coefficient 0 exactly (radius 5/4 adds the 3-4-5 offsets)."""
    cx, cy, k = draw(_GRID), draw(_GRID), draw(st.integers(1, 5))
    offset = st.tuples(st.integers(-k, k), st.integers(-k, k)).filter(lambda o: o[0] ** 2 + o[1] ** 2 <= k * k)
    (ax, ay), (px, py) = draw(offset), draw(offset)
    return tuple(v / 4 for v in (cx, cy, k, cx + ax, cy + ay, cx + px, cy + py))


@st.composite
def float_paths(draw):
    """(cx, cy, r, ax, ay, px, py) in floats, anchor and point drawn inside the disc."""
    cx, cy, r = draw(st.floats(-100, 100)), draw(st.floats(-100, 100)), draw(st.floats(1e-3, 100))
    ends = []
    for _ in range(2):
        rad, ang = r * draw(st.floats(0, 1)), draw(st.floats(0, 2 * math.pi))
        ends += [cx + rad * math.cos(ang), cy + rad * math.sin(ang)]
    return (cx, cy, r, *ends)


class TestExitParameters:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(grid_paths(), float_paths()), min_size=1, max_size=20))
    @example([(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.5)])  # the anchor on the circle: linear in s
    @example([(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.5, 0.0, 0.5, 0.0)])  # p on the circle; p at the anchor
    def test_matches_scalar_oracle(self, paths):
        # the kernel's float operations are the scalar's, in the same order,
        # so every exit is equal, and none is NaN on a contained point
        exits = exit_parameters(*np.array(paths).T)
        assert not np.isnan(exits).any()
        for (cx, cy, r, ax, ay, px, py), s in zip(paths, exits.tolist()):
            assert point_in_disc(Point(px, py), Disc(Point(cx, cy), r))
            assert s == _exit_parameter(Point(px, py), Point(cx, cy), r, Point(ax, ay))


class TestShrinkEvents:
    """The loss events `shrink_exits` returns: (s, i) pairs sorted by exit
    parameter, then index, with the anchor's copies left out."""

    def test_anchor_only_sentinel(self):
        # the anchor never exits, and no terminator closes the list
        d = Disc(Point(0, 0), 1)
        anchor = Point(0.2, 0.1)
        assert shrink_exits(d, anchor, [anchor]) == []

    def test_quadratic_example(self):
        d = Disc(Point(0, 0), 2)
        anchor = Point(1, 0)
        [(s, i)] = shrink_exits(d, anchor, [anchor, Point(0, 1.5)])
        assert i == 1
        assert math.isclose(s, (8 - math.sqrt(43)) / 6, rel_tol=1e-12)

    def test_boundary_point_exits_immediately(self):
        d = Disc(Point(0, 0), 1)
        assert shrink_exits(d, Point(0, 0), [Point(1, 0)]) == [(0.0, 0)]

    def test_preconditions(self):
        d = Disc(Point(0, 0), 1)
        with pytest.raises(PreconditionViolated, match="anchor"):
            shrink_exits(d, Point(5, 5), [])
        with pytest.raises(PreconditionViolated, match="point"):
            shrink_exits(d, Point(0, 0), [Point(3, 0)])

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
            s_impl = shrink_exits(d, anchor, [p])[0][0]
            s_oracle = bisection_exit(d, anchor, p)
            assert math.isclose(s_impl, s_oracle, rel_tol=1e-9, abs_tol=1e-12)

    def test_chain_monotone_and_anchor_persists(self):
        # sorted by (s, i), the anchor and its copy absent, every other index once
        rng = random.Random(4)
        d = Disc(Point(0, 0), 1)
        anchor = Point(0.1, -0.2)
        pts = [anchor]
        for _ in range(12):
            rad = math.sqrt(rng.random())
            ang = rng.uniform(0, 2 * math.pi)
            pts.append(Point(rad * math.cos(ang), rad * math.sin(ang)))
        pts += [Point(1, 0), Point(0.1, -0.2), Point(-1, 0)]  # two on the circle, a copy of the anchor
        exits = shrink_exits(d, anchor, pts)
        assert exits == sorted(exits)
        assert sorted(i for _, i in exits) == [i for i in range(len(pts)) if pts[i] != anchor]
        assert all(0.0 <= s <= 1.0 for s, _ in exits) and exits[:2] == [(0.0, 13), (0.0, 15)]


def grid_graph(pts, discs):
    """The incidence graph of points and discs on the step-1/4 grid."""
    return BipartiteIntersectionGraph.from_families(
        [Point(x / 4, y / 4) for x, y in pts], [Disc(Point(x / 4, y / 4), r / 4) for x, y, r in discs])


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_GRID, _GRID), max_size=12),
           st.lists(st.tuples(_GRID, _GRID, st.integers(1, 4)), max_size=4),
           st.integers(1, 4))
    @example([(0, 0), (1, 0), (-1, 0)], [(0, 0, 2)], 2)  # the centre's two exits tie across the cut
    @example([(0, 0)] * 3 + [(1, 0)], [(0, 0, 2)], 2)  # more than t copies of the anchor
    @example([(0, 0)] * 2 + [(1, 0)], [(0, 0, 2)], 2)  # exactly t copies
    @example([(1, 0), (-1, 0)], [(0, 0, 4)], 2)  # a disc of exactly t points
    @example([(-2, 0)] * 2 + [(2, 0), (2, 1)], [(0, 0, 4)], 2)  # copies, no tie across the cut
    @example([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 0, 2)], 2)  # the four-point file
    def test_matches_event_oracle(self, pts, discs, t):
        # grid points repeat, sit on circles (exit at s = 0) and tie exactly;
        # the first disc and anchor where the oracle's path skips t points
        # are refused, else the families agree
        g = grid_graph(pts, discs)
        if ties := event_cut_ties(g, t):
            j, a = ties[0]
            with pytest.raises(DegenerateInput, match=rf"^disc {j} shrunk toward anchor point {a}: .*general position$"):
                shrink_canonical_tuples(g, t)
        else:
            assert shrink_canonical_tuples(g, t).tuples == event_canonical_tuples(g, t)

    def test_tie_across_the_cut_gives_no_tuple(self):
        # toward the centre both mirror points leave at once, from 3 points to
        # 1, so no pair is ever left there and the points are refused
        g = grid_graph([(0, 0), (1, 0), (-1, 0)], [(0, 0, 2)])
        (s1, _), (s2, _) = shrink_exits(g.side_b[0], g.side_a[0], list(g.side_a))
        assert s1 == s2
        assert event_cut_ties(g, 2) == [(0, 0)]
        message = ("disc 0 shrunk toward anchor point 0: points [1, 2] leave it at once, from more than 2 "
                   "points to fewer; the shrink tuples need points in general position")
        with pytest.raises(DegenerateInput) as exc:
            shrink_canonical_tuples(g, 2)
        assert str(exc.value) == message
        # a tie that does not cross the cut is no degeneracy: at t = 1 the
        # centre is the last point left
        assert shrink_canonical_tuples(g, 1).tuples == {(0,), (1,), (2,)}
        # toward an anchor on the circle, its copy never leaves, though its
        # exit parameter is 0 like the other points on the circle
        g = grid_graph([(4, 0), (4, 0), (0, 4), (-4, 0), (0, -4)], [(0, 0, 4)])
        with pytest.raises(DegenerateInput, match=r"^disc 0 shrunk toward anchor point 0: points \[2, 3, 4\] leave"):
            shrink_canonical_tuples(g, 3)

    @pytest.mark.parametrize("copies, expected", [(3, {(3, 4)}), (2, {(0, 1), (2, 3)})])
    def test_anchor_copies(self, copies, expected):
        # more than t copies never thin out to t; exactly t copies are the
        # tuple toward the copies.  Toward the two far points the copies leave
        # first, all at once but before the cut, and the far pair is left
        g = grid_graph([(-2, 0)] * copies + [(2, 0), (2, 1)], [(0, 0, 4)])
        assert event_cut_ties(g, 2) == []
        assert shrink_canonical_tuples(g, 2).tuples == expected
        # next to one other point the copies leave at once across the cut
        with pytest.raises(DegenerateInput, match=r"points \[0, 1(, 2)?\] leave it at once"):
            shrink_canonical_tuples(grid_graph([(0, 0)] * copies + [(1, 0)], [(0, 0, 2)]), 2)

    @pytest.mark.parametrize("side_a, side_b, side", [
        ([Disc(Point(0, 0), 1)], [Disc(Point(0.5, 0), 1)], "a"),
        ([Point(0, 0)], [AxisRect(-1, 1, -1, 1)], "b"),
        ([Disc(Point(0, 0), 1)], [Point(0, 0)], "a"),
    ])
    @pytest.mark.parametrize("entry", [shrink_canonical_tuples, coverage_violations, counting_inequality_check])
    def test_kind_check(self, side_a, side_b, side, entry):
        g = BipartiteIntersectionGraph.from_families(side_a, side_b)
        with pytest.raises(PreconditionViolated, match=f"side {side} must"):
            entry(g, 2)

    def test_list_sides_are_refused(self):
        # the tuples read the families' columns, which `from_edges`' lists lack
        g = BipartiteIntersectionGraph.from_edges([Point(0, 0), Point(0.1, 0)], [Disc(Point(0, 0), 1)], [(0, 0), (1, 0)])
        with pytest.raises(PreconditionViolated, match="side a must contain points only"):
            shrink_canonical_tuples(g, 1)

    def test_builds_no_objects(self):
        g = BipartiteIntersectionGraph.from_families(*pd_instance(40, 15, seed=2))
        assert shrink_canonical_tuples(g, 2).size() > 0 and coverage_violations(g, 3) == []
        assert g.side_a._objects is None and g.side_b._objects is None

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
