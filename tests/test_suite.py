"""The battery's array oracles against the scalar forms they replaced: the
closed-box pair count against `intersects` pair by pair, `naive_ktt_free`
against `ktt_oracle.all_pairs_ktt_free`, and `bisection_exits` against the
scalar bisection in `shrink_oracle`."""

import dataclasses
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ktt_oracle import all_pairs_ktt_free
from shrink_oracle import bisection_exit

from ztnet import geometry, hypergraph, suite, zarankiewicz
from ztnet.geometry import AxisRect, Disc, Frame, Point, intersects
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.rectangles import intersection_type_census

# spans on a coarse grid of step 1/4: rects share coordinates, touch along
# edges and at corners, or sit one step apart
_SPAN = st.lists(st.integers(-4, 4), min_size=2, max_size=2, unique=True).map(lambda ks: sorted(k * 0.25 for k in ks))
_RECT = st.tuples(_SPAN, _SPAN).map(lambda s: AxisRect(*s[0], *s[1]))
_UNIT = AxisRect(0.0, 1.0, 0.0, 1.0)
_BESIDE = [AxisRect(1.0, 2.0, 0.0, 1.0), AxisRect(1.0, 2.0, 1.0, 2.0), AxisRect(1.25, 2.0, 0.0, 1.0)]


def bip(m, n, edges):
    return BipartiteIntersectionGraph.from_edges(m, n, edges)


class TestClosedBoxPairCount:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RECT, max_size=8), st.lists(_RECT, max_size=8))
    @example([_UNIT], _BESIDE)
    @example(_BESIDE, [_UNIT, _UNIT])
    @example([], [_UNIT])
    def test_matches_scalar_predicate(self, fa, fb):
        assert suite.closed_box_pair_count(fa, fb) == sum(intersects(a, b) for a in fa for b in fb)

    def test_touching_edge_and_corner_meet(self):
        # an edge shared, a corner shared, and a gap of 1/4
        assert suite.closed_box_pair_count([_UNIT], _BESIDE) == 2

    @pytest.mark.parametrize("seed", [7, 9001])
    def test_matches_census_and_scalar_count_on_suite_instances(self, seed):
        cfg = suite.full_config(seed)
        for i in range(5):
            fa, fb = suite.rect_instance(cfg.census_n, suite.derive_seed(seed, "census", i), 0.05, 0.3)
            count = suite.closed_box_pair_count(fa, fb)
            assert count == sum(intersects(a, b) for a in fa for b in fb) == intersection_type_census(fa, fb).total
            assert count > 0

    @pytest.mark.parametrize("other", [Frame(0.0, 1.0, 0.0, 1.0), Point(0.5, 0.5), Disc(Point(0.5, 0.5), 0.25)])
    def test_other_kinds_raise(self, other):
        for fa, fb in (([_UNIT, other], [_UNIT]), ([_UNIT], [other])):
            with pytest.raises(TypeError, match=type(other).__name__):
                suite.closed_box_pair_count(fa, fb)


class TestNaiveKttFree:
    @pytest.mark.parametrize("m, n, t, free", [
        (2, 5, 3, True),  # t > m: no t-subset of A
        (0, 4, 2, True),
        (4, 0, 2, True),
        (0, 0, 2, True),
        (3, 3, 3, False),
        (3, 2, 3, True),  # t > n: no t common neighbours
    ])
    def test_empty_and_small_sides(self, m, n, t, free):
        g = bip(m, n, {(i, j) for i in range(m) for j in range(n)})
        assert suite.naive_ktt_free(g, t) == all_pairs_ktt_free(g, t) == free

    @pytest.mark.parametrize("cells", [1, 20, 64])
    def test_chunk_boundaries(self, cells):
        # chunks of one subset, or of a few, end inside the subset order
        rng = random.Random(cells)
        answers = set()
        with mock.patch.object(suite, "_CHUNK_CELLS", cells):
            for _ in range(60):
                m, n = rng.randint(0, 9), rng.randint(0, 9)
                p = rng.uniform(0.2, 0.8)
                g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p})
                for t in (1, 2, 3):
                    free = suite.naive_ktt_free(g, t)
                    answers.add(free)
                    assert free == all_pairs_ktt_free(g, t)
        assert answers == {True, False}


def _paths(rng, count):
    """Discs, anchors and points drawn as check_shrink draws them."""
    out = []
    for _ in range(count):
        cx, cy, r = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.1, 2.0)
        ends = []
        for _ in range(2):
            rad, ang = r * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
            ends.append(Point(cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
        out.append((Disc(Point(cx, cy), r), *ends))
    return out


class TestBisectionExits:
    def test_matches_scalar_bisection(self):
        paths = _paths(random.Random(5), 2000)
        # a point on or outside the disc exits at 0
        paths += [(Disc(Point(0.0, 0.0), 1.0), Point(0.0, 0.0), Point(x, 0.0)) for x in (1.0, 1.5, -3.0)]
        exits = suite.bisection_exits([(d.center.x, d.center.y, d.radius, a.x, a.y, p.x, p.y) for d, a, p in paths])
        for (d, a, p), s in zip(paths, exits.tolist()):
            # np.hypot and math.hypot may differ in the last bit, so the two
            # bisections may part in their last halvings
            assert math.isclose(s, bisection_exit(d, a, p), rel_tol=1e-12, abs_tol=1e-15)
        assert exits[-3:].tolist() == [0.0, 0.0, 0.0]
        for iters in (0, 1):  # the midpoint of [0, 1], then of one halving
            rows = [(d.center.x, d.center.y, d.radius, a.x, a.y, p.x, p.y) for d, a, p in paths[:50]]
            for (d, a, p), s in zip(paths, suite.bisection_exits(rows, iters).tolist()):
                assert math.isclose(s, bisection_exit(d, a, p, iters), rel_tol=1e-12, abs_tol=1e-15)


class TestGuards:
    """The array oracles make no per-pair or per-path scalar calls, and read
    nothing of the grid kernel or the witness search they check."""

    def test_check_census_makes_no_scalar_pair_calls(self, monkeypatch):
        # every scalar rect pair test goes through this entry; the grid kernel
        # itself probes one representative pair per census call
        calls = []
        real = geometry._DISPATCH[(AxisRect, AxisRect)]
        monkeypatch.setitem(geometry._DISPATCH, (AxisRect, AxisRect), lambda a, b: calls.append(1) or real(a, b))
        cfg = dataclasses.replace(suite.desk_config(7), census_instances=4)
        assert suite.check_census(cfg)[0].observed == "identity_failures=0"
        assert len(calls) == cfg.census_instances

    def test_check_shrink_makes_no_scalar_bisection_calls(self, monkeypatch):
        calls = []
        real = suite.bisection_exits
        monkeypatch.setattr(suite, "bisection_exits", lambda paths: calls.append(len(paths)) or real(paths))
        cfg = suite.desk_config(7)
        assert suite.check_shrink(cfg, [])[0].observed == "mismatches=0"
        assert calls == [cfg.shrink_triples]

    def test_check_shrink_makes_one_exit_kernel_call(self, monkeypatch):
        # one call over the seven path columns, each as long as the triples
        calls = []
        real = suite.exit_parameters
        monkeypatch.setattr(suite, "exit_parameters", lambda *cols: calls.append([len(c) for c in cols]) or real(*cols))
        cfg = suite.desk_config(7)
        assert suite.check_shrink(cfg, [])[0].observed == "mismatches=0"
        assert calls == [[cfg.shrink_triples] * 7]

    @pytest.mark.parametrize("shift, mismatches", [(1e-6, 150), (1e-13, 0)])
    def test_check_shrink_counts_mismatches(self, monkeypatch, shift, mismatches):
        # exits moved by more than abs_tol = 1e-12 (and rel_tol * s <= 1e-9) all
        # mismatch; moved by less, none does
        real = suite.exit_parameters
        monkeypatch.setattr(suite, "exit_parameters", lambda *cols: real(*cols) + shift)
        cfg = suite.desk_config(7)
        assert cfg.shrink_triples == 150
        assert suite.check_shrink(cfg, [])[0].observed == f"mismatches={mismatches}"

    def test_oracles_read_no_grid_or_search(self):
        fail = mock.Mock(side_effect=AssertionError("fast path reached"))
        with mock.patch.multiple(hypergraph, _edge_blocks=fail, _fields=fail, _candidates=fail), \
                mock.patch.object(zarankiewicz, "BicliqueSearch", fail):
            assert suite.closed_box_pair_count([_UNIT], _BESIDE) == 2
            assert suite.naive_ktt_free(bip(3, 3, {(i, j) for i in range(3) for j in range(3)}), 2) is False
            assert suite.bisection_exits([(0.0, 0.0, 1.0, 0.0, 0.0, 0.5, 0.0)])[0] == pytest.approx(0.5)
        fail.assert_not_called()
