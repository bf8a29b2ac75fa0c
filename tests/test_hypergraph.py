import dataclasses
import gc
import itertools
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from box_oracle import dense_pairs, intersection_matrix
from containment_oracle import contained_counts as row_side_counts
from containment_oracle import counting_chain as row_side_chain
from graph_oracle import TupleGraph, TupleSetGraph, edge_set, hyperedges, hypergraph_of, mask_of, set_of
from net_oracle import induced_subhypergraph
from round_oracle import dense_edges, round_matrix

from ztnet import hypergraph
from ztnet.errors import InequalityViolated
from ztnet.generators import GenParams, generate
from ztnet.geometry import (
    REL_TOL,
    AxisRect,
    Disc,
    Frame,
    Point,
    Segment,
    intersects,
    point_in_disc,
)
from ztnet.hypergraph import (
    BipartiteIntersectionGraph,
    Graph,
    Hypergraph,
    bits_of,
    contained_counts,
    counting_chain,
    delaunay_graph,
    dual_hypergraph,
    primal_hypergraph,
    vc_dimension,
)
from ztnet.suite import scaled_disc_instance, scaled_rect_instance


def fs(*xs):
    return frozenset(xs)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 9))
    n_edges = draw(st.integers(0, 7))
    edges = [
        frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n))) for _ in range(n_edges)
    ]
    return hypergraph_of(n, edges)


def bip(m, n, edges):
    return BipartiteIntersectionGraph.from_edges([None] * m, [None] * n, edges)


def pairs(g):
    """The graph's edges in stored (row-major) order."""
    return list(zip(g.rows.tolist(), g.cols.tolist()))


class TestPrimalDual:
    def test_primal_examples(self):
        g = bip(2, 1, {(0, 0), (1, 0)})
        assert hyperedges(primal_hypergraph(g)) == [fs(0, 1)]
        g2 = bip(3, 2, set())
        assert hyperedges(primal_hypergraph(g2)) == [frozenset(), frozenset()]
        g3 = bip(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        h3 = primal_hypergraph(g3)
        assert hyperedges(h3) == [fs(0, 1), fs(0, 1)]

    def test_dual_examples(self):
        g = bip(1, 2, {(0, 0), (0, 1)})
        assert hyperedges(dual_hypergraph(g)) == [fs(0, 1)]
        g3 = bip(3, 2, {(i, j) for i in range(3) for j in range(2)})
        assert hyperedges(dual_hypergraph(g3)) == [fs(0, 1)] * 3

    def test_hypergraphs_hold_the_graph_masks(self):
        g = bip(3, 2, {(0, 1), (2, 1), (1, 0)})
        assert primal_hypergraph(g).edges is g.nbrs_b
        assert dual_hypergraph(g).edges is g.nbrs_a

    @settings(max_examples=100)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_duality(self, m, n, data):
        pairs = [(i, j) for i in range(m) for j in range(n)]
        chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        g = bip(m, n, chosen)
        swapped = bip(n, m, {(j, i) for i, j in chosen})
        assert dual_hypergraph(g).edges == primal_hypergraph(swapped).edges


class TestInduced:
    def test_examples(self):
        h = hypergraph_of(3, [fs(0, 1, 2)])
        assert hyperedges(induced_subhypergraph(h, {0, 1})) == [fs(0, 1)]
        empty = induced_subhypergraph(h, set())
        assert empty.vertex_count == 0 and hyperedges(empty) == [frozenset()]
        h2 = hypergraph_of(3, [fs(0, 1), fs(1, 2)])
        sub = induced_subhypergraph(h2, {1})
        assert hyperedges(sub) == [fs(0), fs(0)]

    def test_reindexing_is_sorted(self):
        h = hypergraph_of(5, [fs(1, 4), fs(2)])
        sub = induced_subhypergraph(h, {4, 1})
        assert sub.vertex_count == 2
        assert hyperedges(sub) == [fs(0, 1), frozenset()]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced_subhypergraph(Hypergraph(2, []), {5})

    @settings(max_examples=80)
    @given(hypergraphs(), st.data())
    def test_vc_monotone_under_induced(self, h, data):
        keep = data.draw(st.sets(st.integers(0, h.vertex_count - 1)))
        sub = induced_subhypergraph(h, keep)
        assert vc_dimension(sub, cap=5).vc_dim <= vc_dimension(h, cap=5).vc_dim


class TestDelaunay:
    def test_examples(self):
        h = hypergraph_of(3, [fs(0, 1), fs(0, 1, 2), fs(2)])
        assert edge_set(delaunay_graph(h)) == {(0, 1)}
        assert edge_set(delaunay_graph(hypergraph_of(3, [fs(0), fs(0, 1, 2)]))) == set()
        h2 = hypergraph_of(3, [fs(0, 1), fs(1, 2), fs(0, 1)])
        assert edge_set(delaunay_graph(h2)) == {(0, 1), (1, 2)}

    def test_disc_delaunay_euler_hereditarily(self):
        # the planarity hypothesis with C=3 on sampled induced subhypergraphs
        rng = random.Random(11)
        for trial in range(5):
            fam_a = generate("random_discs", 30, GenParams(radius_hi=0.2), 2 * trial)
            fam_b = generate("random_discs", 30, GenParams(radius_hi=0.2), 2 * trial + 1)
            g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
            h = primal_hypergraph(g)
            for _ in range(40):
                keep = rng.sample(range(30), rng.randint(0, 30))
                sub = induced_subhypergraph(h, keep)
                graph = delaunay_graph(sub)
                assert len(graph.rows) < 3 * max(len(keep), 1)


class TestVC:
    def test_examples(self):
        prof = vc_dimension(hypergraph_of(2, [fs(0), fs(0, 1)]))
        assert prof.vc_dim == 1 and not prof.cap_reached
        all_subsets = hypergraph_of(2, [frozenset(), fs(0), fs(1), fs(0, 1)])
        assert vc_dimension(all_subsets).vc_dim == 2
        assert vc_dimension(all_subsets, cap=2).cap_reached

    def test_witness_is_shattered(self):
        h = hypergraph_of(4, itertools.chain.from_iterable(
            itertools.combinations(range(3), k) for k in range(4)))
        prof = vc_dimension(h)
        traces = {e & prof.witness_shattered_set for e in hyperedges(h)}
        assert len(traces) == 2 ** prof.vc_dim

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(st.sets(st.integers(0, n - 1)), max_size=40).map(
        lambda edges: hypergraph_of(n, edges))), st.integers(0, 5))
    def test_matches_trace_set_oracle(self, h, cap):
        # the first shattered combo per size, found from each combo's set of traces
        edges = {frozenset(e) for e in h.edges}
        best, witness = 0, frozenset()
        for size in range(1, min(cap, h.vertex_count) + 1):
            combo = next((c for c in itertools.combinations(range(h.vertex_count), size)
                          if len({e.intersection(c) for e in edges}) == 2**size), None)
            if combo is None:
                break
            best, witness = size, frozenset(combo)
        prof = vc_dimension(h, cap)
        assert (prof.vc_dim, prof.witness_shattered_set, prof.cap_reached) == (best, witness, best == cap)

    def test_disc_disc_vc_at_most_4(self):
        for seed in range(8):
            fam_a = generate("random_discs", 8, GenParams(radius_hi=0.35), 100 + seed)
            fam_b = generate("random_discs", 8, GenParams(radius_hi=0.35), 200 + seed)
            g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
            assert vc_dimension(primal_hypergraph(g), cap=6).vc_dim <= 4


class TestSmallHyperedgeScaling:
    def test_ratio_bounded_across_doubling_sizes(self):
        # linear growth at fixed t: disc radii ~ 1/sqrt(n) keep the local
        # geometry comparable while n doubles
        import math as _math

        ratios = []
        for n in (50, 100, 200, 400):
            lo, hi = 0.25 / _math.sqrt(n), 0.75 / _math.sqrt(n)
            fam_a = generate("random_discs", n, GenParams(radius_lo=lo, radius_hi=hi), n)
            fam_b = generate("random_discs", n, GenParams(radius_lo=lo, radius_hi=hi), n + 1)
            g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
            small = {tuple(e) for e in g.nbrs_b if 1 <= len(e) <= 3}
            ratios.append(len(small) / n)
        assert max(ratios) <= 2.5 * max(ratios[0], 0.5), ratios


BLOCK_ROWS = 256  # rows of A per block in the chunk-boundary test


class TestIntersectionMatrix:
    def test_matches_scalar_predicate(self):
        rng = random.Random(3)

        def on_grid():  # a coarse shared grid: shared corners, touching boxes, tangency
            return rng.randrange(5) * 0.25

        def span():
            lo, hi = sorted(rng.sample(range(5), 2))
            return lo * 0.25, hi * 0.25

        def unit_span():
            return sorted((rng.random(), rng.random()))

        discs = generate("random_discs", 12, None, 5)
        points = generate("random_points", 12, None, 6)
        rects = generate("random_rects", 12, None, 7)
        frames = generate("random_frames", 12, GenParams(parity=1), 8)
        grid_points = [Point(on_grid(), on_grid()) for _ in range(12)]
        grid_discs = [Disc(Point(on_grid(), on_grid()), rng.choice((0.25, 0.5))) for _ in range(8)]
        grid_rects = [AxisRect(*span(), *span()) for _ in range(8)]
        grid_frames = [Frame(*span(), *span()) for _ in range(8)]
        shapes = {
            "discs": discs,
            "points": points,
            "rects": rects,
            "frames": frames,
            "point/rect/frame": points[:4] + rects[:4] + frames[:4],
            "point/disc": points[:6] + discs[:6],
            "grid points": grid_points,
            "grid discs": grid_discs,
            "grid point/disc": grid_points + grid_discs,
            "grid point/rect/frame": grid_points + grid_rects + grid_frames,
        }
        segments = {
            "horizontal": [Segment("horizontal", rng.random(), *unit_span()) for _ in range(12)],
            "vertical": [Segment("vertical", rng.random(), *unit_span()) for _ in range(12)],
            "grid horizontal": [Segment("horizontal", on_grid(), *span()) for _ in range(10)],
            "grid vertical": [Segment("vertical", on_grid(), *span()) for _ in range(10)],
        }
        for group in (shapes, segments):
            for fa in group.values():
                for fb in group.values():
                    mat = intersection_matrix(fa, fb)
                    edges = BipartiteIntersectionGraph.from_families(fa, fb).edges
                    round_objects = {type(o) for o in fa + fb} <= {Point, Disc}
                    oracle = round_matrix(fa, fb) if round_objects else mat
                    for i, a in enumerate(fa):
                        for j, b in enumerate(fb):
                            assert mat[i, j] == oracle[i, j] == ((i, j) in edges) == intersects(a, b), (a, b)

    def test_point_disc_tangency_matches_scalar_predicate(self):
        # points at distance r * (1 + REL_TOL) from the centre and one ulp to
        # either side, along both axes, with centres on shared coordinates
        discs = [Disc(Point(0.0, 0.0), 0.1), Disc(Point(0.5, 0.0), 0.3),
                 Disc(Point(0.5, 0.25), 1 / 3), Disc(Point(0.0, 0.25), 0.1)]
        pts = [Point(0.5, 0.0), Point(0.0, 0.25)]
        for d in discs:
            reach = d.radius * (1.0 + REL_TOL)
            for r in (math.nextafter(reach, 0.0), reach, math.nextafter(reach, math.inf)):
                pts += [Point(d.center.x + r, d.center.y), Point(d.center.x, d.center.y - r)]
        expected = [[point_in_disc(p, d) for d in discs] for p in pts]
        transposed = [list(col) for col in zip(*expected)]
        for fa, fb, want in ((pts, discs, expected), (discs, pts, transposed)):
            edges = BipartiteIntersectionGraph.from_families(fa, fb).edges
            got = [[(i, j) in edges for j in range(len(fb))] for i in range(len(fa))]
            assert got == want == round_matrix(fa, fb).tolist()
        assert np.any(expected) and not np.all(expected)

    @pytest.mark.parametrize("m", [0, 1, 255, 256, 257, 513])
    def test_chunked_build_matches_one_shot_matrix(self, m):
        # from_families tests the grid's candidates one block of A at a time;
        # its edges must be the one-shot dense matrix's, for both predicates,
        # in row-major order, wherever the blocks end.  GRID_PAIRS = 1 makes
        # every row a block; the boxes are all candidates of one another, so
        # 256 * 30 ends their blocks after rows 255 and 511.  Rows either side
        # of those touch b[0]: discs at distance (ra + rb) * (1 + REL_TOL)
        # from it and one ulp beyond, and frames, rects and points on its edge.
        rng = random.Random(m)

        def unit_span():
            return sorted((rng.random(), rng.random()))

        touching = {0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS} & set(range(m))
        discs_b = [Disc(Point(0.0, 0.0), 0.05)]
        discs_b += [Disc(Point(rng.random(), rng.random()), rng.uniform(0.01, 0.05)) for _ in range(29)]
        discs_a = []
        for i in range(m):
            r = rng.uniform(0.01, 0.05)
            reach = (r + 0.05) * (1.0 + REL_TOL)
            centre = (
                Point(reach if i % 2 == 0 else math.nextafter(reach, math.inf), 0.0)
                if i in touching
                else Point(rng.random(), rng.random())
            )
            discs_a.append(Disc(centre, r))
        boxes_b = [AxisRect(0.25, 0.5, 0.25, 0.5)]
        boxes_b += [AxisRect(*unit_span(), *unit_span()) for _ in range(29)]
        boxes_a = [
            ((Frame, AxisRect)[i % 2](0.5, 0.75, 0.3, 0.4) if i % 3 else Point(0.5, 0.5))
            if i in touching
            else (Frame, AxisRect)[i % 2](*unit_span(), *unit_span())
            for i in range(m)
        ]
        # tangency at exactly (ra + rb) * (1 + REL_TOL) is an edge, one ulp
        # beyond is not, and every touching box is an edge
        tangent = {i for i in touching if i % 2 == 0}
        for block in (1, 7, BLOCK_ROWS * len(boxes_b), hypergraph.GRID_PAIRS):
            for fa, fb, meet_b0 in ((discs_a, discs_b, tangent), (boxes_a, boxes_b, touching)):
                dense = round_matrix(fa, fb) if fa is discs_a else intersection_matrix(fa, fb)
                with mock.patch.object(hypergraph, "GRID_PAIRS", block):
                    g = BipartiteIntersectionGraph.from_families(fa, fb)
                assert pairs(g) == [(int(i), int(j)) for i, j in np.argwhere(dense)]
                assert {i for i in touching if (i, 0) in g.edges} == meet_b0
                assert all(((i, 0) in g.edges) == intersects(fa[i], fb[0]) for i in touching)

    def test_blocks_end_at_grid_pairs(self):
        # boxes with random unit spans are all candidates of one another, so
        # blocks of BLOCK_ROWS * n pairs are BLOCK_ROWS rows long, as the
        # chunk-boundary test assumes
        rng = random.Random(5)

        def box():
            return AxisRect(*sorted((rng.random(), rng.random())), *sorted((rng.random(), rng.random())))

        fa, fb = [box() for _ in range(600)], [box() for _ in range(30)]
        with mock.patch.object(hypergraph, "GRID_PAIRS", BLOCK_ROWS * len(fb)):
            blocks = list(hypergraph._candidates(hypergraph._fields(fa), hypergraph._fields(fb)))
        assert [np.unique(i).tolist() for i, _ in blocks] == [list(range(0, 256)), list(range(256, 512)), list(range(512, 600))]
        assert all(len(i) == len(j) == len(np.unique(i)) * len(fb) for i, j in blocks)

    def test_from_families_edges(self):
        fam_a = generate("random_discs", 10, None, 1)
        fam_b = generate("random_discs", 10, None, 2)
        g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
        expected = {
            (i, j)
            for i, a in enumerate(fam_a)
            for j, b in enumerate(fam_b)
            if intersects(a, b)
        }
        assert g.edges == expected


@st.composite
def round_families(draw):
    """A side of discs and a side of points, discs or both, either way round.

    Centres sit on a lattice of step 1/4, 1 or the grid's own cell side,
    negative ones included, or anywhere in [-5, 5], sometimes scaled by 1e15
    or 1e300, past _GRID_CELLS cells of side max ra + max rb; some discs are far larger
    than the rest, up to r = 1e308, where the cell side overflows; some pairs
    sit at exactly (ra + rb) * (1 + REL_TOL) along an axis, or one ulp beyond.
    """
    radius = st.one_of(st.sampled_from([0.125, 0.25, 1 / 3, 0.5, 1.0]), st.floats(1e-3, 2.0))
    disc_r = draw(st.lists(radius, max_size=12))
    other_r = draw(st.lists(st.one_of(st.just(0.0), radius), max_size=12))
    huge = draw(st.sampled_from([None, 40.0, 1e308]))
    if huge is not None:
        disc_r.insert(draw(st.integers(0, len(disc_r))), huge)
    side = (max(disc_r, default=0.0) + max(other_r, default=0.0)) * (1 + 4 * REL_TOL)
    step = draw(st.sampled_from([0.25, 1.0] + ([side] if 0 < side < math.inf else [])))
    scale = draw(st.sampled_from([1.0, 1.0, 1e15, 1e300]))  # span/side past _GRID_CELLS
    coord = st.one_of(st.integers(-6, 6).map(lambda k: k * step), st.floats(-5.0, 5.0)).map(lambda c: c * scale)
    centres_d = [[draw(coord), draw(coord)] for _ in disc_r]
    centres_o = [[draw(coord), draw(coord)] for _ in other_r]
    for _ in range(draw(st.integers(0, 4)) if disc_r and other_r else 0):
        i = draw(st.integers(0, len(disc_r) - 1))
        j = draw(st.integers(0, len(other_r) - 1))
        reach = (disc_r[i] + other_r[j]) * (1.0 + REL_TOL)
        reach = draw(st.sampled_from([reach, math.nextafter(reach, math.inf)]))
        axis, sign = draw(st.integers(0, 1)), draw(st.sampled_from([-1.0, 1.0]))
        centres_d[i][axis] = 0.0
        centres_o[j] = list(centres_d[i])
        centres_o[j][axis] = sign * reach
    discs = [Disc(Point(*c), r) for c, r in zip(centres_d, disc_r)]
    others = [Point(*c) if r == 0.0 else Disc(Point(*c), r) for c, r in zip(centres_o, other_r)]
    return (discs, others) if draw(st.booleans()) else (others, discs)


# huge coordinates and radii overflow dx * dx to inf, in the grid as in the
# oracle; the grid warns of none of it (pyproject turns RuntimeWarnings into errors)
class TestRoundGrid:
    @settings(max_examples=400, deadline=None)
    @given(round_families(), st.sampled_from([1, 2, 7, hypergraph.GRID_PAIRS]))
    def test_matches_dense_oracle(self, fams, block):
        # small GRID_PAIRS values put block boundaries inside the instance
        with mock.patch.object(hypergraph, "GRID_PAIRS", block):
            g = BipartiteIntersectionGraph.from_families(*fams)
        dense = dense_edges(*fams)
        assert g.edges == dense
        assert pairs(g) == sorted(dense)  # the stored order is row-major

    def test_tangency_across_two_cell_boundaries(self):
        # A point a hair under ra + rb left of the disc puts the disc just
        # below a boundary of a grid of side ra + rb, and its tangent partner
        # two cells on; the 4 * REL_TOL in the cell side keeps them adjacent.
        # GRID_PAIRS = 1 keeps instances this small on the grid.
        ra, rb = 0.3, 0.2
        reach = (ra + rb) * (1.0 + REL_TOL)
        origin = -(ra + rb) * (1.0 - REL_TOL / 2)
        for flip in (False, True):
            def at(x):
                return Point(0.0, x) if flip else Point(x, 0.0)

            for far in (reach, math.nextafter(reach, math.inf)):
                fa, fb = [Disc(at(0.0), ra)], [Disc(at(far), rb), at(origin)]
                with mock.patch.object(hypergraph, "GRID_PAIRS", 1):
                    g = BipartiteIntersectionGraph.from_families(fa, fb)
                assert ((0, 0) in g.edges) == (far == reach)
                assert pairs(g) == sorted(dense_edges(fa, fb))

    def test_overflowing_cell_side(self):
        # r = 1e308 makes (max ra + max rb) overflow to inf with finite radii:
        # every object shares one cell, and every pair with the huge disc
        # meets.  A centre that is not finite also puts all in one cell.
        # GRID_PAIRS = 1 keeps instances this small on the grid.
        small = [Disc(Point(float(k), -float(k)), 0.5) for k in range(-3, 4)]
        pts = [Point(1e300, -1e300), Point(0.0, 0.0), Point(-7.5, 2.0)]
        odd = [Point(math.nan, 0.0), Point(-math.inf, 1.0), Disc(Point(math.inf, 0.0), 1.0)]
        for fa, fb in ((small + [Disc(Point(0.0, 0.0), 1e308)], pts + small),
                       (pts, [Disc(Point(1.0, 1.0), 1e308)] * 2),
                       (small, pts + odd)):
            for a, b in ((fa, fb), (fb, fa)):
                with mock.patch.object(hypergraph, "GRID_PAIRS", 1):
                    g = BipartiteIntersectionGraph.from_families(a, b)
                assert pairs(g) == sorted(dense_edges(a, b))
                huge = [i for i, o in enumerate(a) if type(o) is Disc and o.radius == 1e308]
                assert all((i, j) in g.edges for i in huge for j in range(len(b)))

    @pytest.mark.parametrize("block", [1, hypergraph.GRID_PAIRS])
    def test_overflowing_squared_slack(self, block):
        # Radii past about 1.3e154 overflow the squared slack, and 0.9e308 +
        # 0.9e308 overflows the slack itself.  The scaled form decides those
        # pairs as the exact distances do (every squared distance here is at
        # least 2% from the squared radius sum), in the grid (GRID_PAIRS = 1)
        # and in its all-pairs path, as in the scalar predicate.
        fa = [Disc(Point(0.0, 0.0), 1e200), Disc(Point(0.0, 0.0), 1e308),
              Disc(Point(-0.85e308, -0.85e308), 0.9e308), Disc(Point(-1.5e308, 0.0), 0.9e308)]
        fb = [Point(0.0, 1e300), Point(0.0, 0.9e200), Point(0.7e200, -0.7e200),
              Disc(Point(0.85e308, 0.85e308), 0.9e308), Disc(Point(1.5e308, 0.0), 0.9e308),
              Disc(Point(1.5e308, 0.0), 1.7e308), Point(1e308, 1e308)]

        def exact(a, b):
            (ax, ay, ar), (bx, by, br) = (
                map(Fraction, (o.x, o.y, 0.0) if type(o) is Point else (o.center.x, o.center.y, o.radius)) for o in (a, b)
            )
            return (ax - bx) ** 2 + (ay - by) ** 2 <= (ar + br) ** 2

        assert not intersects(Point(0.0, 1e300), Disc(Point(0.0, 0.0), 1e200))
        for a, b in ((fa, fb), (fb, fa)):
            with mock.patch.object(hypergraph, "GRID_PAIRS", block):
                g = BipartiteIntersectionGraph.from_families(a, b)
            want = [[exact(x, y) for y in b] for x in a]
            got = [[(i, j) in g.edges for j in range(len(b))] for i in range(len(a))]
            assert got == want == [[intersects(x, y) for y in b] for x in a] == round_matrix(a, b).tolist()
            assert 0 < g.edge_count < len(a) * len(b)


class TestNoFloatWarnings:
    """The kernel's inf and nan near the float range are expected values: it
    warns of none of them, and leaves the caller's numpy error state as it was."""

    @staticmethod
    def far_families(rng, n):
        def disc():
            x = rng.choice([-1.5e308, 1.5e308, 0.0, rng.uniform(-1.0, 1.0)])
            return Disc(Point(x, rng.uniform(-1.0, 1.0)), rng.choice([0.5, 1.0, 1e308]))
        return [disc() for _ in range(n)], [disc() for _ in range(n)]

    @pytest.mark.parametrize("fams", [
        ([Disc(Point(0.0, 0.0), 1e308)], [Disc(Point(1.5e308, 0.0), 1e308)]),  # the slack overflows
        ([Disc(Point(-1.5e308, 0.0), 1.0)], [Disc(Point(1.5e308, 0.0), 1.0)]),  # dx overflows
        far_families(random.Random(1), 200),  # 200 x 200 > GRID_PAIRS: the grid's span and side overflow
    ], ids=["huge-radii", "far-centres", "grid"])
    def test_same_edges_as_intersects_without_warnings(self, fams):
        fa, fb = fams
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = BipartiteIntersectionGraph.from_families(fa, fb)
        assert g.edges == {(i, j) for i, a in enumerate(fa) for j, b in enumerate(fb) if intersects(a, b)}

    def test_error_state_is_not_held_across_blocks(self):
        fa, fb = self.far_families(random.Random(2), 200)
        with np.errstate(over="raise", invalid="raise"):
            blocks = hypergraph._edge_blocks(fa, fb)
            for _ in blocks:
                assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "raise"


def _build_peak(build, *fams):
    """What `build(*fams)` returns, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return build(*fams), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRoundGridMemory:
    def test_scaled_instance_peak(self):
        # the dense build peaks at about 43 MiB here
        fams = scaled_disc_instance(4096, 9001)
        g, peak = _build_peak(BipartiteIntersectionGraph.from_families, *fams)
        assert peak < 16 * 2**20
        assert pairs(g) == sorted(dense_edges(*fams))

    def test_one_cell_peak_at_most_dense(self):
        # one radius-5 disc per side puts every object in one cell, so every
        # pair is a candidate; blocks of GRID_PAIRS keep the peak at the
        # dense chunked build's, not m*n candidates at once
        fam_a, fam_b = scaled_disc_instance(2047, 9001)
        big = Disc(Point(0.5, 0.5), 5.0)
        fams = ([big] + fam_a, [big] + fam_b)
        g, grid_peak = _build_peak(BipartiteIntersectionGraph.from_families, *fams)
        dense, dense_peak = _build_peak(dense_edges, *fams)
        assert grid_peak <= dense_peak
        assert pairs(g) == sorted(dense)


@st.composite
def box_families(draw):
    """Two sides of points, rects and frames, or two of horizontal and vertical
    segments, on a coarse shared grid of step 1/4: touching edges, shared
    corners and boxes strictly inside frame holes.  Coordinates are sometimes
    scaled by 1e15 or 1e300, and sometimes one box runs from -1e308 to 1e308,
    so its reach overflows to inf."""
    scale = draw(st.sampled_from([1.0, 1.0, 1e15, 1e300]))
    coord = st.integers(-4, 4).map(lambda k: k * 0.25 * scale)
    span = st.lists(st.integers(-4, 4), min_size=2, max_size=2, unique=True).map(lambda ks: [k * 0.25 * scale for k in sorted(ks)])
    if draw(st.booleans()):
        obj = st.tuples(st.sampled_from(["horizontal", "vertical"]), coord, span).map(lambda t: Segment(t[0], t[1], *t[2]))
        huge = Segment("vertical", 0.0, -1e308, 1e308)
    else:
        box = st.tuples(st.sampled_from([AxisRect, Frame]), span, span).map(lambda t: t[0](*t[1], *t[2]))
        obj = st.one_of(st.builds(Point, coord, coord), box)
        huge = draw(st.sampled_from([AxisRect, Frame]))(-1e308, 1e308, -scale, scale)
    sides = [draw(st.lists(obj, max_size=10)) for _ in range(2)]
    if draw(st.booleans()):
        side = sides[draw(st.integers(0, 1))]
        side.insert(draw(st.integers(0, len(side))), huge)
    return sides


@st.composite
def mixed_families(draw):
    """A side of discs and a side of rects, frames and points, either way
    round, each with a few objects of the other's kinds.  Some disc centres
    sit at r * (1 + REL_TOL) from a side of a rect or frame, outside it or
    inside a frame's hole, or one ulp beyond; sometimes all is scaled by 1e15
    or 1e300, where the squared slacks of the round predicates overflow."""
    scale = draw(st.sampled_from([1.0, 1.0, 1e15, 1e300]))
    coord = st.integers(-4, 4).map(lambda k: k * 0.25 * scale)
    span = st.lists(st.integers(-4, 4), min_size=2, max_size=2, unique=True).map(lambda ks: [k * 0.25 * scale for k in sorted(ks)])
    radius = st.sampled_from([0.125, 0.25, 1 / 3, 0.5]).map(lambda r: r * scale)
    box = st.tuples(st.sampled_from([AxisRect, Frame]), span, span).map(lambda t: t[0](*t[1], *t[2]))
    disc = st.builds(Disc, st.builds(Point, coord, coord), radius)
    boxes = draw(st.lists(box, min_size=1, max_size=6)) + draw(st.lists(st.builds(Point, coord, coord), max_size=3))
    discs = draw(st.lists(disc, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        b, r = draw(st.sampled_from([o for o in boxes if type(o) is not Point])), draw(radius)
        reach = r * (1.0 + REL_TOL)
        reach = draw(st.sampled_from([reach, math.nextafter(reach, math.inf)]))
        out = draw(st.sampled_from([1.0, -1.0]))  # -1.0: inward, into the hole of a frame
        mx, my = (b.x_lo + b.x_hi) / 2, (b.y_lo + b.y_hi) / 2
        centre = draw(st.sampled_from([Point(b.x_lo - out * reach, my), Point(b.x_hi + out * reach, my),
                                       Point(mx, b.y_lo - out * reach), Point(mx, b.y_hi + out * reach)]))
        discs.append(Disc(centre, r))
    discs += draw(st.lists(box, max_size=2))
    boxes += draw(st.lists(disc, max_size=2))
    sides = draw(st.permutations(discs)), draw(st.permutations(boxes))
    return sides if draw(st.booleans()) else sides[::-1]


class TestCandidateGrid:
    @settings(max_examples=400, deadline=None)
    @given(box_families(), st.sampled_from([1, 2, 7, hypergraph.GRID_PAIRS]))
    def test_box_families_match_dense_oracle(self, fams, block):
        # small GRID_PAIRS values put block boundaries inside the instance
        with mock.patch.object(hypergraph, "GRID_PAIRS", block):
            g = BipartiteIntersectionGraph.from_families(*fams)
        fa, fb = fams
        assert pairs(g) == dense_pairs(*fams)  # the stored order is row-major
        assert g.edges == {(i, j) for i, a in enumerate(fa) for j, b in enumerate(fb) if intersects(a, b)}

    @settings(max_examples=400, deadline=None)
    @given(mixed_families(), st.sampled_from([1, 2, 7, hypergraph.GRID_PAIRS]))
    def test_mixed_families_match_scalar_predicate(self, fams, block):
        with mock.patch.object(hypergraph, "GRID_PAIRS", block):
            g = BipartiteIntersectionGraph.from_families(*fams)
        assert pairs(g) == dense_pairs(*fams)

    @pytest.mark.parametrize("far", [False, True])
    def test_unsupported_kind_pair_raises_before_grid_work(self, far):
        # a segment meets only segments; the pair raises TypeError as the
        # scalar predicate does, whether or not the grid would pair them
        x = 1e6 if far else 0.5
        seg, disc = Segment("horizontal", 0.0, 0.0, 1.0), Disc(Point(x, 0.0), 0.25)
        rects = [AxisRect(x, x + 1.0, 0.0, 1.0), AxisRect(0.0, 1.0, 0.0, 1.0)]
        cases = [([seg], [disc], "Segment, Disc"), ([disc, disc], [seg], "Disc, Segment"),
                 (rects, [rects[0], seg], "AxisRect, Segment"), ([Point(x, 0.0), seg], [seg], "Point, Segment")]
        for fa, fb, names in cases:
            with mock.patch.object(hypergraph, "_candidates", side_effect=AssertionError("grid work")):
                with pytest.raises(TypeError, match=f"unsupported object pair: {names}"):
                    BipartiteIntersectionGraph.from_families(fa, fb)

    def test_mixed_pairs_test_candidates_only(self):
        # discs against rects: the scalar predicate sees the grid's candidates,
        # not all m * n pairs
        discs, _ = scaled_disc_instance(1000, 9001)
        _, rects = scaled_rect_instance(1000, 9001)
        calls = []

        def counted(a, b):
            calls.append(None)
            return intersects(a, b)

        with mock.patch.object(hypergraph, "intersects", counted):
            g = BipartiteIntersectionGraph.from_families(discs, rects)
        assert len(calls) < 0.1 * len(discs) * len(rects)
        assert pairs(g) == dense_pairs(discs, rects) and g.edge_count > 0


class TestNeighbourLists:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_kept(self, enabled):
        g = BipartiteIntersectionGraph.from_families(*scaled_disc_instance(256, 1))
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            nbrs_a = g.nbrs_a
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()
        assert nbrs_a == TupleGraph(g.side_a, g.side_b, edge_set(g)).nbrs_a


@st.composite
def bipartite_graphs(draw):
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    every = [(i, j) for i in range(m) for j in range(n)]
    edges = draw(st.sets(st.sampled_from(every))) if every else set()
    return bip(m, n, edges)


def assert_same_graph(g, oracle):
    """The array graph `g` agrees with the tuple-set `oracle` on every view."""
    assert g.side_a == oracle.side_a and g.side_b == oracle.side_b
    assert g.rows.dtype == g.cols.dtype == np.int64
    assert pairs(g) == sorted(oracle.edges)
    assert g.edges == oracle.edges and isinstance(g.edges, frozenset)
    assert all(type(i) is int and type(j) is int for i, j in g.edges)
    assert g.edge_count == len(oracle.edges)
    assert g.nbrs_a == oracle.nbrs_a and g.nbrs_b == oracle.nbrs_b
    assert g.degrees_a() == oracle.degrees_a() and g.degrees_b() == oracle.degrees_b()


@st.composite
def keep_lists(draw, size):
    """Unsorted vertex lists with repeats, empty ones included."""
    return draw(st.lists(st.integers(0, size - 1), max_size=2 * size)) if size else []


class TestArrayGraphOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7), st.data())
    def test_from_edges_and_induced_match_tuple_graph(self, m, n, data):
        every = [(i, j) for i in range(m) for j in range(n)]
        chosen = data.draw(st.lists(st.sampled_from(every))) if every else []  # repeats too
        side_a, side_b = [f"a{i}" for i in range(m)], [f"b{j}" for j in range(n)]
        g = BipartiteIntersectionGraph.from_edges(side_a, side_b, chosen)
        oracle = TupleGraph(side_a, side_b, set(chosen))
        assert_same_graph(g, oracle)
        for _ in range(3):
            keep_a, keep_b = data.draw(keep_lists(m)), data.draw(keep_lists(n))
            assert_same_graph(g.induced(keep_a, keep_b), oracle.induced(keep_a, keep_b))
            assert_same_graph(g.induced(set(keep_a), iter(keep_b)), oracle.induced(keep_a, keep_b))

    @settings(max_examples=100, deadline=None)
    @given(round_families())
    def test_from_families_matches_tuple_graph(self, fams):
        g = BipartiteIntersectionGraph.from_families(*fams)
        oracle = TupleGraph.from_families(*fams)
        assert_same_graph(g, oracle)
        keep_a, keep_b = range(0, g.m, 2), range(g.n - 1, -1, -3)
        assert_same_graph(g.induced(keep_a, keep_b), oracle.induced(keep_a, keep_b))

    def test_from_edges_rejects_out_of_range_pairs(self):
        with pytest.raises(ValueError, match=r"\(-1, 0\)"):
            BipartiteIntersectionGraph.from_edges([None] * 3, [None] * 3, [(0, 1), (-1, 0)])
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            BipartiteIntersectionGraph.from_edges([None] * 2, [None] * 2, [(0, 5)])
        with pytest.raises(ValueError):
            BipartiteIntersectionGraph.from_edges([None] * 2, [], [(0, 0)])
        with pytest.raises(ValueError):
            BipartiteIntersectionGraph.from_edges([None], [None], [(0, -1)])


class TestAdjacencyMasks:
    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs())
    def test_masks_agree_with_edges(self, g):
        nbrs_a = [frozenset(j for i, j in g.edges if i == a) for a in range(g.m)]
        nbrs_b = [frozenset(i for i, j in g.edges if j == b) for b in range(g.n)]
        assert g.nbrs_a == [sorted(s) for s in nbrs_a] and hyperedges(dual_hypergraph(g)) == nbrs_a
        assert g.nbrs_b == [sorted(s) for s in nbrs_b] and hyperedges(primal_hypergraph(g)) == nbrs_b
        assert g.degrees_a() == [len(s) for s in nbrs_a]
        assert g.degrees_b() == [len(s) for s in nbrs_b]

    def test_contained_counts(self):
        rows = [[0, 1, 2], [0, 1], [2], []]
        assert contained_counts([(0, 1), fs(1, 2)], rows) == [2, 1, 0, 0]
        assert contained_counts([], rows) == [0, 0, 0, 0]


class TestContainment:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), max_size=4).map(tuple), max_size=12),
        st.lists(st.sets(st.integers(0, 7)).map(sorted), max_size=10),  # indices 8 and 9 in no row
    )
    @example([()], [[0, 2], []])  # the empty tuple lies in every row, an empty one too
    @example([(0, 1), (1, 0), (0, 1)], [[0, 1], [0]])  # duplicates count once each
    @example([(9,), (8, 0)], [list(range(8))])  # indices that no row holds
    @example([(0,), ()], [])  # no rows
    def test_contained_counts_match_row_side_scan(self, tuples, rows):
        assert contained_counts(tuples, rows) == row_side_counts(tuples, rows)

    # few indices, so that tuples often lie inside rows and both outcomes occur
    @settings(max_examples=600, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(
            st.just(k), st.sets(st.sets(st.integers(0, 6), min_size=k, max_size=k).map(sorted).map(tuple),
                                min_size=1, max_size=10))),
        st.lists(st.sets(st.integers(0, 5), min_size=2).map(sorted), max_size=6),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @example((2, {(0, 1), (2, 3)}), [[0, 1], [2, 3]], 2, 0)  # every bound met with equality
    @example((2, {(0, 1)}), [[0, 1], [2, 3]], 2, 0)  # row 1 below its lower bound only
    @example((2, {(0, 1)}), [[0, 1], [0, 1, 2]], 3, 2)  # the (k-1)|F| cap broken only
    @example((1, set()), [], 1, 0)  # no tuples, no rows
    @example((1, {(0,)}), [[0, 1]], 2, 1)  # k = 1: one containment breaks the cap of 0
    def test_counting_chain_matches_row_side_scan(self, family, rows, div, off):
        (k, tuples), t = family, 2

        def lower(d):
            return d // div - off

        counts, broken = row_side_chain(tuples, rows, k, lower)
        if broken:
            with pytest.raises(InequalityViolated):
                counting_chain(tuples, rows, t, k, lower)
            return
        rep = counting_chain(tuples, rows, t, k, lower)
        assert rep.x_counts == counts and rep.degrees == [len(row) for row in rows]
        assert (rep.t, rep.family_size, rep.x_sum) == (t, len(tuples), sum(counts))
        assert rep.lower_sum == sum(map(lower, rep.degrees)) and rep.x_upper == (k - 1) * len(tuples)


class TestPlainGraphOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8), st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=30))
    @example(0, [])  # the empty graph
    @example(4, [(2, 3), (0, 1), (2, 3), (0, 1)])  # repeats count once, in sorted order
    @example(3, [(1, 1)])  # a loop
    @example(3, [(2, 1)])  # a pair with i > j
    @example(3, [(0, 3)])  # j out of range
    @example(3, [(-1, 2)])  # i out of range
    def test_from_edges_matches_tuple_set_graph(self, n, pairs):
        try:
            oracle = TupleSetGraph(n, set(pairs))
        except ValueError:
            with pytest.raises(ValueError) as exc:
                Graph.from_edges(n, pairs)
            named = re.fullmatch(rf"bad edge \((-?\d+), (-?\d+)\) on {n} vertices", str(exc.value))
            i, j = int(named[1]), int(named[2])
            assert (i, j) in pairs and not 0 <= i < j < n
            return
        g = Graph.from_edges(n, iter(pairs))
        assert g.vertex_count == n
        assert g.rows.dtype == g.cols.dtype == np.int64
        assert list(zip(g.rows.tolist(), g.cols.tolist())) == sorted(oracle.edges)
        assert edge_set(g) == oracle.edges and len(g.rows) == len(g.cols) == len(oracle.edges)


class TestGraphTypes:
    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, {(0, 0)})
        with pytest.raises(ValueError):
            Graph.from_edges(2, {(1, 0)})

    def test_hypergraph_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(2, [[0, 5]])
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(2, [[0, 1], [-1]])
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(0, [[0]])
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(3, [[3]])  # an index equal to the vertex count
        with pytest.raises(ValueError, match="ascending"):
            Hypergraph(3, [[0, 2, 1]])  # unsorted
        with pytest.raises(ValueError, match="ascending"):
            Hypergraph(3, [[0, 1, 1]])  # a repeated vertex
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(3, [[-1, 0]])  # a negative index
        h = Hypergraph(3, [[], [0, 1, 2], [1]])
        assert h.edges == [[], [0, 1, 2], [1]]

    def test_graph_hypergraphs_skip_the_check(self, monkeypatch):
        # a graph's neighbour lists are ascending and in range by construction
        g = BipartiteIntersectionGraph.from_edges(
            ["a0", "a1", "a2"], ["b0", "b1"], {(0, 0), (2, 1), (1, 1)}
        )

        def no_check(self):
            raise AssertionError("hyperedge check on a graph's own lists")

        monkeypatch.setattr(Hypergraph, "__post_init__", no_check)
        primal, dual = primal_hypergraph(g), dual_hypergraph(g)
        assert (primal.vertex_count, primal.edges) == (3, [[0], [1, 2]])
        assert (dual.vertex_count, dual.edges) == (2, [[0], [1], [1]])
        assert primal.edges is g.nbrs_b and dual.edges is g.nbrs_a
        # the unchecked path sets these two fields by hand; a new field must
        # be added there too
        assert [f.name for f in dataclasses.fields(Hypergraph)] == ["vertex_count", "edges"]
        with pytest.raises(AssertionError, match="hyperedge check"):
            Hypergraph(3, [[0, 1]])

    def test_induced_graph(self):
        g = BipartiteIntersectionGraph.from_edges(
            ["a0", "a1", "a2"], ["b0", "b1"], {(0, 0), (2, 1), (1, 1)}
        )
        sub = g.induced([0, 2], [1])
        assert sub.side_a == ["a0", "a2"] and sub.side_b == ["b1"]
        assert sub.edges == {(1, 0)}

    def test_bit_helpers(self):
        m = mask_of([0, 3, 5])
        assert list(bits_of(m)) == [0, 3, 5] and list(bits_of(0)) == []
        assert set_of(m) == fs(0, 3, 5)
