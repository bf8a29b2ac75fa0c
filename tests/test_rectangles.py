import itertools
import random
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from census_oracle import IntersectionType, classify_rect_pair, intersection_type_census as per_edge_census
from graph_oracle import delaunay_graph, edge_set, hypergraph_of
from planarity_oracle import hereditary_planarity_check as sample_by_sample_check
from segment_oracle import _interval_runs as full_sweep_runs

from ztnet import hypergraph, rectangles
from ztnet.errors import DegenerateInput
from ztnet.generators import GenParams, generate, prune_to_ktt_free
from ztnet.geometry import (
    AxisRect,
    Frame,
    Point,
    Segment,
    check_general_position,
    intersects,
    point_in_rect,
    segments_cross,
)
from ztnet.hypergraph import (
    BipartiteIntersectionGraph,
    Graph,
)
from ztnet.rectangles import (
    BLOCK_ROWS,
    _interval_runs,
    _sample_blocks,
    canonical_segment_tuples,
    crossing_graph,
    hereditary_planarity_check,
    horizontal_edges_of,
    intersection_type_census,
    rectangle_bound_report,
    segment_delaunay,
    vertical_edges_of,
)
from ztnet.suite import derive_seed, segment_instance
from ztnet.zarankiewicz import find_ktt_witness

from box_oracle import corner_incidence_graph


def hseg(y, lo, hi):
    return Segment("horizontal", y, lo, hi)


def rect_families(n, seed, lo=0.05, hi=0.3):
    a = generate("random_rects", n, GenParams(extent_lo=lo, extent_hi=hi, parity=0), 2 * seed)
    b = generate("random_rects", n, GenParams(extent_lo=lo, extent_hi=hi, parity=1), 2 * seed + 1)
    return a, b


@st.composite
def rect_pair_families(draw, shared_lines=False):
    """Two small families of rects or frames on a quarter-unit grid.  With
    shared_lines False, every edge line is distinct (general position);
    otherwise coordinates come from a grid so coarse that lines often meet."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if shared_lines:
        def span():
            lo = draw(st.integers(0, 6))
            return [lo, lo + draw(st.integers(1, 4))]

        xs = [v for _ in range(m + n) for v in span()]
        ys = [v for _ in range(m + n) for v in span()]
    else:
        xs = draw(st.permutations(range(2 * (m + n))))
        ys = draw(st.permutations(range(2 * (m + n))))
    boxes = [
        (*sorted(xs[2 * i : 2 * i + 2]), *sorted(ys[2 * i : 2 * i + 2])) for i in range(m + n)
    ]
    kind_a, kind_b = draw(st.sampled_from([AxisRect, Frame])), draw(st.sampled_from([AxisRect, Frame]))
    to_grid = lambda box: [0.25 * v for v in box]  # noqa: E731
    return [kind_a(*to_grid(box)) for box in boxes[:m]], [kind_b(*to_grid(box)) for box in boxes[m:]]


def census_outcome(census, a, b):
    try:
        return census(a, b)
    except DegenerateInput as exc:
        return ("DegenerateInput", str(exc))


class TestCensus:
    @settings(max_examples=300, deadline=None)
    @given(rect_pair_families())
    @example(([AxisRect(1, 2, 1, 2)], [AxisRect(0, 3, 0, 3)]))  # a strictly inside b
    @example(([AxisRect(0, 3, 0, 3)], [AxisRect(1, 2, 1, 2)]))  # b strictly inside a
    @example(([AxisRect(0, 2, 0, 2)], [AxisRect(1, 3, 1, 3)]))  # corner overlap, type 3 by x
    @example(([AxisRect(1, 3, 0, 2)], [AxisRect(0, 2, 1, 3)]))  # corner overlap, type 4 by x
    @example(([], [AxisRect(0, 1, 0, 1)]))
    @example(([AxisRect(0, 1, 0, 1)], []))
    def test_matches_per_edge_oracle_and_swaps(self, fams):
        a, b = fams
        fwd = intersection_type_census(a, b)
        assert fwd == per_edge_census(a, b)
        rev = intersection_type_census(b, a)
        assert (rev.type1, rev.type2, rev.type3, rev.type4) == (fwd.type2, fwd.type1, fwd.type4, fwd.type3)

    @settings(max_examples=300, deadline=None)
    @given(rect_pair_families(shared_lines=True))
    def test_shared_edge_lines_raise_as_the_oracle_does(self, fams):
        a, b = fams
        outcome = census_outcome(intersection_type_census, a, b)
        assert outcome == census_outcome(per_edge_census, a, b)
        if not check_general_position(a + b):
            assert outcome == ("DegenerateInput", "rectangle families share an edge line")

    def test_more_than_one_block(self, monkeypatch):
        a, _ = rect_families(300, 5)
        _, b = rect_families(80, 6)
        monkeypatch.setattr(hypergraph, "GRID_PAIRS", 2000)
        assert len(list(rectangles._edge_blocks(a, b))) > 1
        census = intersection_type_census(a, b)
        assert census == per_edge_census(a, b) and census.total > 0

    def test_one_shot_iterables(self):
        c = intersection_type_census(iter([AxisRect(1, 2, 1, 2)]), iter([AxisRect(0, 3, 0, 3)]))
        assert (c.type1, c.type2, c.type3, c.type4) == (1, 0, 0, 0)
        a, b = rect_families(25, 3)
        assert intersection_type_census((r for r in a), (r for r in b)) == intersection_type_census(a, b)

    def test_builds_no_graph(self, monkeypatch):
        def no_graph(*args):
            raise AssertionError("the census built a graph")

        monkeypatch.setattr(BipartiteIntersectionGraph, "from_families", no_graph)
        a, b = rect_families(25, 4)
        assert intersection_type_census(a, b).total > 0

    def test_edge_classified_as_disjoint_raises(self, monkeypatch):
        def fake_blocks(fam_a, fam_b):
            yield np.array([0]), np.array([0])

        monkeypatch.setattr(rectangles, "_edge_blocks", fake_blocks)
        a, b = AxisRect(0, 1, 0, 1), AxisRect(5, 6, 5, 6)
        message = ("intersecting pair classifies as disjoint: AxisRect(x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0), "
                   "AxisRect(x_lo=5.0, x_hi=6.0, y_lo=5.0, y_hi=6.0)")  # int coordinates print as floats
        with pytest.raises(AssertionError, match=re.escape(message)):
            intersection_type_census([a], [b])

    def test_examples(self):
        c = intersection_type_census([AxisRect(1, 2, 1, 2)], [AxisRect(0, 3, 0, 3)])
        assert (c.type1, c.type2, c.type3, c.type4) == (1, 0, 0, 0)
        c = intersection_type_census([AxisRect(0, 3, 1, 2)], [AxisRect(1, 2, 0, 3)])
        assert (c.type1, c.type2, c.type3, c.type4) == (0, 0, 1, 0)
        c = intersection_type_census([AxisRect(0, 1, 0, 1)], [AxisRect(5, 6, 5, 6)])
        assert c.total == 0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            intersection_type_census([AxisRect(0, 1, 0, 1)], [AxisRect(1, 2, 4, 5)])

    def test_partition_identity_and_symmetry(self):
        for seed in range(15):
            a, b = rect_families(25, seed)
            intersecting = sum(intersects(ra, rb) for ra in a for rb in b)
            fwd = intersection_type_census(a, b)
            rev = intersection_type_census(b, a)
            assert fwd.total == intersecting == rev.total
            assert fwd.type1 == rev.type2 and fwd.type2 == rev.type1
            assert fwd.type3 == rev.type4 and fwd.type4 == rev.type3


class TestCornerGraph:
    def test_contained_rect_gives_four_edges(self):
        g = corner_incidence_graph([AxisRect(1, 2, 1, 2)], [AxisRect(0, 3, 0, 3)])
        assert len(g.edges) == 4 and g.m == 4

    def test_cross_pair_gives_none(self):
        g = corner_incidence_graph([AxisRect(0, 3, 1, 2)], [AxisRect(1, 2, 0, 3)])
        assert len(g.edges) == 0

    def test_corner_graph_biclique_free_on_pruned_instance(self):
        a, b = rect_families(40, seed=4)
        g = BipartiteIntersectionGraph.from_families(a, b)
        res = prune_to_ktt_free(g, 2)
        # K_{2,2}-free rectangles force a K_{5,5}-free corner graph (4t-3 = 5)
        corners = corner_incidence_graph(res.graph.side_a, res.graph.side_b)
        assert find_ktt_witness(corners, 4 * 2 - 3) is None

    def test_edges_match_point_in_rect(self):
        for seed in range(15):
            a, b = rect_families(25, seed)
            g = corner_incidence_graph(a, b)
            # lower-left, lower-right, upper-left, upper-right
            corners = [
                Point(x, y)
                for r in a
                for x, y in ((r.x_lo, r.y_lo), (r.x_hi, r.y_lo), (r.x_lo, r.y_hi), (r.x_hi, r.y_hi))
            ]
            assert g.side_a == corners and g.side_b == b
            assert g.edges == {
                (i, j) for i, c in enumerate(corners) for j, r in enumerate(b) if point_in_rect(c, r)
            }


class TestCrossingGraph:
    def test_cross_pair_contributes_four(self):
        k = crossing_graph([AxisRect(0, 3, 1, 2)], [AxisRect(1, 2, 0, 3)])
        assert len(k.edges) == 4

    def test_edges_match_segments_cross(self):
        for seed in range(15):
            a, b = rect_families(25, seed)
            k = crossing_graph(a, b)
            assert k.side_a == horizontal_edges_of(a) and k.side_b == vertical_edges_of(b)
            assert k.edges == {
                (i, j)
                for i, h in enumerate(k.side_a)
                for j, v in enumerate(k.side_b)
                if segments_cross(h, v)
            }

    def test_nested_pair_contributes_none(self):
        k = crossing_graph([AxisRect(1, 2, 1, 2)], [AxisRect(0, 3, 0, 3)])
        assert len(k.edges) == 0

    def test_type3_bounded_by_4_edges(self):
        for seed in range(10):
            a, b = rect_families(20, seed)
            census = intersection_type_census(a, b)
            k = crossing_graph(a, b)
            assert census.type3 <= 4 * len(k.edges)

    def test_per_pair_edge_counts(self):
        # a type-3 pair contributes 1, 2, or 4 crossing edges
        for seed in range(8):
            a, b = rect_families(12, seed)
            for ra in a:
                for rb in b:
                    k = crossing_graph([ra], [rb])
                    assert len(k.edges) in (0, 1, 2, 4)

    def test_frames_realize_only_crossing_types(self):
        # boundary curves meet exactly when the solid pair is of type 3 or 4
        for seed in range(6):
            a, b = rect_families(15, seed)
            for ra in a:
                for rb in b:
                    fa = Frame(ra.x_lo, ra.x_hi, ra.y_lo, ra.y_hi)
                    fb = Frame(rb.x_lo, rb.x_hi, rb.y_lo, rb.y_hi)
                    kind = classify_rect_pair(ra, rb)
                    crossing = kind in (
                        IntersectionType.B_VERTICAL_CROSSES_A,
                        IntersectionType.A_VERTICAL_CROSSES_B,
                    )
                    assert intersects(fa, fb) == crossing


def naive_canonical(hsegs, k):
    """Witness-search oracle over the interval decomposition: a k-subset is
    canonical iff on some open interval all k are active and consecutive in
    the y-order of the active set."""
    xs = sorted({v for s in hsegs for v in (s.lo, s.hi)})
    out = set()
    for x0, x1 in zip(xs, xs[1:]):
        active = sorted(
            (s.fixed, i) for i, s in enumerate(hsegs) if s.lo <= x0 and s.hi >= x1
        )
        order = [i for _, i in active]
        for combo in itertools.combinations(range(len(order)), k):
            if combo[-1] - combo[0] == k - 1:  # consecutive positions
                out.add(tuple(sorted(order[c] for c in combo)))
    return out


@st.composite
def segment_families(draw):
    """Horizontal segments on a small grid: abscissae and ordinates repeat, and
    some segments come in pairs with one lo and hi, as a rectangle's bottom and
    top edges do (dy = 0 gives equal y, where the index breaks the tie).  Half
    the families start on even and end on odd abscissae, so no segment ends
    where another starts; on the other half that often happens."""
    segs = []
    shapes = st.tuples(st.integers(0, 6), st.integers(1, 4), st.integers(0, 5), st.integers(0, 3))
    apart = draw(st.booleans())
    for lo, width, y, dy in draw(st.lists(shapes, max_size=10)):
        x_lo, x_hi = (2 * lo, 2 * (lo + width) - 1) if apart else (lo, lo + width)
        segs.append(hseg(float(y), x_lo, x_hi))
        if draw(st.booleans()):
            segs.append(hseg(float(y + dy), x_lo, x_hi))
    return segs


def first_witnesses(runs):
    first = {}
    for run, x in runs:
        first.setdefault(run, x)
    return list(first.items())


class TestCanonicalTuples:
    def test_three_stacked(self):
        segs = [hseg(0, 0, 10), hseg(1, 0, 10), hseg(2, 0, 10)]
        fam3 = canonical_segment_tuples(segs, 3)
        assert fam3.tuples == frozenset({(0, 1, 2)})
        fam2 = canonical_segment_tuples(segs, 2)
        assert fam2.tuples == frozenset({(0, 1), (1, 2)})

    def test_matches_witness_search_oracle(self):
        rng = random.Random(3)
        for trial in range(15):
            n = rng.randint(5, 30)
            segs = []
            for i in range(n):
                lo = rng.uniform(0, 8)
                segs.append(hseg(rng.uniform(0, 10) + i * 1e-6, lo, lo + rng.uniform(0.5, 4)))
            for k in (1, 2, 3):
                fam = canonical_segment_tuples(segs, k)
                assert fam.tuples == frozenset(naive_canonical(segs, k)), (trial, k)

    def test_consecutive_run_property(self):
        segs = horizontal_edges_of(generate("random_rects", 30, None, 12))
        for tup, x in _interval_runs(segs, 3):
            active = sorted(
                (s.fixed, i) for i, s in enumerate(segs) if s.lo <= x <= s.hi
            )
            order = [i for _, i in active]
            positions = sorted(order.index(i) for i in tup)
            assert positions[-1] - positions[0] == len(tup) - 1
            assert set(tup) <= set(order)

    @settings(max_examples=400, deadline=None)
    @given(segs=segment_families(), k=st.integers(1, 4))
    @example(segs=[], k=1)
    @example(segs=[hseg(0.0, 0, 2), hseg(1.0, 0, 2)], k=3)
    def test_matches_full_sweep(self, segs, k):
        # same runs, and each run first yielded at the same interval and in
        # the same order as the full sweep, so segment_delaunay's setdefault
        # keeps the same witnesses in the same insertion order; a segment
        # ending where another starts is refused instead
        if {s.lo for s in segs} & {s.hi for s in segs}:
            with pytest.raises(DegenerateInput, match="where another starts"):
                list(_interval_runs(segs, k))
            return
        runs = list(_interval_runs(segs, k))
        oracle = list(full_sweep_runs(segs, k))
        assert {run for run, _ in runs} == {run for run, _ in oracle}
        assert first_witnesses(runs) == first_witnesses(oracle)
        assert len(runs) <= 2 * k * len(segs)

    def test_segment_ending_where_another_starts_is_refused(self):
        # a vertical at x = 1 over y in [0, 1] meets exactly segments {0, 2, 1},
        # which the sweep's open intervals never see
        segs = horizontal_edges_of([AxisRect(0, 1, 0, 1), AxisRect(1, 2, 0.5, 1.5)])
        message = r"^a segment ends at x = 1\.0 where another starts; "
        with pytest.raises(DegenerateInput, match=message):
            canonical_segment_tuples(segs, 3)
        with pytest.raises(DegenerateInput, match=message):
            segment_delaunay(segs)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_run_count_is_linear(self, seed):
        # one touched key per deletion and one per insertion, with k windows
        # each; the full sweep yields every window of every interval,
        # O(n * |active|)
        segs = segment_instance(3200, seed)
        k = 3
        assert sum(1 for _ in _interval_runs(segs, k)) <= 2 * k * len(segs)


class TestSegmentDelaunay:
    def test_stacked_and_disjoint(self):
        segs = [hseg(0, 0, 10), hseg(1, 0, 10), hseg(2, 0, 10)]
        assert edge_set(segment_delaunay(segs).graph) == {(0, 1), (1, 2)}
        apart = [hseg(0, 0, 1), hseg(1, 2, 3), hseg(2, 4, 5)]
        assert edge_set(segment_delaunay(apart).graph) == set()

    def test_euler_bound_on_random_segments(self):
        segs = horizontal_edges_of(
            generate("random_rects", 100, GenParams(extent_lo=0.1, extent_hi=0.4), 21)
        )
        dela = segment_delaunay(segs)
        assert len(dela.graph.rows) <= 3 * len(segs) - 6

    def test_equals_delaunay_of_explicit_stab_hypergraph(self):
        segs = horizontal_edges_of(generate("random_rects", 12, None, 33))
        xs = sorted({v for s in segs for v in (s.lo, s.hi)})
        stab_sets = []
        for x0, x1 in zip(xs, xs[1:]):
            active = sorted(
                (s.fixed, i) for i, s in enumerate(segs) if s.lo <= x0 and s.hi >= x1
            )
            order = [i for _, i in active]
            for i in range(len(order)):
                for j in range(i, len(order)):
                    stab_sets.append(frozenset(order[i : j + 1]))
        j_hyper = hypergraph_of(len(segs), stab_sets)
        assert edge_set(segment_delaunay(segs).graph) == edge_set(delaunay_graph(j_hyper))

    def test_witness_is_first_interval_of_adjacency(self):
        # oracle: scan the open intervals between endpoint abscissae in x
        # order; a pair's witness is the midpoint of the first interval where
        # the two segments are neighbours in the y-order of the spanning ones
        rng = random.Random(8)
        instances = [horizontal_edges_of(generate("random_rects", 25, None, 40 + s)) for s in range(4)]
        for _ in range(4):
            instances.append([
                hseg(rng.uniform(0, 10) + i * 1e-6, lo, lo + rng.uniform(0.5, 4))
                for i, lo in enumerate(rng.uniform(0, 8) for _ in range(rng.randint(2, 30)))
            ])
        for segs in instances:
            xs = sorted({v for s in segs for v in (s.lo, s.hi)})
            first = {}
            for x0, x1 in zip(xs, xs[1:]):
                order = [i for _, i in sorted(
                    (s.fixed, i) for i, s in enumerate(segs) if s.lo <= x0 and x1 <= s.hi
                )]
                for i, j in zip(order, order[1:]):
                    first.setdefault(tuple(sorted((i, j))), (x0 + x1) / 2.0)
            dela = segment_delaunay(segs)
            assert dela.witness_x == first
            for (i, j), x in dela.witness_x.items():
                y_lo, y_hi = sorted((segs[i].fixed, segs[j].fixed))
                stabbed = {
                    k for k, s in enumerate(segs) if s.lo <= x <= s.hi and y_lo <= s.fixed <= y_hi
                }
                assert stabbed == {i, j}

    def test_svg_is_wellformed_and_complete(self):
        segs = horizontal_edges_of(generate("random_rects", 15, None, 2))
        dela = segment_delaunay(segs)
        svg = dela.to_svg()
        root = ET.fromstring(svg)
        local = lambda el: el.tag.rsplit("}", 1)[-1]
        polylines = [el for el in root.iter() if local(el) == "polyline"]
        lines = [el for el in root.iter() if local(el) == "line"]
        assert len(polylines) == len(dela.graph.rows)
        assert len(lines) == len(segs)

    def test_svg_builds_no_objects(self):
        # the drawing reads the x_lo, x_hi and y rows of the segments' columns
        dela = segment_delaunay(horizontal_edges_of(generate("random_rects", 15, None, 2)))
        dela.to_svg()
        assert dela.hsegs._objects is None

    def test_svg_empty_input(self):
        ET.fromstring(segment_delaunay([]).to_svg())

    def test_drawing_is_planar_for_vertex_disjoint_edges(self):
        # the figure argument at desk scale: paths of vertex-disjoint edges
        # never cross (a crossing would force a third segment into the
        # witness vertical's exact stab set)
        from ztnet.rectangles import delaunay_drawing_paths

        def box(points):
            xs, ys = zip(*points)
            return min(xs), max(xs), min(ys), max(ys)

        def boxes_meet(p, q):
            return p[0] <= q[1] and q[0] <= p[1] and p[2] <= q[3] and q[2] <= p[3]

        families = [
            horizontal_edges_of(
                generate("random_rects", 40, GenParams(extent_lo=0.1, extent_hi=0.4), seed)
            )
            for seed in (3, 14, 28)
        ]
        # one instance of the shape `ztnet suite --quick` samples for its
        # delaunay-planarity row, so that row's planarity is pinned exactly
        families.append(segment_instance(120, derive_seed(7, "segments", 120, 0)))
        for segs in families:
            dela = segment_delaunay(segs)
            paths = delaunay_drawing_paths(dela)
            edges = sorted(paths)
            # each leg is axis-parallel, so it is its own bounding box; two
            # paths whose boxes miss each other cannot have legs that meet
            legs = {e: [box(leg) for leg in zip(p, p[1:])] for e, p in paths.items()}
            hull = {e: box(p) for e, p in paths.items()}
            for a_idx in range(len(edges)):
                for b_idx in range(a_idx + 1, len(edges)):
                    ea, eb = edges[a_idx], edges[b_idx]
                    if set(ea) & set(eb) or not boxes_meet(hull[ea], hull[eb]):
                        continue
                    for la in legs[ea]:
                        for lb in legs[eb]:
                            assert not boxes_meet(la, lb), (ea, eb)


def complete_plus_isolated(k, isolated):
    """K_k on vertices 0..k-1 plus `isolated` vertices of degree 0."""
    return Graph.from_edges(k + isolated, set(itertools.combinations(range(k), 2)))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else set())


@st.composite
def planar_graphs(draw):
    """Edge subsets of a stacked triangulation: each vertex after the first
    three joins the three corners of a face and splits it into three."""
    n = draw(st.integers(0, 14))
    edges = set(itertools.combinations(range(min(n, 3)), 2))
    faces = [(0, 1, 2)] if n >= 3 else []
    for v in range(3, n):
        a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    kept = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph.from_edges(n, {e for e, k in zip(sorted(edges), kept) if k})


class TestPlanarityCheck:
    def test_triangle_passes(self):
        g = Graph.from_edges(3, {(0, 1), (0, 2), (1, 2)})
        assert hereditary_planarity_check(g, 50, seed=1).passed

    def test_k5_fails(self):
        g = Graph.from_edges(5, set(itertools.combinations(range(5), 2)))
        rep = hereditary_planarity_check(g, 0, seed=1)
        assert not rep.passed and rep.violations == 1

    def test_sample_count(self):
        g = Graph.from_edges(4, set())
        rep = hereditary_planarity_check(g, 25, seed=3)
        assert rep.samples_checked == 26  # full graph + samples

    @pytest.mark.parametrize("samples", [0, 1, 63, 64, 65, 1000])
    def test_checks_every_sample_across_block_edges(self, samples):
        g = Graph.from_edges(6, {(0, 1), (1, 2), (2, 3)})
        assert hereditary_planarity_check(g, samples, seed=2).samples_checked == samples + 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        g = Graph.from_edges(n, {(0, 1)} if n == 2 else set())
        rep = hereditary_planarity_check(g, 70, seed=4)
        assert rep.passed and rep.samples_checked == 71

    def test_same_seed_same_report(self):
        g = complete_plus_isolated(6, 2)
        rep = hereditary_planarity_check(g, 300, seed=9)
        assert rep.violations > 0
        assert rep == hereditary_planarity_check(g, 300, seed=9)

    def test_maximal_planar_graph_passes_200_samples(self):
        # 3n - 6 edges: a sample that keeps every vertex meets its bound
        # exactly, so each count must be held against the bound for the
        # number of vertices its own sample kept
        n = 9
        edges = {(0, 1)} | {(0, v) for v in range(2, n)} | {(1, v) for v in range(2, n)}
        g = Graph.from_edges(n, edges | {(v - 1, v) for v in range(3, n)})
        assert len(g.rows) == 3 * n - 6
        sizes = []
        for keep, counts in _sample_blocks(g, 200, 5):
            kept = keep.sum(axis=1)
            assert all(c <= rectangles._euler_bound(k) for c, k in zip(counts.tolist(), kept.tolist()))
            sizes += kept.tolist()
        assert set(sizes) == set(range(n + 1))  # the full graph and the empty one among them
        rep = hereditary_planarity_check(g, 200, seed=5)
        assert rep.passed and rep.samples_checked == 201

    def test_kept_sizes_uniform_and_vertices_symmetric(self):
        # a row's kept count is uniform on 0..n, and given the count the kept
        # set is a uniform subset: each vertex is kept with probability 1/2
        # and each pair with probability 1/3 (the mean of p and of p^2)
        n, samples = 9, 20_000
        keep = np.concatenate([k for k, _ in _sample_blocks(Graph.from_edges(n, set()), samples, 11)])
        assert keep.shape == (samples, n)
        observed = np.bincount(keep.sum(axis=1), minlength=n + 1)
        expected = samples / (n + 1)
        assert ((observed - expected) ** 2 / expected).sum() < 27.88  # chi-square, 9 df, p = 0.001
        assert np.abs(keep.mean(axis=0) - 1 / 2).max() < 0.02
        pairs = (keep[:, :, None] & keep[:, None, :]).mean(axis=0)[np.triu_indices(n, 1)]
        assert np.abs(pairs - 1 / 3).max() < 0.02

    @pytest.mark.parametrize("seed", [-1, -(2**64) - 5, 2**64, 2**100 + 3])
    def test_negative_and_huge_seeds_are_deterministic(self, seed):
        g = complete_plus_isolated(6, 2)
        masks = [np.concatenate([k for k, _ in _sample_blocks(g, 150, s)]) for s in (seed, seed, abs(seed))]
        assert (masks[0] == masks[1]).all() and (masks[0] == masks[2]).all()  # random.Random's abs rule
        rep = hereditary_planarity_check(g, 150, seed)
        assert rep.violations > 0 and rep == hereditary_planarity_check(g, 150, seed)

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(), samples=st.integers(0, 150), seed=st.integers(-(2**70), 2**70))
    @example(g=complete_plus_isolated(5, 0), samples=130, seed=1)
    @example(g=complete_plus_isolated(6, 0), samples=64, seed=2)
    @example(g=complete_plus_isolated(5, 4), samples=65, seed=3)
    @example(g=complete_plus_isolated(0, 3), samples=1, seed=4)
    @example(g=complete_plus_isolated(0, 0), samples=129, seed=5)  # n = 0: empty rows only
    @example(g=complete_plus_isolated(5, 10), samples=129, seed=7)
    @example(g=complete_plus_isolated(6, 25), samples=65, seed=8)
    def test_block_counts_match_a_recount(self, g, samples, seed):
        # every block is at most BLOCK_ROWS rows of n, each row's count is its
        # induced edge count recounted in Python, and the blocks hold every
        # sample once
        n, edges = g.vertex_count, edge_set(g)
        total = violations = 0
        for keep, counts in _sample_blocks(g, samples, seed):
            rows = len(counts)
            assert keep.shape == (rows, n) and 0 < rows <= BLOCK_ROWS
            for row, count in zip(keep, counts):
                kept = set(np.flatnonzero(row).tolist())
                assert count == sum(u in kept and v in kept for u, v in edges)
                violations += count > rectangles._euler_bound(len(kept))
            total += rows
        assert total == samples
        rep = hereditary_planarity_check(g, samples, seed)
        assert rep.violations == violations + (len(edges) > rectangles._euler_bound(n))
        assert rep.samples_checked == sample_by_sample_check(g, samples, seed).samples_checked

    @settings(max_examples=100, deadline=None)
    @given(g=planar_graphs(), samples=st.integers(0, 150), seed=st.integers(0, 2**32))
    def test_agrees_with_oracle_on_planar_graphs(self, g, samples, seed):
        rep = hereditary_planarity_check(g, samples, seed)
        ref = sample_by_sample_check(g, samples, seed)
        assert rep.passed == ref.passed
        assert rep.samples_checked == ref.samples_checked


class TestBoundReport:
    def test_empty_b(self):
        census, chain = rectangle_bound_report([AxisRect(0, 1, 0, 1)], [], 2)
        assert census.total == 0 and chain.degrees == [] and chain.x_sum == 0 and chain.family_size >= 0

    def test_single_cross_pair(self):
        census, chain = rectangle_bound_report([AxisRect(0, 3, 1, 2)], [AxisRect(1, 2, 0, 3)], 2)
        assert census.total == 1
        assert all(d == 2 for d in chain.degrees)
        assert all(x == 0 for x in chain.x_counts)

    def test_chains_on_pruned_instances(self, monkeypatch):
        builds = []
        real = BipartiteIntersectionGraph.from_families.__func__

        def counted(cls, fam_a, fam_b):
            builds.append((len(fam_a), len(fam_b)))
            return real(cls, fam_a, fam_b)

        monkeypatch.setattr(BipartiteIntersectionGraph, "from_families", classmethod(counted))
        for seed in range(5):
            a, b = rect_families(40, seed)
            g = prune_to_ktt_free(BipartiteIntersectionGraph.from_families(a, b), 2).graph
            builds.clear()
            _, chain = rectangle_bound_report(g.side_a, g.side_b, 2)
            assert chain.lower_sum <= chain.x_sum <= chain.x_upper
            # one build: the crossing graph, two vertices per rectangle
            assert builds == [(2 * g.m, 2 * g.n)]

    def test_shared_edge_line_rejected_before_crossing_graph(self, monkeypatch):
        def no_graph(*args, **kwargs):
            raise AssertionError("crossing graph built on a degenerate input")

        monkeypatch.setattr(rectangles, "crossing_graph", no_graph)
        a = [AxisRect(0, 1, 0, 1), AxisRect(1, 2, 0.5, 1.5)]
        with pytest.raises(DegenerateInput, match="share an edge line"):
            rectangle_bound_report(a, [AxisRect(5, 6, 5, 6)], 2)
        with pytest.raises(DegenerateInput, match="share an edge line"):
            rectangle_bound_report(iter(a), iter([AxisRect(5, 6, 5, 6)]), 2)
