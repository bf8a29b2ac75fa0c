import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztnet.errors import BudgetExceeded, ParamOutOfRange
from ztnet.generators import GenParams, generate, prune_to_ktt_free
from ztnet.geometry import AxisRect, Disc, Frame, Point, check_general_position
from ztnet.hypergraph import BipartiteIntersectionGraph
from ztnet.suite import scaled_disc_instance
from ztnet.zarankiewicz import find_ktt_witness

from ktt_oracle import _combos_at_least


class TestGenerate:
    def test_empty_and_determinism(self):
        assert generate("random_discs", 0, None, 3) == []
        for kind in ("random_discs", "random_rects", "random_frames", "grid_points",
                     "random_points", "dyadic_rects"):
            a = generate(kind, 15, None, 99)
            b = generate(kind, 15, None, 99)
            assert a == b, kind
            assert len(a) == 15

    def test_types(self):
        assert all(isinstance(o, Disc) for o in generate("random_discs", 5, None, 0))
        assert all(isinstance(o, AxisRect) for o in generate("random_rects", 5, None, 0))
        assert all(isinstance(o, Frame) for o in generate("random_frames", 5, None, 0))
        assert all(isinstance(o, Point) for o in generate("grid_points", 5, None, 0))
        assert all(isinstance(o, AxisRect) for o in generate("dyadic_rects", 5, None, 0))

    def test_rects_general_position_many_seeds(self):
        for seed in range(100):
            rects = generate("random_rects", 40, None, seed)
            assert check_general_position(rects)

    def test_parity_split_keeps_joint_general_position(self):
        for seed in range(20):
            a = generate("random_rects", 30, GenParams(parity=0), seed)
            b = generate("random_rects", 30, GenParams(parity=1), 10_000 + seed)
            assert check_general_position(a + b)

    def test_dyadic_form(self):
        for r in generate("dyadic_rects", 50, None, 5):
            w = r.x_hi - r.x_lo
            h = r.y_hi - r.y_lo
            jx = round(-math.log2(w))
            jy = round(-math.log2(h))
            assert math.isclose(w, 2.0**-jx) and math.isclose(h, 2.0**-jy)
            assert math.isclose(r.x_lo * 2**jx, round(r.x_lo * 2**jx))
            assert math.isclose(r.y_lo * 2**jy, round(r.y_lo * 2**jy))
            assert 0 <= r.x_lo and r.x_hi <= 1 and 0 <= r.y_lo and r.y_hi <= 1

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            generate("random_discs", -1, None, 0)
        with pytest.raises(ParamOutOfRange):
            GenParams(radius_lo=0.0)
        for lo, hi in ((0.04, math.inf), (math.inf, math.inf), (0.04, math.nan), (math.nan, 0.1)):
            with pytest.raises(ParamOutOfRange, match="radius_hi < inf"):
                GenParams(radius_lo=lo, radius_hi=hi)
        with pytest.raises(ParamOutOfRange):
            GenParams(extent_lo=0.5, extent_hi=0.2)
        with pytest.raises(ParamOutOfRange):
            GenParams(parity=2)
        with pytest.raises(ValueError):
            generate("mystery", 3, None, 0)

    def test_discs_within_window(self):
        for d in generate("random_discs", 50, None, 1):
            assert 0 <= d.center.x <= 1 and 0 <= d.center.y <= 1
            assert 0.04 <= d.radius <= 0.10


class TestCombosAtLeast:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 14), min_size=0, max_size=10, unique=True),
        st.integers(1, 3),
        st.data(),
    )
    def test_matches_filtered_enumeration(self, pool, t, data):
        pool = sorted(pool)
        universe = sorted(set(pool) | set(range(0, 15, 2)))
        lower = tuple(sorted(data.draw(st.sets(st.sampled_from(universe), min_size=t, max_size=t))))
        got = list(_combos_at_least(pool, t, lower))
        expected = [c for c in itertools.combinations(pool, t) if c >= lower]
        assert got == expected

    def test_none_means_from_start(self):
        assert list(_combos_at_least([1, 2, 3], 2, None)) == [(1, 2), (1, 3), (2, 3)]


def bip(m, n, edges):
    return BipartiteIntersectionGraph.from_edges([f"a{i}" for i in range(m)],
                                                 [f"b{j}" for j in range(n)], edges)


def naive_prune(g, t):
    """Direct transcription of the pruning rule: full witness rescan per step."""
    side_a = list(range(g.m))
    side_b = list(range(g.n))
    edges = set(g.edges)

    def current_graph():
        amap = {v: i for i, v in enumerate(side_a)}
        bmap = {v: j for j, v in enumerate(side_b)}
        cur = {(amap[i], bmap[j]) for i, j in edges if i in amap and j in bmap}
        return BipartiteIntersectionGraph.from_edges([None] * len(side_a), [None] * len(side_b), cur)

    while True:
        cur = current_graph()
        w = find_ktt_witness(cur, t)
        if w is None:
            break
        wa = [side_a[i] for i in w[0]]
        wb = [side_b[j] for j in w[1]]
        deg_a = {v: sum(1 for (i, j) in edges if i == v and j in side_b) for v in wa}
        deg_b = {v: sum(1 for (i, j) in edges if j == v and i in side_a) for v in wb}
        cands = [(deg_a[v], False, -v, "A", v) for v in wa]
        cands += [(deg_b[v], True, -v, "B", v) for v in wb]
        _, _, _, side, victim = max(cands)
        if side == "A":
            side_a.remove(victim)
        else:
            side_b.remove(victim)
    return current_graph()


class TestPrune:
    def test_already_free_unchanged(self):
        g = bip(3, 3, {(0, 0), (1, 1), (2, 2)})
        res = prune_to_ktt_free(g, 2)
        assert res.graph.edges == g.edges
        assert res.deleted_a == [] and res.deleted_b == []
        assert res.witnesses_found == 0

    def test_complete_2x2(self):
        g = bip(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        res = prune_to_ktt_free(g, 2)
        assert len(res.deleted_a) + len(res.deleted_b) == 1
        assert find_ktt_witness(res.graph, 2) is None
        # max-degree tie prefers the B side, then the lowest index
        assert res.deleted_b == [0]

    def test_matches_naive_transcription(self):
        rng = random.Random(7)
        for trial in range(40):
            m = rng.randint(3, 8)
            n = rng.randint(3, 8)
            p = rng.uniform(0.3, 0.7)
            g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p})
            t = rng.choice((2, 3))
            fast = prune_to_ktt_free(g, t)
            slow = naive_prune(g, t)
            assert fast.graph.edges == slow.edges, (trial, m, n, t)
            assert (fast.graph.m, fast.graph.n) == (slow.m, slow.n)

    def test_large_disc_instance_is_free_after_prune(self):
        fam_a = generate("random_discs", 300, GenParams(radius_lo=0.02, radius_hi=0.05), 31)
        fam_b = generate("random_discs", 300, GenParams(radius_lo=0.02, radius_hi=0.05), 32)
        g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
        res = prune_to_ktt_free(g, 2)
        assert find_ktt_witness(res.graph, 2) is None
        assert res.graph.m + len(res.deleted_a) == 300

    def test_families_shrink_consistently(self):
        fam_a = generate("random_discs", 40, None, 8)
        fam_b = generate("random_discs", 40, None, 9)
        g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
        res = prune_to_ktt_free(g, 2)
        assert [fam_a[i] for i in res.kept_a] == res.graph.side_a
        assert [fam_b[j] for j in res.kept_b] == res.graph.side_b

    def test_budget_counts_every_search_of_the_prune(self):
        # ten disjoint K_{2,2}: each witness search fits in 10 steps, the
        # prune's 30 together do not
        g = bip(20, 20, {(2 * c + i, 2 * c + j) for c in range(10) for i in (0, 1) for j in (0, 1)})
        assert find_ktt_witness(g, 2, budget=10) == ((0, 1), (0, 1))
        with pytest.raises(BudgetExceeded) as exc:
            prune_to_ktt_free(g, 2, budget=10)
        assert str(exc.value).startswith("prune stopped after 10 search steps (budget 10); ")
        res = prune_to_ktt_free(g, 2, budget=30)
        assert res.deleted_b == list(range(0, 20, 2)) and res.witnesses_found == 10
        with pytest.raises(BudgetExceeded, match="after 29 search steps"):
            prune_to_ktt_free(g, 2, budget=29)

    def test_t3_prune_at_n512_under_default_budget(self):
        # C(512, 3) = 22,238,720 subsets used to exceed the 2^22 default; the
        # search looks only inside the neighbourhoods
        g = BipartiteIntersectionGraph.from_families(*scaled_disc_instance(512, 1))
        res = prune_to_ktt_free(g, 3)
        assert res.witnesses_found > 0
        assert find_ktt_witness(res.graph, 3) is None

    def test_t_validation(self):
        with pytest.raises(ValueError):
            prune_to_ktt_free(bip(2, 2, set()), 1)
