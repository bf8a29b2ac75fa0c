import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztnet import suite
from ztnet.errors import BudgetExceeded, InvalidNet
from ztnet.generators import GenParams, generate, prune_to_ktt_free
from ztnet.hypergraph import BipartiteIntersectionGraph, primal_hypergraph
from ztnet.nets import TNet, heavy_threshold, pseudodisc_t_net
from ztnet.suite import naive_ktt_free
from ztnet.zarankiewicz import (
    NET_BUILDERS,
    BicliqueSearch,
    NetBuilder,
    BoundReport,
    degree_cutoff_rule,
    find_ktt_witness,
    heavy_count_check,
    num_edges_bound,
)

from graph_oracle import TupleGraph, mask_of
from ktt_oracle import MaskBicliqueSearch, _lex_witness, all_pairs_ktt_free, mask_find_ktt_witness


def bip(m, n, edges):
    return BipartiteIntersectionGraph.from_edges(m, n, edges)


def _draw_pool(data, t, dense=False):
    """A random bipartite graph, alive subsets of both sides and a cursor
    (None, or a sorted t-subset of side A that may name dead vertices)."""
    m, n = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(m) for j in range(n)]
    keep = st.sampled_from([True, True, True, False]) if dense else st.booleans()
    drawn = data.draw(st.lists(keep, min_size=m * n, max_size=m * n))
    edges = {pair for pair, kept in zip(pairs, drawn) if kept}
    live_a = data.draw(st.sets(st.integers(0, m - 1)))
    live_b = data.draw(st.sets(st.integers(0, n - 1)))
    lower = None
    if m >= t and data.draw(st.booleans()):
        lower = tuple(sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=t, max_size=t))))
    return m, n, edges, live_a, live_b, lower


def _lists_and_flags(m, n, edges, live_a, live_b):
    """`BicliqueSearch.scan`'s arguments: both sides' full neighbour lists
    and both alive flag arrays."""
    nbrs = [sorted(j for i2, j in edges if i2 == i) for i in range(m)]
    partner = [sorted(i for i, j2 in edges if j2 == j) for j in range(n)]
    alive = bytearray(i in live_a for i in range(m))
    partner_alive = bytearray(j in live_b for j in range(n))
    return nbrs, partner, alive, partner_alive


def disc_graph(n, seed, radius=(0.05, 0.12)):
    fam_a = generate("random_discs", n, GenParams(radius_lo=radius[0], radius_hi=radius[1]), 2 * seed)
    fam_b = generate("random_discs", n, GenParams(radius_lo=radius[0], radius_hi=radius[1]), 2 * seed + 1)
    return BipartiteIntersectionGraph.from_families(fam_a, fam_b)


class TestWitnessSearch:
    def test_examples(self):
        assert find_ktt_witness(bip(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)}), 2) == (
            (0, 1),
            (0, 1),
        )
        assert find_ktt_witness(bip(2, 1, {(0, 0), (1, 0)}), 2) is None

    def test_witness_is_biclique(self):
        rng = random.Random(1)
        for _ in range(50):
            g = bip(7, 7, {(i, j) for i in range(7) for j in range(7) if rng.random() < 0.5})
            w = find_ktt_witness(g, 2)
            if w is not None:
                sa, sb = w
                assert all((i, j) in g.edges for i in sa for j in sb)

    def test_matches_naive_oracle(self):
        rng = random.Random(2)
        for _ in range(80):
            m, n = rng.randint(2, 12), rng.randint(2, 12)
            p = rng.uniform(0.2, 0.6)
            g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p})
            for t in (2, 3):
                assert (find_ktt_witness(g, t) is None) == naive_ktt_free(g, t)

    @pytest.mark.parametrize("seed", [7, 9001])
    def test_naive_oracle_matches_all_pairs_on_suite_graphs(self, seed):
        # the suite's oracle-ktt graphs, drawn as check_oracles draws them
        rng = random.Random(suite.derive_seed(seed, "oracle-g"))
        answers = set()
        for _ in range(suite.SuiteConfig().oracle_graphs):
            g = suite.random_bipartite_graph(rng, 8, 8, rng.uniform(0.2, 0.6))
            for t in (2, 3):
                free = naive_ktt_free(g, t)
                answers.add(free)
                assert free == all_pairs_ktt_free(g, t)
        assert answers == {True, False}

    def test_naive_oracle_matches_all_pairs_on_random_graphs(self):
        rng = random.Random(3)
        answers = set()
        for _ in range(150):
            m, n = rng.randint(2, 12), rng.randint(2, 12)
            p = rng.uniform(0.2, 0.7)
            g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p})
            for t in (2, 3):
                free = naive_ktt_free(g, t)
                answers.add(free)
                assert free == all_pairs_ktt_free(g, t)
        assert answers == {True, False}

    def test_budget(self):
        # K_{3,3}-free, so the search runs to the end: 28 tests of single
        # vertices, 21 of longer prefixes inside the neighbourhoods
        g = prune_to_ktt_free(disc_graph(30, 0), 3).graph
        assert (g.m, g.n) == (28, 29)
        inside = sum(math.comb(d, 3) for d in g.degrees_b())
        assert find_ktt_witness(g, 3, budget=49) is None
        with pytest.raises(BudgetExceeded) as exc:
            find_ktt_witness(g, 3, budget=48)
        assert str(exc.value) == (
            "witness search stopped after 48 search steps (budget 48); the neighbourhoods "
            f"hold sum_b C(deg b, 3) = {inside} 3-subsets; raise --budget or ZTNET_BUDGET"
        )
        # one step per tested extension: K_{2,2} takes two, none are skipped
        k22 = bip(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        assert find_ktt_witness(k22, 2, budget=2) == ((0, 1), (0, 1))
        with pytest.raises(BudgetExceeded, match="after 1 search steps"):
            find_ktt_witness(k22, 2, budget=1)

    def test_budget_env_override(self, monkeypatch):
        from ztnet.zarankiewicz import resolve_budget

        g = prune_to_ktt_free(disc_graph(30, 0), 3).graph  # 49 steps, as above
        monkeypatch.setenv("ZTNET_BUDGET", "17")
        assert resolve_budget() == 17
        assert resolve_budget(99) == 99  # explicit beats the environment
        with pytest.raises(BudgetExceeded, match=r"after 17 search steps \(budget 17\)"):
            find_ktt_witness(g, 3)
        monkeypatch.setenv("ZTNET_BUDGET", "49")
        assert find_ktt_witness(g, 3) is None
        monkeypatch.setenv("ZTNET_BUDGET", "abc")
        with pytest.raises(ValueError, match="ZTNET_BUDGET.*'abc'"):
            resolve_budget()

    def test_negative_budget_rejected(self, monkeypatch):
        from ztnet.zarankiewicz import resolve_budget

        k22 = bip(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)})
        monkeypatch.setenv("ZTNET_BUDGET", "-5")
        with pytest.raises(ValueError, match=r"^ZTNET_BUDGET must be >= 0, got -5$"):
            resolve_budget()
        with pytest.raises(ValueError, match=r"^ZTNET_BUDGET must be >= 0, got -5$"):
            find_ktt_witness(k22, 2)
        assert resolve_budget(0) == 0  # an explicit budget beats the environment
        monkeypatch.delenv("ZTNET_BUDGET")
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            resolve_budget(-1)
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            find_ktt_witness(k22, 2, budget=-1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_search_matches_lex_oracle(self, t, data):
        # random alive pools on both sides, flagged as the pruner flags them
        # over the full neighbour lists, and cursors that may name dead vertices
        m, n, edges, live_a, live_b, lower = _draw_pool(data, t)
        masks = [mask_of(j for i2, j in edges if i2 == i and j in live_b) if i in live_a else 0
                 for i in range(m)]
        search = BicliqueSearch(t, 2**30, "witness search")
        got = next(search.scan(*_lists_and_flags(m, n, edges, live_a, live_b), lower), None)
        assert got == _lex_witness(sorted(live_a), masks, t, lower)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_search_matches_mask_oracle(self, t, data):
        # same witness and step count as the search on side-long bitmasks,
        # and the budget one below those steps raises the same message
        m, n, edges, live_a, live_b, lower = _draw_pool(data, t, dense=True)
        masks = [mask_of(j for i2, j in edges if i2 == i and j in live_b) if i in live_a else 0
                 for i in range(m)]
        partner = [mask_of(i for i, j2 in edges if j2 == j and i in live_a) if j in live_b else 0
                   for j in range(n)]
        args = _lists_and_flags(m, n, edges, live_a, live_b)
        search, oracle = BicliqueSearch(t, 2**30, "prune"), MaskBicliqueSearch(t, 2**30, "prune")
        got = next(search.scan(*args, lower), None)
        assert got == oracle.first(mask_of(live_a), masks, partner, lower)
        assert search.steps == oracle.steps
        if search.steps:
            budget = search.steps - 1
            with pytest.raises(BudgetExceeded) as exc:
                next(BicliqueSearch(t, budget, "prune").scan(*args, lower))
            with pytest.raises(BudgetExceeded) as expected:
                MaskBicliqueSearch(t, budget, "prune").first(mask_of(live_a), masks, partner, lower)
            assert str(exc.value) == str(expected.value)

    def test_scans_of_one_search_stay_apart(self):
        # one search scans two graphs and both sides of one graph, each from
        # its vertex 0, and resumes them in turn while partners and second
        # vertices die: each answer and step count is a fresh search's from
        # that scan's last witness
        rng = random.Random(9)
        setups = []
        for m, n in ((7, 6), (6, 7)):
            g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < 0.8})
            alive_a, alive_b = bytearray(b"\x01") * m, bytearray(b"\x01") * n
            setups += [(g.nbrs_a, g.nbrs_b, alive_a, alive_b), (g.nbrs_b, g.nbrs_a, alive_b, alive_a)]
        search = BicliqueSearch(2, 2**30, "prune")
        scans = {k: search.scan(*args) for k, args in enumerate(setups)}
        cursors: list = [None] * len(setups)
        for turn in itertools.count():
            for k, scan in list(scans.items()):
                fresh = BicliqueSearch(2, 2**30, "prune")
                expected = next(fresh.scan(*setups[k], cursors[k]), None)
                before = search.steps
                assert next(scan, None) == expected
                assert search.steps - before == fresh.steps
                if expected is None:
                    del scans[k]  # done, as a prune would be
                    continue
                assert turn or expected[0][0] == 0
                cursors[k] = expected[0]
                if turn % 2:
                    setups[k][3][expected[1][0]] = 0  # a partner dies: the scan stays at its vertex
                else:
                    setups[k][2][expected[0][1]] = 0
            if not scans:
                break
        assert turn >= 3

    def test_steps_and_witness_match_mask_oracle_on_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            m, n = rng.randint(1, 14), rng.randint(1, 14)
            p = rng.uniform(0.1, 0.8)
            g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p})
            for t in (1, 2, 3, 4):
                witness, steps = mask_find_ktt_witness(g, t)
                assert find_ktt_witness(g, t) == witness
                if steps:
                    with pytest.raises(BudgetExceeded) as exc:
                        find_ktt_witness(g, t, budget=steps - 1)
                    with pytest.raises(BudgetExceeded) as expected:
                        mask_find_ktt_witness(g, t, budget=steps - 1)
                    assert str(exc.value) == str(expected.value)
                assert find_ktt_witness(g, t, budget=steps) == witness

    def test_search_builds_no_side_long_masks(self):
        g = disc_graph(60, 4)
        find_ktt_witness(g, 2)
        prune_to_ktt_free(g, 2)
        assert set(g.__dict__) == {"side_a", "side_b", "rows", "cols", "_lists"}

    def test_small_sides(self):
        assert find_ktt_witness(bip(1, 5, {(0, j) for j in range(5)}), 2) is None


def _side_graphs(max_side=7):
    """A random `from_edges` graph on 0..max_side vertices a side: sides may
    be empty and vertices isolated."""
    def with_edges(sides):
        m, n = sides
        pairs = st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))) if m and n else st.just(set())
        return st.tuples(st.just(m), st.just(n), pairs)

    return st.tuples(st.integers(0, max_side), st.integers(0, max_side)).flatmap(with_edges)


_EPS = st.sampled_from([Fraction(1, 8), Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(2, 3), Fraction(1)])


def _first_level(g, eps, eps_prime):
    """Level 0 of the t = 1 bound under a constant rule (eps, eps')."""
    return num_edges_bound(g, 1, eps_rule=lambda m, n, t: (eps, eps_prime)).levels[0]


class TestPartition:
    def test_examples(self):
        edges = {(i, 0) for i in range(3)} | {(i, 1) for i in range(2)}
        g = bip(10, 4, edges)
        lv = _first_level(g, Fraction(3, 10), Fraction(1))
        assert heavy_threshold(lv.eps, g.m) == 3
        assert lv.heavy_b == 1  # degree 3 >= 3 is heavy, degree 2 is light
        assert (lv.heavy_a, lv.kind) == (0, "base-light")

    def test_eps_one(self):
        g = bip(2, 2, {(0, 0), (0, 1), (1, 0)})
        rep = num_edges_bound(g, 1, eps_rule=lambda m, n, t: (Fraction(1), Fraction(1)))
        lv = rep.levels[0]
        assert (lv.heavy_a, lv.heavy_b, lv.kind) == (1, 1, "recurse")
        assert (rep.levels[1].m, rep.levels[1].n) == (1, 1)  # the degree-2 vertices on both sides

    def test_threshold_semantics(self):
        g = disc_graph(40, seed=3)
        lv = _first_level(g, Fraction(1, 8), Fraction(1, 8))
        thr_a, thr_b = heavy_threshold(lv.eps_prime, g.n), heavy_threshold(lv.eps, g.m)
        assert lv.heavy_a == sum(d >= thr_a for d in g.degrees_a())
        assert lv.heavy_b == sum(d >= thr_b for d in g.degrees_b())
        assert 0 < lv.heavy_a < g.m and 0 < lv.heavy_b < g.n

    def test_isolated_vertices_never_heavy(self):
        # ceil(eps * 0) = 0 would make every degree-0 vertex heavy
        assert heavy_threshold(Fraction(1, 2), 0) == 1
        lv = _first_level(bip(3, 3, {(0, 0)}), Fraction(1, 3), Fraction(1, 3))
        assert (lv.heavy_a, lv.heavy_b) == (1, 1)  # threshold 1: only the edge's ends
        for m, n in ((0, 2), (2, 0)):
            assert num_edges_bound(bip(m, n, set()), 1).levels == []


class TestHeavySides:
    @settings(max_examples=150, deadline=None)
    @given(_side_graphs(), _EPS, _EPS, st.sampled_from([1, 2]))
    def test_levels_count_heavy_degrees(self, graph, eps, eps_prime, t):
        """Replays the recursion on `TupleGraph`: each level's sides and heavy
        counts are those of degrees >= max(1, ceil(eps * other side))."""
        m, n, edges = graph
        rep = num_edges_bound(bip(m, n, edges), t, eps_rule=lambda m, n, t: (eps, eps_prime))
        current = TupleGraph([None] * m, [None] * n, set(edges))
        for lv in rep.levels:
            assert (lv.m, lv.n) == (current.m, current.n)
            if lv.eps is None:
                assert (lv.heavy_a, lv.heavy_b, lv.kind) == (0, 0, "base-trivial")
                assert min(current.m, current.n) < t
                continue
            assert lv.eps == max(eps, Fraction(t, current.m))
            assert lv.eps_prime == max(eps_prime, Fraction(t, current.n))
            thr_a = max(1, math.ceil(lv.eps_prime * current.n))
            thr_b = max(1, math.ceil(lv.eps * current.m))
            heavy_a = [v for v, d in enumerate(current.degrees_a()) if d >= thr_a]
            heavy_b = [w for w, d in enumerate(current.degrees_b()) if d >= thr_b]
            assert (lv.heavy_a, lv.heavy_b) == (len(heavy_a), len(heavy_b))
            if lv.kind == "recurse":
                current = current.induced(heavy_a, heavy_b)
        if min(m, n) == 0:
            assert rep.levels == []
        else:
            assert rep.levels[-1].kind != "recurse"
        assert rep.bound == sum(lv.additive for lv in rep.levels)


class TestHeavyCount:
    def test_empty_graph(self):
        g = bip(4, 4, set())
        net = TNet(2, frozenset(), Fraction(1, 2))
        rep = heavy_count_check(g, 2, net, "B")
        assert rep.passed and rep.heavy_count == 0

    def test_empty_opposite_side(self):
        net = TNet(2, frozenset(), Fraction(1, 2))
        for g, side in ((bip(0, 3, set()), "B"), (bip(3, 0, set()), "A")):
            rep = heavy_count_check(g, 2, net, side)
            assert rep.passed and rep.heavy_count == 0

    def test_pass_on_pruned_disc_instances(self):
        for seed in range(6):
            g = prune_to_ktt_free(disc_graph(80, seed), 2).graph
            eps = Fraction(6, g.m)
            net, _ = pseudodisc_t_net(primal_hypergraph(g), eps, 2, seed)
            rep = heavy_count_check(g, 2, net, "B")
            assert rep.passed

    def test_corrupted_net_rejected(self):
        # b0 sees {a0..a3}, b1 sees {a4..a7}; both heavy at eps=1/2
        edges = {(i, 0) for i in range(4)} | {(i, 1) for i in range(4, 8)}
        g = bip(8, 2, edges)
        eps = Fraction(1, 2)
        full = TNet(2, frozenset({(0, 1), (4, 5)}), eps)
        assert heavy_count_check(g, 2, full, "B").passed
        corrupted = TNet(2, frozenset({(0, 1)}), eps)
        with pytest.raises(InvalidNet):
            heavy_count_check(g, 2, corrupted, "B")


class TestNumEdgesBound:
    def test_edgeless(self):
        rep = num_edges_bound(bip(3, 2, set()), 2)
        assert rep.bound >= 0 and len(rep.levels) == 1

    def test_one_by_one(self):
        rep = num_edges_bound(bip(1, 1, {(0, 0)}), 2)
        assert rep.bound == 1 and rep.levels[0].kind == "base-trivial"

    def test_sound_on_pruned_instances(self):
        for seed in range(5):
            g = prune_to_ktt_free(disc_graph(64, seed), 2).graph
            for rule in (degree_cutoff_rule, lambda m, n, t: (Fraction(1, 4), Fraction(1, 4))):
                rep = num_edges_bound(g, 2, eps_rule=rule, seed=seed)
                assert rep.bound >= rep.actual_edges

    def test_pseudodisc_levels_meet_the_stacked_cover_floor(self):
        # level 0 leaves heavy sides of fewer than 16 vertices, where eps = 1/4
        # is below the stacked cover's 2t/m; the greedy net keeps t/m
        rule = lambda m, n, t: (Fraction(1, 4), Fraction(1, 4))
        for seed in range(6):
            g = BipartiteIntersectionGraph.from_families(
                generate("random_points", 40, None, 2 * seed),
                generate("random_discs", 20, GenParams(radius_lo=0.2, radius_hi=0.35), 2 * seed + 1),
            )
            for method, floor in (("greedy", 2), ("pseudodisc", 4)):
                rep = num_edges_bound(g, 2, NET_BUILDERS[method], eps_rule=rule, seed=seed)
                assert rep.bound >= rep.actual_edges
                for lv in rep.levels:
                    if lv.eps is not None:
                        assert lv.eps == max(Fraction(1, 4), Fraction(floor, lv.m))
                        assert lv.eps_prime == max(Fraction(1, 4), Fraction(floor, lv.n))
                    else:
                        assert min(lv.m, lv.n) < floor

    def test_monotone_under_edge_deletion(self):
        g = prune_to_ktt_free(disc_graph(48, seed=9), 2).graph
        rule = lambda m, n, t: (Fraction(1, 4), Fraction(1, 4))
        base = num_edges_bound(g, 2, eps_rule=rule, seed=0).bound
        rng = random.Random(0)
        edges = sorted(g.edges)
        for _ in range(min(10, len(edges))):
            removed = rng.choice(edges)
            smaller = BipartiteIntersectionGraph.from_edges(g.m, g.n, g.edges - {removed})
            assert num_edges_bound(smaller, 2, eps_rule=rule, seed=0).bound <= base

    def test_csv_rows_schema(self):
        assert BoundReport.CSV_COLUMNS == (
            "level", "m", "n", "eps", "eps_prime", "s", "s_prime",
            "heavy_a", "heavy_b", "additive", "bound", "edges",
        )
        rep = num_edges_bound(bip(3, 3, {(0, 0)}), 2)
        rows = rep.csv_rows()
        assert len(rows) == len(rep.levels)
        assert len(rows[0]) == len(BoundReport.CSV_COLUMNS)
        trivial = num_edges_bound(bip(1, 2, {(0, 0)}), 2)
        assert trivial.levels[0].kind == "base-trivial"
        assert trivial.csv_rows() == [["0", "1", "2", "", "", "", "", "0", "0", "2", "2", "1"]]
        # every vertex heavy: the product fails to shrink, so the level is
        # trivial but keeps its epsilons and heavy counts
        half = lambda m, n, t: (Fraction(1, 2), Fraction(1, 2))
        full = num_edges_bound(bip(2, 2, {(i, j) for i in range(2) for j in range(2)}), 1, eps_rule=half)
        assert full.levels[0].kind == "base-trivial"
        assert full.csv_rows() == [["0", "2", "2", "1/2", "1/2", "", "", "2", "2", "4", "4", "4"]]

    def test_level_net_missing_heavy_hyperedge_raises(self):
        empty = NetBuilder(lambda h, eps, t, seed: TNet(t, frozenset(), Fraction(eps)), 1)
        g = bip(4, 4, {(0, 0), (1, 0), (2, 0), (0, 1)})
        half = lambda m, n, t: (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(InvalidNet, match=r"^level 0 net misses hyperedge \[0, 1, 2\]$"):
            num_edges_bound(g, 2, empty, eps_rule=half)

    def test_sound_unconditionally(self):
        # the light/heavy decomposition dominates |E| with or without any
        # freeness assumption; exercise dense non-free graphs too
        rng = random.Random(13)
        rule = lambda m, n, t: (Fraction(1, 3), Fraction(1, 3))
        for _ in range(60):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            p = rng.uniform(0.1, 0.95)
            g = bip(m, n, {(i, j) for i in range(m) for j in range(n) if rng.random() < p})
            for r in (rule, degree_cutoff_rule):
                rep = num_edges_bound(g, 2, eps_rule=r, seed=1)
                assert rep.bound >= rep.actual_edges
