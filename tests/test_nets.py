import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztnet import suite
from ztnet.errors import BudgetExceeded, InfeasibleNet, PreconditionViolated
from ztnet.generators import GenParams, generate
from ztnet.hypergraph import BipartiteIntersectionGraph, Hypergraph, primal_hypergraph
from ztnet.nets import (
    TNet,
    _removal_net,
    as_fraction,
    greedy_cover_t_net,
    heavy_dedup_edges,
    heavy_threshold,
    min_t_net_bruteforce,
    pseudodisc_t_net,
    verify_t_net,
)

import net_oracle
from epsilon_net_oracle import sampled_epsilon_net, stacked_cover_set, verify_epsilon_net
from graph_oracle import bits_of, distinct_hyperedges, hypergraph_of, mask_of, set_of
from net_oracle import table_greedy_t_net


def fs(*xs):
    return frozenset(xs)


def disc_hypergraph(n: int, seed: int, radius=(0.05, 0.12)) -> Hypergraph:
    fam_a = generate("random_discs", n, GenParams(radius_lo=radius[0], radius_hi=radius[1]), 2 * seed)
    fam_b = generate("random_discs", n, GenParams(radius_lo=radius[0], radius_hi=radius[1]), 2 * seed + 1)
    return primal_hypergraph(BipartiteIntersectionGraph.from_families(fam_a, fam_b))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, 10))
    n_edges = draw(st.integers(1, 6))
    edges = [
        frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n))) for _ in range(n_edges)
    ]
    return hypergraph_of(n, edges)


@st.composite
def net_inputs(draw):
    """A hypergraph on k named vertices spread over up to 130 indices (masks
    past bit 64), empty and duplicate hyperedges, and eps = q * k / n for q in
    1/8..8/8, so the heavy cutoff is ceil(q * k) whatever the spread."""
    k = draw(st.integers(2, 10))
    n = draw(st.sampled_from([k, 70, 130]))
    names = sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
    edges = [
        frozenset(names[i] for i in draw(st.sets(st.integers(0, k - 1))))
        for _ in range(draw(st.integers(1, 12)))
    ]
    edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    edges = draw(st.permutations(edges))
    return hypergraph_of(n, edges), Fraction(draw(st.integers(1, 8)), 8) * Fraction(k, n)


class TestFractions:
    def test_decimal_floats_are_exact(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction("0.25") == Fraction(1, 4)
        assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
        assert heavy_threshold(0.1, 200) == 20
        assert heavy_threshold(Fraction(1, 3), 10) == 4
        assert heavy_threshold(1, 7) == 7
        assert heavy_threshold(Fraction(1, 2), 0) == 1  # an isolated vertex is never heavy

    def test_range_validation(self):
        with pytest.raises(ValueError):
            heavy_threshold(0, 10)
        with pytest.raises(ValueError):
            heavy_threshold(1.5, 10)


class TestVerifiers:
    def test_epsilon_net_examples(self):
        h = hypergraph_of(2, [fs(0, 1)])
        assert verify_epsilon_net(h, 0.5, {0}) is None
        assert verify_epsilon_net(h, 0.5, set()) == (0, 1)
        h2 = hypergraph_of(5, [fs(0, 1), fs(2, 3, 4)])
        assert verify_epsilon_net(h2, 1, set(range(5))) is None
        # duplicates: the witness is the first heavy hyperedge missed, in input
        # order, as its stored ascending tuple
        h3 = hypergraph_of(6, [fs(3, 4, 5), fs(0, 1), fs(0, 1, 2), fs(3, 4, 5), fs(0, 1, 2)])
        assert verify_epsilon_net(h3, 0.5, set()) == (3, 4, 5)
        assert verify_epsilon_net(h3, 0.5, {4}) == (0, 1, 2)
        assert verify_epsilon_net(h3, 0.5, {0, 4}) is None

    def test_t_net_examples(self):
        h = hypergraph_of(3, [fs(0, 1, 2)])
        good = TNet(2, frozenset({(0, 1)}), Fraction(1))
        assert verify_t_net(h, 1, good) is None
        with pytest.raises(ValueError):
            verify_t_net(h, 1, TNet(2, frozenset({(0, 4)}), Fraction(1)))
        h4 = hypergraph_of(4, [fs(0, 1, 2)])
        miss = TNet(2, frozenset({(0, 3)}), Fraction(3, 4))
        assert verify_t_net(h4, 0.75, miss) == (0, 1, 2)
        h5 = hypergraph_of(5, [fs(2, 3, 4), fs(0, 1), fs(0, 1, 2), fs(2, 3, 4), fs(0, 1, 2)])
        assert verify_t_net(h5, 0.6, TNet(2, frozenset(), Fraction(3, 5))) == (2, 3, 4)
        assert verify_t_net(h5, 0.6, TNet(2, frozenset({(3, 4)}), Fraction(3, 5))) == (0, 1, 2)
        both = TNet(2, frozenset({(3, 4), (0, 2)}), Fraction(3, 5))
        assert verify_t_net(h5, 0.6, both) is None

    def test_tuple_size_validated(self):
        with pytest.raises(ValueError):
            TNet(2, frozenset({(0, 1, 2)}), Fraction(1, 2))

    @pytest.mark.parametrize("tp", [(2, 1), (1, 1), fs(1, 2)], ids=["descending", "repeat", "frozenset"])
    def test_tuple_form_validated(self, tp):
        # a net tuple is a strictly ascending tuple of length t, nothing else
        with pytest.raises(ValueError):
            TNet(2, frozenset({tp}), Fraction(1, 2))


class TestSampledNet:
    def test_forced_and_vacuous(self):
        h = hypergraph_of(4, [fs(0, 1, 2, 3)])
        net = sampled_epsilon_net(h, 1, seed=0)
        assert net & fs(0, 1, 2, 3)
        h2 = hypergraph_of(10, [fs(0)])
        assert verify_epsilon_net(h2, 0.5, sampled_epsilon_net(h2, 0.5, seed=1)) is None

    def test_verifier_accepts_on_seeded_runs(self):
        h = disc_hypergraph(100, seed=5)
        for seed in range(50):
            net = sampled_epsilon_net(h, 0.2, seed)
            assert verify_epsilon_net(h, 0.2, net) is None

    def test_sampling_path_below_cap(self):
        # at eps=0.9 the initial sample is far below the vertex count
        h = disc_hypergraph(600, seed=9, radius=(0.02, 0.05))
        net = sampled_epsilon_net(h, 0.9, seed=3)
        assert len(net) < 600
        assert verify_epsilon_net(h, 0.9, net) is None

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(PreconditionViolated):
            sampled_epsilon_net(hypergraph_of(0, []), 0.5, 0)


class TestStackedCover:
    def test_t1_degenerates_to_epsilon_net(self):
        h = disc_hypergraph(60, seed=2)
        trace = stacked_cover_set(h, 0.5, 1, seed=4)
        assert trace.layer_nets[0] == trace.cover_set
        assert verify_epsilon_net(h, 0.5, trace.cover_set) is None

    def test_forced_depth(self):
        h = hypergraph_of(10, [frozenset(range(10))])
        trace = stacked_cover_set(h, 1, 3, seed=0)
        assert len(trace.cover_set & frozenset(range(10))) >= 3

    def test_precondition(self):
        h = hypergraph_of(10, [frozenset(range(10))])
        with pytest.raises(PreconditionViolated):
            stacked_cover_set(h, 0.1, 3, seed=0)

    def test_layers_disjoint_and_cover(self):
        h = disc_hypergraph(300, seed=7, radius=(0.03, 0.08))
        trace = stacked_cover_set(h, 0.5, 3, seed=11)
        union = set()
        for layer in trace.layer_nets:
            assert not (union & layer)
            union |= layer
        assert frozenset(union) == trace.cover_set

    def test_exhaustive_depth_on_seeded_instances(self):
        for seed in range(10):
            h = disc_hypergraph(200, seed=seed)
            trace = stacked_cover_set(h, 0.1, 3, seed=seed)
            thr = heavy_threshold(0.1, h.vertex_count)
            for e in distinct_hyperedges(h):
                if len(e) >= thr:
                    assert len(e & trace.cover_set) >= 3

    def test_depth_on_abstract_hypergraphs(self):
        # the layering argument never uses geometry
        rng = random.Random(21)
        for _ in range(40):
            t = rng.choice((2, 3))
            n = rng.randint(4 * t, 30)
            edges = [
                frozenset(v for v in range(n) if rng.random() < rng.uniform(0.3, 0.9))
                for _ in range(rng.randint(1, 8))
            ]
            h = hypergraph_of(n, edges)
            trace = stacked_cover_set(h, Fraction(1, 2), t, seed=rng.randrange(10**6))
            thr = heavy_threshold(Fraction(1, 2), n)
            for e in distinct_hyperedges(h):
                if len(e) >= thr:
                    assert len(e & trace.cover_set) >= t


class TestPseudodiscNet:
    def test_all_light_gives_empty_net(self):
        h = hypergraph_of(20, [fs(0, 1)])
        net, _ = pseudodisc_t_net(h, 0.5, 2, seed=0)
        assert net.tuples == frozenset()
        assert verify_t_net(h, 0.5, net) is None

    def test_forced(self):
        h = hypergraph_of(4, [fs(0, 1, 2, 3)])
        net, trace = pseudodisc_t_net(h, 1, 2, seed=0)
        assert all(fs(0, 1, 2, 3).issuperset(tp) for tp in net.tuples)
        assert verify_t_net(h, 1, net) is None
        assert trace.cover_set == fs(0, 1, 2, 3)
        assert net.tuples == net_oracle.pseudodisc_t_net(h, 1, 2, seed=0)[0].tuples

    def test_sound_on_abstract_hypergraphs(self):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(8, 16)
            edges = [
                frozenset(v for v in range(n) if rng.random() < 0.5)
                for _ in range(rng.randint(2, 7))
            ]
            h = hypergraph_of(n, edges)
            t = rng.choice((2, 3))
            if Fraction(1, 2) * n < 2 * t:
                continue
            net, _ = pseudodisc_t_net(h, Fraction(1, 2), t, seed=rng.randrange(999))
            assert verify_t_net(h, Fraction(1, 2), net) is None

    def test_near_oracle_on_tiny_instances(self):
        for seed in range(12):
            h = disc_hypergraph(12, seed=seed, radius=(0.15, 0.4))
            eps = Fraction(1, 2)
            heavy = heavy_dedup_edges(h, eps)
            if not heavy or any(len(e) < 2 for e in heavy):
                continue
            net, _ = pseudodisc_t_net(h, eps, 2, seed=seed)
            oracle = min_t_net_bruteforce(h, eps, 2)
            assert verify_t_net(h, eps, net) is None
            assert net.size() >= oracle.size()
            assert net.size() <= oracle.size() * 10 + 8


@functools.cache
def wide_discs_1500() -> Hypergraph:
    return primal_hypergraph(
        BipartiteIntersectionGraph.from_families(*suite.disc_instance(1500, 1, 0.01, 0.35))
    )


@functools.cache
def suite_net_check(instance: int) -> tuple[Hypergraph, int]:
    """The full suite's net-check hypergraph number `instance`, and its seed."""
    cfg = suite.SuiteConfig()
    seed = suite.derive_seed(cfg.seed, "net", instance)
    h = primal_hypergraph(BipartiteIntersectionGraph.from_families(
        *suite.disc_instance(cfg.net_n, seed, *cfg.net_radius)))
    return h, seed


def structural_outcome(build, h, eps, t, seed):
    """The (net, trace) pair `build` returns, or the type and text it raises."""
    try:
        return build(h, eps, t, seed)
    except (PreconditionViolated, ValueError) as err:
        return type(err), str(err)


@st.composite
def removal_inputs(draw):
    """Heavy masks, a cover and t for the removal order alone.  Each drawn trace
    over the cover is carried by 1-3 distinct hyperedges that differ only off
    the cover, so traces coincide from the start at every size; a trace may
    also get a sibling that swaps one vertex, which it equals once both
    swapped vertices are gone.  Exact duplicates repeat some masks, and traces
    below t cover vertices or an empty cover leave the net empty."""
    t = draw(st.integers(1, 4))
    n = draw(st.integers(1, 14))
    cover = sorted(draw(st.sets(st.integers(0, n - 1))))
    outside = sorted(set(range(n)).difference(cover))
    heavy = []
    for _ in range(draw(st.integers(0, 8))):
        trace = sorted(draw(st.sets(st.sampled_from(cover)))) if cover else []
        others = [v for v in cover if v not in trace]
        if trace and others and draw(st.booleans()):
            heavy.append(mask_of(trace[1:] + [draw(st.sampled_from(others))]))
        for _ in range(draw(st.integers(1, 3))):
            off = draw(st.sets(st.sampled_from(outside))) if outside else set()
            heavy.append(mask_of(trace + sorted(off)))
    if heavy:
        heavy += draw(st.lists(st.sampled_from(heavy), max_size=3))
    return draw(st.permutations(heavy)), frozenset(cover), t


def assert_tuples_in_traces(net, heavy, cover, t):
    """Every tuple lies in a heavy trace over the cover, and there are at most
    as many tuples as distinct traces of >= t cover vertices: each contributes
    the last t of its vertices in removal order."""
    traces = {cover.intersection(e) for e in heavy}
    assert all(any(tr.issuperset(tp) for tr in traces) for tp in net)
    assert len(net) <= len({tr for tr in traces if len(tr) >= t})


class TestStructuralOracle:
    # the structural net against its pre-mask oracle and the per-step mask
    # recount: the same layers, cover and tuples, or the same error, for
    # every seed

    @settings(max_examples=400, deadline=None)
    @given(net_inputs(), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([None, None, None, Fraction(0), Fraction(-1, 2),
                            Fraction(3, 2), Fraction(2)]))
    def test_matches_oracle(self, inputs, t, seed, bad_eps):
        h, eps = inputs
        if bad_eps is not None:
            eps = bad_eps
        got = structural_outcome(pseudodisc_t_net, h, eps, t, seed)
        assert got == structural_outcome(net_oracle.pseudodisc_t_net, h, eps, t, seed)
        assert got == structural_outcome(net_oracle.mask_loop_t_net, h, eps, t, seed)

    @settings(max_examples=600, deadline=None)
    @given(removal_inputs())
    @example(([0b1111, 0b1111], frozenset(range(4)), 2))  # duplicates
    @example(([0b11, 0b1000011], frozenset(range(4)), 2))  # equal at size t
    @example(([0b1111, 0b11001111], frozenset(range(4)), 2))  # equal above t
    @example(([0b10111, 0b11011], frozenset(range(5)), 2))  # equal after removals
    @example(([0b1, 0b110], frozenset(range(3)), 3))  # empty net
    @example(([], frozenset(range(3)), 1))  # no hyperedge
    # traces that merge mid-order, and a duplicated size-t trace that drops,
    # each where counting the tuple once per trace changes the order
    @example(([0b1110100, 0b101001, 0b101100, 0b1010101], frozenset(range(7)), 2))
    @example(([0b111100, 0b1010010, 0b101101, 0b1010010, 0b1010100], frozenset(range(7)), 3))
    def test_removal_order_matches_both_loops(self, inputs):
        heavy, cover, t = inputs
        got = _removal_net([tuple(bits_of(em)) for em in heavy], cover, t)
        assert got == net_oracle.rescan_removal(heavy, cover, t)
        assert got == net_oracle.mask_removal(heavy, cover, t)
        assert_tuples_in_traces(got, [set_of(em) for em in heavy], cover, t)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    def test_matches_oracle_on_sampled_layers(self, eps, t):
        # (8/eps) ln(4/eps) + 8 < n, so every layer is a proper sample of its
        # pool, and the wide radii leave heavy hyperedges at each eps
        h = wide_discs_1500()
        assert heavy_dedup_edges(h, eps)
        got = pseudodisc_t_net(h, eps, t, seed=5)
        assert got == net_oracle.pseudodisc_t_net(h, eps, t, seed=5)
        assert got == net_oracle.mask_loop_t_net(h, eps, t, seed=5)
        assert got[0].size() > 0
        pool = h.vertex_count
        for layer in got[1].layer_nets:
            assert len(layer) < pool
            pool -= len(layer)

    @pytest.mark.parametrize("instance", range(50))
    def test_matches_oracle_on_suite_net_checks(self, instance):
        h, seed = suite_net_check(instance)
        cfg = suite.SuiteConfig()
        for t in cfg.net_ts:
            got = pseudodisc_t_net(h, cfg.net_eps, t, suite.derive_seed(seed, t))
            assert got == net_oracle.pseudodisc_t_net(h, cfg.net_eps, t, suite.derive_seed(seed, t))
            assert got == net_oracle.mask_loop_t_net(h, cfg.net_eps, t, suite.derive_seed(seed, t))

    @pytest.mark.parametrize("instance", range(50))
    def test_tuples_lie_in_heavy_traces_on_suite_net_checks(self, instance):
        h, seed = suite_net_check(instance)
        cfg = suite.SuiteConfig()
        heavy = heavy_dedup_edges(h, cfg.net_eps)
        for t in (2, 3):
            net, trace = pseudodisc_t_net(h, cfg.net_eps, t, suite.derive_seed(seed, t))
            assert net.size() > 0
            assert_tuples_in_traces(net.tuples, heavy, trace.cover_set, t)


@st.composite
def extreme_hypergraphs(draw):
    """A hypergraph on n <= 40 vertices whose hyperedges may be empty, the full
    vertex set, or repeats, and eps in (0, 1] at twelfths.  Past n = 20 the
    sampled nets at eps near 1 are proper samples of the vertex set."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(21, 40)))
    edge = st.one_of(st.sets(st.integers(0, n - 1)).map(sorted), st.just([]), st.just(list(range(n))))
    edges = draw(st.lists(edge, max_size=10))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return Hypergraph(n, draw(st.permutations(edges))), Fraction(draw(st.integers(1, 12)), 12)


def outcome(fn, *args):
    """What `fn(*args)` returns, or the type and text of the net error it raises."""
    try:
        return fn(*args)
    except (InfeasibleNet, PreconditionViolated) as err:
        return type(err), str(err)


class TestListsMatchMaskOracle:
    @settings(max_examples=400, deadline=None)
    @given(extreme_hypergraphs(), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
    @example((Hypergraph(1, [[], [0], [0]]), Fraction(1)), 1, 0, None)  # the full edge, repeated
    @example((Hypergraph(4, [[], [0, 1, 2, 3]]), Fraction(1, 2)), 2, 7, None)  # cover over all of V
    def test_nets_and_witnesses_match(self, inputs, t, seed, data):
        # the list versions against the side-long mask bodies they replaced:
        # the same heavy view, nets, cover layers, first missed witnesses and errors
        h, eps = inputs
        pools = [None, list(range(h.vertex_count))]
        if data is not None:
            pools.append(sorted(data.draw(st.sets(st.integers(0, h.vertex_count - 1), min_size=1))))
        for pool in pools:  # the heavy view, and the traces over a cover layer's pool
            heavy = outcome(heavy_dedup_edges, h, eps, t, pool)
            masks = outcome(net_oracle.heavy_masks, h, eps, t, pool)
            assert heavy == (masks if isinstance(masks, tuple) else [tuple(bits_of(em)) for em in masks])
        assert outcome(greedy_cover_t_net, h, eps, t) == outcome(net_oracle.mask_greedy_t_net, h, eps, t)
        got = outcome(pseudodisc_t_net, h, eps, t, seed)
        assert got == outcome(net_oracle.mask_pseudodisc_t_net, h, eps, t, seed)
        assert outcome(stacked_cover_set, h, eps, t, seed) == outcome(
            lambda *args: net_oracle.mask_stacked_cover(*args)[0], h, eps, t, seed)
        assert outcome(sampled_epsilon_net, h, eps, seed) == outcome(
            net_oracle.sampled_epsilon_net, h, eps, seed)
        stab, tuples = set(), []
        if data is not None:
            vertex = st.integers(0, h.vertex_count - 1)
            stab = data.draw(st.sets(vertex))
            if h.vertex_count >= t:
                tuples = data.draw(st.lists(st.sets(vertex, min_size=t, max_size=t)))
        assert verify_epsilon_net(h, eps, stab) == net_oracle.mask_verify_epsilon_net(h, eps, stab)
        drawn = TNet(t, frozenset(tuple(sorted(tp)) for tp in tuples), eps)
        for net in [drawn, got[0]] if isinstance(got[0], TNet) else [drawn]:
            assert verify_t_net(h, eps, net) == net_oracle.mask_verify_t_net(h, eps, net)


class TestGreedy:
    def test_examples(self):
        assert greedy_cover_t_net(hypergraph_of(3, [fs(0)]), 1, 2).tuples == frozenset()
        h = hypergraph_of(3, [fs(0, 1), fs(0, 1, 2)])
        net = greedy_cover_t_net(h, Fraction(2, 3), 2)
        assert net.tuples == frozenset({(0, 1)})

    def test_infeasible(self):
        h = hypergraph_of(4, [fs(0)])
        with pytest.raises(InfeasibleNet):
            greedy_cover_t_net(h, Fraction(1, 4), 2)

    def test_classic_approximation_bound(self):
        rng = random.Random(5)
        for _ in range(40):
            edges = [
                frozenset(v for v in range(12) if rng.random() < 0.5)
                for _ in range(rng.randint(2, 6))
            ]
            h = hypergraph_of(12, edges)
            t = 2
            heavy = heavy_dedup_edges(h, Fraction(1, 3))
            if not heavy or any(len(e) < t for e in heavy):
                continue
            greedy = greedy_cover_t_net(h, Fraction(1, 3), t)
            oracle = min_t_net_bruteforce(h, Fraction(1, 3), t)
            assert verify_t_net(h, Fraction(1, 3), greedy) is None
            assert oracle.size() <= greedy.size()
            assert greedy.size() <= math.ceil(oracle.size() * (math.log(len(heavy)) + 1))

    @settings(max_examples=80, deadline=None)
    @given(hypergraphs(), st.integers(1, 3))
    def test_matches_plain_greedy(self, h, t):
        # set greedy: most uncovered heavy edges, then lexicographically smallest
        eps = Fraction(1, 2)
        heavy = heavy_dedup_edges(h, eps)
        if any(len(e) < t for e in heavy):
            with pytest.raises(InfeasibleNet):
                greedy_cover_t_net(h, eps, t)
            return
        cands = sorted({c for e in heavy for c in itertools.combinations(sorted(e), t)})
        uncovered, chosen = list(heavy), set()
        while uncovered:
            best = min(cands, key=lambda c: (-sum(1 for e in uncovered if set(c) <= set(e)), c))
            chosen.add(best)
            uncovered = [e for e in uncovered if not set(best) <= set(e)]
        assert greedy_cover_t_net(h, eps, t).tuples == frozenset(chosen)

    @settings(max_examples=400, deadline=None)
    @given(net_inputs(), st.integers(1, 3))
    def test_matches_table_greedy(self, inputs, t):
        h, eps = inputs
        try:
            expected = table_greedy_t_net(h, eps, t)
        except InfeasibleNet as err:
            with pytest.raises(InfeasibleNet) as got:
                greedy_cover_t_net(h, eps, t)
            assert str(got.value) == str(err)
            return
        assert greedy_cover_t_net(h, eps, t) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_table_greedy_on_suite_discs(self, seed):
        # the suite's net-check discs: hundreds of heavy edges, big-int column masks
        h = primal_hypergraph(
            BipartiteIntersectionGraph.from_families(*suite.disc_instance(150, seed, 0.05, 0.12))
        )
        eps = Fraction(1, 10)
        assert greedy_cover_t_net(h, eps, 3) == table_greedy_t_net(h, eps, 3)

    def test_valid_at_n1200(self):
        # 262 heavy edges holding 1.2e8 t=3 subsets (with repeats): past the candidate table
        h = primal_hypergraph(
            BipartiteIntersectionGraph.from_families(*suite.disc_instance(1200, 5, 0.05, 0.12))
        )
        net = greedy_cover_t_net(h, Fraction(1, 10), 3)
        assert net.size() > 0
        assert verify_t_net(h, Fraction(1, 10), net) is None

    def test_later_picks_stop_at_previous_count(self):
        # rows and columns of a k x k grid: two lines share at most one point,
        # so every t=3 pick covers exactly one line.  The first pick walks
        # about k^4 / 2 prefixes; each later one ends at its first full tuple.
        # Walking on to the end at every pick takes over 4 k^4 popcounts.
        k = 16
        lines = [frozenset(r * k + c for c in range(k)) for r in range(k)]
        lines += [frozenset(r * k + c for r in range(k)) for c in range(k)]
        h = hypergraph_of(k * k, lines)
        popcounts = 0

        def count(frame, event, arg):
            nonlocal popcounts
            if event == "c_call" and getattr(arg, "__name__", "") == "bit_count":
                popcounts += 1

        sys.setprofile(count)
        try:
            net = greedy_cover_t_net(h, Fraction(1, k), 3)
        finally:
            sys.setprofile(None)
        assert net.size() == 2 * k
        assert verify_t_net(h, Fraction(1, k), net) is None
        assert popcounts <= k**4, popcounts


class TestSizeScaling:
    def test_tuple_count_bounded_across_doubling(self):
        # desk-scale shadow of the O(t^5 / eps) size bound: at fixed eps the
        # tuple count must not keep pace with n as it doubles 128 -> 1024
        eps = Fraction(1, 10)
        for t in (2, 3):
            per_size = []
            for n in (128, 256, 512, 1024):
                sizes = []
                for seed in range(2):
                    h = disc_hypergraph(n, seed=50 + seed, radius=(0.05, 0.13))
                    net, _ = pseudodisc_t_net(h, eps, t, seed)
                    assert verify_t_net(h, eps, net) is None
                    sizes.append(net.size())
                per_size.append(sum(sizes) / len(sizes))
            assert max(per_size) <= 4 * per_size[0] + 8, per_size


class TestBruteforce:
    def test_examples(self):
        assert min_t_net_bruteforce(hypergraph_of(3, [fs(0)]), 1, 2).size() == 0
        two = min_t_net_bruteforce(hypergraph_of(4, [fs(0, 1), fs(2, 3)]), 0.5, 1)
        assert two.size() == 2
        one = min_t_net_bruteforce(hypergraph_of(4, [fs(0, 1, 2), fs(1, 2, 3)]), 0.75, 2)
        assert one.size() == 1 and one.tuples == frozenset({(1, 2)})

    def test_budget(self):
        edges = [frozenset({i, j, (i + j) % 9}) for i in range(9) for j in range(i + 1, 9)]
        h = hypergraph_of(9, edges)
        with pytest.raises(BudgetExceeded):
            min_t_net_bruteforce(h, Fraction(1, 9), 2, budget=5)

    @settings(max_examples=60, deadline=None)
    @given(hypergraphs(), st.integers(1, 3))
    def test_valid_and_minimal(self, h, t):
        eps = Fraction(1, 2)
        heavy = heavy_dedup_edges(h, eps)
        if any(len(e) < t for e in heavy):
            with pytest.raises(InfeasibleNet):
                min_t_net_bruteforce(h, eps, t)
            return
        net = min_t_net_bruteforce(h, eps, t)
        assert verify_t_net(h, eps, net) is None
        cands = sorted({c for e in heavy for c in itertools.combinations(sorted(e), t)})
        if net.size() and math.comb(len(cands), net.size() - 1) < 3000:
            for combo in itertools.combinations(cands, net.size() - 1):
                smaller = TNet(t, frozenset(combo), eps)
                assert verify_t_net(h, eps, smaller) is not None
