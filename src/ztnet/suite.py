"""Verification battery: every structural claim and counting inequality the
package relies on, run end to end on seeded instances.

`desk_config` keeps a CLI run interactive; `full_config` uses the
acceptance-scale sizes.  All randomness flows from the config seed through
`derive_seed`, so two runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import statistics
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .generators import GenParams, generate, prune_to_ktt_free
from .geometry import AxisRect, Disc, Point
from .hypergraph import (
    BipartiteIntersectionGraph,
    Hypergraph,
    primal_hypergraph,
    dual_hypergraph,
    vc_dimension,
)
from .nets import (
    greedy_cover_t_net,
    heavy_dedup_edges,
    min_t_net_bruteforce,
    pseudodisc_t_net,
    verify_t_net,
)
from .points_pseudodiscs import (
    coverage_violations,
    counting_inequality_check,
    shrink_events,
)
from .rectangles import (
    hereditary_planarity_check,
    horizontal_edges_of,
    canonical_segment_tuples,
    intersection_type_census,
    rectangle_bound_report,
    segment_delaunay,
)
from .zarankiewicz import (
    degree_cutoff_rule,
    find_ktt_witness,
    heavy_count_check,
    num_edges_bound,
)


def derive_seed(base: int, *parts) -> int:
    """Stable sub-seed from a base seed and arbitrary labels."""
    text = repr((base,) + parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    # disc instances for net soundness and cover depth
    net_instances: int = 50
    net_n: int = 200
    net_ts: tuple = (2, 3)
    net_eps: Fraction = Fraction(1, 10)
    net_radius: tuple = (0.05, 0.12)
    # oracle cross-checks
    oracle_hypergraphs: int = 200
    oracle_graphs: int = 200
    # pruned instances for the bound and inequality checks
    bound_sizes: tuple = (64, 128, 256)
    bound_seeds_per_size: int = 5
    pd_instances: int = 5
    pd_points: int = 100
    pd_discs: int = 60
    # edge-density scaling shadow
    scaling_sizes: tuple = (128, 256, 512, 1024)
    scaling_seeds: int = 10
    # rectangle census partition
    census_instances: int = 100
    census_n: int = 40
    # canonical segment tuples and Delaunay planarity
    segment_sizes: tuple = (100, 200, 400, 800)
    segment_seeds: int = 10
    planarity_samples: int = 1000
    # VC dimension cap
    vc_instances: int = 100
    vc_vertices: int = 10
    vc_b_side: int = 60
    vc_cap: int = 6
    # shrink trajectories
    shrink_triples: int = 1000

    def to_json(self) -> dict:
        d = asdict(self)
        d["net_eps"] = str(self.net_eps)
        return d


def full_config(seed: int = 7) -> SuiteConfig:
    return SuiteConfig(seed=seed)


def desk_config(seed: int = 7) -> SuiteConfig:
    """Reduced sizes so a double suite run stays well under a minute."""
    return SuiteConfig(
        seed=seed,
        net_instances=6,
        net_n=120,
        net_eps=Fraction(1, 10),
        oracle_hypergraphs=40,
        oracle_graphs=40,
        bound_sizes=(32, 64),
        bound_seeds_per_size=2,
        pd_instances=2,
        pd_points=60,
        pd_discs=36,
        scaling_sizes=(64, 128, 256),
        scaling_seeds=3,
        census_instances=20,
        census_n=20,
        segment_sizes=(60, 120),
        segment_seeds=3,
        planarity_samples=200,
        vc_instances=20,
        vc_b_side=40,
        shrink_triples=150,
    )


@dataclass
class CheckRow:
    check: str
    params: str
    observed: str
    passed: bool


@dataclass
class SuiteResult:
    config: SuiteConfig
    rows: list[CheckRow]
    bound_rows: list[list[str]]  # per-level rows of every bound report

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


# ---------------------------------------------------------------------------
# instance builders


def pair_instance(seed: int, side_a: tuple, side_b: tuple):
    """The seeded pair recipe: side a is generate(kind, size, params) for
    side_a = (kind, size, params) under derive_seed(seed, "a"), side b the
    same for side_b under derive_seed(seed, "b")."""
    return generate(*side_a, derive_seed(seed, "a")), generate(*side_b, derive_seed(seed, "b"))


def disc_instance(n: int, seed: int, r_lo: float, r_hi: float, m: Optional[int] = None):
    """n discs on side a and m (default n) on side b, radii in [r_lo, r_hi]."""
    p = GenParams(radius_lo=r_lo, radius_hi=r_hi)
    return pair_instance(seed, ("random_discs", n, p), ("random_discs", n if m is None else m, p))


def scaled_disc_instance(n: int, seed: int):
    """Radii ~ 1/sqrt(n) keep the expected degree constant across sizes."""
    return disc_instance(n, seed, 0.25 / math.sqrt(n), 0.75 / math.sqrt(n))


def rect_instance(
    n: int, seed: int, lo: float, hi: float, m: Optional[int] = None, kind: str = "random_rects"
):
    """n rects (or frames) on side a and m (default n) on side b, extents in
    [lo, hi]; the two sides draw coordinates of opposite parity."""
    pa = GenParams(extent_lo=lo, extent_hi=hi, parity=0)
    pb = GenParams(extent_lo=lo, extent_hi=hi, parity=1)
    return pair_instance(seed, (kind, n, pa), (kind, n if m is None else m, pb))


def scaled_rect_instance(n: int, seed: int):
    lo = 0.5 / math.sqrt(n)
    hi = 1.5 / math.sqrt(n)
    return rect_instance(n, seed, lo, hi)


def points_discs_instance(n_pts: int, n_discs: int, seed: int):
    pts = generate("random_points", n_pts, None, derive_seed(seed, "pts"))
    discs = generate(
        "random_discs",
        n_discs,
        GenParams(radius_lo=0.05, radius_hi=0.15),
        derive_seed(seed, "discs"),
    )
    return pts, discs


def segment_instance(n_segments: int, seed: int):
    """Horizontal segments from n/2 general-position rectangles."""
    rects = generate(
        "random_rects",
        n_segments // 2,
        GenParams(extent_lo=0.1, extent_hi=0.4),
        seed,
    )
    return horizontal_edges_of(rects)


@dataclass
class SuiteInstance:
    name: str
    kind: str  # discs | rects | points_discs
    graph: BipartiteIntersectionGraph  # pruned and re-verified K_{2,2}-free


def _pruned_and_verified(fam_a, fam_b) -> BipartiteIntersectionGraph:
    pruned = prune_to_ktt_free(BipartiteIntersectionGraph.from_families(fam_a, fam_b), 2).graph
    witness = find_ktt_witness(pruned, 2)
    if witness is not None:
        raise AssertionError(f"pruner left a biclique behind: {witness}")
    return pruned


def build_suite_instances(cfg: SuiteConfig) -> list[SuiteInstance]:
    """The shared pruned instance pool used by the bound and chain checks."""
    out = []
    for kind, label, recipe in (
        ("discs", "suite-disc", scaled_disc_instance),
        ("rects", "suite-rect", scaled_rect_instance),
    ):
        for n in cfg.bound_sizes:
            for s in range(cfg.bound_seeds_per_size):
                fams = recipe(n, derive_seed(cfg.seed, label, n, s))
                out.append(SuiteInstance(f"{kind}-{n}-{s}", kind, _pruned_and_verified(*fams)))
    for s in range(cfg.pd_instances):
        seed = derive_seed(cfg.seed, "suite-pd", s)
        fams = points_discs_instance(cfg.pd_points, cfg.pd_discs, seed)
        out.append(SuiteInstance(f"ptsdiscs-{s}", "points_discs", _pruned_and_verified(*fams)))
    return out


# ---------------------------------------------------------------------------
# independent oracles


_CHUNK_CELLS = 1 << 20  # adjacency cells naive_ktt_free gathers per chunk of t-subsets


def naive_ktt_free(g: BipartiteIntersectionGraph, t: int) -> bool:
    """Biclique oracle on the dense adjacency matrix built from the edge
    arrays: does a t-subset of A (t >= 1) have t common neighbours?  The
    subsets come from `itertools.combinations`, a chunk of index rows at a
    time, each chunk gathering at most _CHUNK_CELLS cells (or one subset's
    t rows)."""
    adj = np.zeros((g.m, g.n), dtype=bool)
    adj[g.rows, g.cols] = True
    subsets, per_chunk = itertools.combinations(range(g.m), t), max(1, _CHUNK_CELLS // max(1, t * g.n))
    while True:
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, per_chunk)), np.intp)
        if len(chunk) == 0:
            return True
        if (adj[chunk.reshape(-1, t)].all(axis=1).sum(axis=1) >= t).any():
            return False


def closed_box_pair_count(fam_a, fam_b) -> int:
    """How many pairs of AxisRects meet as closed boxes, by one dense
    broadcast over the coordinates read from the objects; other kinds raise."""
    for o in itertools.chain(fam_a, fam_b):
        if type(o) is not AxisRect:
            raise TypeError(f"closed_box_pair_count takes AxisRects, got {type(o).__name__}")
    a, b = (np.array([(r.x_lo, r.x_hi, r.y_lo, r.y_hi) for r in fam], float).reshape(-1, 4).T for fam in (fam_a, fam_b))
    ax_lo, ax_hi, ay_lo, ay_hi = a[:, :, None]
    meet = (ax_lo <= b[1]) & (b[0] <= ax_hi) & (ay_lo <= b[3]) & (b[2] <= ay_hi)
    return int(meet.sum())


def bisection_exits(paths, iters: int = 100) -> np.ndarray:
    """First boundary crossing of every shrink path (cx, cy, r, ax, ay, px,
    py): disc centre and radius, anchor, point.  One bisection over all of
    them on g(s) = |p - center(s)| - radius(s); g is convex with
    g(0) <= 0 < g(1), and a path with g(0) >= 0 exits at 0."""
    cx, cy, r, ax, ay, px, py = np.asarray(paths, float).reshape(-1, 7).T

    def g(s):
        return np.hypot(px - ((1 - s) * cx + s * ax), py - ((1 - s) * cy + s * ay)) - (1 - s) * r

    lo, hi = np.zeros(len(cx)), np.ones(len(cx))
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        out = g(mid) >= 0.0
        lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)
    return np.where(g(np.zeros(len(cx))) >= 0.0, 0.0, (lo + hi) / 2.0)


def random_tiny_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(6, 12)
    n_edges = rng.randint(3, 8)
    return Hypergraph(n, [[v for v in range(n) if rng.random() < 0.45] for _ in range(n_edges)])


def random_bipartite_graph(rng: random.Random, m: int, n: int, p: float):
    edges = [(i, j) for i in range(m) for j in range(n) if rng.random() < p]
    return BipartiteIntersectionGraph.from_edges([None] * m, [None] * n, edges)


# ---------------------------------------------------------------------------
# the checks


def check_net_soundness_and_cover(cfg: SuiteConfig) -> list[CheckRow]:
    """Both net constructors verify on every instance; the stacked cover set
    leaves >= t vertices in every heavy hyperedge, exhaustively."""
    net_failures = 0
    cover_failures = 0
    runs = 0
    for i in range(cfg.net_instances):
        seed = derive_seed(cfg.seed, "net", i)
        fam_a, fam_b = disc_instance(cfg.net_n, seed, *cfg.net_radius)
        g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
        h = primal_hypergraph(g)
        heavy = heavy_dedup_edges(h, cfg.net_eps)
        for t in cfg.net_ts:
            runs += 1
            pd_net, trace = pseudodisc_t_net(h, cfg.net_eps, t, derive_seed(seed, t))
            if verify_t_net(h, cfg.net_eps, pd_net) is not None:
                net_failures += 1
            gr_net = greedy_cover_t_net(h, cfg.net_eps, t)
            if verify_t_net(h, cfg.net_eps, gr_net) is not None:
                net_failures += 1
            cover = trace.cover_set
            if any(len(cover.intersection(e)) < t for e in heavy):
                cover_failures += 1
    rows = [
        CheckRow(
            "net-soundness",
            f"instances={cfg.net_instances} n={cfg.net_n} t={cfg.net_ts} eps={cfg.net_eps}",
            f"constructor_runs={runs} verifier_failures={net_failures}",
            net_failures == 0,
        ),
        CheckRow(
            "cover-depth",
            f"instances={cfg.net_instances} n={cfg.net_n} t={cfg.net_ts} eps={cfg.net_eps}",
            f"cover_failures={cover_failures}",
            cover_failures == 0,
        ),
    ]
    return rows


def check_oracles(cfg: SuiteConfig) -> list[CheckRow]:
    """Brute-force net minimality and the naive biclique oracle."""
    rng = random.Random(derive_seed(cfg.seed, "oracle-h"))
    bf_bad = 0
    ordering_bad = 0
    minimality_checked = 0
    for _ in range(cfg.oracle_hypergraphs):
        h = random_tiny_hypergraph(rng)
        t = rng.choice((2, 3))
        eps = Fraction(1, 2)
        heavy = heavy_dedup_edges(h, eps)
        if any(len(e) < t for e in heavy):
            continue
        bf = min_t_net_bruteforce(h, eps, t)
        if verify_t_net(h, eps, bf) is not None:
            bf_bad += 1
            continue
        # independent minimality check: every smaller candidate subset leaves
        # some heavy hyperedge without a tuple inside it
        cands = [frozenset(c) for c in sorted({c for e in heavy for c in itertools.combinations(e, t)})]
        k = bf.size()
        if k > 0 and math.comb(len(cands), k - 1) <= 20000:
            minimality_checked += 1
            for combo in itertools.combinations(cands, k - 1):
                if all(any(c.issubset(e) for c in combo) for e in heavy):
                    bf_bad += 1
                    break
        greedy = greedy_cover_t_net(h, eps, t)
        if verify_t_net(h, eps, greedy) is not None or greedy.size() < bf.size():
            ordering_bad += 1
        if h.vertex_count >= 4 * t:  # stacked-cover precondition eps*n >= 2t at eps=1/2
            pd, _ = pseudodisc_t_net(h, eps, t, derive_seed(cfg.seed, "pd-oracle"))
            if verify_t_net(h, eps, pd) is not None or pd.size() < bf.size():
                ordering_bad += 1
    rng2 = random.Random(derive_seed(cfg.seed, "oracle-g"))
    ktt_mismatch = 0
    for _ in range(cfg.oracle_graphs):
        g = random_bipartite_graph(rng2, 8, 8, rng2.uniform(0.2, 0.6))
        for t in (2, 3):
            if (find_ktt_witness(g, t) is None) != naive_ktt_free(g, t):
                ktt_mismatch += 1
    return [
        CheckRow(
            "oracle-min-net",
            f"hypergraphs={cfg.oracle_hypergraphs}",
            f"bruteforce_failures={bf_bad} dominance_failures={ordering_bad} "
            f"minimality_verified={minimality_checked}",
            bf_bad == 0 and ordering_bad == 0 and minimality_checked > 0,
        ),
        CheckRow(
            "oracle-ktt",
            f"graphs={cfg.oracle_graphs} size=8x8 t=(2,3)",
            f"mismatches={ktt_mismatch}",
            ktt_mismatch == 0,
        ),
    ]


def check_heavy_counts(cfg: SuiteConfig, instances: list[SuiteInstance]) -> list[CheckRow]:
    """heavy count <= (t-1)|N| on both sides of every pruned disc instance."""
    failures = 0
    checks = 0
    for inst in instances:
        if inst.kind != "discs":
            continue
        g = inst.graph
        if min(g.m, g.n) == 0:
            continue
        for t in (2, 3):
            eps = Fraction(2 * t + 2, g.m)
            eps_p = Fraction(2 * t + 2, g.n)
            if eps > 1 or eps_p > 1:
                continue
            h = primal_hypergraph(g)
            hd = dual_hypergraph(g)
            net, _ = pseudodisc_t_net(h, eps, t, derive_seed(cfg.seed, inst.name, t, "p"))
            net_d, _ = pseudodisc_t_net(hd, eps_p, t, derive_seed(cfg.seed, inst.name, t, "d"))
            for side, nn in (("B", net), ("A", net_d)):
                checks += 1
                if not heavy_count_check(g, t, nn, side).passed:
                    failures += 1
    return [
        CheckRow(
            "heavy-count",
            f"disc_instances t=(2,3) checks={checks}",
            f"failures={failures}",
            failures == 0 and checks > 0,
        )
    ]


def check_alg1(cfg: SuiteConfig, instances: list[SuiteInstance]):
    """Bound >= |E| on every pruned disc and rect instance, under the default
    cutoff rule and a fixed eps = 8/m, eps' = 8/n rule.  Neither rule recurses
    here: every run stops at level 0, where at most one side has a heavy
    vertex."""
    failures = 0
    runs = 0
    bound_rows: list[list[str]] = []

    def aggressive(m: int, n: int, t: int):
        return min(Fraction(1), Fraction(8, m)), min(Fraction(1), Fraction(8, n))

    for inst in instances:
        if inst.kind == "points_discs":
            continue
        g = inst.graph
        for rule_name, rule in (("cutoff", degree_cutoff_rule), ("eps8", aggressive)):
            runs += 1
            report = num_edges_bound(g, 2, eps_rule=rule, seed=derive_seed(cfg.seed, inst.name))
            if report.bound < report.actual_edges:
                failures += 1
            for row in report.csv_rows():
                bound_rows.append([inst.name, rule_name] + row)
    rows = [
        CheckRow(
            "alg1-soundness",
            f"instances={len([i for i in instances if i.kind != 'points_discs'])} t=2 rules=(cutoff,eps8)",
            f"runs={runs} bound_violations={failures}",
            failures == 0 and runs > 0,
        )
    ]
    return rows, bound_rows


def check_scaling(cfg: SuiteConfig) -> list[CheckRow]:
    """|E|/n of pruned disc instances stays within 2x of its smallest-size value."""
    medians = []
    for n in cfg.scaling_sizes:
        ratios = []
        for s in range(cfg.scaling_seeds):
            seed = derive_seed(cfg.seed, "scaling", n, s)
            fam_a, fam_b = scaled_disc_instance(n, seed)
            g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
            pruned = prune_to_ktt_free(g, 2).graph
            ratios.append(pruned.edge_count / n)
        medians.append(statistics.median(ratios))
    base = medians[0]
    ok = all(m <= 2 * base for m in medians) and base > 0
    return [
        CheckRow(
            "edge-scaling",
            f"sizes={cfg.scaling_sizes} seeds={cfg.scaling_seeds} t=2",
            "medians=" + ",".join(f"{m:.3f}" for m in medians),
            ok,
        )
    ]


def check_census(cfg: SuiteConfig) -> list[CheckRow]:
    """type1+type2+type3+type4 equals the independent intersecting-pair count."""
    bad = 0
    for i in range(cfg.census_instances):
        seed = derive_seed(cfg.seed, "census", i)
        fam_a, fam_b = rect_instance(cfg.census_n, seed, 0.05, 0.3)
        if intersection_type_census(fam_a, fam_b).total != closed_box_pair_count(fam_a, fam_b):
            bad += 1
    return [
        CheckRow(
            "census-partition",
            f"instances={cfg.census_instances} n=m={cfg.census_n}",
            f"identity_failures={bad}",
            bad == 0,
        )
    ]


def check_segments(cfg: SuiteConfig) -> list[CheckRow]:
    """|F|/n stays within 2x across sizes; Del(J) meets the Euler bound on
    every sampled induced subgraph."""
    k = 3  # 2t-1 at t=2
    medians = []
    planarity_violations = 0
    samples_run = 0
    for n in cfg.segment_sizes:
        ratios = []
        for s in range(cfg.segment_seeds):
            seed = derive_seed(cfg.seed, "segments", n, s)
            hsegs = segment_instance(n, seed)
            fam = canonical_segment_tuples(hsegs, k)
            ratios.append(fam.size() / len(hsegs))
            dela = segment_delaunay(hsegs)
            rep = hereditary_planarity_check(
                dela.graph, cfg.planarity_samples, derive_seed(seed, "planarity")
            )
            planarity_violations += rep.violations
            samples_run += rep.samples_checked
        medians.append(statistics.median(ratios))
    base = medians[0]
    ratio_ok = base > 0 and all(base / 2 <= m <= 2 * base for m in medians)
    return [
        CheckRow(
            "canonical-family-scaling",
            f"sizes={cfg.segment_sizes} seeds={cfg.segment_seeds} k={k}",
            "medians=" + ",".join(f"{m:.3f}" for m in medians),
            ratio_ok,
        ),
        CheckRow(
            "delaunay-planarity",
            f"samples_per_instance={cfg.planarity_samples}",
            f"samples={samples_run} euler_violations={planarity_violations}",
            planarity_violations == 0,
        ),
    ]


def check_chains(cfg: SuiteConfig, instances: list[SuiteInstance]) -> list[CheckRow]:
    """The exact inequality chains on every pruned suite instance; the pool's
    graphs are K_{2,2}-free, as `_pruned_and_verified` checked, and a broken
    chain raises InequalityViolated."""
    rects = [inst.graph for inst in instances if inst.kind == "rects"]
    pds = [inst.graph for inst in instances if inst.kind == "points_discs"]
    for g in rects:
        rectangle_bound_report(g.side_a, g.side_b, 2)
    for g in pds:
        counting_inequality_check(g, 2)
    return [
        CheckRow(
            "inequality-chains",
            f"rect_instances={len(rects)} pd_instances={len(pds)} t=2",
            f"rect_ok={len(rects)} pd_ok={len(pds)}",
            len(rects) > 0 and len(pds) > 0,
        )
    ]


def check_vc(cfg: SuiteConfig) -> list[CheckRow]:
    """VC-dimension of disc-disc hypergraphs stays <= 4 (cap 6, exact)."""
    worst = 0
    over = 0
    for i in range(cfg.vc_instances):
        seed = derive_seed(cfg.seed, "vc", i)
        fams = disc_instance(cfg.vc_vertices, seed, 0.1, 0.8, cfg.vc_b_side)
        g = BipartiteIntersectionGraph.from_families(*fams)
        prof = vc_dimension(primal_hypergraph(g), cap=cfg.vc_cap)
        worst = max(worst, prof.vc_dim)
        if prof.vc_dim > 4:
            over += 1
    return [
        CheckRow(
            "vc-cap",
            f"instances={cfg.vc_instances} vertices={cfg.vc_vertices} "
            f"edges={cfg.vc_b_side} cap={cfg.vc_cap}",
            f"max_vc={worst} over_4={over}",
            over == 0,
        )
    ]


def check_shrink(cfg: SuiteConfig, instances: list[SuiteInstance]) -> list[CheckRow]:
    """Shrink exit parameters against the bisection oracle; coverage of every
    contained point by a canonical tuple, exhaustively."""
    rng = random.Random(derive_seed(cfg.seed, "shrink"))
    paths, s_impl = [], []
    for _ in range(cfg.shrink_triples):
        cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        r = rng.uniform(0.1, 2.0)
        d = Disc(Point(cx, cy), r)

        def inside() -> Point:
            rad = r * math.sqrt(rng.random())
            ang = rng.uniform(0, 2 * math.pi)
            return Point(cx + rad * math.cos(ang), cy + rad * math.sin(ang))

        anchor = inside()
        p = inside()
        while p.x == anchor.x and p.y == anchor.y:
            p = inside()
        s_impl.append(shrink_events(d, anchor, [p])[0].s)
        paths.append((cx, cy, r, anchor.x, anchor.y, p.x, p.y))
    # math.isclose(s_impl, s_oracle, rel_tol=1e-9, abs_tol=1e-12), symmetric in its two sides
    s_impl, s_oracle = np.array(s_impl, float), bisection_exits(paths)
    tol = np.maximum(1e-9 * np.maximum(np.abs(s_impl), np.abs(s_oracle)), 1e-12)
    mismatches = int((~(np.abs(s_impl - s_oracle) <= tol)).sum())
    pds = [inst.graph for inst in instances if inst.kind == "points_discs"]
    coverage_bad = sum(len(coverage_violations(g, 2)) for g in pds)
    return [
        CheckRow(
            "shrink-exit-parameters",
            f"triples={cfg.shrink_triples} tol=1e-9",
            f"mismatches={mismatches}",
            mismatches == 0,
        ),
        CheckRow(
            "shrink-coverage",
            f"pd_instances={len(pds)} t=2",
            f"violations={coverage_bad}",
            coverage_bad == 0 and len(pds) > 0,
        ),
    ]


# ---------------------------------------------------------------------------
# orchestration


def run_suite(cfg: SuiteConfig) -> SuiteResult:
    rows: list[CheckRow] = []
    rows.extend(check_net_soundness_and_cover(cfg))
    rows.extend(check_oracles(cfg))
    instances = build_suite_instances(cfg)
    rows.extend(check_heavy_counts(cfg, instances))
    alg1_rows, bound_rows = check_alg1(cfg, instances)
    rows.extend(alg1_rows)
    rows.extend(check_scaling(cfg))
    rows.extend(check_census(cfg))
    rows.extend(check_segments(cfg))
    rows.extend(check_chains(cfg, instances))
    rows.extend(check_vc(cfg))
    rows.extend(check_shrink(cfg, instances))
    return SuiteResult(config=cfg, rows=rows, bound_rows=bound_rows)
