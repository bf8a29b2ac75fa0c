"""Acceptance battery: every criterion at its stated size and tolerance.

Runs the verification checks at full scale (the same code path as
`ztnet suite`), one test per criterion, printing one pass/fail line each.
"""

import hashlib
import time

import pytest

import ztnet.suite as suite_mod
from ztnet.cli import main

_REPORTER = None


@pytest.fixture(autouse=True)
def _grab_terminal_reporter(request):
    # route the per-criterion lines through pytest's own terminal writer so
    # they stay visible under output capture
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def announce(line: str) -> None:
    if _REPORTER is not None:
        _REPORTER.write_line("\n" + line)
    else:
        print(line)


@pytest.fixture(scope="module")
def full_cfg():
    return suite_mod.full_config(seed=7)


@pytest.fixture(scope="module")
def suite_instances(full_cfg):
    return suite_mod.build_suite_instances(full_cfg)


@pytest.fixture(scope="module")
def net_rows(full_cfg):
    return suite_mod.check_net_soundness_and_cover(full_cfg)


def report(name: str, row) -> None:
    status = "PASS" if row.passed else "FAIL"
    announce(f"ACCEPTANCE {name}: {status} [{row.observed}] ({row.params})")
    assert row.passed, f"{name}: {row.observed}"


def test_01_net_soundness(net_rows):
    # 50 seeded disc instances, n=m=200, t in {2,3}, eps=0.1: both
    # constructors pass the t-net verifier with zero witnesses
    report("01 net-soundness", net_rows[0])


def test_02_cover_depth(net_rows):
    # every heavy hyperedge keeps >= t stacked-cover vertices, exhaustively
    report("02 cover-depth", net_rows[1])


def test_03_oracle_equivalence(full_cfg):
    # 200 tiny hypergraphs: brute-force net valid+minimal, constructors
    # dominate it; 200 random 8x8 graphs: witness search == naive oracle
    rows = suite_mod.check_oracles(full_cfg)
    report("03a oracle-min-net", rows[0])
    report("03b oracle-ktt", rows[1])


def test_04_heavy_count_inequality(full_cfg, suite_instances):
    # heavy side count <= (t-1)|N| on every pruned disc instance, both sides
    rows = suite_mod.check_heavy_counts(full_cfg, suite_instances)
    report("04 heavy-count", rows[0])


def test_05_bound_soundness(full_cfg, suite_instances):
    # recursive bound >= |E| on every pruned disc and rect instance,
    # n=m in {64,128,256}, t=2, under two epsilon rules
    rows, _ = suite_mod.check_alg1(full_cfg, suite_instances)
    report("05 alg1-soundness", rows[0])


def test_06_linear_edge_scaling(full_cfg):
    # |E|/n medians for pruned disc instances at n in {128..1024} bounded by
    # 2x the n=128 value; the whole sweep inside the 5 minute budget
    t0 = time.time()
    rows = suite_mod.check_scaling(full_cfg)
    elapsed = time.time() - t0
    report("06 edge-scaling", rows[0])
    announce(f"ACCEPTANCE 06 runtime: {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300


def test_07_census_partition(full_cfg):
    # type1+type2+type3+type4 == intersecting pair count on 100 instances
    rows = suite_mod.check_census(full_cfg)
    report("07 census-partition", rows[0])


def test_08_canonical_family_and_planarity(full_cfg):
    # |F(k=3)|/n within factor 2 across n in {100..800}; Del(J) meets the
    # Euler bound on 1000 sampled induced subgraphs per instance
    rows = suite_mod.check_segments(full_cfg)
    report("08a canonical-family-scaling", rows[0])
    report("08b delaunay-planarity", rows[1])


def test_09_inequality_chains(full_cfg, suite_instances):
    # both exact chains on every pruned rect and point/disc instance
    rows = suite_mod.check_chains(full_cfg, suite_instances)
    report("09 inequality-chains", rows[0])


def test_09b_chains_reuse_the_pool_graphs(full_cfg, suite_instances, monkeypatch):
    # the chain and coverage checks read the pool's verified graphs: the only
    # builds left are the 15 rect instances' crossing graphs
    builds = []
    real = suite_mod.BipartiteIntersectionGraph.from_families.__func__

    def counted(cls, fam_a, fam_b):
        builds.append((len(fam_a), len(fam_b)))
        return real(cls, fam_a, fam_b)

    monkeypatch.setattr(suite_mod.BipartiteIntersectionGraph, "from_families", classmethod(counted))
    suite_mod.check_chains(full_cfg, suite_instances)
    suite_mod.check_shrink(full_cfg, suite_instances)
    rects = [inst.graph for inst in suite_instances if inst.kind == "rects"]
    assert builds == [(2 * g.m, 2 * g.n) for g in rects] and len(builds) == 15


def test_10_vc_cap(full_cfg):
    # disc-disc hypergraph VC-dimension <= 4 on 100 instances (cap 6, exact)
    rows = suite_mod.check_vc(full_cfg)
    report("10 vc-cap", rows[0])


def test_11_shrink_correctness(full_cfg, suite_instances):
    # 1000 shrink exits vs the bisection oracle at 1e-9; canonical-tuple
    # coverage of every contained point, exhaustively
    rows = suite_mod.check_shrink(full_cfg, suite_instances)
    report("11a shrink-exit-parameters", rows[0])
    report("11b shrink-coverage", rows[1])


def test_12_reproducibility(tmp_path):
    # `suite --seed 7`: reports byte-identical to the full-config golden
    # digests listed in ROADMAP.md
    golden = {
        "bound_levels.csv": "d8e6e56ddb4f58a437ae05dcad0239a5b6db6a6b09bc51441c24e65413d85cb8",
        "suite_report.csv": "25ea8b2d65955bcd5d951720e28fa778ad30e3f20fe131f952379258b80f98f6",
        "suite_report.json": "5a5b05d44c73df3c064cbd1ea988b83a6ea72060878b6e209570e8460643f3bf",
    }
    out = tmp_path / "run"
    assert main(["suite", "--seed", "7", "--out", str(out)]) == 0
    mismatched = sorted(
        name for name, digest in golden.items()
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    )
    status = "PASS" if not mismatched else f"FAIL {mismatched}"
    announce(f"ACCEPTANCE 12 reproducibility: {status} [suite --seed 7 vs golden digests]")
    assert not mismatched
