"""The benchmark's own tests, on tiny configurations of its three workloads.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cli-instances": partial(
        workloads.cli_setup, n_free=60, n_dense=40, n_rect=40, n_pts=60, n_discs=30
    ),
    "suite-full": partial(workloads.suite_setup, quick=True),
    "scale-discs": partial(
        workloads.scale_setup,
        ladder=((2, 32, 1), (2, 64, 1), (3, 16, 2), (3, 32, 2)),
        greedy_rungs=((30, 2), (60, 2)),
    ),
}


def traced_tiny_run(workdir: Path, seed: int = 3):
    """Every tiny workload set up and passed once under one tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    passes, sizes = {}, {}
    try:
        for name, setup in TINY.items():
            tracer.op = "setup"
            ops, _ = setup(seed, workdir / name)
            passes[name] = run._run_pass(ops, tracer)
            sizes.update({op.name: op.size for op in ops if op.size is not None})
    finally:
        tracer.uninstall()
    return tracer.spans, passes, tracing.layer_metrics(tracer.spans, sizes)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    return [traced_tiny_run(tmp_path_factory.mktemp(f"run{k}")) for k in range(2)]


def test_every_layer_function_records_a_span(two_runs):
    spans, passes, _ = two_runs[0]
    seen = {s.name for s in spans}
    assert sorted(set(tracing.SPAN_NAMES) - seen) == []
    for name, p in passes.items():
        assert [op for op, res in p["ops"].items() if res["problem"]] == [], name


def test_uninstall_restores_every_binding(two_runs):
    import ztnet.cli
    import ztnet.hypergraph
    import ztnet.nets
    import ztnet.zarankiewicz

    assert ztnet.zarankiewicz.greedy_cover_t_net is ztnet.nets.greedy_cover_t_net
    assert not hasattr(ztnet.nets.greedy_cover_t_net, "__wrapped__")
    assert not hasattr(ztnet.cli.main, "__wrapped__")
    fn = ztnet.hypergraph.BipartiteIntersectionGraph.__dict__["from_families"]
    assert isinstance(fn, classmethod)


def test_two_runs_agree_on_digests_and_counts(two_runs):
    (_, passes1, m1), (_, passes2, m2) = two_runs
    for name in TINY:
        digests1 = {op: r["sha256"] for op, r in passes1[name]["ops"].items()}
        digests2 = {op: r["sha256"] for op, r in passes2[name]["ops"].items()}
        assert digests1 == digests2, name
    counts1 = {k: v for k, (v, unit) in m1.items() if unit == "count"}
    counts2 = {k: v for k, (v, unit) in m2.items() if unit == "count"}
    assert counts1 == counts2
    assert counts1["zarankiewicz.find_ktt_witness.calls"] > 0


def test_self_time_accounts_for_the_pass(two_runs):
    spans, passes, _ = two_runs[0]
    own = tracing.self_times(spans)
    assert min(own) >= 0
    covered = sum(t for s, t in zip(spans, own) if s.op != "setup")
    wall = sum(p["wall_s"] for p in passes.values())
    assert covered <= wall


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_different_seed_gives_different_inputs(name, tmp_path):
    _, first = TINY[name](1, tmp_path / "a")
    _, again = TINY[name](1, tmp_path / "b")
    _, other = TINY[name](2, tmp_path / "c")
    assert first == again
    assert first != other


def test_refuses_to_run_without_a_source_tree(tmp_path):
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "suite-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_quick_suite_matches_the_golden_digests(tmp_path):
    ops, _ = workloads.suite_setup(workloads.GOLDEN_SEED, tmp_path, quick=True)
    blob, problem = ops[0].run()
    assert problem is None
    assert json.loads(blob) == workloads.GOLDEN[True]


def test_reference_clock_splits_a_pass_at_every_mark(tmp_path, monkeypatch):
    import ztnet.suite

    monkeypatch.setattr(run, "MIN_SEGMENT_S", 0.0)
    ops, _ = workloads.scale_setup(3, tmp_path, ladder=((2, 32, 1), (3, 16, 1)),
                                   greedy_rungs=((30, 1),))
    before = {(mod, name): getattr(mod, name) for op in ops for mod, name in op.marks}
    clock = run.RefClock()
    p = run._run_pass(ops, clock=clock)
    # a sample before each operation and each marked call, and one at the end
    assert len(clock.refs) == 1 + len(ops) + sum(len(op.marks) for op in ops)
    assert len(clock.segments) == len(clock.refs) - 1
    assert all(getattr(mod, name) is fn for (mod, name), fn in before.items())
    assert [op for op, res in p["ops"].items() if res["problem"]] == []
    assert 0 < p["wall_s"] < p["elapsed_s"]
    assert p["wall_s"] == pytest.approx(sum(clock.segments), rel=0.05, abs=0.01)
    assert p["pass_ref"] == clock.in_refs() > 0
    assert not hasattr(ztnet.suite.check_vc, "__wrapped__")


def test_reference_units():
    clock = run.RefClock()
    clock.refs, clock.segments, clock.owners = [1.0, 3.0, 2.0], [4.0, 5.0], ["a", "b"]
    assert clock.in_refs() == pytest.approx(4.0 / 2.0 + 5.0 / 2.5)
    assert clock.in_refs("b") == pytest.approx(5.0 / 2.5)
    # set-up times scaled to a host whose reference loop takes REF_NOMINAL_S
    scaled = run._in_ref_seconds([0.2, 0.6, 0.3], [0.1, 0.2, 0.1])
    assert scaled == pytest.approx(3.0 * run.REF_NOMINAL_S)


def test_doubling_ratios():
    sizes = {"a": ("s", 10), "b": ("s", 20), "c": ("s", 40), "x": ("u", 5)}
    per_op = {"a": 1.0, "b": 4.0, "c": 64.0, "x": 3.0}
    assert tracing._doubling(per_op, sizes) == pytest.approx(8.0)
    assert tracing._doubling({"x": 1.0}, sizes) == 0.0
    assert tracing._fitted_doubling([(100, 1.0), (200, 4.0), (400, 16.0)]) == pytest.approx(4.0)
    assert tracing._fitted_doubling([(100, 1.0), (100, 2.0)]) == 0.0


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    produced = {name: unit for name, (_, unit) in tracing.layer_metrics([], {}).items()}
    produced.update({"trace.overhead_s": "s", "trace.uncovered_s": "s"})
    assert listed == produced
