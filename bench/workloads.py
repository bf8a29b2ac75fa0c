"""The benchmark's three workloads and the correctness check of every operation.

A workload's set-up turns the workload seed into inputs and returns the
operations of one pass.  An operation calls into ztnet, checks what came
back, and returns the bytes whose sha256 is recorded plus a problem string
(None when the output is correct).  Every call goes through a module
attribute (`ztnet.cli.main`, not an imported name) so that the tracer's
wrappers see it.  An operation's `marks` name the module functions before
whose calls the untraced run samples its reference loop, so that long
operations are split into shorter segments.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import ztnet.cli
import ztnet.generators
import ztnet.geometry
import ztnet.hypergraph
import ztnet.nets
import ztnet.suite
import ztnet.zarankiewicz

derive_seed = ztnet.suite.derive_seed


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[bytes, Optional[str]]]
    size: Optional[tuple] = None  # (series, n): operations at doubling n give .doubling
    marks: tuple = ()  # (module, function name) pairs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = ztnet.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _ztnet_functions(module) -> tuple:
    """(module, name) of every ztnet function the module binds: the calls
    at which an operation through it can take a reference sample."""
    return tuple(
        (module, name) for name, fn in sorted(vars(module).items())
        if inspect.isfunction(fn) and fn.__module__.startswith("ztnet.")
    )


# parsing calls object_from_json once per object, so a long parse is split too
CLI_MARKS = _ztnet_functions(ztnet.cli)


def _cli_op(argv: list[str], expect_rc: int, check: Callable[[str], Optional[str]]):
    """Run one subcommand; its output is the exit code, stdout and stderr."""

    def run():
        rc, out, err = _cli(argv)
        blob = f"{rc}\n{out}\n{err}".encode()
        if rc != expect_rc:
            return blob, f"exit {rc}, expected {expect_rc}: {err.strip()[:200]}"
        return blob, check(out)

    return run


# ---------------------------------------------------------------------------
# cli-instances


def _write_pruned(fams, path: Path) -> int:
    """Prune an instance to K_{2,2}-freeness, write it, return its edge count."""
    g = ztnet.hypergraph.BipartiteIntersectionGraph.from_families(*fams)
    pruned = ztnet.generators.prune_to_ktt_free(g, 2).graph
    path.write_text(ztnet.cli.emit_instance(pruned.side_a, pruned.side_b))
    return len(pruned.edges)


def _load_families(path: Path) -> tuple[list, list]:
    # json plus the per-object decoder, so set-up does not pay cli.parse_instance
    doc = json.loads(path.read_text())
    return tuple([ztnet.cli.object_from_json(o, side) for o in doc[side]] for side in "ab")


def _check_witness(fam_a, fam_b, t: int, out: str) -> Optional[str]:
    m = re.fullmatch(r"witness: a=\[([\d, ]*)\] b=\[([\d, ]*)\]\n", out)
    if m is None:
        return f"no witness printed: {out[:200]!r}"
    wa = [int(x) for x in m[1].split(",")]
    wb = [int(x) for x in m[2].split(",")]
    if len(set(wa)) != t or len(set(wb)) != t:
        return f"witness is not {t}+{t} distinct vertices: {wa} {wb}"
    for i in wa:
        for j in wb:
            if not ztnet.geometry.intersects(fam_a[i], fam_b[j]):
                return f"witness pair a{i} b{j} does not intersect"
    return None


def _json_check(pred: Callable[[dict], Optional[str]]) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return pred(payload)

    return check


def _bound_ok(edges: int, p: dict) -> Optional[str]:
    if p["edges"] != edges:
        return f"bound reports {p['edges']} edges, instance has {edges}"
    return None if p["bound"] >= p["edges"] else f"bound {p['bound']} < edges {p['edges']}"


def _net_ok(p: dict) -> Optional[str]:
    if p["valid"] is not True or p["size"] != len(p["tuples"]):
        return f"net not valid: valid={p['valid']} size={p['size']}"
    return None


def _census_ok(p: dict) -> Optional[str]:
    parts = p["type1"] + p["type2"] + p["type3"] + p["type4"]
    if not p["total"] == parts == p["edges"]:
        return f"census total {p['total']} (parts {parts}) != edges {p['edges']}"
    return None


def _canon_ok(k: int, p: dict) -> Optional[str]:
    if p["mode"] != "segments" or p["k"] != k or p["size"] != len(p["tuples"]):
        return f"canon header wrong: {p['mode']} k={p['k']} size={p['size']}"
    if any(len(set(tp)) != k for tp in p["tuples"]):
        return f"canonical tuple of size != {k}"
    return None


def _delaunay_ok(vertices: int, p: dict) -> Optional[str]:
    if p["vertices"] != vertices:
        return f"delaunay has {p['vertices']} vertices, expected {vertices}"
    if len(p["edges"]) > 3 * vertices - 6:  # a planar graph's Euler bound
        return f"delaunay has {len(p['edges'])} edges, above 3V-6"
    return None


def _shrink_ok(edges: int, p: dict) -> Optional[str]:
    if p["edges"] != edges:
        return f"shrink counts {p['edges']} incidences, instance has {edges}"
    if not p["floor_sum"] <= p["x_sum"] <= p["x_upper"]:
        return f"chain broken: {p['floor_sum']} <= {p['x_sum']} <= {p['x_upper']}"
    return None


def cli_setup(
    seed: int,
    workdir: Path,
    n_free: int = 600,
    n_dense: int = 500,
    n_rect: int = 600,
    n_pts: int = 600,
    n_discs: int = 300,
):
    """Four instance files, then nine subcommands per pass on them."""
    workdir.mkdir(parents=True, exist_ok=True)
    free, dense, rects, pd = (workdir / f"{k}.json" for k in ("free", "dense", "rects", "pd"))
    free_edges = _write_pruned(
        ztnet.suite.scaled_disc_instance(n_free, derive_seed(seed, "cli-free")), free
    )
    for path, kind, n in ((dense, "discs", n_dense), (rects, "rects", n_rect)):
        rc, _, err = _cli(["generate", "--kind", kind, "--n", str(n),
                           "--seed", str(derive_seed(seed, "cli", kind)), "--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"generate --kind {kind} failed: {err}")
    pd_edges = _write_pruned(
        ztnet.suite.points_discs_instance(n_pts, n_discs, derive_seed(seed, "cli-pd")), pd
    )
    dense_a, dense_b = _load_families(dense)
    # a heavy hyperedge needs >= t vertices (greedy, ceil(eps*|A|) >= 3) and the
    # stacked cover needs eps*|A| >= 2t = 4; pruning keeps |A| above 2/3 of n_free
    greedy_eps, pd_eps = f"1/{n_free // 3}", f"1/{n_free // 6}"
    inputs = _sha(b"".join(p.read_bytes() for p in (free, dense, rects, pd)))
    f, d, r, q = (str(p) for p in (free, dense, rects, pd))
    ops = [
        Op("check-free-full-scan", _cli_op(["check-free", f, "--t", "2"], 0,
           lambda out: None if out == "free\n" else f"expected free, got {out[:200]!r}")),
        Op("check-free-early-exit", _cli_op(["check-free", d, "--t", "2"], 2,
           partial(_check_witness, dense_a, dense_b, 2))),
        Op("bound", _cli_op(["bound", f, "--t", "2", "--format", "json"], 0,
           _json_check(partial(_bound_ok, free_edges)))),
        Op("net-greedy", _cli_op(["net", f, "--t", "3", "--eps", greedy_eps, "--method", "greedy"],
           0, _json_check(_net_ok))),
        Op("net-pseudodisc", _cli_op(["net", f, "--t", "2", "--eps", pd_eps], 0,
           _json_check(_net_ok))),
        Op("census", _cli_op(["census", r], 0, _json_check(_census_ok))),
        Op("canon", _cli_op(["canon", r, "--t", "2"], 0, _json_check(partial(_canon_ok, 3)))),
        Op("delaunay", _cli_op(["delaunay", r, "--format", "json"], 0,
           _json_check(partial(_delaunay_ok, 2 * n_rect)))),
        Op("shrink", _cli_op(["shrink", q, "--t", "2"], 0,
           _json_check(partial(_shrink_ok, pd_edges)))),
    ]
    for op in ops:
        op.marks = CLI_MARKS
    return ops, inputs


# ---------------------------------------------------------------------------
# suite-full

SUITE_REPORTS = ("bound_levels.csv", "suite_report.csv", "suite_report.json")

# sha256 of the seed-7 reports, full and --quick config (ROADMAP golden digests)
GOLDEN_SEED = 7
GOLDEN = {
    False: {
        "bound_levels.csv": "d8e6e56ddb4f58a437ae05dcad0239a5b6db6a6b09bc51441c24e65413d85cb8",
        "suite_report.csv": "25ea8b2d65955bcd5d951720e28fa778ad30e3f20fe131f952379258b80f98f6",
        "suite_report.json": "5a5b05d44c73df3c064cbd1ea988b83a6ea72060878b6e209570e8460643f3bf",
    },
    True: {
        "bound_levels.csv": "722b500596000f878789ffcf5cd966f8d0a9d3a64331ddded48f4a7388255cdd",
        "suite_report.csv": "5c40e001ec8af5ff7864aedc1462ee904db35ff6d8a5a400c289cb745b327e94",
        "suite_report.json": "f5a1e5a47ca3285dd4f03d2730eeca2411450523cb0bb75892824a624e855ea5",
    },
}


# the checks `ztnet.suite.run_suite` calls and the layer functions they call
SUITE_MARKS = _ztnet_functions(ztnet.suite)


def _suite_pass(argv: list[str], out_dir: Path, golden: Optional[dict]):
    shutil.rmtree(out_dir, ignore_errors=True)  # no stale report can pass
    rc, _, err = _cli(argv)
    if rc != 0:
        return f"{rc}".encode(), f"suite exit {rc}: {err.strip()[:200]}"
    digests = {name: _sha((out_dir / name).read_bytes()) for name in SUITE_REPORTS}
    blob = json.dumps(digests, sort_keys=True).encode()
    if json.loads((out_dir / "suite_report.json").read_text())["all_passed"] is not True:
        return blob, "suite report has all_passed != true"
    if golden is not None and digests != golden:
        bad = sorted(name for name in SUITE_REPORTS if digests[name] != golden[name])
        return blob, f"seed-{GOLDEN_SEED} reports differ from the golden digests: {bad}"
    return blob, None


def suite_setup(seed: int, workdir: Path, quick: bool = False):
    """`ztnet suite --seed SEED --out DIR`; seed 7 is also checked against the
    golden digests, every seed against the other passes of the run."""
    workdir.mkdir(parents=True, exist_ok=True)
    out_dir = workdir / "suite"
    argv = ["suite", "--seed", str(seed), "--out", str(out_dir)] + (["--quick"] if quick else [])
    cfg = (ztnet.suite.desk_config if quick else ztnet.suite.full_config)(seed)
    golden = GOLDEN[quick] if seed == GOLDEN_SEED else None
    ops = [Op("suite", partial(_suite_pass, argv, out_dir, golden), marks=SUITE_MARKS)]
    return ops, _sha(json.dumps(cfg.to_json(), sort_keys=True).encode())


# ---------------------------------------------------------------------------
# scale-discs

# Every size here succeeds at the seed commit.  The default budget of 2^22
# subsets raises BudgetExceeded for t=3 at n >= 512 and for t=2 near n = 2,900,
# and n = 16,384 is killed for memory; a fix that made those sizes pass would
# add their time to the pass and read as a regression, so they stay out.
# Each rung is (t, n, instances).  The cost of pruning at t=3 and of greedy
# nets changes by up to 2x from one seed's instance to another's, so those
# rungs run two instances; the t=2 rungs, whose cost varies little, keep the
# rest of the pass steady across seeds.  The rungs of one series run equally
# many, so that `.doubling` compares like work.  The n = 4096 graph build
# sets the peak memory.
LADDER = ((2, 512, 1), (2, 1024, 1), (2, 2048, 1), (2, 4096, 1), (3, 128, 2), (3, 256, 2))
GREEDY_RUNGS = ((150, 2), (300, 2))
GREEDY_T = 3
GREEDY_EPS = Fraction(1, 10)
SCALE_BUDGET = 2**23  # C(4096, 2) = 8,386,560 fits


PRUNE_MARKS = ((ztnet.generators, "prune_to_ktt_free"), (ztnet.zarankiewicz, "find_ktt_witness"))
GREEDY_MARKS = ((ztnet.nets, "greedy_cover_t_net"), (ztnet.nets, "verify_t_net"))


def _prune_rung(instances, t: int):
    blobs = []
    for fams in instances:
        g = ztnet.hypergraph.BipartiteIntersectionGraph.from_families(*fams)
        pr = ztnet.generators.prune_to_ktt_free(g, t, budget=SCALE_BUDGET)
        witness = ztnet.zarankiewicz.find_ktt_witness(pr.graph, t, budget=SCALE_BUDGET)
        blobs.append(repr((pr.deleted_a, pr.deleted_b, sorted(pr.graph.edges))))
        if witness is not None:
            return "".join(blobs).encode(), f"pruned graph keeps K_{t},{t} {witness}"
    return "".join(blobs).encode(), None


def _greedy_rung(instances):
    blobs = []
    for fams in instances:
        g = ztnet.hypergraph.BipartiteIntersectionGraph.from_families(*fams)
        h = ztnet.hypergraph.primal_hypergraph(g)
        net = ztnet.nets.greedy_cover_t_net(h, GREEDY_EPS, GREEDY_T)
        missed = ztnet.nets.verify_t_net(h, GREEDY_EPS, net)
        blobs.append(repr(sorted(sorted(tp) for tp in net.tuples)))
        if missed is not None:
            return "".join(blobs).encode(), f"net misses heavy edge {sorted(missed)}"
    return "".join(blobs).encode(), None


def scale_setup(seed: int, workdir: Path, ladder=LADDER, greedy_rungs=GREEDY_RUNGS):
    """Build, prune and re-check scaled disc instances at doubling n, then
    greedy nets on the suite's net-check discs at doubling n."""
    ops, fams_all = [], []
    for t, n, count in ladder:
        insts = [ztnet.suite.scaled_disc_instance(n, derive_seed(seed, "scale", t, n, k))
                 for k in range(count)]
        ops.append(Op(f"prune-t{t}-n{n}", partial(_prune_rung, insts, t), (f"t{t}", n),
                      PRUNE_MARKS))
        fams_all.extend(insts)
    for n, count in greedy_rungs:
        insts = [ztnet.suite.disc_instance(n, derive_seed(seed, "greedy", n, k), 0.05, 0.12)
                 for k in range(count)]
        ops.append(Op(f"greedy-t{GREEDY_T}-n{n}", partial(_greedy_rung, insts), ("greedy", n),
                      GREEDY_MARKS))
        fams_all.extend(insts)
    return ops, _sha(repr(fams_all).encode())


# BENCHMARK.json records why each workload was chosen
# each set-up maps (seed, workdir) to (ops, sha256 of the generated inputs)
WORKLOADS = {
    "cli-instances": cli_setup,
    "suite-full": suite_setup,
    "scale-discs": scale_setup,
}
