"""Span tracer: times ztnet's public layer functions from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper in every
`ztnet` module that binds it.  Wrapping only the defining module would miss
the call sites that bind names with `from .x import f` (suite, cli, rectangles,
points_pseudodiscs, generators and zarankiewicz all do).  Each call records a
span: name, start, end, parent span and operation id.  Spans stay in memory;
`layer_metrics` turns them into per-layer self times and work counters after
the traced pass has ended, so counting costs nothing inside the timed region.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Optional

# layer (= ztnet module) -> traced public functions; "Class.method" names a classmethod
TRACED = {
    "cli": ("main", "parse_instance"),
    "hypergraph": (
        "BipartiteIntersectionGraph.from_families",
        "primal_hypergraph",
        "dual_hypergraph",
    ),
    "zarankiewicz": ("find_ktt_witness", "num_edges_bound"),
    "generators": ("generate", "prune_to_ktt_free"),
    "nets": ("greedy_cover_t_net", "pseudodisc_t_net", "verify_t_net"),
    "rectangles": (
        "canonical_segment_tuples",
        "segment_delaunay",
        "hereditary_planarity_check",
        "intersection_type_census",
        "rectangle_bound_report",
    ),
    "points_pseudodiscs": ("counting_inequality_check", "coverage_violations"),
    "suite": (
        "build_suite_instances",
        "check_net_soundness_and_cover",
        "check_oracles",
        "check_heavy_counts",
        "check_alg1",
        "check_scaling",
        "check_census",
        "check_segments",
        "check_chains",
        "check_vc",
        "check_shrink",
    ),
}

SPAN_NAMES = tuple(
    f"{layer}.{fn.rsplit('.', 1)[-1]}" for layer, fns in TRACED.items() for fn in fns
)

# spans whose arguments and result are kept for the work counters
_KEEP = {
    "cli.parse_instance",
    "hypergraph.from_families",
    "zarankiewicz.find_ktt_witness",
    "zarankiewicz.num_edges_bound",
    "generators.prune_to_ktt_free",
    "nets.greedy_cover_t_net",
    "rectangles.canonical_segment_tuples",
    "rectangles.hereditary_planarity_check",
    "rectangles.intersection_type_census",
}

# the tracemalloc peak is taken around this call only; tracing every
# allocation of a whole pass would slow it several-fold
_PEAK = "hypergraph.from_families"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: Optional[str]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: Any = None
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[str] = None  # id of the operation running now
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        """Wrap every function in TRACED wherever a ztnet module binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ztnet" or name.startswith("ztnet."))
        ]
        for layer, fns in TRACED.items():
            home = sys.modules[f"ztnet.{layer}"]
            for fn in fns:
                span_name = f"{layer}.{fn.rsplit('.', 1)[-1]}"
                if "." in fn:
                    # every module shares the class object, so one patch covers
                    # all call sites; the bound method keeps `cls` out of the
                    # recorded arguments
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = self._wrap(span_name, orig.__get__(None, cls))
                    setattr(cls, meth, staticmethod(wrapped))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, fn)
                wrapped = self._wrap(span_name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        keep = name in _KEEP
        peak = name == _PEAK
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            if keep:
                span.args, span.kwargs = args, kwargs
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if peak:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if keep:
                span.result = result
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    One thread makes every call, so children never overlap each other and
    the covered time is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _arg(span: Span, pos: int, name: str):
    return span.args[pos] if len(span.args) > pos else span.kwargs[name]


def _doubling(per_op: dict[str, float], sizes: dict[str, tuple]) -> float:
    """Geometric mean of time(2n) / time(n) over operations of one series.

    `sizes` maps an operation id to (series, n).  0.0 when the workload
    has no pair of operations at doubled sizes with this layer in both.
    """
    by_key = {key: op for op, key in sizes.items()}
    logs = []
    for op, (series, n) in sizes.items():
        big = by_key.get((series, 2 * n))
        if big is not None and per_op.get(op, 0.0) > 0 and per_op.get(big, 0.0) > 0:
            logs.append(math.log(per_op[big] / per_op[op]))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def _fitted_doubling(points: list[tuple[int, float]]) -> float:
    """2**slope of the least-squares line through (log2 size, log2 time):
    the time ratio per doubling of size.  0.0 without two distinct sizes."""
    pts = [(math.log2(n), math.log2(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
    return 2.0 ** slope


def layer_metrics(spans: list[Span], sizes: dict[str, tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer self time of every traced function, plus work counters."""
    from ztnet.nets import heavy_dedup_edges

    own = self_times(spans)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    per_op: dict[str, dict[str, float]] = {name: {} for name in SPAN_NAMES}
    by_name: dict[str, list[Span]] = {name: [] for name in SPAN_NAMES}
    for span, t in zip(spans, own):
        total[span.name] += t
        ops = per_op[span.name]
        ops[span.op] = ops.get(span.op, 0.0) + t
        by_name[span.name].append(span)

    out = {f"{name}.s": (total[name], "s") for name in SPAN_NAMES}

    def ok(name: str) -> list[Span]:  # the spans whose call returned
        return [s for s in by_name[name] if s.result is not None]

    parses = [(len(s.result[0]) + len(s.result[1]), s.duration) for s in ok("cli.parse_instance")]
    objects = sum(n for n, _ in parses)
    out["cli.parse_instance.objects"] = (objects, "count")
    parse_s = total["cli.parse_instance"]
    out["cli.parse_instance.objects_per_s"] = (objects / parse_s if parse_s else 0.0, "1/s")
    out["cli.parse_instance.doubling"] = (_fitted_doubling(parses), "ratio")

    ff = ok("hypergraph.from_families")
    pairs = sum(len(_arg(s, 0, "fam_a")) * len(_arg(s, 1, "fam_b")) for s in ff)
    edges = sum(len(s.result.edges) for s in ff)
    out["hypergraph.from_families.pairs"] = (pairs, "count")
    out["hypergraph.from_families.edges"] = (edges, "count")
    out["hypergraph.from_families.edge_density"] = (edges / pairs if pairs else 0.0, "ratio")
    peak = max((s.peak_bytes for s in ff), default=0)
    out["hypergraph.from_families.peak_mib"] = (peak / 2**20, "MiB")

    fw = by_name["zarankiewicz.find_ktt_witness"]
    charged = 0
    for s in fw:
        g, t = _arg(s, 0, "g"), _arg(s, 1, "t")
        if min(g.m, g.n) >= t:
            charged += math.comb(min(g.m, g.n), t)
    found = sum(1 for s in fw if s.result is not None)
    out["zarankiewicz.find_ktt_witness.calls"] = (len(fw), "count")
    out["zarankiewicz.find_ktt_witness.subsets_charged"] = (charged, "count")
    out["zarankiewicz.find_ktt_witness.witness_rate"] = (found / len(fw) if fw else 0.0, "ratio")

    levels = [lv for s in ok("zarankiewicz.num_edges_bound") for lv in s.result.levels]
    out["zarankiewicz.num_edges_bound.levels"] = (len(levels), "count")
    recursed = sum(1 for lv in levels if lv.kind == "recurse")
    out["zarankiewicz.num_edges_bound.levels_recursed"] = (recursed, "count")

    pr = ok("generators.prune_to_ktt_free")
    out["generators.prune_to_ktt_free.witnesses"] = (
        sum(s.result.witnesses_found for s in pr), "count")
    out["generators.prune_to_ktt_free.deleted"] = (
        sum(len(s.result.deleted_a) + len(s.result.deleted_b) for s in pr), "count")

    gr = ok("nets.greedy_cover_t_net")
    out["nets.greedy_cover_t_net.calls"] = (len(by_name["nets.greedy_cover_t_net"]), "count")
    out["nets.greedy_cover_t_net.heavy_edges"] = (
        sum(len(heavy_dedup_edges(_arg(s, 0, "h"), _arg(s, 1, "eps"))) for s in gr), "count")
    out["nets.greedy_cover_t_net.tuples"] = (sum(s.result.size() for s in gr), "count")
    out["nets.verify_t_net.calls"] = (len(by_name["nets.verify_t_net"]), "count")

    out["rectangles.canonical_segment_tuples.tuples"] = (
        sum(s.result.size() for s in ok("rectangles.canonical_segment_tuples")), "count")
    out["rectangles.hereditary_planarity_check.samples"] = (
        sum(s.result.samples_checked for s in ok("rectangles.hereditary_planarity_check")),
        "count")
    out["rectangles.intersection_type_census.pairs_classified"] = (
        sum(len(_arg(s, 0, "a_rects")) * len(_arg(s, 1, "b_rects"))
            for s in ok("rectangles.intersection_type_census")), "count")

    for name in (
        "hypergraph.from_families",
        "zarankiewicz.find_ktt_witness",
        "generators.prune_to_ktt_free",
        "nets.greedy_cover_t_net",
    ):
        out[f"{name}.doubling"] = (_doubling(per_op[name], sizes), "ratio")
    return out
