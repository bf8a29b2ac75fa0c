"""Command-line front door: instance I/O, pipeline orchestration, reports.

Instance files are JSON documents {"a": [obj, ...], "b": [obj, ...]} where an
object is one of
    {"kind": "disc", "cx": .., "cy": .., "r": ..}
    {"kind": "rect",  "x0": .., "x1": .., "y0": .., "y1": ..}
    {"kind": "frame", "x0": .., "x1": .., "y0": .., "y1": ..}
    {"kind": "point", "x": .., "y": ..}

Exit codes: 0 success, 2 verification failure (a witness was found or an
inequality broke), 1 usage errors, bad files, and violated preconditions.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import suite as suite_mod
from .errors import (
    BudgetExceeded,
    DegenerateInput,
    InequalityViolated,
    InfeasibleNet,
    ParamOutOfRange,
    PreconditionViolated,
    SchemaError,
)
from .generators import GenParams, generate
from .geometry import AxisRect, Disc, Frame, Point, check_general_position
from .hypergraph import BipartiteIntersectionGraph, dual_hypergraph, primal_hypergraph
from .nets import as_fraction, verify_t_net
from .points_pseudodiscs import counting_inequality_check, shrink_canonical_tuples
from .rectangles import (
    canonical_segment_tuples,
    horizontal_edges_of,
    intersection_type_census,
    segment_delaunay,
)
from .zarankiewicz import (
    NET_BUILDERS,
    BoundReport,
    find_ktt_witness,
    num_edges_bound,
)

# ---------------------------------------------------------------------------
# instance serialization


def object_to_json(obj) -> dict:
    if isinstance(obj, Disc):
        return {"kind": "disc", "cx": obj.center.x, "cy": obj.center.y, "r": obj.radius}
    if isinstance(obj, AxisRect):
        return {"kind": "rect", "x0": obj.x_lo, "x1": obj.x_hi, "y0": obj.y_lo, "y1": obj.y_hi}
    if isinstance(obj, Frame):
        return {"kind": "frame", "x0": obj.x_lo, "x1": obj.x_hi, "y0": obj.y_lo, "y1": obj.y_hi}
    if isinstance(obj, Point):
        return {"kind": "point", "x": obj.x, "y": obj.y}
    raise TypeError(f"not a serializable object: {obj!r}")


def _number(raw: dict, key: str, where: str) -> float:
    if key not in raw:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = raw[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{where}: field {key!r} must be a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # a JSON integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise SchemaError(f"{where}: field {key!r} must be finite")
    return val


def object_from_json(raw, where: str):
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    kind = raw.get("kind")
    if kind == "disc":
        r = _number(raw, "r", where)
        if r <= 0:
            raise SchemaError(f"{where}: disc radius must be > 0, got {r}")
        return Disc(Point(_number(raw, "cx", where), _number(raw, "cy", where)), r)
    if kind in ("rect", "frame"):
        x0, x1 = _number(raw, "x0", where), _number(raw, "x1", where)
        y0, y1 = _number(raw, "y0", where), _number(raw, "y1", where)
        if not (x0 < x1 and y0 < y1):
            raise SchemaError(f"{where}: need x0 < x1 and y0 < y1")
        cls = AxisRect if kind == "rect" else Frame
        return cls(x0, x1, y0, y1)
    if kind == "point":
        return Point(_number(raw, "x", where), _number(raw, "y", where))
    raise SchemaError(f"{where}: unknown kind {kind!r}")


def emit_instance(fam_a, fam_b) -> str:
    """Deterministic one-object-per-line instance document."""

    def side(objs) -> str:
        if not objs:
            return "[]"
        lines = ",\n    ".join(json.dumps(object_to_json(o), sort_keys=True) for o in objs)
        return "[\n    " + lines + "\n  ]"

    return '{\n  "a": ' + side(fam_a) + ',\n  "b": ' + side(fam_b) + "\n}\n"


def _element_line(text: str, side: str, idx: int) -> Optional[int]:
    """1-based line of the idx-th object of the side's array; best effort."""
    key = text.find(f'"{side}"')
    if key < 0:
        return None
    start = text.find("[", key)
    if start < 0:
        return None
    depth = 0
    count = -1
    in_string = escaped = False
    for pos in range(start, len(text)):
        ch = text[pos]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            if ch == "{" and depth == 1:
                count += 1
                if count == idx:
                    return text.count("\n", 0, pos) + 1
            depth += 1
        elif ch in "]}":
            depth -= 1
            if depth == 0:
                return None
    return None


def parse_instance_text(text: str) -> tuple[list, list]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise SchemaError('instance must be an object with "a" and "b" arrays')
    fams = []
    for side in ("a", "b"):
        arr = doc[side]
        if not isinstance(arr, list):
            raise SchemaError(f'"{side}" must be an array')
        fam = []
        for idx, raw in enumerate(arr):
            try:
                fam.append(object_from_json(raw, f"{side}[{idx}]"))
            except SchemaError:
                # only a failing object pays for the line scan; decoding it
                # again with the line in its label raises the labelled error
                line = _element_line(text, side, idx)
                if line is None:
                    raise
                object_from_json(raw, f"{side}[{idx}] (line {line})")
        fams.append(fam)
    return fams[0], fams[1]


def parse_instance(path) -> tuple[list, list]:
    return parse_instance_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# report formatting helpers


def _write_text(path: Optional[str], content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        Path(path).write_text(content)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_payload(args, payload: dict) -> None:
    """JSON, or a one-row CSV under --format csv."""
    if args.format == "csv":
        content = _csv_text(payload.keys(), [list(payload.values())])
    else:
        content = _json_text(payload)
    _write_text(args.out, content)


# ---------------------------------------------------------------------------
# subcommands


_INSTANCE_KINDS = ("discs", "rects", "frames", "points-discs", "points-dyadic")


def _cmd_generate(args) -> int:
    n = args.n
    m = args.m if args.m is not None else n
    seed = args.seed
    if args.kind == "discs":
        p = GenParams(radius_lo=args.radius_lo, radius_hi=args.radius_hi)
        fam_a = generate("random_discs", n, p, suite_mod.derive_seed(seed, "a"))
        fam_b = generate("random_discs", m, p, suite_mod.derive_seed(seed, "b"))
    elif args.kind in ("rects", "frames"):
        kind = "random_rects" if args.kind == "rects" else "random_frames"
        pa = GenParams(extent_lo=args.extent_lo, extent_hi=args.extent_hi, parity=0)
        pb = GenParams(extent_lo=args.extent_lo, extent_hi=args.extent_hi, parity=1)
        fam_a = generate(kind, n, pa, suite_mod.derive_seed(seed, "a"))
        fam_b = generate(kind, m, pb, suite_mod.derive_seed(seed, "b"))
    elif args.kind == "points-discs":
        p = GenParams(radius_lo=args.radius_lo, radius_hi=args.radius_hi)
        fam_a = generate("random_points", n, None, suite_mod.derive_seed(seed, "a"))
        fam_b = generate("random_discs", m, p, suite_mod.derive_seed(seed, "b"))
    else:  # points-dyadic
        fam_a = generate("grid_points", n, None, suite_mod.derive_seed(seed, "a"))
        fam_b = generate("dyadic_rects", m, None, suite_mod.derive_seed(seed, "b"))
    _write_text(args.out, emit_instance(fam_a, fam_b))
    return 0


def _load_graph(args) -> BipartiteIntersectionGraph:
    return BipartiteIntersectionGraph.from_families(*parse_instance(args.instance))


def _cmd_check_free(args) -> int:
    g = _load_graph(args)
    witness = find_ktt_witness(g, args.t, args.budget)
    if witness is None:
        print("free")
        return 0
    print(f"witness: a={list(witness[0])} b={list(witness[1])}")
    return 2


def _cmd_net(args) -> int:
    g = _load_graph(args)
    h = primal_hypergraph(g) if args.side == "primal" else dual_hypergraph(g)
    eps = args.eps
    net = NET_BUILDERS[args.method](h, eps, args.t, args.seed)
    witness = verify_t_net(h, eps, net)
    payload = {
        "method": args.method,
        "side": args.side,
        "t": args.t,
        "eps": str(eps),
        "seed": args.seed,
        "size": net.size(),
        "valid": witness is None,
        "tuples": sorted(sorted(tp) for tp in net.tuples),
    }
    _write_text(args.out, _json_text(payload))
    if witness is not None:
        print(f"verification failure: heavy hyperedge {sorted(witness)} missed", file=sys.stderr)
        return 2
    return 0


def _cmd_bound(args) -> int:
    g = _load_graph(args)
    if not args.assume_free:
        witness = find_ktt_witness(g, args.t, args.budget)
        if witness is not None:
            print(f"witness: a={list(witness[0])} b={list(witness[1])}", file=sys.stderr)
            return 2
    rule = None  # the degree cutoff rule
    if args.eps is not None:
        eps = args.eps
        eps_prime = args.eps_prime if args.eps_prime is not None else eps

        def rule(m, n, t):
            return eps, eps_prime

    report = num_edges_bound(
        g, args.t, net_builder=NET_BUILDERS[args.net], eps_rule=rule, seed=args.seed
    )
    if args.format == "csv":
        content = _csv_text(report.CSV_COLUMNS, report.csv_rows())
    else:
        content = _json_text(
            {
                "bound": report.bound,
                "edges": report.actual_edges,
                "levels": [
                    {k: str(v) if isinstance(v, Fraction) else v for k, v in asdict(lv).items()}
                    for lv in report.levels
                ],
                "seed": args.seed,
                "t": args.t,
                "net": args.net,
            }
        )
    _write_text(args.out, content)
    return 0 if report.bound >= report.actual_edges else 2


def _require_rects(fam, side: str) -> list:
    rects = []
    for o in fam:
        if isinstance(o, AxisRect):
            rects.append(o)
        elif isinstance(o, Frame):
            rects.append(AxisRect(o.x_lo, o.x_hi, o.y_lo, o.y_hi))
        else:
            raise PreconditionViolated(f"side {side} must contain rects or frames")
    return rects


def _segments_of(fam_a) -> list:
    """Horizontal edges of side a's rects, which must share no edge line: the
    sweep sees open intervals only, so it misses a segment ending where another
    starts."""
    rects = _require_rects(fam_a, "a")
    if not check_general_position(rects):
        raise DegenerateInput("side a rectangles share an edge line")
    return horizontal_edges_of(rects)


def _cmd_census(args) -> int:
    fam_a, fam_b = parse_instance(args.instance)
    rects_a = _require_rects(fam_a, "a")
    rects_b = _require_rects(fam_b, "b")
    census = intersection_type_census(rects_a, rects_b)
    _write_payload(args, {**asdict(census), "total": census.total, "edges": census.total})
    return 0


def _cmd_canon(args) -> int:
    fam_a, fam_b = parse_instance(args.instance)
    if all(isinstance(o, Point) for o in fam_a) and all(isinstance(o, Disc) for o in fam_b):
        fam = shrink_canonical_tuples(fam_a, fam_b, args.t)
        mode = "shrink"
    else:
        fam = canonical_segment_tuples(_segments_of(fam_a), 2 * args.t - 1)
        mode = "segments"
    payload = {
        "mode": mode,
        "k": fam.k,
        "size": fam.size(),
        "tuples": sorted(sorted(tp) for tp in fam.tuples),
    }
    _write_text(args.out, _json_text(payload))
    return 0


def _cmd_shrink(args) -> int:
    fam_a, fam_b = parse_instance(args.instance)
    if not (all(isinstance(o, Point) for o in fam_a) and all(isinstance(o, Disc) for o in fam_b)):
        raise PreconditionViolated("shrink expects points in side a and discs in side b")
    report = counting_inequality_check(fam_a, fam_b, args.t, budget=args.budget)
    payload = {
        "t": report.t,
        "family_size": report.family_size,
        "edges": report.edge_count,
        "floor_sum": report.floor_sum,
        "x_sum": report.x_sum,
        "x_upper": report.x_upper,
    }
    _write_payload(args, payload)
    return 0


def _cmd_delaunay(args) -> int:
    fam_a, _ = parse_instance(args.instance)
    dela = segment_delaunay(_segments_of(fam_a))
    if args.format == "svg":
        _write_text(args.out, dela.to_svg())
    else:
        g = dela.graph
        edges = [list(e) for e in zip(g.rows.tolist(), g.cols.tolist())]
        _write_text(args.out, _json_text({"vertices": g.vertex_count, "edges": edges}))
    return 0


def _cmd_suite(args) -> int:
    cfg = suite_mod.desk_config(args.seed) if args.quick else suite_mod.full_config(args.seed)
    result = suite_mod.run_suite(cfg)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_rows = [
            [row.check, row.params, row.observed, "pass" if row.passed else "FAIL"]
            for row in result.rows
        ]
        (out_dir / "suite_report.csv").write_text(
            _csv_text(("check", "params", "observed", "status"), report_rows)
        )
        (out_dir / "suite_report.json").write_text(
            _json_text(
                {
                    "config": result.config.to_json(),
                    "checks": [asdict(row) for row in result.rows],
                    "all_passed": result.all_passed,
                }
            )
        )
        (out_dir / "bound_levels.csv").write_text(
            _csv_text(("instance", "rule") + BoundReport.CSV_COLUMNS, result.bound_rows)
        )
    for row in result.rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.check}: {row.observed} ({row.params})")
    return 0 if result.all_passed else 2


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _positive_fraction(text: str) -> Fraction:
    """An epsilon argument: an exact fraction in (0, 1] such as 0.25 or 1/4."""
    try:
        eps = as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None
    if eps <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    if eps > 1:
        raise argparse.ArgumentTypeError(f"must be <= 1, got {text!r}")
    return eps


def _int_at_least(low: int):
    """An integer argument type that rejects values below `low`."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid integer value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ztnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded instance file")
    p.add_argument("--kind", choices=_INSTANCE_KINDS, default="discs")
    p.add_argument("--n", type=_int_at_least(0), required=True, help="size of side a")
    p.add_argument("--m", type=_int_at_least(0), default=None, help="size of side b (default: n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius-lo", type=float, default=0.04)
    p.add_argument("--radius-hi", type=float, default=0.10)
    p.add_argument("--extent-lo", type=float, default=0.05)
    p.add_argument("--extent-hi", type=float, default=0.30)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check-free", help="test K_{t,t}-freeness")
    p.add_argument("instance")
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser("net", help="build and verify an epsilon-t-net")
    p.add_argument("instance")
    p.add_argument("--eps", type=_positive_fraction, required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--method", choices=sorted(NET_BUILDERS), default="pseudodisc")
    p.add_argument("--side", choices=("primal", "dual"), default="primal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("bound", help="recursive edge-count bound report")
    p.add_argument("instance")
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--eps", type=_positive_fraction, default=None,
                   help="fixed eps per level (default: degree cutoff rule)")
    p.add_argument("--eps-prime", type=_positive_fraction, default=None,
                   help="fixed eps' per level (default: --eps); needs --eps")
    p.add_argument("--net", choices=sorted(NET_BUILDERS), default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--assume-free", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("census", help="rectangle intersection type counts")
    p.add_argument("instance")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("canon", help="canonical tuple family")
    p.add_argument("instance")
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("shrink", help="point/disc counting-inequality report")
    p.add_argument("instance")
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_shrink)

    p = sub.add_parser("delaunay", help="segment Delaunay graph and its drawing")
    p.add_argument("instance")
    p.add_argument("--format", choices=("svg", "json"), default="svg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_delaunay)

    p = sub.add_parser("suite", help="run the full verification battery")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quick", action="store_true", help="reduced desk-scale sizes")
    p.add_argument("--out", default=None, help="directory for CSV/JSON reports")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bound" and args.eps_prime is not None and args.eps is None:
        parser.error("--eps-prime requires --eps")
    try:
        return args.func(args)
    except InequalityViolated as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (
        SchemaError,
        ParamOutOfRange,
        PreconditionViolated,
        DegenerateInput,
        BudgetExceeded,
        InfeasibleNet,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
