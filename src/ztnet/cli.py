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
import itertools
import json
import math
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import suite as suite_mod
from .errors import (
    BudgetExceeded,
    DegenerateInput,
    InequalityViolated,
    PreconditionViolated,
    SchemaError,
)
from .generators import GenParams
from .geometry import DISC, FRAME, POINT, RECT, SHAPES, Family, check_general_position
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


_JSON_CODES = {s.name: code for code, s in enumerate(SHAPES) if s.keys}  # the kinds an instance file holds


def _decode(raw):
    """One instance object from its JSON form.  A SchemaError names the fault
    but not the object; the caller labels it."""
    if not isinstance(raw, dict):
        raise SchemaError("expected a JSON object")
    kind = raw.get("kind")
    code = _JSON_CODES.get(kind) if isinstance(kind, str) else None
    if code is None:
        raise SchemaError(f"unknown kind {kind!r}")
    shape = SHAPES[code]
    vals = {}
    for key in shape.keys:
        v = raw.get(key)
        if type(v) is not float:  # JSON numbers with a point or exponent are floats
            if key not in raw:
                raise SchemaError(f"missing field {key!r}")
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"field {key!r} must be a number, got {v!r}")
            try:
                v = float(v)
            except OverflowError:  # a JSON integer beyond the float range
                v = math.inf
        if not math.isfinite(v):
            raise SchemaError(f"field {key!r} must be finite")
        if key == "r" and v <= 0:
            raise SchemaError(f"disc radius must be > 0, got {v}")
        vals[key] = v
    box = [vals.get(key, 0.0) for key in shape.rows]
    if shape.rows[0] != shape.rows[1] and not (box[0] < box[1] and box[2] < box[3]):
        raise SchemaError("need x0 < x1 and y0 < y1")
    return shape.make(*box)


def object_from_json(raw, where: str):
    try:
        return _decode(raw)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _decode_side(arr: list) -> Family:
    """A side's objects straight into columns, a pass per kind and field, checked in numpy:
    float or int fields (no bools), finite, r > 0, x0 < x1 and y0 < y1.  A fault raises
    LookupError, TypeError, ValueError or OverflowError, naming no object."""
    codes = list(map(_JSON_CODES.__getitem__, map(itemgetter("kind"), arr)))
    fam = Family(np.array(codes, np.int64), np.zeros((5, len(arr))))
    for code, idx in fam.groups():
        shape = SHAPES[code]
        part = arr if len(idx) == len(arr) else [arr[i] for i in idx.tolist()]
        cols = [list(map(itemgetter(key), part)) for key in shape.keys]
        if not set(map(type, itertools.chain.from_iterable(cols))) <= {float, int}:
            raise TypeError("a field is not a number")
        vals = dict(zip(shape.keys, np.array(cols, dtype=float)))
        box = np.array([vals[key] if key else np.zeros(len(idx)) for key in shape.rows])
        ok = np.isfinite(box).all() and (shape.rows[4] is None or (box[4] > 0).all())
        if not ok or shape.rows[0] != shape.rows[1] and not ((box[0] < box[1]) & (box[2] < box[3])).all():
            raise ValueError("a field is out of range")
        fam.fields[:, idx] = box
    return fam


def _json_line(shape) -> tuple:
    """An object's sorted-key JSON line as a %-template, and the layout rows that fill it."""
    keys = sorted(shape.keys + ("kind",))
    line = ", ".join(f'"{k}": "{shape.name}"' if k == "kind" else f'"{k}": %s' for k in keys)
    return "{" + line + "}", [shape.rows.index(k) for k in keys if k != "kind"]


_JSON_LINES = {code: _json_line(SHAPES[code]) for code in _JSON_CODES.values()}


def emit_instance(fam_a, fam_b) -> str:
    """Deterministic one-object-per-line instance document, from the families'
    columns: every field prints as a float.  A segment raises TypeError and a
    non-finite field, which the decoder would refuse, ValueError."""

    def side(name: str, objs) -> str:
        fam = Family.of(objs)
        unknown, finite = ~np.isin(fam.codes, list(_JSON_LINES)), np.isfinite(fam.fields)
        if unknown.any():
            i = int(unknown.argmax())
            raise TypeError(f"{name}[{i}]: not a serializable object: {SHAPES[fam.codes[i]].cls.__name__}")
        if not finite.all():
            i = int(finite.all(axis=0).argmin())
            key = next(k for k, ok in zip(SHAPES[fam.codes[i]].rows, finite[:, i]) if not ok)
            raise ValueError(f"{name}[{i}]: field {key!r} must be finite")
        return "[\n    " + ",\n    ".join(fam.texts(_JSON_LINES)) + "\n  ]" if len(fam) else "[]"

    return '{\n  "a": ' + side("a", fam_a) + ',\n  "b": ' + side("b", fam_b) + "\n}\n"


_scan_value = json.JSONDecoder().raw_decode
_BLANK = re.compile(r"[ \t\n\r]*")


def _element_line(text: str, side: str, idx: int) -> Optional[int]:
    """1-based line of the idx-th entry of the side's array, whatever its JSON
    type, stepping over the entries before it with json's own scanner; best
    effort."""
    start = text.find("[", key) if (key := text.find(f'"{side}"')) >= 0 else -1
    if start < 0:
        return None
    pos = _BLANK.match(text, start + 1).end()
    try:
        for _ in range(idx):
            pos = _BLANK.match(text, _scan_value(text, pos)[1]).end()
            if text[pos] != ",":
                return None
            pos = _BLANK.match(text, pos + 1).end()
    except (ValueError, IndexError):  # no entry there, or the end of the text
        return None
    return None if text[pos : pos + 1] in ("]", "") else text.count("\n", 0, pos) + 1


def parse_instance_text(text: str) -> tuple[Family, Family]:
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
        try:
            fams.append(_decode_side(arr))
        except (LookupError, TypeError, ValueError, OverflowError):
            # only a failing side is walked again, object by object, to name
            # its first fault with the object's index and, where found, its line
            for idx, raw in enumerate(arr):
                try:
                    _decode(raw)
                except SchemaError as exc:
                    line = _element_line(text, side, idx)
                    where = f"{side}[{idx}]" if line is None else f"{side}[{idx}] (line {line})"
                    raise SchemaError(f"{where}: {exc}") from None
            raise
    return fams[0], fams[1]


def parse_instance(path) -> tuple[Family, Family]:
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


_encode_rows = json.JSONEncoder(separators=(",", ":")).encode


def _json_text(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` and a newline, byte for
    byte; dict keys are strings."""
    return _indented(payload, "\n") + "\n"


def _indented(value, nl: str) -> str:
    """`value` as indent-2 JSON whose lines start with `nl` (a newline and the
    value's own indentation).  Lists of int rows, such as tuple families and
    edge lists, go through the C encoder: their compact text holds no comma
    or bracket but the ones between numbers and rows, so `str.replace`
    re-indents it."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        items = [json.dumps(k) + ": " + _indented(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        if (
            set(map(type, value)) <= {list, tuple}
            and all(value)
            and set(map(type, itertools.chain.from_iterable(value))) <= {int, bool}
        ):
            row = inner + "  "
            flat = _encode_rows(value)[2:-2].replace(",", "," + row)
            body = "[" + row + flat.replace("]," + row + "[", inner + "]," + inner + "[" + row) + inner + "]"
        else:
            body = ("," + inner).join([_indented(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    return json.dumps(value)


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
        fam_a, fam_b = suite_mod.disc_instance(n, seed, args.radius_lo, args.radius_hi, m)
    elif args.kind in ("rects", "frames"):
        kind = "random_" + args.kind
        fam_a, fam_b = suite_mod.rect_instance(n, seed, args.extent_lo, args.extent_hi, m, kind)
    elif args.kind == "points-discs":
        p = GenParams(radius_lo=args.radius_lo, radius_hi=args.radius_hi)
        fam_a, fam_b = suite_mod.pair_instance(seed, ("random_points", n, None), ("random_discs", m, p))
    else:  # points-dyadic
        fam_a, fam_b = suite_mod.pair_instance(seed, ("grid_points", n, None), ("dyadic_rects", m, None))
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
        "tuples": sorted(net.tuples),
    }
    _write_text(args.out, _json_text(payload))
    if witness is not None:
        print(f"verification failure: heavy hyperedge {list(witness)} missed", file=sys.stderr)
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


def _require_rects(fam: Family, side: str) -> Family:
    """The side's rects, with its frames read as rects."""
    if not set(fam.codes.tolist()) <= {RECT, FRAME}:
        raise PreconditionViolated(f"side {side} must contain rects or frames")
    return Family(RECT, fam.fields)


def _segments_of(fam_a: Family) -> Family:
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
    if (fam_a.codes == POINT).all() and (fam_b.codes == DISC).all():
        fam = shrink_canonical_tuples(BipartiteIntersectionGraph.from_families(fam_a, fam_b), args.t)
        mode = "shrink"
    else:
        fam = canonical_segment_tuples(_segments_of(fam_a), 2 * args.t - 1)
        mode = "segments"
    payload = {
        "mode": mode,
        "k": fam.k,
        "size": fam.size(),
        "tuples": sorted(fam.tuples),
    }
    _write_text(args.out, _json_text(payload))
    return 0


def _cmd_shrink(args) -> int:
    fam_a, fam_b = parse_instance(args.instance)
    if not ((fam_a.codes == POINT).all() and (fam_b.codes == DISC).all()):
        raise PreconditionViolated("shrink expects points in side a and discs in side b")
    g = BipartiteIntersectionGraph.from_families(fam_a, fam_b)
    witness = find_ktt_witness(g, args.t, args.budget)
    if witness is not None:
        raise PreconditionViolated(f"incidence graph contains K_{args.t},{args.t}: {witness}")
    report = counting_inequality_check(g, args.t)
    payload = {
        "t": report.t,
        "family_size": report.family_size,
        "edges": sum(report.degrees),
        "floor_sum": report.lower_sum,
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
        edges = list(zip(g.rows.tolist(), g.cols.tolist()))
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
    except (BudgetExceeded, OSError, ValueError) as exc:  # the other errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
