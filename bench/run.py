"""ztnet benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; ztnet is imported from its `src/`.
The workload seed makes the inputs; ztnet only sees the generated inputs.
Each operation starts when the previous one has returned.

--trace 0 sets up five times (setup_s is the median import time of seven
fresh interpreters plus the median set-up, each time scaled by the
reference samples around it to a host whose reference loop takes
REF_NOMINAL_S), then runs passes over the
workload's operations until the next one would end after S seconds, at
least one.  A fixed reference loop, which never calls ztnet, runs before
every operation, after the last, and before an operation's marked inner
calls once MIN_SEGMENT_S has passed; its samples split a pass into
segments.  `pass_ref` is a pass's time in reference-loop units: each
segment's wall time over the mean of the two samples around it, summed
over the pass, the median over the passes.  The host's speed drifts by
15-30% within minutes, and the reference loop drifts with it, so the ratio
stays put where the wall time does not.  Wall and CPU seconds (samples
left out) are printed and written too.
--trace 1 runs one untraced pass, then one traced set-up and pass, and
reports per-layer self times and counters instead, with no reference loop.
The last line of stdout is one JSON object; a results file with every
operation's sha256 and time (and, traced, every span) goes to .bench_out/.
A run whose operations fail still exits 0 with "correct": false; it exits
2 without a result when the tree has no ztnet to import.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Optional

SETUPS = 5
IMPORTS = 7


REF_ROUNDS = 60  # about 0.07 s per reference sample on a 2-core VM
MIN_SEGMENT_S = 0.5  # a marked call samples only after this long without a sample
# the reference loop's median time on the 2-core VM the benchmark was tuned
# on; setup_s is in seconds on a host where the loop takes this long
REF_NOMINAL_S = 0.07


def reference_loop() -> int:
    """A fixed pure-Python task of the kinds of work ztnet does: integer and
    float arithmetic, big-integer bitsets and their popcounts, dict and list
    traffic.  It calls no ztnet code, so its time measures only the host."""
    total = 0
    for r in range(REF_ROUNDS):
        bits = [(r * 2654435761 + k * 40503) % (1 << 256) for k in range(64)]
        common = (1 << 256) - 1
        for b in bits:
            common &= b | (b >> 7)
            total += (b ^ common).bit_count()
        pts = [((k * 37 + r) % 101 / 101.0, (k * 53 + r) % 97 / 97.0) for k in range(200)]
        near = {}
        for k, (x, y) in enumerate(pts):
            cell = (int(x * 8), int(y * 8))
            near.setdefault(cell, []).append(k)
            total += int((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.1)
        total += sum(len(v) * len(v) for v in near.values())
        total += sum(sorted(pts)[k][0] > 0.5 for k in range(0, 200, 7))
    return total


class RefClock:
    """Splits a pass into segments with samples of the reference loop:
    ref, segment, ref, segment, ..., ref.  `mark` ends the running segment
    and takes a sample; the pass's last `mark` closes the last segment."""

    def __init__(self):
        self.refs: list[float] = []
        self.segments: list[float] = []
        self.owners: list[str] = []  # the operation each segment belongs to
        self.owner = ""
        self.ref_wall = 0.0
        self.ref_cpu = 0.0
        self.since: Optional[float] = None  # end of the last sample

    def mark(self) -> None:
        t = time.perf_counter()
        if self.since is not None:
            self.segments.append(t - self.since)
            self.owners.append(self.owner)
        c = time.process_time()
        reference_loop()
        end = time.perf_counter()
        self.refs.append(end - t)
        self.ref_wall += end - t
        self.ref_cpu += time.process_time() - c
        self.since = time.perf_counter()

    def in_refs(self, owner: Optional[str] = None) -> float:
        """The segments' time in reference-loop units (only `owner`'s, if
        given): each segment over the mean of the samples on either side."""
        return sum(
            seg / ((a + b) / 2)
            for seg, who, a, b in zip(self.segments, self.owners, self.refs, self.refs[1:])
            if owner is None or who == owner
        )


@contextmanager
def _marked(calls, clock: Optional[RefClock]):
    """While the block runs, a call to any (module, name) in `calls` first
    takes a reference sample if the running segment is MIN_SEGMENT_S long."""
    saved = [(mod, name, getattr(mod, name)) for mod, name in calls] if clock else []
    for mod, name, fn in saved:
        def before(*args, __fn=fn, **kwargs):
            if time.perf_counter() - clock.since >= MIN_SEGMENT_S:
                clock.mark()
            return __fn(*args, **kwargs)
        setattr(mod, name, wraps(fn)(before))
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def _run_pass(ops, tracer=None, clock: Optional[RefClock] = None) -> dict:
    """One pass over the operations: timings, and each one's digest and problem.
    With a clock, reference samples split the pass, and wall and CPU times
    leave them out."""
    gc.collect()
    results = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        if clock is not None:
            clock.mark()
            clock.owner = op.name
        ref0 = clock.ref_wall if clock is not None else 0.0
        t0 = time.perf_counter()
        try:
            with _marked(op.marks, clock):
                blob, problem = op.run()
        except Exception:  # a raising operation is a failed one; keep measuring
            blob, problem = b"", "raised:\n" + traceback.format_exc()
        inner_refs = clock.ref_wall - ref0 if clock is not None else 0.0
        results[op.name] = {
            "wall_s": time.perf_counter() - t0 - inner_refs,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "problem": problem,
        }
    if clock is not None:
        clock.mark()
        for name, res in results.items():
            res["ref"] = clock.in_refs(name)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    out = {"wall_s": wall, "cpu_s": cpu, "elapsed_s": wall, "ops": results}
    if clock is not None:
        out.update(wall_s=wall - clock.ref_wall, cpu_s=cpu - clock.ref_cpu,
                   pass_ref=clock.in_refs(), refs_s=clock.refs, segments_s=clock.segments)
    return out


def _tally(passes: list[dict], setup_digests: list[str]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, set-ups counted as operations.  An
    output that differs from the first pass's, or inputs that differ from the
    first set-up's, fail too: the same seed must give the same bytes."""
    problems = [
        f"set-up {k}: inputs {d[:12]} differ from set-up 0 ({setup_digests[0][:12]})"
        for k, d in enumerate(setup_digests) if d != setup_digests[0]
    ]
    attempted, failed = len(setup_digests), len(problems)
    first = passes[0]["ops"]
    for k, p in enumerate(passes):
        for name, res in p["ops"].items():
            attempted += 1
            problem = res["problem"]
            if problem is None and res["sha256"] != first[name]["sha256"]:
                problem = f"output differs from pass 0 ({first[name]['sha256'][:12]})"
            if problem is not None:
                failed += 1
                problems.append(f"pass {k} {name}: {problem}")
    return attempted, failed, problems


def _import_ztnet(src: Path) -> Optional[str]:
    """Import ztnet from `src`; an error message when that is not possible."""
    if not (src / "ztnet" / "__init__.py").is_file():
        return f"error: no ztnet package under {src}; run from a source tree root"
    sys.path.insert(0, str(src))
    import ztnet  # noqa: F401
    import ztnet.cli  # noqa: F401  (imports every layer module)

    if Path(ztnet.__file__).resolve().parent != (src / "ztnet").resolve():
        return f"error: imported ztnet from {ztnet.__file__}, not {src}"
    return None


def _ref_sample() -> float:
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def _fresh_imports(src: Path) -> tuple[list[float], list[float]]:
    """Times to import ztnet in fresh interpreters, as each CLI call pays it
    (one import alone varies too much from run to run), and for each the
    mean of the reference samples taken before and after it."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import ztnet.cli; print(time.perf_counter() - t)")
    times, refs = [], [_ref_sample()]
    for _ in range(IMPORTS):
        done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout))
        refs.append(_ref_sample())
    return times, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def _in_ref_seconds(times: list[float], refs: list[float]) -> float:
    """The median of times scaled to a host whose reference loop takes REF_NOMINAL_S."""
    return statistics.median(t / r for t, r in zip(times, refs)) * REF_NOMINAL_S


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    error = _import_ztnet(root / "src")
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer, layer_metrics, self_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    setup = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        imports, import_refs = ([], []) if args.trace else _fresh_imports(root / "src")
        setup_times, setup_refs, setup_digests = [], [], []
        for _ in range(SETUPS if not args.trace else 1):
            before = 0.0 if args.trace else _ref_sample()
            t0 = time.perf_counter()
            ops, digest = setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(0.0 if args.trace else (before + _ref_sample()) / 2)
            setup_digests.append(digest)

        passes = []
        start = time.perf_counter()
        while True:
            passes.append(_run_pass(ops, clock=None if args.trace else RefClock()))
            if args.trace:
                break
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if elapsed + typical > args.seconds:
                break

        spans = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                tracer.op = "setup"
                ops, digest = setup(args.seed, workdir)
                setup_digests.append(digest)
                passes.append(_run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            spans = tracer.spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = _tally(passes, setup_digests)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)

    seen = {}
    if args.trace:
        untraced, traced = passes
        sizes = {op.name: op.size for op in ops if op.size is not None}
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(spans, sizes).items()
        }
        in_pass = sum(t for s, t in zip(spans, self_times(spans)) if s.op != "setup")
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
        metrics["trace.uncovered_s"] = {"value": traced["wall_s"] - in_pass, "unit": "s"}
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": _in_ref_seconds(imports, import_refs)
                        + _in_ref_seconds(setup_times, setup_refs), "unit": "s"},
            "pass_ref": {"value": statistics.median(p["pass_ref"] for p in passes), "unit": "ref"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
        for key in ("wall_s", "cpu_s"):  # printed, and kept in the results file
            seen[key] = {"value": statistics.median(p[key] for p in passes), "unit": "s"}
        seen["setup_wall_s"] = {
            "value": statistics.median(imports) + statistics.median(setup_times), "unit": "s"}

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": setup_digests[0],
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "metrics": metrics,
        "seen": seen,
        "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in spans],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed")
    for name, res in passes[0]["ops"].items():
        print(f"  op {name:24s} sha256 {res['sha256']}")
    print(f"  failed_op_share {failed / attempted:.6g} ratio")
    for name, m in {**metrics, **seen}.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
