"""Smoke runs of the experiment scripts on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        # the stacked cover needs eps * n >= 2t, which n = 32 misses at eps 0.1
        ("net_size_scaling.py", ["--sizes", "64", "--seeds", "1"]),
        ("prune_overhead_report.py", ["--trials", "2"]),
        # the script's brute force calls naive_ktt_free, here on 3-subsets
        ("prune_overhead_report.py", ["--trials", "2", "--t", "3"]),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    proc = _run(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_net_size_scaling_rejects_small_size(tmp_path):
    proc = _run("net_size_scaling.py", ["--sizes", "64,32", "--seeds", "1"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "size 32" in proc.stderr and "eps*n >= 2t" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["--t", "0"], "argument --t: must be >= 1, got '0'"),
        (["--seeds", "0"], "argument --seeds: must be >= 1, got '0'"),
        (["--eps", "2"], "argument --eps: must be <= 1, got '2'"),
        (["--eps", "0"], "argument --eps: must be > 0, got '0'"),
        (["--eps", "1/0"], "argument --eps: not a fraction: '1/0'"),
        (["--sizes", "64,0"], "argument --sizes: must be >= 1, got '0'"),
    ],
    ids=["t-0", "seeds-0", "eps-2", "eps-0", "eps-1/0", "sizes-0"],
)
def test_net_size_scaling_rejects_invalid_arguments(args, message, tmp_path):
    proc = _run("net_size_scaling.py", args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"net_size_scaling.py: error: {message}"
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--trials", "0"], "argument --trials: must be >= 1, got '0'"),
        (["--t", "1"], "argument --t: must be >= 2, got '1'"),
        (["--t", "0"], "argument --t: must be >= 2, got '0'"),
    ],
    ids=["trials-0", "t-1", "t-0"],
)
def test_prune_overhead_report_rejects_invalid_arguments(args, message, tmp_path):
    proc = _run("prune_overhead_report.py", args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"prune_overhead_report.py: error: {message}"
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_net_size_scaling_prints_no_wall_time(tmp_path):
    # the report is a function of the arguments alone
    proc = _run("net_size_scaling.py", ["--sizes", "64", "--seeds", "1", "--t", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split() == ["n", "structural", "greedy", "cover"]


def _run(script, args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
