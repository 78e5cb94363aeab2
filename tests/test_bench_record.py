"""tools/bench_record.py: its parser on a fixed run.py stdout, and the
medians, quartiles and pair counts it writes, and the order in which it
runs the two sides."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# An untraced segment_degraded run, as perfbench/run.py prints it.
STDOUT = """\
workload=segment_degraded seed=0 seconds=2.0 trace=0
environment: {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", \
"blas_threads": 2, "nproc": 2, "cpu": "Intel(R) Xeon(R) Processor"}
5256 operations in 73 passes; yardstick 2.866 ms median of 10
set-up seconds: 0.336, 0.248, 0.231
pass_s = 0.0259733 s
op_ms_p50 = 0.360153 ms
op_ms_p90 = 0.42101 ms
images_per_s = 2680.03 1/s
setup_s = 0.247985 s
pass_rel = 9.0465 yardstick
accuracy = 1 share
{"correct": true, "attempted": 5256, "failed": 0, "metrics": {"setup_s": {"value": \
0.24798458299483173, "unit": "s"}, "pass_rel": {"value": 9.046499764152491, "unit": \
"yardstick"}, "accuracy": {"value": 1.0, "unit": "share"}}}
"""

# The grid prints one more summary line, which is no metric.
GRID_LINE = "grid_s = 2.19 s, grid_rate_mean = 0.9117\n"


def test_parse_run():
    parsed = bench_record.parse_run(STDOUT)
    assert parsed["environment"] == {
        "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
        "blas_threads": 2, "nproc": 2, "cpu": "Intel(R) Xeon(R) Processor",
    }
    assert (parsed["correct"], parsed["failed"], parsed["attempted"]) == (True, 0, 5256)
    metrics = parsed["metrics"]
    # The result line's full-precision values win over the printed ones.
    assert metrics["pass_rel"] == {"value": 9.046499764152491, "unit": "yardstick"}
    assert metrics["setup_s"] == {"value": 0.24798458299483173, "unit": "s"}
    assert metrics["pass_s"] == {"value": 0.0259733, "unit": "s"}
    assert metrics["op_ms_p50"] == {"value": 0.360153, "unit": "ms"}
    assert metrics["images_per_s"] == {"value": 2680.03, "unit": "1/s"}
    assert sorted(metrics) == sorted([
        "pass_s", "op_ms_p50", "op_ms_p90", "images_per_s", "setup_s", "pass_rel",
        "accuracy",
    ])
    lines = STDOUT.splitlines(keepends=True)
    grid = bench_record.parse_run("".join([*lines[:4], GRID_LINE, *lines[4:]]))
    assert grid["metrics"] == metrics


@pytest.mark.parametrize(
    "stdout, message",
    [
        ("", "no output"),
        (STDOUT.rsplit("\n", 2)[0] + "\n", "last line is not the JSON result"),
        (STDOUT.replace("environment: ", "env: "), "no environment line"),
        (STDOUT.replace("op_ms_p50 = 0.360153 ms\n", ""), "no value for op_ms_p50"),
    ],
    ids=["empty", "no_result", "no_environment", "no_p50"],
)
def test_parse_run_refuses(stdout, message):
    with pytest.raises(ValueError, match=message):
        bench_record.parse_run(stdout)


def fake_run(pair, side, pass_rel, setup_s=1.0):
    metrics = {
        "pass_rel": {"value": pass_rel, "unit": "yardstick"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": 2.0, "unit": "s"},
        "op_ms_p50": {"value": 3.0, "unit": "ms"},
    }
    return {"pair": pair, "side": side, "metrics": metrics}


def test_summarize():
    runs = []
    for pair, (change, parent) in enumerate([(1, 2), (5, 4), (3, 6), (2, 2), (4, 8)]):
        runs += [fake_run(pair, "parent", parent), fake_run(pair, "change", change)]
    summary = bench_record.summarize(runs)
    assert summary["change"]["pass_rel"] == {
        "unit": "yardstick", "median": 3, "q1": 2, "q3": 4,
    }
    assert summary["parent"]["pass_rel"] == {
        "unit": "yardstick", "median": 4, "q1": 2, "q3": 6,
    }
    # Pairs 0, 2 and 4 go to the change; a tie counts for neither side.
    assert summary["change_won"] == {
        "pass_rel": 3, "setup_s": 0, "pass_s": 0, "op_ms_p50": 0,
    }


def test_main_alternates_sides(tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    calls = []

    def run(checkout, workload):
        calls.append((workload, "parent" if checkout == parent.resolve() else "change"))
        return bench_record.parse_run(STDOUT)

    monkeypatch.setattr(bench_record, "run", run)
    monkeypatch.setattr(bench_record, "commit", lambda checkout: None)
    out = tmp_path / "BENCH_0.json"
    assert bench_record.main(["--against", str(parent), "--out", str(out)]) == 0
    workloads = ["grid", "classify", "segment_degraded"]
    assert calls == [(w, side) for w in workloads
                     for _ in range(5) for side in ("parent", "change", "change", "parent")]
    record = json.loads(out.read_text())
    assert record["pairs"] == 10
    assert record["environment"]["nproc"] == 2
    assert list(record["workloads"]) == workloads
    runs = record["workloads"]["grid"]["runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs[:6]] == [
        (0, "parent", True), (0, "change", False), (1, "change", True),
        (1, "parent", False), (2, "parent", True), (2, "change", False),
    ]
    assert [r["pair"] for r in runs] == [pair for pair in range(10) for _ in range(2)]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH_0.json", "parent"]


def test_commit_names_the_measured_trees(tmp_path, monkeypatch):
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.invalid")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", "/dev/null")
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")

    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    assert bench_record.commit(tmp_path) is None
    for name in ("src", "perfbench"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.py").write_text("a = 1\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "HEAD")
    clean = bench_record.commit(tmp_path)
    assert clean == {"head": head, "src": git("rev-parse", "HEAD:src"),
                     "perfbench": git("rev-parse", "HEAD:perfbench")}

    # An uncommitted edit changes the src tree id, to the one its commit gets,
    # and leaves the index and work tree as they were.
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    status = git("status", "--porcelain")
    dirty = bench_record.commit(tmp_path)
    assert git("status", "--porcelain") == status
    assert (dirty["head"], dirty["perfbench"]) == (head, clean["perfbench"])
    assert dirty["src"] != clean["src"]
    git("commit", "-q", "-am", "second")
    assert dirty["src"] == git("rev-parse", "HEAD:src")
    # A checkout below the work tree's top is not a side of its own.
    assert bench_record.commit(tmp_path / "src") is None
