#!/usr/bin/env python3
"""Paired benchmark record: this checkout against another, as BENCH_<n>.json.

    python3 tools/bench_record.py --against ../parent --out BENCH_31.json

Run from anywhere; the change side is the checkout that holds this file, and
--against names the other side's checkout (a sibling `git archive` copy or
clone of the parent commit).  For each workload that BENCHMARK.json lists,
each of PAIRS = 10 pairs runs

    python3 perfbench/run.py --workload W --seed 0 --trace 0

once in each checkout, one fresh child process at a time; the side that runs
first alternates from pair to pair, so a drift in the host's speed falls on
both sides alike.  A run that exits non-zero, or whose output has no result
line, stops the record.

The record holds, per workload and side, the median and quartiles of
pass_rel, setup_s, pass_s and op_ms_p50 with their units; per metric, the
number of pairs the change won (lower is better for all four; ties count for
neither side); and for every run its correct flag, failed and attempted
counts and every metric it printed.  It also holds the environment line of
the first run and, per side, its HEAD commit and the git tree ids of the
src/ and perfbench/ it ran, uncommitted changes to tracked files included
(null outside a git work tree); `git rev-parse <commit>:src` tells whether a
commit holds the measured code.  Nothing but --out is written to the work
tree.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("pass_rel", "setup_s", "pass_s", "op_ms_p50")
# Alternating pairs per workload: the fewest on which a gain can be judged.
PAIRS = 10
# `name = value unit`, as run.py prints each metric above its result line.
METRIC_LINE = re.compile(r"^(\w+) = (\S+) (\S+)$")


def parse_run(stdout: str) -> dict:
    """One run.py stdout as its environment, correct flag, counts and metrics.

    Every `name = value unit` line is a metric; the last line is the JSON
    result, whose metrics agree with the printed ones.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"last line is not the JSON result: {lines[-1]!r}") from None
    env = next((ln.split(": ", 1)[1] for ln in lines if ln.startswith("environment: ")), None)
    if env is None:
        raise ValueError("no environment line")
    metrics = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            name, value, unit = match.groups()
            metrics[name] = {"value": float(value), "unit": unit}
    metrics.update(result["metrics"])
    missing = [name for name in METRICS if name not in metrics]
    if missing:
        raise ValueError(f"no value for {', '.join(missing)}")
    return {
        "environment": json.loads(env),
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": metrics,
    }


def summarize(runs: list[dict]) -> dict:
    """Per side, the median and quartiles of each metric; per metric, the
    pairs the change won.  runs holds each pair's two runs, in any order."""
    out = {}
    for side in ("change", "parent"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {}
        for name in METRICS:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[side][name] = {
                "unit": mine[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
            }
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    out["change_won"] = {
        name: sum(p["change"][name]["value"] < p["parent"][name]["value"]
                  for p in by_pair.values())
        for name in METRICS
    }
    return out


def commit(checkout: Path) -> dict | None:
    """checkout's HEAD and the tree ids of its src/ and perfbench/ as they stand.

    `git stash create` stores the tracked files' uncommitted changes as an
    unreferenced commit (no ref, index or file changes) and prints nothing
    when there are none; the trees are read from it, or else from HEAD.
    """
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"git {' '.join(args)} in {checkout}: {done.stderr.strip()}")
        return done.stdout.split()

    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD")
    except RuntimeError:
        return None
    if Path(top).resolve() != checkout.resolve():
        return None
    measured = (git("stash", "create") or [head])[0]
    src, perfbench = git("rev-parse", f"{measured}:src", f"{measured}:perfbench")
    return {"head": head, "src": src, "perfbench": perfbench}


def run(checkout: Path, workload: str) -> dict:
    """One untraced run.py in a fresh process, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(
            f"{workload} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    try:
        return parse_run(done.stdout)
    except ValueError as exc:
        raise RuntimeError(f"{workload} in {checkout}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="the other side's checkout, usually the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if not (args.against / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.against}")

    sides = {"change": ROOT, "parent": args.against.resolve()}
    record = {
        "command": "python3 perfbench/run.py --workload W --seed 0 --trace 0",
        "pairs": PAIRS,
        "commits": {side: commit(path) for side, path in sides.items()},
        "workloads": {},
    }
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = run(sides[side], workload)
                record.setdefault("environment", result.pop("environment"))
                runs.append({"pair": pair, "side": side, "first": position == 0, **result})
                print(f"{workload} pair {pair} {side}: pass_rel "
                      f"{result['metrics']['pass_rel']['value']:.4g}", file=sys.stderr)
        record["workloads"][workload] = {**summarize(runs), "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
