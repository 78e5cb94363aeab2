#!/usr/bin/env python3
"""Benchmark of the irisvd command line, end to end and per layer.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every operation is one in-process call of ``irisvd.cli.main``
with its stdout captured, issued by a single closed-loop client (the next
operation starts when the previous one returns; no threads are added).

Workloads (the seed defaults to 0):

grid
    ``irisvd experiment --classes 3,5,7,9 --dims 3,10,20,40 --seed S`` on
    ``synth 9x7`` with data seed 0, the paper's table.  The seed sets the
    grid's per-cell weight initialisation only: with the image set also
    drawn from the seed, one or two cells hit the 8000-epoch cap depending
    on the seed (24.9k to 36.2k epochs over seeds 0-4), so grid time would
    measure the seed rather than the program.
classify
    ``irisvd classify --model M <img>`` per held-out image of
    ``synth 9x12`` with data seed 0.  Set-up trains the model with
    ``irisvd train --dim 20 --seed S`` on samples 1-5; samples 6-12 are
    classified.  The images stay fixed for the same reason as the grid's:
    with them drawn from the seed, accuracy ranged from 0.83 to 0.98 over
    seeds 10-19, while over training seeds 0-9 it stays within 0.89-0.94.
segment_degraded
    ``irisvd segment <img>`` per degraded eye: ``synth 9x8`` (data seed S)
    rendered with 12 eyelashes, noise amplitude 12 and a bright spot; two
    thirds of the images are cropped into the iris on one side.

Operations run in whole passes over the workload's inputs for at least
``--seconds`` and at least two passes, so every output is compared with its
repeat.

End-to-end metrics (``--trace 0``), the same names on every workload:

setup_s
    median of three set-ups: synth generation, training for ``classify``,
    and one warm-up operation.
pass_rel
    median over passes of one pass's time (one grid; one request per
    image) divided by the time of the yardstick, a fixed piece of work owned
    by the benchmark and sampled four times a second.  On a shared 2-core
    VM (Xeon, Python 3.11, numpy 2.4) the host's speed swings by up to 1.6x
    within seconds: five runs of the same grid took 10.7 to 15.5 s, while
    their ``pass_rel`` stayed within 1.3% of each other.
accuracy
    mean rate over the 16 grid cells; share of images classified as their
    manifest class; share of pupils within 2 px and 10% of the manifest
    truth, shifted by the crop.

The wall-clock figures (``grid_s``, ``pass_s``, per-request ``op_ms_p50`` and
``op_ms_p90``, ``images_per_s``) are printed above the result, with the
operation count, but carry no bound.

``--trace 1`` records spans around each layer (see ``tracing.py``),
alternating untraced and traced passes, and prints the per-layer metrics,
the tracing overhead, and for ``grid`` a per-cell table.  The spans are
written to ``.perfbench_out/``.  The last stdout line is always the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_PASSES = 2
TICK_SECONDS = 0.25
# sha256 of the seed-0 grid report; its mean rate over 16 cells is 0.9117.
GRID_SEED0_SHA256 = "07a27233921a1fb83036fb60fccd911fbbabf85f7a13894c573219aa63b12c4e"
# Far below the measured accuracies and far above chance (1/9).
MIN_CLASSIFY_ACCURACY = 0.5
MIN_SEGMENT_ACCURACY = 0.9

END_TO_END = {"setup_s": "s", "pass_rel": "yardstick", "accuracy": "share"}
SUMMARY = {"pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "images_per_s": "1/s"}


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc in this process's environment, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def _blas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu": cpu,
    }


class Client:
    """Calls the CLI in process; inside a traced request when a tracer is on."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None

    def call(self, argv: list[str], kind: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(self.tracer.request("cli", kind, command=argv[0]))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def request(self, name: str, kind: str):
        """A traced request around work the benchmark does itself."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(name, kind)

    def setup_call(self, argv: list[str]) -> str:
        rc, out, err = self.call(argv, "setup")
        if rc != 0:
            raise RuntimeError(f"set-up step {argv[0]} exited {rc}: {err.strip()}")
        return out


def _manifest(path: Path) -> dict[str, list[str]]:
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    return {row[0]: row for row in (ln.split(",") for ln in lines)}


class Workload:
    """One workload: set-up, the operations of one pass, and output checks."""

    images_per_op = 1
    op_layers: tuple[str, ...] = ()
    setup_layers: tuple[str, ...] = ("synth.generate",)

    def __init__(self, client: Client, seed: int, work: Path):
        self.client = client
        self.seed = seed
        self.work = work
        self.errors: list[str] = []
        self.first: dict[tuple, str] = {}
        self.correct: dict[tuple, bool] = {}

    def setup(self) -> list[float]:
        times = []
        for rep in range(SETUP_REPS):
            started = time.perf_counter()
            self.build(self.work / f"setup{rep}")
            times.append(time.perf_counter() - started)
        return times

    def build(self, d: Path) -> None:
        raise NotImplementedError

    def items(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, argv: list[str], rc: int, out: str, err: str) -> bool:
        """Record output errors; return False when the operation failed."""
        key = tuple(argv)
        if rc != 0:
            self.errors.append(f"{' '.join(argv)} exited {rc}: {err.strip()[:200]}")
            return False
        if key in self.first:
            if out != self.first[key]:
                self.errors.append(f"{' '.join(argv)}: output differs from its first run")
            return True
        self.first[key] = out
        try:
            self.correct[key] = self.judge(argv, out)
        except (ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"{' '.join(argv)}: unparseable output ({exc}): {out[:200]!r}")
        return True

    def judge(self, argv: list[str], out: str) -> bool:
        raise NotImplementedError

    def accuracy(self) -> float:
        return sum(self.correct.values()) / max(1, len(self.correct))

    def final_checks(self) -> None:
        pass


class Grid(Workload):
    images_per_op = 63
    rates: list[float] = []
    op_layers = (
        "harness.load_dataset", "harness.run_experiment", "harness.features",
        "harness.train_cell", "harness.emit_report", "image_io.read",
        "segmentation.threshold", "segmentation.geometry", "segmentation.label",
        "iris_boundary.bounds", "template.extract", "svd.factorize",
        "ebp.train", "ebp.forward",
    )

    def build(self, d: Path) -> None:
        self.data = d / "data"
        self.client.setup_call(
            ["synth", "--classes", "9", "--samples", "7", "--seed", "0", "--out", str(self.data)]
        )
        self.client.setup_call(["segment", str(self.data / "class001_sample01.pgm")])

    def items(self):
        return [[
            "experiment", "--data", str(self.data), "--classes", "3,5,7,9",
            "--dims", "3,10,20,40", "--seed", str(self.seed),
        ]]

    def check(self, argv, rc, out, err) -> bool:
        ok = super().check(argv, rc, out, err)
        return ok and ",failed" not in out

    def judge(self, argv, out) -> bool:
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        if len(rows) != 16:
            raise ValueError(f"{len(rows)} grid rows, expected 16")
        self.rates = [float(r[2]) if r[2] else 0.0 for r in rows]
        if self.seed == 0:
            digest = hashlib.sha256(out.encode("ascii")).hexdigest()
            if digest != GRID_SEED0_SHA256:
                self.errors.append(f"seed-0 grid report hash {digest} is not the stored table")
        return True

    def accuracy(self) -> float:
        return statistics.fmean(self.rates) if self.rates else 0.0


class Classify(Workload):
    op_layers = (
        "image_io.read", "segmentation.threshold", "segmentation.geometry",
        "segmentation.label", "iris_boundary.bounds", "template.extract",
        "svd.factorize", "harness.features", "ebp.load_model", "ebp.forward",
    )
    setup_layers = ("synth.generate", "harness.load_dataset", "ebp.train")

    def build(self, d: Path) -> None:
        self.data = d / "data"
        self.model = d / "model.txt"
        self.client.setup_call([
            "synth", "--classes", "9", "--samples", "12", "--seed", "0",
            "--out", str(self.data),
        ])
        self.client.setup_call([
            "train", "--data", str(self.data), "--dim", "20", "--seed", str(self.seed),
            "--out", str(self.model),
        ])
        model = self.model.read_bytes()
        if getattr(self, "model_bytes", model) != model:
            self.errors.append("set-up trained a different model on a repeat")
        self.model_bytes = model
        self.truth = _manifest(self.data / "manifest.csv")
        self.client.setup_call(["classify", "--model", str(self.model), self.items()[0][-1]])

    def items(self):
        held_out = sorted(n for n in self.truth if int(n.split("_sample")[1][:2]) > 5)
        return [["classify", "--model", str(self.model), str(self.data / n)] for n in held_out]

    def judge(self, argv, out) -> bool:
        lines = out.splitlines()
        path, label, _ = lines[1].split(",")
        if len(lines) != 2 or path != argv[-1]:
            raise ValueError("expected one row for the requested image")
        truth = int(self.truth[Path(path).name][1])
        return label == f"class{truth:03d}"

    def final_checks(self) -> None:
        if self.correct and self.accuracy() < MIN_CLASSIFY_ACCURACY:
            self.errors.append(f"classify accuracy {self.accuracy():.3f} < {MIN_CLASSIFY_ACCURACY}")


class SegmentDegraded(Workload):
    op_layers = (
        "image_io.read", "segmentation.threshold", "segmentation.geometry",
        "segmentation.label", "iris_boundary.bounds",
    )

    def build(self, d: Path) -> None:
        import numpy as np
        from irisvd import image_io, synth

        raw, self.data = d / "raw", d / "data"
        with self.client.request("synth", "setup"):
            synth.generate_dataset(
                9, 8, base_seed=self.seed, out_dir=raw,
                eyelash_count=12, noise_amplitude=12, bright_spot=True,
            )
        self.data.mkdir()
        rng = np.random.default_rng([self.seed, 1204])
        self.truth = {}
        for i, (name, row) in enumerate(sorted(_manifest(raw / "manifest.csv").items())):
            x_cp, y_cp, r_p, r_i = (float(v) for v in row[2:6])
            pixels = image_io.read_pgm_file(raw / name).pixels
            # Cut the image border into the iris band on one side: that side
            # has no iris/sclera edge left, so its bound must fall back.
            depth = r_p + rng.uniform(0.3, 0.7) * (r_i - r_p)
            offset = 0
            if i % 3 == 1:
                offset = int(round(x_cp - depth))
                pixels = pixels[:, offset:]
            elif i % 3 == 2:
                pixels = pixels[:, : int(round(x_cp + depth)) + 1]
            image_io.write_pgm_file(self.data / name, image_io.GrayImage(pixels=pixels))
            self.truth[name] = (x_cp - offset, y_cp, r_p)
        self.client.setup_call(["segment", self.items()[0][-1]])

    def items(self):
        return [["segment", str(self.data / n)] for n in sorted(self.truth)]

    def judge(self, argv, out) -> bool:
        lines = out.splitlines()
        fields = lines[1].split(",")
        if len(lines) != 2 or fields[0] != argv[-1]:
            raise ValueError("expected one row for the requested image")
        x, y, r_x, r_y = (float(v) for v in fields[1:5])
        x_true, y_true, r_true = self.truth[Path(argv[-1]).name]
        return (
            ((x - x_true) ** 2 + (y - y_true) ** 2) ** 0.5 <= 2.0
            and abs(r_x - r_true) <= 0.1 * r_true
            and abs(r_y - r_true) <= 0.1 * r_true
        )

    def final_checks(self) -> None:
        if self.correct and self.accuracy() < MIN_SEGMENT_ACCURACY:
            self.errors.append(f"segment accuracy {self.accuracy():.3f} < {MIN_SEGMENT_ACCURACY}")


WORKLOADS = {"grid": Grid, "classify": Classify, "segment_degraded": SegmentDegraded}


def run_pass(wl: Workload, kind: str) -> tuple[list[tuple[float, float]], int, list[int]]:
    """One pass over the workload's inputs: op intervals, failures, request ids."""
    intervals, failed, requests = [], 0, []
    tracer = wl.client.tracer
    for argv in wl.items():
        if tracer is not None:
            requests.append(len(tracer.spans))
        started = time.perf_counter()
        rc, out, err = wl.client.call(argv, kind)
        intervals.append((started, time.perf_counter()))
        if not wl.check(argv, rc, out, err):
            failed += 1
    return intervals, failed, requests


def yardstick() -> float:
    """Seconds for a fixed piece of work owned by the benchmark.

    It mixes what the program spends its time on: column-pair reductions
    and fancy-indexed updates on a 40x40 array, as in the Jacobi sweeps,
    and Python-level dict, list and union-find loops, as in labelling.
    It therefore slows down with the host as the program does, and times
    divided by it cancel most of the host's speed swings.
    """
    import numpy as np

    base = np.linspace(0.0, 1.0, 1600).reshape(40, 40)
    ps, qs = np.arange(0, 40, 2), np.arange(1, 40, 2)
    started = time.perf_counter()
    for _ in range(60):
        w = base.copy()
        wp, wq = w[:, ps], w[:, qs]
        np.sqrt(np.einsum("ij,ij->j", wp, wp) * np.einsum("ij,ij->j", wq, wq))
        w[:, ps] = wp * 0.5 - wq * 0.25
        groups: dict[int, list] = {}
        for i in range(200):
            groups.setdefault(i % 13, []).append((i, i + 1))
        parent = list(range(300))
        for i in range(1, 300):
            parent[i] = parent[parent[i - 1]]
    return time.perf_counter() - started


class HostClock:
    """Samples the host's speed with the yardstick every TICK_SECONDS.

    The samples come from a SIGALRM handler, so they are taken inside long
    operations too (one grid takes about 10 s) without adding a thread.
    `split` excludes the time spent sampling.
    """

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []

    def _sample(self, *_):
        started = time.perf_counter()
        ref = yardstick()
        self.marks.append((started, time.perf_counter(), ref))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def split(self, lo: float, hi: float) -> tuple[float, float]:
        """Seconds of [lo, hi] outside sampling, and the same in yardsticks."""
        wall = rel = 0.0
        for (_, end0, ref0), (start1, _, ref1) in zip(self.marks, self.marks[1:]):
            a, b = max(end0, lo), min(start1, hi)
            if b > a:
                wall += b - a
                rel += (b - a) / ((ref0 + ref1) / 2)
        return wall, rel


def measure(wl: Workload, seconds: float) -> tuple[dict, int, int]:
    """Whole passes for at least `seconds`, timed against the host clock.

    `pass_rel` is the median over passes of a pass's time in yardsticks.
    """
    passes, failed = [], 0
    with HostClock() as clock:
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
            intervals, bad, _ = run_pass(wl, "op")
            passes.append(intervals)
            failed += bad
    latencies = [clock.split(lo, hi)[0] for p in passes for lo, hi in p]
    walls, rels = zip(*(clock.split(p[0][0], p[-1][1]) for p in passes))
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    print(
        f"{len(latencies)} operations in {len(passes)} passes; yardstick "
        f"{statistics.median(m[2] for m in clock.marks) * 1e3:.3f} ms median of {len(clock.marks)}"
    )
    return {
        "pass_rel": statistics.median(rels),
        "pass_s": statistics.median(walls),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "images_per_s": len(latencies) * wl.images_per_op / sum(walls),
        "accuracy": wl.accuracy(),
    }, len(latencies), failed


def measure_traced(wl: Workload, seconds: float, modules, setup_ids):
    """Per-layer metrics from traced passes; overhead from paired requests.

    Each operation runs untraced and then traced, back to back, so the
    median of their differences measures the tracing overhead despite the
    host's speed swings.
    """
    import tracing

    tracer = wl.client.tracer
    tracer.uninstall()
    wl.client.tracer = None
    plain, overheads, passes = [], [], []
    failed = attempted = 0
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        ids = []
        for argv in wl.items():
            pair = []
            for traced in (False, True):
                if traced:
                    tracer.install(modules)
                    wl.client.tracer = tracer
                    ids.append(len(tracer.spans))
                begun = time.perf_counter()
                rc, out, err = wl.client.call(argv, "op")
                pair.append(time.perf_counter() - begun)
                tracer.uninstall()
                wl.client.tracer = None
                failed += not wl.check(argv, rc, out, err)
            plain.append(pair[0])
            overheads.append(pair[1] - pair[0])
        passes.append(ids)
        attempted += 2 * len(ids)

    spans = tracer.spans
    op_ids = {i for p in passes for i in p}
    missing = tracing.missing_layers(
        [s for s in spans if s["request"] in op_ids], wl.op_layers
    ) + tracing.missing_layers(
        [s for s in spans if s["request"] in set(setup_ids)], wl.setup_layers
    )
    if missing:
        raise RuntimeError(f"no spans recorded for expected layers: {', '.join(missing)}")
    metrics = tracing.layer_metrics(spans, passes, setup_ids)
    overhead = statistics.median(overheads)
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / statistics.median(plain)
    print(f"tracing overhead: {overhead * 1e3:.3f} ms per operation, median of {len(overheads)} pairs")
    cells = tracing.cell_table(spans, op_ids)
    if cells:
        print("classes,dim,epochs,stop_reason,features_s,train_s")
        for c in cells[:16]:
            print(
                f"{c['classes']},{c['dim']},{c['epochs']},{c['stop_reason']},"
                f"{c['features_s']:.4f},{c['train_s']:.4f}"
            )
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    src = ROOT / "src"
    if not (src / "irisvd" / "cli.py").is_file():
        print(f"error: program sources not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from irisvd import cli, harness, segmentation, synth

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported irisvd from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    env = environment(nproc)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))

    modules = (cli, harness, segmentation, synth)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    client = Client(cli)
    tracer = None
    try:
        wl = WORKLOADS[args.workload](client, args.seed, work)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(modules)
            client.tracer = tracer
            setup_times = wl.setup()
            setup_ids = [i for i, s in enumerate(tracer.spans) if s["parent"] is None]
            metrics, attempted, failed = measure_traced(wl, args.seconds, modules, setup_ids)
        else:
            setup_times = wl.setup()
            metrics, attempted, failed = measure(wl, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
        wl.final_checks()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    print("set-up seconds: " + ", ".join(f"{t:.3f}" for t in setup_times))
    for err in wl.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    if tracer is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed, "environment": env})
        print(f"spans written to {trace_file}")
        units = tracing.PER_LAYER
    else:
        units = END_TO_END
        if args.workload == "grid":
            print(f"grid_s = {metrics['pass_s']:.6g} s, grid_rate_mean = {metrics['accuracy']:.4f}")
        for name, unit in SUMMARY.items():
            print(f"{name} = {metrics.pop(name):.6g} {unit}")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(units)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not wl.errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
