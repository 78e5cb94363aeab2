"""Span recording and per-layer metrics for the traced benchmark run.

Spans are recorded from the benchmark's side only: each public function of
a layer is wrapped at the place where its caller looks it up (the module
globals of ``irisvd.cli``, ``irisvd.harness`` and ``irisvd.segmentation``,
plus ``irisvd.synth.generate_dataset`` for the benchmark's own calls), so the
program under test is never edited.  Spans live in memory until the run
writes them out.

A span is (name, start, end, parent, request, attrs) with integer
nanosecond times.  Self time is a span's duration minus the part of it that
its children cover.
"""

from __future__ import annotations

import json
import statistics
import time
import warnings
from contextlib import contextmanager

# span name -> attribute looked up in the caller's module namespace
WRAPPED = {
    "synth.generate": "generate_dataset",
    "harness.load_dataset": "load_dataset",
    "harness.run_experiment": "run_experiment",
    "harness.features": "_template_spectrum",
    "harness.train_cell": "_train_cell",
    "harness.emit_report": "emit_report",
    "image_io.read": "read_pgm_file",
    "segmentation.threshold": "threshold_dark",
    "segmentation.geometry": "pupil_geometry",
    "segmentation.label": "label_components_8",
    "iris_boundary.bounds": "iris_bounds",
    "template.extract": "extract_iris_basis",
    "svd.factorize": "svd_factorize",
    "ebp.train": "train",
    "ebp.forward": "forward",
    "ebp.load_model": "load_model",
}

# Per-layer metrics in report order, with their units.
PER_LAYER = {
    "svd.factorize_ms": "ms",
    "svd.rank_deficient_share": "share",
    "svd.runtime_warnings": "count",
    "segmentation.threshold_ms": "ms",
    "segmentation.label_ms": "ms",
    "segmentation.geometry_self_ms": "ms",
    "segmentation.regions_per_image": "count",
    "iris_boundary.bounds_ms": "ms",
    "iris_boundary.fallback_share": "share",
    "template.extract_ms": "ms",
    "image_io.read_ms": "ms",
    "image_io.reads_per_image": "count",
    "ebp.train_s": "s",
    "ebp.epochs": "count",
    "ebp.us_per_epoch": "us",
    "ebp.accepted_share": "share",
    "ebp.capped_cells": "count",
    "ebp.load_model_ms": "ms",
    "ebp.forward_us": "us",
    "harness.load_dataset_s": "s",
    "harness.features_s": "s",
    "harness.self_s": "s",
    "cli.self_ms": "ms",
    "synth.generate_s": "s",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "share",
}

# Same cutoff svd_factorize uses to decide a column has no usable norm.
_RANK_CUTOFF = 1e-13


def _train_attrs(args, result):
    report = result[1]
    return {
        "epochs": report.epochs_run,
        "accepted": sum(report.accepted),
        "capped": report.stop_reason == "max_epochs",
    }


def _cell_attrs(args, result):
    return {
        "classes": result.classes,
        "dim": result.dim,
        "epochs": result.epochs,
        "stop_reason": result.stop_reason,
    }


def _svd_attrs(args, result):
    s = result.s
    return {"rank_deficient": bool(s.size and s[-1] <= s[0] * _RANK_CUTOFF)}


ATTRS = {
    "image_io.read": lambda args, result: {"path": str(args[0])},
    "segmentation.label": lambda args, result: {"regions": len(result)},
    "iris_boundary.bounds": lambda args, result: {
        "fallback": bool(result.left_fallback or result.right_fallback)
    },
    "svd.factorize": _svd_attrs,
    "ebp.train": _train_attrs,
    "harness.train_cell": _cell_attrs,
}


class Tracer:
    """In-memory span recorder that patches layer entry points while enabled."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter_ns()

    def install(self, modules) -> None:
        for module in modules:
            for name, attr in WRAPPED.items():
                fn = getattr(module, attr, None)
                if callable(fn):
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter_ns() - self._origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self._request,
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns() - self._origin
        self._stack.pop()

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        count_warnings = name == "svd.factorize"

        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    span["attrs"]["runtime_warnings"] = sum(
                        issubclass(w.category, RuntimeWarning) for w in caught
                    )
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request(self, name: str, kind: str, **attrs):
        """Root span of one benchmark request; every span inside shares its id."""
        if self._request is not None:
            raise RuntimeError("requests do not nest")
        self._request = len(self.spans)
        span = self._open(name)
        span["attrs"].update(kind=kind, **attrs)
        try:
            yield span
        finally:
            self._close(span)
            self._request = None

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered = 0
        cursor = lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append(hi - lo - covered)
    return out


def check_self_times(spans: list[dict], selfs: list[int]) -> None:
    """On every request, self times must add up to the request's duration."""
    total: dict[int, int] = {}
    for span, own in zip(spans, selfs):
        total[span["request"]] = total.get(span["request"], 0) + own
    for rid, summed in total.items():
        root = spans[rid]
        if summed != root["end"] - root["start"]:
            raise RuntimeError(
                f"self times of request {rid} sum to {summed} ns, "
                f"the request took {root['end'] - root['start']} ns"
            )


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[dict], passes: list[list[int]], setup: list[int]) -> dict:
    """Per-layer metrics from the spans of traced operations.

    ``passes`` lists, for each traced pass over the workload's inputs, the
    request ids of its operations; ``setup`` lists set-up request ids.
    Timings are medians per call.  Layers that run only in set-up (training
    for ``classify``, synth generation everywhere) are measured there.
    Counters are computed per pass and must be identical on every pass.
    """
    selfs = self_times(spans)
    check_self_times(spans, selfs)
    op_ids = {rid for p in passes for rid in p}

    def calls(name, requests=None):
        requests = op_ids if requests is None else requests
        found = [i for i, s in enumerate(spans) if s["name"] == name and s["request"] in requests]
        if not found and requests is op_ids:
            found = [i for i, s in enumerate(spans) if s["name"] == name and s["request"] in setup]
        return found

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"] for i in calls(name)]

    def per_request(name):
        """Indices of the `name` spans, grouped by request."""
        groups: dict[int, list[int]] = {}
        for i in calls(name):
            groups.setdefault(spans[i]["request"], []).append(i)
        return list(groups.values())

    m = {
        "svd.factorize_ms": _median(durations("svd.factorize"), 1e-6),
        "segmentation.threshold_ms": _median(durations("segmentation.threshold"), 1e-6),
        "segmentation.label_ms": _median(durations("segmentation.label"), 1e-6),
        "segmentation.geometry_self_ms": _median(
            [selfs[i] for i in calls("segmentation.geometry")], 1e-6
        ),
        "iris_boundary.bounds_ms": _median(durations("iris_boundary.bounds"), 1e-6),
        "template.extract_ms": _median(durations("template.extract"), 1e-6),
        "image_io.read_ms": _median(durations("image_io.read"), 1e-6),
        "ebp.load_model_ms": _median(durations("ebp.load_model"), 1e-6),
        "ebp.forward_us": _median(durations("ebp.forward"), 1e-3),
        "harness.load_dataset_s": _median(durations("harness.load_dataset"), 1e-9),
        "synth.generate_s": _median(durations("synth.generate"), 1e-9),
    }

    def summed(groups, key=None):
        if key is None:
            return [sum(spans[i]["end"] - spans[i]["start"] for i in g) for g in groups]
        return [sum(spans[i]["attrs"][key] for i in g) for g in groups]

    m["harness.features_s"] = _median(summed(per_request("harness.features")), 1e-9)
    per_op_self: dict[int, int] = {}
    for i, span in enumerate(spans):
        if span["name"].startswith("harness.") and span["request"] in op_ids:
            per_op_self[span["request"]] = per_op_self.get(span["request"], 0) + selfs[i]
    m["harness.self_s"] = _median(list(per_op_self.values()), 1e-9)
    m["cli.self_ms"] = _median([selfs[rid] for rid in op_ids], 1e-6)

    trains = per_request("ebp.train")
    epochs = summed(trains, "epochs")
    m["ebp.train_s"] = _median(summed(trains), 1e-9)
    total_epochs = sum(epochs)
    m["ebp.us_per_epoch"] = (
        sum(summed(trains)) / total_epochs * 1e-3 if total_epochs else 0.0
    )
    counters = {
        "ebp.epochs": epochs,
        "ebp.capped_cells": summed(trains, "capped"),
        "ebp.accepted_share": [
            a / e if e else 0.0 for a, e in zip(summed(trains, "accepted"), epochs)
        ],
    }

    def per_pass(name, fn):
        values = []
        for p in passes:
            ids = set(p)
            found = [s for s in spans if s["name"] == name and s["request"] in ids]
            values.append(fn(found) if found else 0.0)
        return values

    def mean_attr(key):
        return lambda found: sum(s["attrs"][key] for s in found) / len(found)

    counters["segmentation.regions_per_image"] = per_pass("segmentation.label", mean_attr("regions"))
    counters["iris_boundary.fallback_share"] = per_pass("iris_boundary.bounds", mean_attr("fallback"))
    counters["svd.rank_deficient_share"] = per_pass("svd.factorize", mean_attr("rank_deficient"))
    counters["svd.runtime_warnings"] = per_pass(
        "svd.factorize", lambda found: sum(s["attrs"]["runtime_warnings"] for s in found)
    )
    counters["image_io.reads_per_image"] = per_pass(
        "image_io.read", lambda found: len(found) / len({s["attrs"]["path"] for s in found})
    )
    for name, values in counters.items():
        if len(set(values)) > 1:
            raise RuntimeError(f"counter {name} differs between repeats: {values}")
        m[name] = values[0] if values else 0
    return m


def cell_table(spans: list[dict], op_ids: set[int]) -> list[dict]:
    """Per grid cell: feature time charged to it, training time and epochs.

    Feature extraction happens lazily inside the grid loop, so the spectra
    computed since the previous cell are charged to the cell that needed
    them.  Rows are listed per traced grid, in grid order.
    """
    rows = []
    pending = 0
    for i, span in enumerate(spans):
        if span["request"] not in op_ids:
            continue
        if span["name"] == "harness.features":
            pending += span["end"] - span["start"]
        elif span["name"] == "harness.train_cell":
            train = sum(
                s["end"] - s["start"]
                for s in spans[i + 1 :]
                if s["name"] == "ebp.train" and s["parent"] == i
            )
            rows.append({**span["attrs"], "features_s": pending * 1e-9, "train_s": train * 1e-9})
            pending = 0
    return rows


def missing_layers(spans: list[dict], expected) -> list[str]:
    seen = {s["name"] for s in spans}
    return [name for name in expected if name not in seen]
