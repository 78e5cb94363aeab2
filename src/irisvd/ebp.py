"""Three-layer sigmoid network trained by adaptive-rate error backprop.

The classifier maps a k-dimensional singular-value feature vector through
one hidden layer (roughly twice the input width) to one sigmoid output per
class; targets are one-hot and predictions decode by argmax.  The network
scales its own inputs: forward, train and backprop_gradient map each raw
feature through the net's feature_scaling.  Training is full-batch
gradient descent on the mean squared error with the adaptive learning-rate
rule: a candidate step that worsens the error beyond a small ratio is
rejected and the rate shrinks, an improving step is accepted and the rate
grows.

Every epoch's rate, error, and accept/improve outcome is recorded so the
rate schedule can be audited exactly after the fact.

Training holds w1, b1, w2, b2 as reshaped views into one flat float64
vector, with the gradient in a second vector of the same layout, so a
candidate step is one vector update.  Each epoch runs one forward pass, on
the candidate; when the candidate is accepted its activations and error
are kept and the next gradient is taken from them.  The arithmetic is the
same as a step-by-step replay through backprop_gradient, bit for bit.

An epoch allocates nothing: the activations, sigmoid scratch, error and
its square, the deltas and the step live in one workspace allocated per
train call, and every ufunc and matrix product writes into it with out=.
forward and backprop_gradient run the same in-place kernels on buffers of
their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

StopReason = str  # "goal_met" | "max_epochs" | "gradient_floor"

MODEL_HEADER = "irisvd-mlp v1"


class ModelFormatError(Exception):
    """Raised when a model file does not parse."""


@dataclass(frozen=True)
class MlpShape:
    n_in: int
    n_hidden: int
    n_out: int

    def __post_init__(self) -> None:
        if min(self.n_in, self.n_hidden, self.n_out) < 1:
            raise ValueError(f"all layer sizes must be >= 1, got {self}")


def default_hidden(n_in: int) -> int:
    """Hidden width convention: double the input dimension."""
    return 2 * n_in


@dataclass(frozen=True, eq=False)
class Mlp:
    """Weights plus the per-dimension (min, max) scaling applied to every raw input."""

    shape: MlpShape
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    feature_scaling: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        w1 = np.array(self.w1, dtype=np.float64, copy=True)
        b1 = np.array(self.b1, dtype=np.float64, copy=True)
        w2 = np.array(self.w2, dtype=np.float64, copy=True)
        b2 = np.array(self.b2, dtype=np.float64, copy=True)
        s = self.shape
        if w1.shape != (s.n_hidden, s.n_in) or b1.shape != (s.n_hidden,):
            raise ValueError(f"layer-1 arrays do not match shape {s}")
        if w2.shape != (s.n_out, s.n_hidden) or b2.shape != (s.n_out,):
            raise ValueError(f"layer-2 arrays do not match shape {s}")
        for arr in (w1, b1, w2, b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("weights must be finite")
            arr.setflags(write=False)
        scaling = tuple((float(lo), float(hi)) for lo, hi in self.feature_scaling)
        if len(scaling) != s.n_in:
            raise ValueError(
                f"feature_scaling needs {s.n_in} entries, got {len(scaling)}"
            )
        if any(lo > hi for lo, hi in scaling):
            raise ValueError("feature_scaling minimum exceeds its maximum")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "feature_scaling", scaling)


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.2
    lr_inc: float = 1.05
    lr_dec: float = 0.7
    max_perf_inc: float = 1.04
    max_epochs: int = 50000
    mse_goal: float = 5e-7
    min_grad: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        # nan fails every comparison below, and inf passes most of them.
        for name in ("lr0", "lr_inc", "lr_dec", "max_perf_inc", "mse_goal", "min_grad"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if self.lr_inc <= 1:
            raise ValueError(f"lr_inc must exceed 1, got {self.lr_inc}")
        if not 0 < self.lr_dec < 1:
            raise ValueError(f"lr_dec must be in (0, 1), got {self.lr_dec}")
        if self.max_perf_inc < 1:
            raise ValueError(
                f"max_perf_inc must be >= 1, got {self.max_perf_inc}"
            )
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.mse_goal <= 0:
            raise ValueError(f"mse_goal must be positive, got {self.mse_goal}")
        if self.min_grad < 0:
            raise ValueError(f"min_grad must be >= 0, got {self.min_grad}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch audit trail of one training run."""

    epochs_run: int
    final_mse: float
    stop_reason: StopReason
    mse_trace: tuple[float, ...]
    lr_trace: tuple[float, ...]
    accepted: tuple[bool, ...]
    improved: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class Gradient:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def inf_norm(self) -> float:
        return max(
            float(np.max(np.abs(a))) if a.size else 0.0
            for a in (self.w1, self.b1, self.w2, self.b2)
        )


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Overwrite z with its sigmoid; e is scratch of z's shape."""
    # exp only ever sees -|z| <= 0, so it cannot overflow; z >= 0 gives
    # 1/(1+exp(-z)) and z < 0 gives exp(z)/(1+exp(z)).  The numerator is
    # max(e, sign(z)): above 0 the sign is 1 and e <= 1; at +-0, e is 1;
    # below 0 the sign is -1 < e, so it is 1 or e as the branch asks, and
    # nan stays nan.
    np.copysign(z, -1.0, out=e)
    np.exp(e, out=e)
    np.sign(z, out=z)
    np.maximum(e, z, out=z)
    np.add(e, 1.0, out=e)
    return np.divide(z, e, out=z)


def init(shape: MlpShape, seed: int) -> Mlp:
    """Fresh network: weights uniform in +-1/sqrt(fan_in), biases zero.

    Draws come from numpy's PCG64 stream for the given seed (w1 first, then
    w2), so identical (shape, seed) pairs give bit-identical networks.  The
    feature scaling starts as the identity; set the fitted one with
    dataclasses.replace, and Mlp checks its count and makes it floats.
    """
    rng = np.random.default_rng(seed)
    a1 = 1.0 / math.sqrt(shape.n_in)
    a2 = 1.0 / math.sqrt(shape.n_hidden)
    return Mlp(
        shape=shape,
        w1=rng.uniform(-a1, a1, (shape.n_hidden, shape.n_in)),
        b1=np.zeros(shape.n_hidden),
        w2=rng.uniform(-a2, a2, (shape.n_out, shape.n_hidden)),
        b2=np.zeros(shape.n_out),
        feature_scaling=((0.0, 1.0),) * shape.n_in,
    )


def fit_scaling(features: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Per-dimension (min, max) over a training feature matrix (rows = samples)."""
    arr = np.asarray(features, dtype=np.float64)
    return tuple(
        (float(lo), float(hi)) for lo, hi in zip(arr.min(axis=0), arr.max(axis=0))
    )


def apply_scaling(
    scaling: Sequence[tuple[float, float]], x: np.ndarray
) -> np.ndarray:
    """Map each dimension of x through (x - min) / (max - min).

    A dimension that was constant in training (max == min) maps to 0.  Values
    outside the fitted range scale past [0, 1] rather than clipping.
    """
    arr = np.asarray(x, dtype=np.float64)
    lows = np.array([lo for lo, _ in scaling])
    highs = np.array([hi for _, hi in scaling])
    span = highs - lows
    safe = np.where(span > 0.0, span, 1.0)
    out = (arr - lows) / safe
    return np.where(span > 0.0, out, 0.0)


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Output vector for one raw input, scaled by net.feature_scaling first."""
    arr = apply_scaling(net.feature_scaling, x)
    h = _sigmoid(net.w1 @ arr + net.b1, np.empty(net.shape.n_hidden))
    return _sigmoid(net.w2 @ h + net.b2, np.empty(net.shape.n_out))


def _as_batch(net: Mlp, batch) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(batch)
    if not pairs:
        raise ValueError("batch must not be empty")
    xs = np.array([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    ts = np.array([np.asarray(t, dtype=np.float64) for _, t in pairs])
    if xs.shape != (len(pairs), net.shape.n_in):
        raise ValueError(f"batch inputs have shape {xs.shape}")
    if ts.shape != (len(pairs), net.shape.n_out):
        raise ValueError(f"batch targets have shape {ts.shape}")
    binary = (ts == 0.0) | (ts == 1.0)
    if not (np.all(binary) and np.all(ts.sum(axis=1) == 1.0)):
        raise ValueError("targets must be one-hot vectors")
    return apply_scaling(net.feature_scaling, xs), ts


class _Workspace:
    """Every array one epoch writes, for one batch size and network shape.

    h and y hold the activations and err the output error of the last
    forward pass; the rest is scratch the kernels overwrite.  The sigmoid
    scratch of a layer holds its 1 - activation factor in the backward pass.
    """

    def __init__(self, n_samples: int, shape: MlpShape):
        hidden = (n_samples, shape.n_hidden)
        out = (n_samples, shape.n_out)
        self.h, self.h_e, self.delta1 = np.empty((3, *hidden))
        self.y, self.y_e, self.delta2, self.err, self.sq = np.empty((5, *out))


def _evaluate(w1, b1, w2, b2, xs, ts, ws: _Workspace) -> float:
    """Forward pass over the batch into ws.h, ws.y and ws.err; returns the MSE."""
    h, y, sq = ws.h, ws.y, ws.sq
    # np.dot runs the same BLAS product as np.matmul with less dispatch.
    np.dot(xs, w1.T, out=h)
    np.add(h, b1, out=h)
    _sigmoid(h, ws.h_e)
    np.dot(h, w2.T, out=y)
    np.add(y, b2, out=y)
    _sigmoid(y, ws.y_e)
    np.subtract(y, ts, out=ws.err)
    np.multiply(ws.err, ws.err, out=sq)
    # np.mean is this same sum divided by the count.
    return float(np.add.reduce(sq, axis=None)) / sq.size


def _backward(w2, xs, ws: _Workspace, grad) -> None:
    """Write the MSE gradient of the pass in ws into grad's four views."""
    gw1, gb1, gw2, gb2 = grad
    h, y, err = ws.h, ws.y, ws.err
    delta2, rest2 = ws.delta2, ws.y_e
    np.multiply(err, 2.0 / err.size, out=delta2)
    np.multiply(delta2, y, out=delta2)
    np.subtract(1.0, y, out=rest2)
    np.multiply(delta2, rest2, out=delta2)
    np.dot(delta2.T, h, out=gw2)
    np.add.reduce(delta2, axis=0, out=gb2)
    delta1, rest1 = ws.delta1, ws.h_e
    np.dot(delta2, w2, out=delta1)
    np.multiply(delta1, h, out=delta1)
    np.subtract(1.0, h, out=rest1)
    np.multiply(delta1, rest1, out=delta1)
    np.dot(delta1.T, xs, out=gw1)
    np.add.reduce(delta1, axis=0, out=gb1)


def _param_views(flat: np.ndarray, shape: MlpShape):
    """(w1, b1, w2, b2) as reshaped views into one flat parameter vector."""
    i, h, o = shape.n_in, shape.n_hidden, shape.n_out
    w1, b1, w2, b2 = np.split(flat, np.cumsum([h * i, h, o * h]))
    return w1.reshape(h, i), b1, w2.reshape(o, h), b2


def _flat_params(net: Mlp) -> np.ndarray:
    return np.concatenate([a.ravel() for a in (net.w1, net.b1, net.w2, net.b2)])


def backprop_gradient(net: Mlp, batch) -> tuple[Gradient, float]:
    """Full-batch MSE gradient for every weight and bias, plus the MSE.

    MSE is the mean over the batch and the output neurons of (y - t)^2, so
    duplicating every pair leaves both the error and the gradient unchanged.
    """
    xs, ts = _as_batch(net, batch)
    ws = _Workspace(len(xs), net.shape)
    mse = _evaluate(net.w1, net.b1, net.w2, net.b2, xs, ts, ws)
    grad = _param_views(np.empty_like(_flat_params(net)), net.shape)
    _backward(net.w2, xs, ws, grad)
    return Gradient(*grad), mse


def train(net: Mlp, train_set, cfg: TrainConfig = TrainConfig()) -> tuple[Mlp, TrainReport]:
    """Adaptive-rate full-batch descent on raw inputs, scaled by net.feature_scaling.

    Each epoch proposes w' = w - lr * g.  A candidate whose MSE exceeds the
    current MSE by more than the max_perf_inc ratio is rejected (weights
    kept, lr shrunk by lr_dec); otherwise it is accepted, and lr grows by
    lr_inc when the error strictly improved.  Stops on the error goal, the
    epoch cap, or a vanishing gradient, whichever comes first.

    The weights and the candidate live in two flat vectors of the same
    layout; an accepted candidate swaps places with the weights.  Each epoch
    runs one forward pass, on the candidate.  An accepted candidate's
    activations give the next gradient; after a rejection the weights, and
    so the gradient and its norm, are unchanged.  Every array an epoch
    writes is allocated once per call, in one _Workspace.
    """
    xs, ts = _as_batch(net, train_set)
    ws = _Workspace(len(xs), net.shape)
    theta = _flat_params(net)
    cand = np.empty_like(theta)
    grad = np.empty_like(theta)
    step = np.empty_like(theta)
    params = _param_views(theta, net.shape)
    cand_params = _param_views(cand, net.shape)
    grad_views = _param_views(grad, net.shape)
    cur = _evaluate(*params, xs, ts, ws)
    _backward(params[2], xs, ws, grad_views)
    grad_norm = np.maximum.reduce(np.abs(grad, out=step), axis=None)
    lr = cfg.lr0

    mse_trace: list[float] = []
    lr_trace: list[float] = []
    accepted: list[bool] = []
    improved: list[bool] = []

    while True:
        if cur <= cfg.mse_goal:
            reason = "goal_met"
            break
        if len(mse_trace) >= cfg.max_epochs:
            reason = "max_epochs"
            break
        if grad_norm < cfg.min_grad:
            reason = "gradient_floor"
            break

        np.multiply(grad, lr, out=step)
        np.subtract(theta, step, out=cand)
        cand_mse = _evaluate(*cand_params, xs, ts, ws)
        lr_trace.append(lr)
        if cand_mse > cur * cfg.max_perf_inc:
            accepted.append(False)
            improved.append(False)
            mse_trace.append(cur)
            lr = lr * cfg.lr_dec
        else:
            theta, cand = cand, theta
            params, cand_params = cand_params, params
            _backward(params[2], xs, ws, grad_views)
            grad_norm = np.maximum.reduce(np.abs(grad, out=step), axis=None)
            accepted.append(True)
            better = cand_mse < cur
            improved.append(better)
            mse_trace.append(cand_mse)
            cur = cand_mse
            if better:
                lr = lr * cfg.lr_inc

    report = TrainReport(
        epochs_run=len(mse_trace),
        final_mse=cur,
        stop_reason=reason,
        mse_trace=tuple(mse_trace),
        lr_trace=tuple(lr_trace),
        accepted=tuple(accepted),
        improved=tuple(improved),
    )
    return Mlp(net.shape, *params, net.feature_scaling), report


def decode(y: np.ndarray) -> int:
    """Index of the largest output; ties go to the lowest index."""
    return int(np.argmax(y))


def encode_target(class_index: int, n_out: int) -> np.ndarray:
    """One-hot target vector."""
    if not 0 <= class_index < n_out:
        raise ValueError(f"class index {class_index} outside [0, {n_out})")
    out = np.zeros(n_out)
    out[class_index] = 1.0
    return out


def save_model(path, net: Mlp) -> None:
    """Plain-text model file; weights at 17 significant digits round-trip
    float64 exactly."""
    s = net.shape
    lines = [MODEL_HEADER, f"shape {s.n_in} {s.n_hidden} {s.n_out}"]
    for i, (lo, hi) in enumerate(net.feature_scaling):
        lines.append(f"scale {i} {lo:.17g} {hi:.17g}")
    for name, arr in (("w1", net.w1), ("b1", net.b1), ("w2", net.w2), ("b2", net.b2)):
        lines.append(name)
        rows = arr if arr.ndim == 2 else arr[None, :]
        for row in rows:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_floats(parts, idx: int) -> list[float]:
    try:
        values = list(map(float, parts))
    except ValueError as exc:
        raise ModelFormatError(f"line {idx + 1}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ModelFormatError(f"line {idx + 1}: non-finite value")
    return values


def _parse_matrix(lines, idx: int, name: str, shape: tuple[int, int]):
    if idx >= len(lines) or lines[idx] != name:
        raise ModelFormatError(f"line {idx + 1}: expected section {name!r}")
    idx += 1
    rows = []
    for r in range(shape[0]):
        if idx >= len(lines):
            raise ModelFormatError(f"line {idx + 1}: missing row {r} of {name}")
        parts = lines[idx].split()
        if len(parts) != shape[1]:
            raise ModelFormatError(
                f"line {idx + 1}: {name} row has {len(parts)} values, "
                f"expected {shape[1]}"
            )
        rows.append(_parse_floats(parts, idx))
        idx += 1
    return np.array(rows), idx


def load_model(path) -> Mlp:
    """The network in a save_model file; a format error names path and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ModelFormatError(f"{path}: line {line}: non-ASCII byte") from None
    try:
        return _parse_model(text.splitlines())
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _parse_model(lines: list[str]) -> Mlp:
    if not lines or lines[0] != MODEL_HEADER:
        raise ModelFormatError(f"line 1: expected header {MODEL_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("shape "):
        raise ModelFormatError("line 2: expected shape line")
    try:
        n_in, n_hidden, n_out = (int(p) for p in lines[1].split()[1:])
        shape = MlpShape(n_in=n_in, n_hidden=n_hidden, n_out=n_out)
    except ValueError:
        raise ModelFormatError(f"line 2: bad shape line {lines[1]!r}") from None

    scaling = []
    idx = 2
    for i in range(n_in):
        parts = lines[idx].split() if idx < len(lines) else []
        if len(parts) != 4 or parts[0] != "scale" or parts[1] != str(i):
            raise ModelFormatError(f"line {idx + 1}: expected scale line {i}")
        lo, hi = _parse_floats(parts[2:], idx)
        if lo > hi:
            raise ModelFormatError(f"line {idx + 1}: scale minimum exceeds maximum")
        scaling.append((lo, hi))
        idx += 1

    w1, idx = _parse_matrix(lines, idx, "w1", (n_hidden, n_in))
    b1, idx = _parse_matrix(lines, idx, "b1", (1, n_hidden))
    w2, idx = _parse_matrix(lines, idx, "w2", (n_out, n_hidden))
    b2, idx = _parse_matrix(lines, idx, "b2", (1, n_out))
    if any(lines[idx:]):
        raise ModelFormatError(f"line {idx + 1}: trailing content")
    return Mlp(shape, w1, b1[0], w2, b2[0], tuple(scaling))
