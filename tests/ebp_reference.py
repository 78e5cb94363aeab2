"""Reference trainer: the epoch loop train ran before its arrays moved into
one workspace allocated per call.

Kept verbatim (sigmoid, forward pass, backward pass and the loop) so the
allocation-free epoch can be held to the same bits: weights and every
TrainReport field identical.  backprop_gradient shares the new kernels, so a
replay through it no longer pins the old arithmetic on its own.
"""

from __future__ import annotations

import numpy as np

from irisvd.ebp import (
    Mlp,
    TrainConfig,
    TrainReport,
    _as_batch,
    _flat_params,
    _param_views,
)


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def reference_evaluate(w1, b1, w2, b2, xs, ts):
    h = reference_sigmoid(xs @ w1.T + b1)
    y = reference_sigmoid(h @ w2.T + b2)
    err = y - ts
    return h, y, err, float(np.mean(err * err))


def reference_backward(w2, xs, h, y, err, grad) -> None:
    gw1, gb1, gw2, gb2 = grad
    delta2 = (2.0 / err.size) * err * y * (1.0 - y)
    np.matmul(delta2.T, h, out=gw2)
    np.sum(delta2, axis=0, out=gb2)
    delta1 = (delta2 @ w2) * h * (1.0 - h)
    np.matmul(delta1.T, xs, out=gw1)
    np.sum(delta1, axis=0, out=gb1)


def reference_gradient_norm(net: Mlp, train_set) -> float:
    """Infinity norm of the gradient at net, as reference_train tests it."""
    xs, ts = _as_batch(net, train_set)
    grad = np.empty_like(_flat_params(net))
    h, y, err, _ = reference_evaluate(net.w1, net.b1, net.w2, net.b2, xs, ts)
    reference_backward(net.w2, xs, h, y, err, _param_views(grad, net.shape))
    return float(np.max(np.abs(grad)))


def reference_train(
    net: Mlp, train_set, cfg: TrainConfig = TrainConfig()
) -> tuple[Mlp, TrainReport]:
    xs, ts = _as_batch(net, train_set)
    theta = _flat_params(net)
    cand = np.empty_like(theta)
    grad = np.empty_like(theta)
    params = _param_views(theta, net.shape)
    cand_params = _param_views(cand, net.shape)
    grad_views = _param_views(grad, net.shape)
    h, y, err, cur = reference_evaluate(*params, xs, ts)
    reference_backward(params[2], xs, h, y, err, grad_views)
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
        if np.max(np.abs(grad)) < cfg.min_grad:
            reason = "gradient_floor"
            break

        np.subtract(theta, lr * grad, out=cand)
        h, y, err, cand_mse = reference_evaluate(*cand_params, xs, ts)
        lr_trace.append(lr)
        if cand_mse > cur * cfg.max_perf_inc:
            accepted.append(False)
            improved.append(False)
            mse_trace.append(cur)
            lr = lr * cfg.lr_dec
        else:
            theta, cand = cand, theta
            params, cand_params = cand_params, params
            reference_backward(params[2], xs, h, y, err, grad_views)
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
    w1, b1, w2, b2 = params
    out = Mlp(
        shape=net.shape,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
        feature_scaling=net.feature_scaling,
    )
    return out, report
