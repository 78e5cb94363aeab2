"""Reference one-sided Jacobi SVDs, each an earlier loop of svd_factorize.

svd_factorize sweeps its input scaled by a power of two, so each equality
below holds on the input as that intake scales it
(tests/test_svd.py::_intake_scaled), with s scaled back.  A reference given
the unscaled matrix can differ where a squared column norm is subnormal
(119 units in the last place of s[1] on [[1, 1e-155], [0, 1e-155], [0, 0]]).

reference_factorize is the loop from before W and V shared one array and
every pair of a round was rotated in one fixed shape.  svd_factorize must
match it with s byte-identical and u, v equal up to the sign of a zero (the
fixed shape computes x - 0*y for a pair that does not rotate).

stacked_factorize is the stacked W-over-V loop that gathered and scattered
the p and q columns of a round separately.  svd_factorize must match it
byte for byte, signs of zeros included.

Both are kept as they were, schedule builders included, except that each
now takes sqrt(1 + tau^2) by svd_factorize's rule for large tau: the square
is clamped at 2^27 and the root is at least |tau|, so a pair whose tau
squared would overflow is rotated, not skipped.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from irisvd.svd import (
    JACOBI_MAX_SWEEPS,
    JACOBI_TOL,
    Matrix,
    SvdFactorization,
    _fill_orthonormal,
)


def reference_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint column pairs covering every pair once per sweep."""
    players = list(range(n))
    if n % 2:
        players.append(-1)
    size = len(players)
    rounds = []
    for _ in range(size - 1):
        ps, qs = [], []
        for i in range(size // 2):
            a, b = players[i], players[size - 1 - i]
            if a != -1 and b != -1:
                ps.append(min(a, b))
                qs.append(max(a, b))
        if ps:
            rounds.append((np.array(ps), np.array(qs)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def reference_factorize(a: Matrix) -> SvdFactorization:
    w = np.array(a.entries, dtype=np.float64)
    n = w.shape[1]
    v = np.eye(n)
    rounds = reference_pairs(n)

    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for ps, qs in rounds:
            wp = w[:, ps]
            wq = w[:, qs]
            app = np.einsum("ij,ij->j", wp, wp)
            aqq = np.einsum("ij,ij->j", wq, wq)
            apq = np.einsum("ij,ij->j", wp, wq)
            denom = np.sqrt(app * aqq)
            live = denom > 0.0
            off = np.zeros_like(apq)
            off[live] = np.abs(apq[live]) / denom[live]
            rotate = off > JACOBI_TOL
            if not rotate.any():
                continue
            rp, rq = ps[rotate], qs[rotate]
            tau = (aqq[rotate] - app[rotate]) / (2.0 * apq[rotate])
            abs_tau = np.abs(tau)
            root = np.maximum(np.sqrt(1.0 + np.square(np.minimum(abs_tau, 2.0**27))), abs_tau)
            rotated = rotated or rp.size > 0
            t = np.where(
                tau == 0.0,
                1.0,
                np.sign(tau) / (abs_tau + root),
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            wp, wq = w[:, rp], w[:, rq]
            w[:, rp] = c * wp - s * wq
            w[:, rq] = s * wp + c * wq
            vp, vq = v[:, rp], v[:, rq]
            v[:, rp] = c * vp - s * vq
            v[:, rq] = s * vp + c * vq
        if not rotated:
            break

    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    w = w[:, order]
    v = v[:, order]

    u = np.zeros_like(w)
    cutoff = sigma[0] * 1e-13 if n else 0.0
    for j in range(n):
        if sigma[j] > cutoff:
            u[:, j] = w[:, j] / sigma[j]
        else:
            u[:, j] = _fill_orthonormal(u, j)

    flip = v[np.argmax(np.abs(v), axis=0), np.arange(n)] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SvdFactorization(u=u, s=sigma, v=v)


@lru_cache(maxsize=8)
def stacked_pairs(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Rounds of disjoint column pairs covering every pair once per sweep.

    Cached per width, so the index arrays are shared and read-only.
    """
    players = list(range(n))
    if n % 2:
        players.append(-1)
    size = len(players)
    rounds = []
    for _ in range(size - 1):
        ps, qs = [], []
        for i in range(size // 2):
            a, b = players[i], players[size - 1 - i]
            if a != -1 and b != -1:
                ps.append(min(a, b))
                qs.append(max(a, b))
        if ps:
            pair = np.array([ps, qs])
            pair.setflags(write=False)
            rounds.append(tuple(pair))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def stacked_factorize(a: Matrix) -> SvdFactorization:
    """One-sided Jacobi SVD of the (tall-oriented) matrix.

    Column pairs whose normalized inner product exceeds 1e-12 are rotated
    until a sweep rotates none, capped at 60 sweeps.  Columns whose norm
    vanishes (rank deficiency) get orthonormal stand-in U columns, and each V
    column is sign-fixed so its largest-magnitude entry is nonnegative, which
    makes the result deterministic and unique for almost every input.
    """
    m, n = a.m, a.n
    wv = np.vstack([a.entries, np.eye(n)])

    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for ps, qs in stacked_pairs(n):
            xp, xq = wv[:, ps], wv[:, qs]
            wp, wq = xp[:m], xq[:m]
            app = np.einsum("ij,ij->j", wp, wp)
            aqq = np.einsum("ij,ij->j", wq, wq)
            apq = np.einsum("ij,ij->j", wp, wq)
            denom = np.sqrt(app * aqq)
            off = np.divide(np.abs(apq), denom, out=np.zeros_like(apq), where=denom > 0.0)
            rotate = off > JACOBI_TOL
            if not rotate.any():
                continue
            tau = np.divide(aqq - app, 2.0 * apq, out=np.zeros_like(apq), where=rotate)
            abs_tau = np.abs(tau)
            root = np.maximum(np.sqrt(1.0 + np.square(np.minimum(abs_tau, 2.0**27))), abs_tau)
            rotated = rotated or rotate.any()
            # t = 0 for a pair that does not rotate, t = 1 for one with tau = 0.
            t = np.where(tau == 0.0, rotate, np.sign(tau) / (abs_tau + root))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            wv[:, ps] = c * xp - s * xq
            wv[:, qs] = s * xp + c * xq
        if not rotated:
            # w and v are unchanged, so every later sweep would be the same.
            break

    # w keeps the input's memory layout (Fortran order for wide input),
    # because the order of the norm sums below follows it.
    w, v = np.empty_like(a.entries), wv[m:]
    w[...] = wv[:m]
    norms = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    w = w[:, order]
    v = v[:, order]

    # sigma descends, so the columns with a usable norm come first.
    full = int(np.count_nonzero(sigma > sigma[0] * 1e-13))
    u = np.zeros_like(w)
    u[:, :full] = w[:, :full] / sigma[:full]
    for j in range(full, n):
        u[:, j] = _fill_orthonormal(u, j)

    flip = v[np.argmax(np.abs(v), axis=0), np.arange(n)] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SvdFactorization(u=u, s=sigma, v=v)

