"""Reference one-sided Jacobi SVD: the loop svd_factorize ran before W and V
shared one array and every pair of a round was rotated in one fixed shape.

Kept verbatim (schedule builder included) so the stacked round can be held
to the same bits: s byte-identical, u and v equal up to the sign of a zero
(the stacked round computes x - 0*y for a pair that does not rotate).
"""

from __future__ import annotations

import numpy as np

from irisvd.svd import (
    JACOBI_MAX_SWEEPS,
    JACOBI_TOL,
    _TAU_MAX,
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
            if abs_tau.max() > _TAU_MAX:
                keep = abs_tau <= _TAU_MAX
                rp, rq, tau, abs_tau = rp[keep], rq[keep], tau[keep], abs_tau[keep]
            rotated = rotated or rp.size > 0
            t = np.where(
                tau == 0.0,
                1.0,
                np.sign(tau) / (abs_tau + np.sqrt(1.0 + tau * tau)),
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
