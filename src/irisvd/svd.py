"""Singular value decomposition from scratch, plus truncated feature vectors.

The template matrix is factorized as A = U diag(s) V^T by one-sided Jacobi
rotations: pairs of columns of a working copy of A are rotated until every
pair is orthogonal, at which point the column norms are the singular values
and the normalized columns form U.  Pairs are visited in a round-robin
schedule so each sweep touches every pair exactly once and the disjoint
pairs of one round can be rotated in a single vectorized step.

The classifier consumes only the leading singular values, which collapse a
40x40 template into a vector of a few tens of numbers while preserving most
of its energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60
# Largest |tau| whose square is finite.
_TAU_MAX = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True, eq=False)
class Matrix:
    """Real matrix oriented tall: m >= n, transposing on intake if needed."""

    entries: np.ndarray
    transposed: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("matrix must not be empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        flipped = arr.shape[0] < arr.shape[1]
        if flipped:
            arr = arr.T
        arr = np.array(arr, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "transposed", flipped)

    @property
    def m(self) -> int:
        return int(self.entries.shape[0])

    @property
    def n(self) -> int:
        return int(self.entries.shape[1])


@dataclass(frozen=True, eq=False)
class SvdFactorization:
    """Thin factorization A = u @ diag(s) @ v.T with s descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=np.float64, copy=True)
        s = np.array(self.s, dtype=np.float64, copy=True)
        v = np.array(self.v, dtype=np.float64, copy=True)
        if u.ndim != 2 or s.ndim != 1 or v.ndim != 2:
            raise ValueError("u must be 2-D, s 1-D, v 2-D")
        n = s.size
        if u.shape[1] != n or v.shape != (n, n) or u.shape[0] < n:
            raise ValueError(
                f"inconsistent shapes: u {u.shape}, s ({n},), v {v.shape}"
            )
        if s.size and s.min() < 0.0:
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(s) > 0.0):
            raise ValueError("singular values must be descending")
        for a in (u, s, v):
            a.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return int(self.s.size)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """The first k singular values, descending."""

    k: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 1 or vals.size != self.k or self.k < 1:
            raise ValueError(
                f"expected {self.k} values in a 1-D vector, got shape {vals.shape}"
            )
        if vals.min() < 0.0 or np.any(np.diff(vals) > 0.0):
            raise ValueError("values must be nonnegative and descending")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
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


def _fill_orthonormal(u: np.ndarray, col: int) -> np.ndarray:
    """Unit vector orthogonal to u[:, :col], from the canonical basis.

    The canonical vector with the largest residual is kept (its norm is at
    least 1/sqrt(m) whenever col < m) and orthogonalized a second time for
    numerical hygiene.
    """
    m = u.shape[0]
    basis = u[:, :col]
    residuals = np.eye(m)
    if col:
        residuals = residuals - basis @ basis.T
    norms = np.linalg.norm(residuals, axis=0)
    best = residuals[:, int(np.argmax(norms))] / norms.max()
    if col:
        best = best - basis @ (basis.T @ best)
        best = best / np.linalg.norm(best)
    return best


def svd_factorize(a: Matrix) -> SvdFactorization:
    """One-sided Jacobi SVD of the (tall-oriented) matrix.

    Column pairs whose normalized inner product exceeds 1e-12 are rotated
    until a sweep rotates none, capped at 60 sweeps.  Columns whose norm
    vanishes (rank deficiency) get orthonormal stand-in U columns, and each V
    column is sign-fixed so its largest-magnitude entry is nonnegative, which
    makes the result deterministic and unique for almost every input.
    """
    w = np.array(a.entries, dtype=np.float64)
    n = w.shape[1]
    v = np.eye(n)
    rounds = _round_robin_pairs(n)

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
                # tau * tau would overflow, and t rounds to 0 anyway: such a
                # pair's column norms differ over 1e142-fold.  Leave it be.
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
            # w and v are unchanged, so every later sweep would be the same.
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

