"""Singular value decomposition from scratch.

A = U diag(s) V^T by one-sided Jacobi rotations: pairs of columns of a
working copy W of A are rotated until every pair is orthogonal; the column
norms are then the singular values and the normalized columns form U.  A
round-robin schedule visits every pair once per sweep.

One values path serves both entry points, on a (B, m, n) stack, B = 1
included.  Each matrix is scaled by the power of two that brings its largest
magnitude into [0.5, 1), which is exact, so that its overall scale no longer
decides whether app * aqq, a fourth power of the entries, overflows or
underflows.  W is held one column per row, matrix by matrix, so a round
gathers the p then the q columns of its disjoint pairs in one take, as one
flat (2, h*B, m) block with a row per pair and matrix, rotates it in one
fixed-shape step (c = 1, s = 0 for a pair that needs no rotation) and
scatters it back once.  Every matrix runs every sweep, until a sweep rotates
no pair of any matrix.

Each pair that needs a rotation gets Rutishauser's t = sign(tau) / (|tau| +
sqrt(1 + tau^2)), the root taken of tau clamped at 2^27, past which it is
|tau| to the bit.  Accuracy is still lost in the squares: a column whose
squared norm is subnormal is off by 3e-8 relative at 1e-158 of the largest
entry and by 6e-6 at 1e-160; at about 1e-162 its square underflows to 0, and
the column is no longer rotated and has norm 0.

svd_factorize runs the path on one matrix and logs each round written back;
V is the log replayed on the identity.  V and U are built only on first
read: the classifier reads only the leading singular values, a few tens of
numbers that keep most of a 40x40 template's energy.  svd_spectra runs it on
a stack in chunks and keeps no log.  Both refuse empty and non-finite input
alike and sweep a C-ordered copy, so s depends on the matrix's values alone,
and a row of svd_spectra is byte-identical to svd_factorize's s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60


def _check_entries(arr: np.ndarray) -> None:
    """Refuse an empty array or one with a non-finite entry."""
    if arr.size == 0:
        raise ValueError("matrix must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")


@dataclass(frozen=True, eq=False)
class Matrix:
    """Real matrix oriented tall (m >= n, transposed on intake if needed), C-ordered."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
        _check_entries(arr)
        if arr.shape[0] < arr.shape[1]:
            arr = arr.T
        arr = np.array(arr, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return int(self.entries.shape[0])

    @property
    def n(self) -> int:
        return int(self.entries.shape[1])


class SvdFactorization:
    """Thin factorization A = u @ diag(s) @ v.T with s descending.  From
    svd_factorize, u and v are built on first read and the log then freed."""

    def __init__(self, u: np.ndarray, s: np.ndarray, v: np.ndarray) -> None:
        self.s, self._uv = s, (u, v)

    def _vectors(self) -> tuple[np.ndarray, np.ndarray]:
        if callable(self._uv):
            self._uv = self._uv()
        return self._uv

    u = property(lambda self: self._vectors()[0])
    v = property(lambda self: self._vectors()[1])

    @property
    def n(self) -> int:
        return int(self.s.size)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


@lru_cache(maxsize=8)
def _round_robin_pairs(n: int) -> tuple[np.ndarray, ...]:
    """Rounds of disjoint column pairs covering every pair once per sweep.

    Each round is one index block, its p columns then its q columns.  Cached
    per width, so the blocks are shared and read-only.
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
            pq = np.array(ps + qs)
            pq.setflags(write=False)
            rounds.append(pq)
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _fill_orthonormal(u: np.ndarray, col: int) -> np.ndarray:
    """Unit vector orthogonal to u[:, :col], from the canonical basis.

    The canonical vector with the largest residual is kept (its norm is at
    least 1/sqrt(m) whenever col < m) and orthogonalized a second time for
    numerical hygiene.
    """
    m = u.shape[0]
    basis = u[:, :col]
    residuals = np.eye(m) - basis @ basis.T
    norms = np.linalg.norm(residuals, axis=0)
    best = residuals[:, int(np.argmax(norms))] / norms.max()
    best = best - basis @ (basis.T @ best)
    best = best / np.linalg.norm(best)
    return best


def _sweep(wt: np.ndarray, log: list | None = None) -> np.ndarray:
    """Rotate the matrices of wt until a sweep rotates no pair of any of them.

    wt is (n, B, m): wt[j, b] is column j of matrix b, so each Gram sum
    reduces contiguous memory, and every bit of the result depends on that
    order.  A matrix with no pair to rotate in a round, converged or not, is
    rotated by c = 1, s = 0, which changes at most the sign of a zero.
    Returns a C-ordered copy of the swept (B, m, n) stack.  Each round
    written back is appended to log as (pq, cs) when a list is given."""
    n, _, m = wt.shape
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for pq in _round_robin_pairs(n):
            x = wt.take(pq, axis=0)
            x3 = x.reshape(2, -1, m)
            h = x3.shape[1]
            gram = np.einsum("kji,lji->klj", x3, x3)
            app, aqq, apq = gram[0, 0], gram[1, 1], gram[0, 1]
            denom = np.sqrt(app * aqq)
            off = np.divide(np.abs(apq), denom, out=np.zeros(h), where=denom > 0.0)
            rotate = off > JACOBI_TOL
            if not np.count_nonzero(rotate):
                continue
            rotated = True
            tau = np.divide(aqq - app, 2.0 * apq, out=np.zeros(h), where=rotate)
            abs_tau = np.abs(tau)
            # sqrt(1 + tau^2) is |tau| to the bit past 2^27; the clamp keeps tau^2 finite.
            root = np.maximum(np.sqrt(1.0 + np.square(np.minimum(abs_tau, 2.0**27))), abs_tau)
            # t = 0 for a pair that does not rotate, t = 1 for one with tau = 0.
            t = np.where(tau == 0.0, rotate, np.sign(tau) / (abs_tau + root))
            cs = np.empty((2, h))
            np.divide(1.0, np.sqrt(1.0 + t * t), out=cs[0])
            np.multiply(t, cs[0], out=cs[1])
            _rotate(x3, cs)
            wt[pq] = x
            if log is not None:
                log.append((pq, cs))
        # W is unchanged, so every later sweep would be the same.
        if not rotated:
            break
    return wt.transpose(1, 2, 0).copy()


def _rotate(x3: np.ndarray, cs: np.ndarray) -> None:
    """Rotate a gathered block in place: p' = c p - s q, q' = s p + c q.

    x3 is (2, h, ..., m) and cs (2, h, ...): one c and s per pair and matrix."""
    xc, xs = x3 * cs[0, ..., None], x3 * cs[1, ..., None]
    np.subtract(xc[0], xs[1], out=x3[0])
    np.add(xs[0], xc[1], out=x3[1])


def _replay(log: list[tuple[np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """V^T: the logged rotations applied to the rows of the identity."""
    vt = np.eye(n)
    for pq, cs in log:
        y = vt.take(pq, axis=0)
        _rotate(y.reshape(2, -1, n), cs)
        vt[pq] = y
    return vt


def svd_factorize(a: Matrix) -> SvdFactorization:
    """One-sided Jacobi SVD of the (tall-oriented) matrix; u, v on first read.

    Columns whose norm vanishes (rank deficiency) get orthonormal stand-in U
    columns; each V column is sign-fixed so its largest-magnitude entry is
    nonnegative, which makes the result unique for almost every input."""
    n, log = a.n, []
    [sigma], [order], [w] = _spectra(a.entries[None], log)

    def vectors() -> tuple[np.ndarray, np.ndarray]:
        ws, v = w[:, order], _replay(log, n).T[:, order]
        # sigma descends, so the columns with a usable norm come first.
        full = int(np.count_nonzero(sigma > sigma[0] * 1e-13))
        u = np.zeros_like(ws)
        u[:, :full] = ws[:, :full] / sigma[:full]
        for j in range(full, n):
            u[:, j] = _fill_orthonormal(u, j)
        flip = v[np.argmax(np.abs(v), axis=0), np.arange(n)] < 0.0
        u[:, flip] *= -1.0
        v[:, flip] *= -1.0
        return u, v

    f = SvdFactorization(None, sigma, None)
    f._uv = vectors
    return f


# Matrices that svd_spectra rotates together.  Timed in fresh processes on
# a shared 2-core Xeon VM (best of 5 calls, median of 5 rounds): on 63 40x40
# templates 32 led, 48 ran 8% slower, 24 16%, one chunk of 63 29% and 16 42%;
# on 45, chunks of 16 to 45 ran within 15% of each other.  A chunk of 32
# runs 4.0x faster than svd_factorize one at a time.
SPECTRA_CHUNK = 32


def svd_spectra(stack: np.ndarray) -> np.ndarray:
    """Singular values of each tall matrix of a (B, m, n) stack, descending.

    Row b is byte-identical to svd_factorize(Matrix(stack[b])).s.  The
    matrices are swept in chunks of SPECTRA_CHUNK, and no rotation log is
    kept, so there are no singular vectors."""
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] < a.shape[2]:
        raise ValueError(f"expected a (B, m, n) stack with m >= n, got shape {a.shape}")
    _check_entries(a)
    chunks = range(0, len(a), SPECTRA_CHUNK)
    return np.concatenate([_spectra(a[i : i + SPECTRA_CHUNK])[0] for i in chunks])


def _spectra(a: np.ndarray, log: list | None = None) -> tuple[np.ndarray, ...]:
    """The values path of both entry points, on a (B, m, n) stack at once.

    Each matrix is scaled by 2^-e, e the binary exponent of its largest
    magnitude (0 for an all-zero matrix), and swept by _sweep, with log.
    Returns s (B, n), descending, the stable order that sorts the swept
    columns, and the swept stack; s and the stack are scaled back by 2^e."""
    e = np.frexp(np.abs(a).max(axis=(1, 2)))[1][:, None]
    w = _sweep(np.ldexp(a, -e[..., None]).transpose(2, 0, 1).copy(), log)
    norms = np.sqrt(np.einsum("bij,bij->bj", w, w))
    order = np.argsort(-norms, axis=1, kind="stable")
    s = np.ldexp(np.take_along_axis(norms, order, axis=1), e)
    return s, order, np.ldexp(w, e[..., None])
