"""Dense linear-algebra kernels: one top-k SVD, pivoted QR, pseudoinverse,
and the two proximal operators (entrywise soft threshold, singular value
threshold) used by the low-rank/sparse solver.

The truncated SVD and the threshold share one kernel, `svd_topk`: a block
subspace iteration from fixed-seed random columns, so deterministic; the
truncated SVD also forces the largest-magnitude entry of each left
singular vector positive.  The pseudoinverse takes LAPACK's SVD through
numpy.  Pivoted QR is greedy Gram-Schmidt on the residual columns.  Every
greedy selection, here and in the sensor placement of `osp`, breaks ties
through `greedy_argmax`: the lowest index within PIVOT_TIE_RTOL of the
best score, so the choice is fully specified rather than left to roundoff
or the platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .rng import substream

#: relative gap in a greedy score below which two candidates count as tied
PIVOT_TIE_RTOL = 1e-12

#: default relative cutoff for small singular values in the pseudoinverse
DEFAULT_RCOND = 1e-12

#: columns the top-k SVD carries past the count it is asked for
TOPK_MARGIN = 5

#: the top-k SVD's default stopping tolerance (its `rtol`)
TOPK_RTOL = 1e-10

#: seed of the top-k SVD's random-sign start columns
TOPK_SEED = 0x746F706B


def validate_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array; raise ValidationError otherwise."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {A.shape}")
    if A.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True)
class SvdFactors:
    """Top-k singular triplets: U (m,k), singular_values (k,), V (n,k)."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    sweeps: int = 0           # subspace sweeps `svd_topk` took for them
    full_svd: bool = False    # whether it then fell back to a full SVD

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the matrix the factors reconstruct."""
        return self.U.shape[0], self.V.shape[0]

    def reconstruct(self, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self.U * self.singular_values, self.V.T, out=out)


def svd_truncated(A, r: int) -> SvdFactors:
    """Top-r singular triplets of A, signs fixed: the largest-magnitude
    entry of each U column is positive, its V column flipped with it."""
    A = validate_matrix(A)
    if not 1 <= r <= min(A.shape):
        raise ValidationError(f"rank {r} outside [1, {min(A.shape)}]")
    f = svd_topk(A, r, check_finite=False)
    sign = np.where(f.U[np.argmax(np.abs(f.U), axis=0), np.arange(r)] < 0, -1.0, 1.0)
    return replace(f, U=f.U * sign, V=f.V * sign)


def soft_threshold(x, tau: float, out: np.ndarray | None = None):
    """Entrywise shrink-toward-zero: sgn(x) * max(|x| - tau, 0), into `out` if given."""
    if tau < 0:
        raise ValidationError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    out = np.subtract(x, np.clip(x, -tau, tau, out=out), out=out)
    return float(out) if out.ndim == 0 else out


#: the sign columns drawn so far, per row count n: read-only (n, c) arrays
_SIGNS: dict[int, np.ndarray] = {}


def _sign_columns(n: int, first: int, stop: int) -> np.ndarray:
    """Columns first..stop-1 of a fixed n-row matrix of random signs.
    Column j is the bits of lane j of TOPK_SEED's substreams, so it does
    not depend on how many columns are asked for, and the columns drawn
    once serve every later call: `_SIGNS` grows by the missing ones."""
    if stop <= first:
        return np.empty((n, 0))  # a warm start often fills the block
    signs = _SIGNS.get(n, np.empty((n, 0)))
    if stop > signs.shape[1]:
        words = substream(TOPK_SEED, np.arange(signs.shape[1], stop)).next_u64s(-(-n // 64))
        bits = np.unpackbits(np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8),
                             axis=1, bitorder="little")
        signs = _SIGNS[n] = np.hstack([signs, 1.0 - 2.0 * bits[:, :n].T])
        signs.flags.writeable = False
    return np.ascontiguousarray(signs[:, first:stop])


def svd_topk(A, k: int, tau: float | None = None, start: np.ndarray | None = None,
             *, rtol: float = TOPK_RTOL, check_finite: bool = True) -> SvdFactors:
    """Leading singular triplets of A by block subspace iteration with a
    Rayleigh-Ritz step per sweep (Halko, Martinsson & Tropp 2011).

    Without tau: the top k triplets.  With tau: every triplet whose value
    exceeds tau, k being the guessed count.  The block holds k + TOPK_MARGIN
    columns: the orthonormal columns of `start` (say, right singular
    vectors of a nearby matrix) and then fixed random signs.  It doubles
    while its smallest value is above tau.  A sweep ends the iteration once
    ||A v_i - s_i u_i|| over the wanted triplets, and with tau the first
    one below it, is at most rtol * s_1 (A^T u_i = s_i v_i holds exactly
    after Rayleigh-Ritz); an outer iteration may loosen rtol to what it
    needs.  Each sweep costs about 4 m n b flops for a block of b columns,
    against some 4 m n min(m, n) for a full SVD, so the full SVD is taken
    instead once the next sweep would bring the columns swept past
    min(m, n) / 2.  check_finite=False skips the input check, for a
    caller whose A is finite by construction.
    """
    A = validate_matrix(A) if check_finite else A
    n = A.shape[1]
    block = k + TOPK_MARGIN
    V = np.empty((n, 0)) if start is None else start
    # A V is formed as (V^T A^T)^T, which OpenBLAS runs faster: 2.4 against
    # 3.4 ms at 2000 x 1000 and 15 columns on one Xeon thread
    Y = (V.T @ A.T).T
    swept = sweeps = 0
    while swept + block <= min(A.shape) // 2:
        pad = _sign_columns(n, V.shape[1], block)
        V, Y = np.hstack([V, pad]), np.hstack([Y, (pad.T @ A.T).T])
        Q, _ = np.linalg.qr(Y)
        Ub, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
        U, V = Q @ Ub, Vt.T
        Y = (V.T @ A.T).T
        swept, sweeps = swept + block, sweeps + 1
        if tau is not None and s[-1] > tau:
            block *= 2
            continue
        wanted = k if tau is None else int(np.count_nonzero(s > tau))
        resid = np.linalg.norm(Y - U * s, axis=0)
        converged = np.linalg.norm(resid[:wanted]) <= rtol * s[0]
        if tau is not None:
            # the first triplet below tau must be surely below it, or a
            # value still rising past tau would be missed
            converged &= resid[wanted] <= max(rtol * s[0], tau - s[wanted])
        if converged:
            return SvdFactors(U=U[:, :wanted], singular_values=s[:wanted],
                              V=V[:, :wanted], sweeps=sweeps)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    wanted = k if tau is None else int(np.count_nonzero(s > tau))
    return SvdFactors(U=U[:, :wanted], singular_values=s[:wanted], V=Vt[:wanted].T,
                      sweeps=sweeps, full_svd=True)


def singular_value_threshold(A, tau: float, start: SvdFactors | None = None, *,
                             rtol: float = TOPK_RTOL, check_finite: bool = True) -> SvdFactors:
    """Shrink the singular values of A by tau (proximal step of the nuclear
    norm).  Returns the factors of the result: the triplets of A above tau,
    found by `svd_topk` to `rtol` and warm-started from `start`, a previous
    result on a nearby matrix, with their values reduced by tau."""
    if tau < 0:
        raise ValidationError("threshold must be nonnegative")
    k, V = (0, None) if start is None else (start.singular_values.size, start.V)
    f = svd_topk(A, k, tau, V, rtol=rtol, check_finite=check_finite)
    return replace(f, singular_values=f.singular_values - tau)


def greedy_argmax(scores: np.ndarray) -> int:
    """Index of the largest score; among scores within PIVOT_TIE_RTOL
    (relative) of it, the lowest index.  The one tie rule of every greedy
    selection, so a choice never hangs on roundoff or on the platform."""
    return int(np.flatnonzero(scores >= scores.max() * (1.0 - PIVOT_TIE_RTOL))[0])


def qr_column_pivot(A) -> tuple[np.ndarray, np.ndarray]:
    """Greedy column pivoting (Businger-Golub) by Gram-Schmidt on the
    residual: each step picks the column of largest residual norm
    (`greedy_argmax`, so ties go to the lowest column index), records that
    norm, and subtracts the chosen direction from every column.

    Returns (pivot_indices, r_diagonal): the first min(m, n) pivots in
    selection order, then the unselected columns in ascending order, and
    the residual norms at selection, |diag R|.  A step whose residual is
    all zero ends the selection; its norm and the later ones are zero.
    """
    R = validate_matrix(A).copy()
    m, n = R.shape
    chosen = np.zeros(n, dtype=bool)
    pivots = []
    rdiag = np.zeros(min(m, n))
    for k in range(rdiag.size):
        norms2 = np.sum(R * R, axis=0)
        norms2[chosen] = -np.inf
        j = greedy_argmax(norms2)
        if norms2[j] <= 0:
            break
        rdiag[k] = np.sqrt(norms2[j])
        q = R[:, j] / rdiag[k]
        R -= np.outer(q, q @ R)
        chosen[j] = True
        pivots.append(j)
    if not pivots:
        raise ValidationError("all-zero matrix has no pivot order")
    return np.concatenate([pivots, np.flatnonzero(~chosen)]).astype(np.int64), rdiag


def pseudoinverse(A, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD; singular values below
    rcond * sigma_max are treated as zero."""
    A = validate_matrix(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0:
        raise ValidationError("all-zero matrix has no pseudoinverse")
    cutoff = rcond * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T
