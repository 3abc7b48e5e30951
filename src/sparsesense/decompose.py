"""Low-rank reconstruction: classical PCA as a baseline and the robust
low-rank + sparse split solved by an augmented-Lagrangian iteration.

The robust solver is the inexact augmented-Lagrangian method of Lin, Chen
& Ma 2010 (arXiv:1009.5055).  It alternates the two proximal steps

    L <- svt(X - S + Lambda/mu, 1/mu)
    S <- shrink(X - L + Lambda/mu, lambda/mu)
    Lambda <- Lambda + mu * (X - L - S)
    mu <- min(MU_GROWTH * mu, MU_CAP * mu_0)    (or held, see below)

under one capped penalty schedule from Lin, Chen & Ma's start
mu_0 = MU_SCALE / ||X||_2, which no config can move: from a mu_0 far above
it the threshold 1/mu keeps the whole spectrum, and the primal residual,
the stopping test, falls below tol within two iterations on a full-rank
L.  The singular
value threshold computes only the triplets above 1/mu, warm-started from
the previous iteration's, and to SVT_RTOL_FACTOR times the previous
primal residual: the ALM converges when its proximal steps err summably
(Eckstein & Bertsekas 1992).

mu grows only while the iteration keeps up with it.  The dual residual
mu ||S - S_prev|| / ||Lambda|| measures how far Lambda is from a
subgradient of ||L||_* (Boyd et al. 2011, section 3.3); when it exceeds
MU_BALANCE times the primal residual ||X - L - S|| / ||X||, mu holds still
(the residual balancing of section 3.4.1, without the decrease); where
||Lambda|| is 0 the dual residual is undefined, recorded as None, and mu
holds too.  Growing
mu there freezes the iterate short of the optimum while the primal
residual, the stopping test, falls anyway: on a 60 x 80 rank-2 input an
unconditional schedule stopped at a relative error of 9e-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (
    TOPK_RTOL,
    singular_value_threshold,
    soft_threshold,
    svd_topk,
    svd_truncated,
    validate_matrix,
)

#: mu_0 = MU_SCALE / ||X||_2
MU_SCALE = 1.25

#: factor by which the penalty grows each iteration
MU_GROWTH = 1.5

#: the penalty stops growing at MU_CAP * mu_0
MU_CAP = 1e7

#: the penalty grows only while the dual residual is at most MU_BALANCE
#: times the primal one
MU_BALANCE = 20.0

#: each SVT solves to this factor times the previous primal residual; at
#: 0.01 iteration counts moved by up to 3 against exact SVTs on small inputs
SVT_RTOL_FACTOR = 0.001


@dataclass(frozen=True)
class RpcaConfig:
    """Solver parameters.

    lam: sparsity weight; None selects the scale-free 1/sqrt(max(m, n)).
    tol: the run has converged once ||X - L - S|| / ||X|| <= tol.
    """

    lam: float | None = None
    max_iters: int = 500
    tol: float = 1e-7

    def validate(self) -> None:
        if self.lam is not None and not self.lam > 0:
            raise ValidationError("lam must be positive")
        if not 0 < self.tol < 1:
            raise ValidationError("tol must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")


@dataclass
class RpcaResult:
    L: np.ndarray
    S: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    #: per iteration: the dual residual (None where ||Lambda|| is 0), the
    #: penalty used and the count of singular values kept
    dual_history: list[float | None] = field(default_factory=list)
    mu_history: list[float] = field(default_factory=list)
    kept_history: list[int] = field(default_factory=list)
    #: subspace sweeps over every SVT, and the SVTs that took a full SVD
    svt_sweeps: int = 0
    svt_full_svds: int = 0


def pca_reconstruct(X, r: int) -> np.ndarray:
    """Best rank-r approximation of the column-mean-centered matrix, with
    the means added back."""
    X = validate_matrix(X)
    if not 1 <= r <= min(X.shape):
        raise ValidationError(f"rank {r} outside [1, {min(X.shape)}]")
    means = X.mean(axis=0)
    return svd_truncated(X - means, r).reconstruct() + means


def rpca(X, cfg: RpcaConfig | None = None) -> RpcaResult:
    """Split X into a low-rank part L and a sparse part S."""
    X = validate_matrix(X)
    cfg = cfg or RpcaConfig()
    cfg.validate()
    m, n = X.shape
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm_x = np.linalg.norm(X)
    if norm_x == 0:
        z = np.zeros_like(X)
        return RpcaResult(L=z, S=z.copy(), iterations=1, residual_history=[0.0],
                          converged=True, dual_history=[0.0], mu_history=[0.0],
                          kept_history=[0])
    if not np.isfinite(norm_x):
        raise ValidationError(f"the {m} x {n} matrix has finite entries but an infinite "
                              "Frobenius norm; rescale it")

    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(max(m, n))
    norm2 = float(svd_topk(X, 1, check_finite=False).singular_values[0])
    mu = MU_SCALE / norm2
    mu_max = MU_CAP * mu
    # dual-feasible scaling of the initial multiplier
    Lambda = X / max(norm2, np.abs(X).max() / lam)
    # every m x n array of the loop; T holds the SVT input
    W, T, L, S_prev = (np.empty_like(X) for _ in range(4))
    S = np.zeros_like(X)
    factors, primal = None, 1.0
    result = RpcaResult(L=L, S=S, iterations=0)
    for _ in range(cfg.max_iters):
        np.divide(Lambda, mu, out=W)
        W += X
        factors = singular_value_threshold(
            np.subtract(W, S, out=T), 1.0 / mu, factors,
            rtol=max(TOPK_RTOL, SVT_RTOL_FACTOR * primal), check_finite=False)
        W -= factors.reconstruct(out=L)
        S, S_prev = S_prev, S
        soft_threshold(W, lam / mu, out=S)
        # the dual step Lambda + mu * (X - L - S) is mu * (W - S), in place
        W -= S
        W *= mu
        # the residuals take the buffers of the old Lambda and S_prev
        Lambda -= W
        primal = float(np.linalg.norm(Lambda) / (mu * norm_x))
        Lambda, W = W, Lambda
        S_prev -= S
        norm_lambda = np.linalg.norm(Lambda)
        # undefined (None) where the multiplier's norm is 0, as at a tiny lam
        dual = float(mu * np.linalg.norm(S_prev) / norm_lambda) if norm_lambda else None
        result.iterations += 1
        result.svt_sweeps += factors.sweeps
        result.svt_full_svds += factors.full_svd
        result.residual_history.append(primal)
        result.dual_history.append(dual)
        result.mu_history.append(mu)
        result.kept_history.append(factors.singular_values.size)
        if primal <= cfg.tol:
            result.converged = True
            break
        if dual is not None and dual <= MU_BALANCE * primal:
            mu = min(MU_GROWTH * mu, mu_max)
    result.S = S
    return result
