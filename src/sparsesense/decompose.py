"""Low-rank reconstruction: classical PCA as a baseline and the robust
low-rank + sparse split solved by an augmented-Lagrangian iteration.

The robust solver alternates the two proximal steps

    L <- svt(X - S + Lambda/mu, 1/mu)
    S <- shrink(X - L + Lambda/mu, lambda/mu)
    Lambda <- Lambda + mu * (X - L - S)

with a fixed penalty mu per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, ValidationError
from .linalg import singular_value_threshold, soft_threshold, svd_truncated, validate_matrix


@dataclass(frozen=True)
class RpcaConfig:
    """Solver parameters.

    lam: sparsity weight; None selects the scale-free 1/sqrt(max(m, n)).
    mu: penalty; None selects m*n / (4 * ||X||_1).  A fixed value such as
        1e-5 may be supplied to reproduce a specific study.
    """

    lam: float | None = None
    mu: float | None = None
    max_iters: int = 500
    tol: float = 1e-7

    def validate(self) -> None:
        if self.lam is not None and not self.lam > 0:
            raise ValidationError("lam must be positive")
        if self.mu is not None and not self.mu > 0:
            raise ValidationError("mu must be positive")
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


def pca_reconstruct(X, r: int) -> np.ndarray:
    """Best rank-r approximation of the column-mean-centered matrix, with
    the means added back."""
    X = validate_matrix(X)
    if not 1 <= r <= min(X.shape):
        raise BoundsError(f"rank {r} outside [1, {min(X.shape)}]")
    means = X.mean(axis=0)
    Xc = X - means
    if not np.any(Xc):
        return np.broadcast_to(means, X.shape).copy()
    f = svd_truncated(Xc, r)
    return f.reconstruct() + means


def rpca(X, cfg: RpcaConfig | None = None) -> RpcaResult:
    """Split X into a low-rank part L and a sparse part S."""
    X = validate_matrix(X)
    cfg = cfg or RpcaConfig()
    cfg.validate()
    m, n = X.shape
    norm_x = np.linalg.norm(X)
    if norm_x == 0:
        z = np.zeros_like(X)
        return RpcaResult(L=z, S=z.copy(), iterations=1,
                          residual_history=[0.0], converged=True)

    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(max(m, n))
    mu = cfg.mu if cfg.mu is not None else m * n / (4.0 * np.abs(X).sum())
    # dual-feasible scaling of the initial multiplier
    Lambda = X / max(np.linalg.norm(X, 2), np.abs(X).max() / lam)
    L = np.zeros_like(X)
    S = np.zeros_like(X)
    history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        L = singular_value_threshold(X - S + Lambda / mu, 1.0 / mu)
        S = soft_threshold(X - L + Lambda / mu, lam / mu)
        R = X - L - S
        Lambda = Lambda + mu * R
        res = float(np.linalg.norm(R) / norm_x)
        history.append(res)
        if res <= cfg.tol:
            converged = True
            break
    return RpcaResult(L=L, S=S, iterations=iterations,
                      residual_history=history, converged=converged)


def clean(X, cfg: RpcaConfig | None = None) -> np.ndarray:
    """Convenience wrapper returning only the low-rank (cleaned) part."""
    return rpca(X, cfg).L
