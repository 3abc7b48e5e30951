"""Sensor selection by pivoted QR and greedy leverage on the dominant left
singular vectors, row-subset compression, and least-squares
reconstruction back to the full spatial dimension.

The measurement operator is kept in index form (a row-selection), never as
a dense matrix.  The small reconstruction operator (the pseudoinverse of
the selected mode rows) is precomputed at fit time since reconstruction
sits in the per-frame hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matio
from .errors import BoundsError, ConstraintError, ValidationError
from .linalg import (PIVOT_TIE_RTOL, pseudoinverse, qr_column_pivot,
                     svd_truncated, validate_matrix)

_BASIS = matio.Record(b"OSPB", "<HIII", 1, lambda m, r, s: [
    ("<f8", (m, r)), ("<u4", (s,)), ("<f8", (r, s))])


@dataclass(frozen=True)
class SensorBasis:
    """Orthonormal spatial modes plus the selected sensor rows.

    modes: (m, r) orthonormal columns.
    sensor_indices: s distinct row indices, in selection order.
    theta_pinv: (r, s) pseudoinverse of modes[sensor_indices, :].
    """

    modes: np.ndarray
    sensor_indices: np.ndarray
    theta_pinv: np.ndarray

    @property
    def m(self) -> int:
        return self.modes.shape[0]

    @property
    def r(self) -> int:
        return self.modes.shape[1]

    @property
    def s(self) -> int:
        return len(self.sensor_indices)

    @property
    def sorted_indices(self) -> np.ndarray:
        return np.sort(self.sensor_indices)


@dataclass(frozen=True)
class MeasurementSeries:
    """Sensor rows of a data matrix over time: Y is (s, n)."""

    sensor_indices: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.Y.shape[0] != len(self.sensor_indices):
            raise ValidationError("measurement rows do not match sensor count")


def fit_basis(L, r: int, s: int | None = None) -> SensorBasis:
    """Fit modes and sensor rows on the (cleaned) data matrix L.

    The first r sensors are the column pivots of modes.T.  Each further
    one maximizes det(Theta^T Theta) of the chosen mode rows Theta: it is
    the row psi of largest leverage psi^T P psi, P = (Theta^T Theta)^-1
    (lowest index among near-ties), and P gets a Sherman-Morrison update.
    """
    L = validate_matrix(L)
    m = L.shape[0]
    if not 1 <= r <= min(L.shape):
        raise BoundsError(f"mode count {r} outside [1, {min(L.shape)}]")
    if s is None:
        s = r
    if s < r:
        raise ConstraintError(f"sensor count {s} must be at least the mode count {r}")
    if s > m:
        raise BoundsError(f"sensor count {s} exceeds spatial dimension {m}")
    modes = svd_truncated(L, r).U
    pivots, _ = qr_column_pivot(modes.T)
    indices = list(pivots[:r])
    P = np.linalg.inv(modes[indices].T @ modes[indices])
    leverage = np.sum((modes @ P) * modes, axis=1)
    for _ in range(s - r):
        leverage[indices] = -np.inf
        j = int(np.nonzero(leverage >= leverage.max() * (1.0 - PIVOT_TIE_RTOL))[0][0])
        w = P @ modes[j] / np.sqrt(1.0 + leverage[j])
        P -= np.outer(w, w)
        leverage -= (modes @ w) ** 2
        indices.append(j)
    indices = np.asarray(indices, dtype=np.int64)
    theta_pinv = pseudoinverse(modes[indices, :])
    return SensorBasis(modes=modes, sensor_indices=indices, theta_pinv=theta_pinv)


def compress(X, basis: SensorBasis) -> MeasurementSeries:
    """Extract the sensor rows of X, in selection order."""
    X = validate_matrix(X)
    if X.shape[0] != basis.m:
        raise ValidationError(
            f"matrix has {X.shape[0]} rows, basis expects {basis.m}")
    return MeasurementSeries(sensor_indices=basis.sensor_indices.copy(),
                             Y=X[basis.sensor_indices, :].copy())


def reconstruct(y, basis: SensorBasis) -> np.ndarray:
    """Full-dimension estimate modes @ theta_pinv @ y.

    Accepts a length-s vector (returns length m) or an (s, n) matrix
    (returns (m, n)).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        if y.shape[0] != basis.s:
            raise ValidationError(f"expected {basis.s} measurements, got {y.shape[0]}")
    elif y.ndim == 2:
        if y.shape[0] != basis.s:
            raise ValidationError(f"expected {basis.s} measurement rows, got {y.shape[0]}")
    else:
        raise ValidationError("measurements must be a vector or matrix")
    if not np.all(np.isfinite(y)):
        raise ValidationError("measurements contain non-finite entries")
    return basis.modes @ (basis.theta_pinv @ y)


def compression_ratio(m: int, r_stored: int) -> float:
    """Spatial-dimension reduction factor m / r_stored."""
    if m <= 0 or r_stored <= 0:
        raise ValidationError("dimensions must be positive")
    return m / r_stored


def save_basis(basis: SensorBasis, path) -> None:
    matio.write_record(path, _BASIS, (basis.m, basis.r, basis.s),
                       [basis.modes, basis.sensor_indices, basis.theta_pinv])


def load_basis(path) -> SensorBasis:
    _, (modes, indices, theta_pinv) = matio.read_record(path, _BASIS)
    return SensorBasis(modes=modes, sensor_indices=indices.astype(np.int64),
                       theta_pinv=theta_pinv)
