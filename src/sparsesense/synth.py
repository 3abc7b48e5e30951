"""Synthetic thermal-like ground truth and the four perturbation scenarios.

The ground truth is an exactly low-rank space-time product: smooth spatial
profiles (Gaussian bumps at seeded locations) times sinusoid-plus-drift
temporal coefficients.  Perturbations are drawn from per-frame substreams
of a fully specified PRNG so every output is bit-identical per seed; the
frames' substreams are drawn together, as the lanes of one generator.

Scenarios:
  1 noise        - additive Gaussian, mean 0, std 4
  2 outliers     - 100 entries per frame replaced by values in
                   [30, 40] or [-40, -30] (fair coin per entry)
  3 corruptions  - additive uniform [-15, 30] on 10% of entries
  4 superposition- 1, then 2, then 3, in that fixed order
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ValidationError
from .linalg import validate_matrix
from .rng import NORMAL_BOUND, Xoshiro256pp, substream


class Scenario(enum.IntEnum):
    NOISE = 1
    OUTLIERS = 2
    CORRUPTIONS = 3
    SUPERPOSITION = 4


@dataclass(frozen=True)
class GroundTruthSpec:
    m: int
    n: int
    rank: int
    smoothness: float = 0.08   # bump width as a fraction of the spatial dimension
    amplitude: float = 10.0
    seed: int = 0

    def validate(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValidationError("dimensions must be positive")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise BoundsError(f"rank {self.rank} outside [1, {min(self.m, self.n)}]")
        if not self.smoothness > 0:
            raise ValidationError("smoothness must be positive")
        # a bump is exp(-d**2 / (2 w**2)) at row distances d < m, for widths
        # w = smoothness * m * [0.5, 1.5]: the narrowest must keep that
        # quotient finite, and the widest 2 w**2 (else the bumps are flat)
        narrow, wide = self.smoothness * self.m * 0.5, self.smoothness * self.m * 1.5
        if not (2.0 * narrow * narrow > 0 and math.isfinite(self.m ** 2 / (2.0 * narrow * narrow))
                and math.isfinite(2.0 * wide * wide)):
            raise ValidationError(f"smoothness = {self.smoothness!r} takes the bump widths "
                                  f"of m = {self.m} rows out of the float range")
        if not math.isfinite(self.amplitude):
            raise ValidationError("amplitude must be finite")


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: Scenario = Scenario.NOISE
    noise_std: float = 4.0
    n_outliers: int = 100      # of the m entries of a frame
    outlier_ranges: tuple[tuple[float, float], tuple[float, float]] = ((30.0, 40.0), (-40.0, -30.0))
    corruption_fraction: float = 0.10
    corruption_interval: tuple[float, float] = (-15.0, 30.0)
    seed: int = 0

    def validate(self, m: int) -> None:
        if not 0.0 <= self.corruption_fraction <= 1.0:
            raise ValidationError("corruption_fraction must lie in [0, 1]")
        for lo, hi in (*self.outlier_ranges, self.corruption_interval):
            # a finite width also makes both ends finite; lo + width * u
            # then stays finite for every u in [0, 1)
            if not (lo <= hi and math.isfinite(hi - lo)):
                raise ValidationError(f"interval ({lo}, {hi}) needs lo <= hi and a finite "
                                      f"width hi - lo")
        if self.n_outliers < 0:
            raise ValidationError("n_outliers must be nonnegative")
        if self.scenario in (Scenario.OUTLIERS, Scenario.SUPERPOSITION) and self.n_outliers > m:
            raise ValidationError(f"n_outliers {self.n_outliers} exceeds the {m} entries "
                                  f"of a frame")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std * NORMAL_BOUND)):
            raise ValidationError(f"noise_std must be nonnegative, and finite times the "
                                  f"largest normal draw {NORMAL_BOUND:.4f}")


def generate_ground_truth(spec: GroundTruthSpec) -> np.ndarray:
    """Exactly rank-`spec.rank` space-time matrix, deterministic per seed."""
    spec.validate()
    rng = Xoshiro256pp(spec.seed)
    m, n, rank = spec.m, spec.n, spec.rank
    rows = np.arange(m, dtype=np.float64)
    t = np.arange(n, dtype=np.float64) / max(n, 2)
    X = np.zeros((m, n))
    term = np.empty((m, n))              # one rank-1 term at a time
    # one block of uniforms: per term its center, width, freq, phase and drift
    for k, (r_center, r_width, r_freq, r_phase, r_drift) in enumerate(
            rng.random(5 * rank).reshape(rank, 5)):
        center = 0.1 * m + (0.9 * m - 0.1 * m) * r_center  # `uniform`'s arithmetic
        width = spec.smoothness * m * (0.5 + r_width)
        u = np.exp(-((rows - center) ** 2) / (2.0 * width * width))
        # distinct integer-offset frequencies keep the factors well separated
        freq = k + 1 + r_freq
        phase = 2.0 * math.pi * r_phase
        drift = r_drift - 0.5
        amp = spec.amplitude / (1.0 + 0.5 * k)
        w = amp * (np.sin(2.0 * math.pi * freq * t + phase) + drift * t)
        np.multiply(u[:, None], w, out=term)
        X += term
    return X


# substream index offsets keep the three perturbation kinds statistically
# independent even when superposed on the same frame
_COMPONENT_STRIDE = 1 << 32


def apply_scenario(X, spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Perturb X per the scenario; returns (perturbed, mask).

    The boolean mask marks positions touched by the outlier/corruption
    components (scenarios 2 and 3); additive noise is not masked.
    """
    X = validate_matrix(X)
    m, n = X.shape
    spec.validate(m)
    sc = Scenario(spec.scenario)
    frames = np.arange(n)    # one substream per frame, as the lanes of one generator
    out = X.copy()
    mask = np.zeros((m, n), dtype=bool)

    if sc in (Scenario.NOISE, Scenario.SUPERPOSITION):
        rng = substream(spec.seed, 1 * _COMPONENT_STRIDE + frames)
        out += rng.normals(m, std=spec.noise_std)
    if sc in (Scenario.OUTLIERS, Scenario.SUPERPOSITION):
        rng = substream(spec.seed, 2 * _COMPONENT_STRIDE + frames)
        at = (rng.sample_without_replacement(m, spec.n_outliers), frames)
        out[at] = rng.either_uniforms(spec.n_outliers, *spec.outlier_ranges)
        mask[at] = True
    if sc in (Scenario.CORRUPTIONS, Scenario.SUPERPOSITION):
        rng = substream(spec.seed, 3 * _COMPONENT_STRIDE + frames)
        k = round(spec.corruption_fraction * m)
        at = (rng.sample_without_replacement(m, k), frames)
        out[at] += rng.uniform(*spec.corruption_interval, k)
        mask[at] = True
    return out, mask
