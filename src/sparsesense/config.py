"""Flat key = value configuration files with dotted section prefixes.

Example:

    # desk-scale run
    synth.m = 2000
    synth.n = 1000
    synth.scenario = 2
    rpca.lambda = 0.006
    osp.r = 10
    osp.s = 10
    train.window = 50

`parse_config` casts and validates the whole file into one frozen
`RunConfig` before any stage runs.  Every key is named once, in `KEYS`;
an absent key keeps the default of the field it sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .decompose import MU_SCALE, RpcaConfig
from .errors import BoundsError, ConstraintError, ValidationError
from .forecast import TrainConfig
from .synth import GroundTruthSpec, Scenario, ScenarioSpec


@dataclass(frozen=True)
class RunConfig:
    """The typed sections of the science modules, then the values the
    pipeline stages read.  s defaults to r and holdout to train.horizon."""

    ground_truth: GroundTruthSpec = GroundTruthSpec(m=2000, n=1000, rank=10)
    scenario: ScenarioSpec = ScenarioSpec()
    rpca: RpcaConfig = RpcaConfig()
    train: TrainConfig = TrainConfig()
    r: int = 10                      # spatial modes
    s: int | None = None             # sensors
    dt: float = 0.5                  # mean spacing of the synthetic timestamps
    time_jitter: float = 0.0         # uniform relative perturbation of each gap
    holdout: int | None = None       # trailing frames kept out of training
    interpolate: bool = False        # resample the training series uniformly
    train_dt: float = 0.5            # spacing of that uniform grid
    pgm: bool = False                # dump first and last forecast frames
    frame_width: int = 1
    truth: str | None = None         # None: the synth stage's truth matrix

    def __post_init__(self):
        if self.s is None:
            object.__setattr__(self, "s", self.r)
        if self.holdout is None:
            object.__setattr__(self, "holdout", self.train.horizon)

    def validate(self) -> None:
        gt = self.ground_truth
        gt.validate()
        self.scenario.validate(gt.m)
        self.rpca.validate()
        self.train.validate()
        if min(gt.seed, self.scenario.seed) < 0:
            raise ValidationError("synth.seed must be non-negative")
        if not 1 <= self.r <= self.s:
            raise ConstraintError(f"need 1 <= osp.r <= osp.s, got r={self.r}, s={self.s}")
        if self.r > min(gt.m, gt.n) or self.s > gt.m:
            raise BoundsError(f"need osp.r <= min(synth.m, synth.n) and osp.s <= synth.m, "
                              f"got r={self.r}, s={self.s}, m={gt.m}, n={gt.n}")
        if not (self.dt > 0 and 0 < self.train_dt < math.inf and 0.0 <= self.time_jitter < 1.0):
            raise ValidationError(
                "need synth.dt > 0, a finite train.dt > 0 and synth.time_jitter in [0, 1)")
        # n gaps of at most dt (1 + time_jitter) bound the last timestamp,
        # the running sum's rounding included
        if not math.isfinite(self.dt * (1.0 + self.time_jitter) * gt.n):
            raise ValidationError(f"synth.dt = {self.dt} with synth.time_jitter = "
                                  f"{self.time_jitter} overflows the timestamps of "
                                  f"synth.n = {gt.n} frames")
        if self.holdout < 1:
            raise ValidationError("train.holdout must be at least 1")
        if self.frame_width < 1:
            raise ValidationError("evaluate.frame_width must be positive")
        if self.pgm:
            self.frame_shape(gt.m)

    def frame_shape(self, m: int) -> tuple[int, int]:
        """(height, width) of a PGM frame of m pixels."""
        if m % self.frame_width:
            raise ValidationError(f"evaluate.frame_width = {self.frame_width} does not "
                                  f"tile m = {m} pixels")
        return m // self.frame_width, self.frame_width


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _bool(raw: str) -> bool:
    return _BOOLS[raw.lower()]


def _auto(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


def _retired(key: str, value: str, why: str):
    def cast(raw: str) -> None:
        if raw != value:
            raise ValidationError(f"config key '{key}': bad value '{raw}'; only "
                                  f"'{value}' is accepted, {why}")
    return cast


# key -> (cast, target, ...): a target is a RunConfig field, or a section
# field as "section.field", or a tuple entry as "section.field.index";
# a retired key has none and parses only its one value, which configs spell out
KEYS = {
    "synth.m": (int, "ground_truth.m"), "synth.n": (int, "ground_truth.n"),
    "synth.rank": (int, "ground_truth.rank"),
    "synth.smoothness": (float, "ground_truth.smoothness"),
    "synth.amplitude": (float, "ground_truth.amplitude"),
    "synth.seed": (int, "ground_truth.seed", "scenario.seed"),
    "synth.scenario": (lambda raw: Scenario(int(raw)), "scenario.scenario"),
    "synth.noise_std": (float, "scenario.noise_std"),
    "synth.n_outliers": (int, "scenario.n_outliers"),
    "synth.outlier_hi_min": (float, "scenario.outlier_ranges.0.0"),
    "synth.outlier_hi_max": (float, "scenario.outlier_ranges.0.1"),
    "synth.outlier_lo_min": (float, "scenario.outlier_ranges.1.0"),
    "synth.outlier_lo_max": (float, "scenario.outlier_ranges.1.1"),
    "synth.corruption_fraction": (float, "scenario.corruption_fraction"),
    "synth.corruption_min": (float, "scenario.corruption_interval.0"),
    "synth.corruption_max": (float, "scenario.corruption_interval.1"),
    "synth.per_frame": (_retired("synth.per_frame", "true", "each frame has its own substreams"),),
    "synth.dt": (float, "dt"), "synth.time_jitter": (float, "time_jitter"),
    "rpca.lambda": (_auto, "rpca.lam"),
    "rpca.mu": (_retired("rpca.mu", "auto", f"mu_0 is always {MU_SCALE} / ||X||_2"),),
    "rpca.max_iters": (int, "rpca.max_iters"), "rpca.tol": (float, "rpca.tol"),
    "osp.r": (int, "r"), "osp.s": (int, "s"),
    "train.window": (int, "train.window"), "train.horizon": (int, "train.horizon"),
    "train.learning_rate": (float, "train.learning_rate"),
    "train.epochs": (int, "train.epochs"), "train.seed": (int, "train.seed"),
    "train.batch_size": (int, "train.batch_size"),
    "train.hidden_dim": (int, "train.hidden_dim"),
    "train.dense_dim": (int, "train.dense_dim"),
    "train.dropout": (float, "train.dropout"),
    "train.clip_norm": (float, "train.clip_norm"),
    "train.interpolate": (_bool, "interpolate"), "train.dt": (float, "train_dt"),
    "train.holdout": (int, "holdout"),
    "evaluate.pgm": (_bool, "pgm"),
    "evaluate.frame_width": (int, "frame_width"),
    "evaluate.truth": (str, "truth"),
}


def _set(obj, path: list[str], value):
    """obj with the item at path replaced by value."""
    if not path:
        return value
    head, *rest = path
    if head.isdigit():
        i = int(head)
        return (*obj[:i], _set(obj[i], rest, value), *obj[i + 1:])
    return replace(obj, **{head: _set(getattr(obj, head), rest, value)})


def parse_config(path, seed: int | None = None) -> RunConfig:
    """Read, cast and validate a config file; a seed given here overrides
    synth.seed and train.seed."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key '{key}'")
            raw[key] = value
    if seed is not None:
        raw.update({"synth.seed": str(seed), "train.seed": str(seed)})

    values = {f.name: f.default for f in fields(RunConfig)}
    for key, text in raw.items():
        cast, *targets = KEYS[key]
        try:
            value = cast(text)
        except (LookupError, TypeError, ValueError) as exc:
            raise ValidationError(f"config key '{key}': bad value '{text}'") from exc
        for target in targets:
            name, *path = target.split(".")
            values[name] = _set(values[name], path, value)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg
