"""Sequence forecasting on the sensor measurement streams.

A from-scratch LSTM (single recurrent layer, dropout, ReLU dense layer,
linear output) trained with Adam on one-step-ahead targets; multi-step
forecasts are produced by closed-loop rollout.  Includes uniform-time
linear interpolation for irregularly sampled series and windowed dataset
construction.

Gate weights are packed as four H-wide blocks in the fixed order
[input, forget, candidate, output]:

    z = x @ Wx + h @ Wh + b
    i, f, o = sigmoid(blocks), g = tanh(block)
    c <- f*c + i*g,  h <- o*tanh(c)

Channels are z-score normalized inside the model; predictions are
de-normalized on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matio
from .errors import TrainingDivergenceError, ValidationError

_PARAM_ORDER = ("Wx", "Wh", "b", "Wd", "bd", "Wo", "bo")
# arrays: norm_mean, norm_std, then the weights in _PARAM_ORDER
_MODEL = matio.Record(b"LSTM", "<HIIIId", 1, lambda s, H, D, out, dropout: [
    ("<f8", shape) for shape in ((s,), (s,), (s, 4 * H), (H, 4 * H), (4 * H,),
                                 (H, D), (D,), (D, out), (out,))])

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TimeSeries:
    """Samples over time: timestamps (n,), values (n, s)."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or t.ndim != 1 or t.shape[0] != v.shape[0]:
            raise ValidationError("timestamps and values are inconsistent")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0):
            raise ValidationError("timestamps must be finite and nondecreasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    window: int = 50
    horizon: int = 100
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    hidden_dim: int = 128
    dense_dim: int = 128
    dropout: float = 0.2
    clip_norm: float = 5.0     # global gradient-norm cap; 0 switches clipping off
    val_fraction: float = 0.2

    def validate(self) -> None:
        if self.window < 1 or self.horizon < 1:
            raise ValidationError("window and horizon must be at least 1")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        if min(self.hidden_dim, self.dense_dim) < 1 or not 0.0 <= self.val_fraction < 1.0:
            raise ValidationError("need hidden_dim, dense_dim >= 1 and val_fraction in [0, 1)")
        if not 0.0 <= self.clip_norm < math.inf:
            raise ValidationError("clip_norm must be finite and nonnegative (0 = off)")


@dataclass
class LstmModel:
    input_dim: int
    hidden_dim: int
    dense_dim: int
    output_dim: int
    params: dict[str, np.ndarray]
    dropout_rate: float
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.norm_mean) / self.norm_std

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.norm_std + self.norm_mean


def rmse(pred, truth) -> float:
    """Root of the mean squared entrywise difference."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def interpolate_uniform(ts: TimeSeries, dt: float) -> TimeSeries:
    """Resample onto the grid t0, t0+dt, ... up to the last timestamp,
    linearly interpolating each channel.  Duplicate timestamps are
    collapsed to their mean first."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    t = ts.timestamps
    v = ts.values
    uniq, inverse, counts = np.unique(t, return_inverse=True, return_counts=True)
    if uniq.shape[0] < 2:
        raise ValidationError("need at least 2 distinct timestamps to interpolate")
    if uniq.shape[0] != t.shape[0]:
        acc = np.zeros((uniq.shape[0], v.shape[1]))
        np.add.at(acc, inverse, v)
        v = acc / counts[:, None]
        t = uniq
    n_out = int(np.floor((t[-1] - t[0]) / dt)) + 1
    grid = t[0] + dt * np.arange(n_out)
    out = np.empty((n_out, v.shape[1]))
    for ch in range(v.shape[1]):
        out[:, ch] = np.interp(grid, t, v[:, ch])
    return TimeSeries(timestamps=grid, values=out)


def make_windows(values: np.ndarray, window: int,
                 horizon: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Supervised pairs from a (n, s) series.

    Returns (inputs, targets, multistep_targets): inputs[i] holds rows
    [i, i+window), targets[i] is row i+window, and multistep_targets[i]
    gathers rows [i+window, i+window+horizon) for the i where the full
    horizon fits (fewer rows than inputs when horizon > 1).
    """
    values = np.asarray(values, dtype=np.float64)
    n, s = values.shape
    if n < window + 1:
        raise ValidationError(f"series of length {n} too short for window {window}")
    count = n - window
    idx = np.arange(window)[None, :] + np.arange(count)[:, None]
    inputs = values[idx]
    targets = values[window:]
    count_multi = max(n - window - horizon + 1, 0)
    if count_multi:
        midx = np.arange(horizon)[None, :] + window + np.arange(count_multi)[:, None]
        multistep = values[midx]
    else:
        multistep = np.empty((0, horizon, s))
    return inputs, targets, multistep


# ----------------------------------------------------------------------
# network core

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def init_model(input_dim: int, cfg: TrainConfig,
               norm_mean: np.ndarray, norm_std: np.ndarray,
               rng: np.random.Generator) -> LstmModel:
    """Glorot-uniform weights, zero biases except the forget gate (+1)."""
    H, D, s = cfg.hidden_dim, cfg.dense_dim, input_dim

    def glorot(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    b = np.zeros(4 * H)
    b[H:2 * H] = 1.0
    params = {
        "Wx": glorot(s, 4 * H, (s, 4 * H)),
        "Wh": glorot(H, 4 * H, (H, 4 * H)),
        "b": b,
        "Wd": glorot(H, D, (H, D)),
        "bd": np.zeros(D),
        "Wo": glorot(D, s, (D, s)),
        "bo": np.zeros(s),
    }
    return LstmModel(input_dim=s, hidden_dim=H, dense_dim=D, output_dim=s,
                     params=params, dropout_rate=cfg.dropout,
                     norm_mean=np.asarray(norm_mean, dtype=np.float64),
                     norm_std=np.asarray(norm_std, dtype=np.float64))


def _forward_batch(model: LstmModel, xb: np.ndarray, training: bool,
                   rng: np.random.Generator | None) -> tuple[np.ndarray, dict]:
    """xb: normalized (B, T, s) batch; returns normalized outputs (B, s)
    and the cache needed for backpropagation."""
    B, T, s = xb.shape
    H = model.hidden_dim
    p = model.params
    zx = (xb.reshape(B * T, s) @ p["Wx"]).reshape(B, T, 4 * H) + p["b"]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    gates, cs, hs = [], [], []
    for t in range(T):
        z = zx[:, t, :] + h @ p["Wh"]
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = _sigmoid(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates.append((i, f, g, o))
        cs.append(c)
        hs.append(h)
    if training and model.dropout_rate > 0.0:
        if rng is None:
            raise ValidationError("training-mode forward needs an RNG for dropout")
        keep = 1.0 - model.dropout_rate
        mask = (rng.random((B, H)) < keep) / keep
    else:
        mask = np.ones((B, H))
    hd = hs[-1] * mask
    pre_dense = hd @ p["Wd"] + p["bd"]
    dense = np.maximum(pre_dense, 0.0)
    out = dense @ p["Wo"] + p["bo"]
    cache = {"xb": xb, "gates": gates, "cs": cs, "hs": hs,
             "mask": mask, "hd": hd, "pre_dense": pre_dense, "dense": dense}
    return out, cache


def _backward_batch(model: LstmModel, cache: dict,
                    dout: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss wrt every parameter, given dL/d(output)."""
    p = model.params
    xb = cache["xb"]
    B, T, s = xb.shape
    H = model.hidden_dim
    grads = {"bo": dout.sum(axis=0), "Wo": cache["dense"].T @ dout}
    ddense = dout @ p["Wo"].T
    ddense = np.where(cache["pre_dense"] > 0, ddense, 0.0)
    grads["bd"] = ddense.sum(axis=0)
    grads["Wd"] = cache["hd"].T @ ddense
    dh = (ddense @ p["Wd"].T) * cache["mask"]
    dc = np.zeros((B, H))
    dWh = np.zeros_like(p["Wh"])
    dzx = np.empty((B, T, 4 * H))
    gates, cs, hs = cache["gates"], cache["cs"], cache["hs"]
    for t in range(T - 1, -1, -1):
        i, f, g, o = gates[t]
        tc = np.tanh(cs[t])
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.empty((B, 4 * H))
        dz[:, :H] = dc * g * i * (1.0 - i)
        if t > 0:
            dz[:, H:2 * H] = dc * cs[t - 1] * f * (1.0 - f)
        else:
            dz[:, H:2 * H] = 0.0
        dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
        dz[:, 3 * H:] = do * o * (1.0 - o)
        dzx[:, t, :] = dz
        if t > 0:
            dWh += hs[t - 1].T @ dz
        dh = dz @ p["Wh"].T
        dc = dc * f
    flat = dzx.reshape(B * T, 4 * H)
    grads["Wh"] = dWh
    grads["Wx"] = xb.reshape(B * T, s).T @ flat
    grads["b"] = flat.sum(axis=0)
    return grads


def lstm_forward(model: LstmModel, sequence: np.ndarray, training: bool = False,
                 rng: np.random.Generator | None = None) -> tuple[np.ndarray, dict]:
    """One de-normalized prediction from one raw (T, s) input sequence."""
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2 or sequence.shape[1] != model.input_dim:
        raise ValidationError(
            f"sequence shape {sequence.shape} incompatible with input dim {model.input_dim}")
    xn = model.normalize(sequence)[None, :, :]
    out, cache = _forward_batch(model, xn, training, rng)
    return model.denormalize(out[0]), cache


def loss_and_grads(model: LstmModel, xb: np.ndarray, yb: np.ndarray,
                   training: bool = True,
                   rng: np.random.Generator | None = None
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared error over a normalized batch plus its gradients."""
    out, cache = _forward_batch(model, xb, training, rng)
    diff = out - yb
    loss = float(np.mean(diff ** 2))
    dout = 2.0 * diff / diff.size
    return loss, _backward_batch(model, cache, dout)


def _clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if clip_norm > 0 and total > clip_norm:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale


class AdamState:
    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             cfg: TrainConfig) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            params[k] -= cfg.learning_rate * (self.m[k] / bc1) / (
                np.sqrt(self.v[k] / bc2) + _ADAM_EPS)


def train(ts: TimeSeries, cfg: TrainConfig) -> tuple[LstmModel, list[float]]:
    """Fit the network on one-step targets; returns the model and the
    per-epoch training RMSE (de-normalized units).

    Deterministic per cfg.seed: weight init, shuffling, and dropout masks
    all come from one seeded generator.  Raises TrainingDivergenceError if
    the loss goes non-finite.
    """
    cfg.validate()
    values = ts.values
    n, s = values.shape
    if n < cfg.window + 1:
        raise ValidationError(f"series of length {n} too short for window {cfg.window}")
    n_windows = n - cfg.window
    n_train = max(1, int(np.ceil((1.0 - cfg.val_fraction) * n_windows)))
    # normalization statistics from the rows the training windows can see
    train_rows = values[:n_train + cfg.window]
    mean = train_rows.mean(axis=0)
    std = train_rows.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)

    rng = np.random.default_rng(cfg.seed)
    model = init_model(s, cfg, mean, std, rng)
    normed = model.normalize(values)
    inputs, targets, _ = make_windows(normed, cfg.window)
    inputs, targets = inputs[:n_train], targets[:n_train]

    adam = AdamState(model.params)
    history: list[float] = []
    scale2 = float(np.mean(model.norm_std ** 2))
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        sq_sum = 0.0
        count = 0
        for start in range(0, n_train, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grads(model, inputs[sel], targets[sel],
                                         training=True, rng=rng)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(epoch)
            sq_sum += loss * sel.size
            count += sel.size
            _clip_gradients(grads, cfg.clip_norm)
            adam.step(model.params, grads, cfg)
        history.append(float(np.sqrt(sq_sum / count * scale2)))
    return model, history


def predict_multistep(model: LstmModel, seed_window: np.ndarray,
                      horizon: int) -> np.ndarray:
    """Closed-loop rollout: each prediction joins the window, the oldest
    row drops out.  Dropout is disabled.  Returns (horizon, s)."""
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    window = np.asarray(seed_window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != model.input_dim:
        raise ValidationError(
            f"seed window shape {window.shape} incompatible with input dim {model.input_dim}")
    preds = np.empty((horizon, model.input_dim))
    for k in range(horizon):
        pred, _ = lstm_forward(model, window, training=False)
        preds[k] = pred
        window = np.vstack([window[1:], pred])
    return preds


def save_model(model: LstmModel, path) -> None:
    matio.write_record(path, _MODEL, (model.input_dim, model.hidden_dim, model.dense_dim,
                                      model.output_dim, model.dropout_rate),
                       [model.norm_mean, model.norm_std,
                        *(model.params[name] for name in _PARAM_ORDER)])


def load_model(path) -> LstmModel:
    (s, H, D, out_dim, dropout), (mean, std, *weights) = matio.read_record(path, _MODEL)
    return LstmModel(input_dim=s, hidden_dim=H, dense_dim=D, output_dim=out_dim,
                     params=dict(zip(_PARAM_ORDER, weights)), dropout_rate=dropout,
                     norm_mean=mean, norm_std=std)
