"""Sequence forecasting on the sensor measurement streams.

A from-scratch LSTM (single recurrent layer, dropout, ReLU dense layer,
linear output) trained with Adam on one-step-ahead targets; multi-step
forecasts are produced by closed-loop rollout.  Includes uniform-time
linear interpolation for irregularly sampled series and windowed dataset
construction.

A training batch runs time-major on five buffers that `_forward_batch`
allocates per call: inputs (T, B, s), gates (T, 4, B, H), cell and
hidden states (T + 1, B, H) and tanh(c) (T, B, H).  The input
projection is one batched product before the time loop; the gates are
activated in place, gate-major, so the elementwise work of a step runs
on contiguous (B, H) blocks.  The backward pass spends the forward
cache: once BPTT has read the gates of step t for the last time, it
stores that step's (B, 4H) gate gradients dz[t] in their place, so the
gate buffer ends up holding dz and the weight gradients dWh, dWx and db
are each one GEMM or one reduction over all T * B rows, not T rank-B
updates (Appleyard, Kočiský & Blunsom, arXiv:1604.01946), with no
separate (T, B, 4H) buffer (in the spirit of Gruslys et al.,
arXiv:1606.03401, but with no recomputation).  Besides those five, a
batch allocates no buffer that grows with T.  The recurrent gradient
of a step, dh = sum over the gates g of dz_g @ Wh_g^T, is four
(B, H) x (H, H) products, one per gate, summed in gate order, not one
(B, 4H) x (4H, H) product: the shape of a recurrent GEMM sets its cost
(ibid.), and at the 16-row half batch each process runs, OpenBLAS takes
about twice as long over K = 4H as over four products with K = H.  The
products land in the spent gate slots of step t before dz[t] does, and
the per-gate copy of Wh^T lives for one backward pass.

`train` runs on both cores by synchronous data parallelism (Goyal et
al., arXiv:1706.02677): a batch's gradient is the first ceil(b / 2)
windows' gradient plus the rest's, each half its share of the batch's
mean squared error (`loss_and_grads` with `batch_rows`) on its rows of
the batch's one dropout mask.  The calling process computes the first
half while a worker process that `train` forks once (`_Worker`)
computes the second.  A fork is safe only from a process that runs one
thread, as under the command line, which runs BLAS on one thread, and
pays only with a second CPU to run on (`_may_fork`); elsewhere the
caller computes both halves, with the same calls and so the same bytes.
On a 2-core host with one BLAS thread this cuts perfbench `forecast`
run_s by 22 % and `desk` run_s by 12 %.  Against one whole batch per
step, `train` costs about 3 % more under two OpenBLAS threads, where no
worker runs.  The time loop stays on one thread per process: two
threads stepping half a batch each contend for the GIL at every step.

Training and rollout share one cell, `_step`, on gate-major weights
(`_gate_major`).  The rollout runs each sliding window from the zero
state, as training does, but not one window at a time: the first window
is a plain forward pass over the seed rows, and the later windows advance
as one wavefront, all windows in flight reading the same row in one
batched step (see `predict_multistep`).

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
import mmap
import os
import signal
import struct
from dataclasses import dataclass

import numpy as np

from . import matio
from .errors import TrainingDivergenceError, ValidationError

_PARAM_ORDER = ("Wx", "Wh", "b", "Wd", "bd", "Wo", "bo")
# arrays: norm_mean, norm_std, then the weights in _PARAM_ORDER
_MODEL = matio.Record(b"LSTM", "<HIIIId", 1, lambda s, H, D, out, dropout: [
    ("<f8", shape) for shape in ((s,), (s,), (s, 4 * H), (H, 4 * H), (4 * H,),
                                 (H, D), (D,), (D, out), (out,))])

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

#: the share of windows, the last ones, that `train` holds out of fitting
_HOLD_OUT = 0.2


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
        if not np.all(np.isfinite(v)):
            raise ValidationError("values contain non-finite entries")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


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

    def validate(self) -> None:
        if self.window < 1 or self.horizon < 1:
            raise ValidationError("window and horizon must be at least 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be finite and positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        if min(self.hidden_dim, self.dense_dim) < 1:
            raise ValidationError("need hidden_dim, dense_dim >= 1")
        if not 0.0 <= self.clip_norm < math.inf:
            raise ValidationError("clip_norm must be finite and nonnegative (0 = off)")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


@dataclass
class LstmModel:
    input_dim: int
    hidden_dim: int
    dense_dim: int
    params: dict[str, np.ndarray]
    dropout_rate: float
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.norm_mean) / self.norm_std

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.norm_std + self.norm_mean


def rmse(pred, truth) -> float:
    """Root of the mean squared entrywise difference.  Where a square
    overflows, the differences are scaled by a power of two first, which
    is exact, so the result is finite whenever pred - truth is, and
    otherwise equals the unscaled expression bit for bit.  Raises
    ValidationError where pred - truth is empty or not finite."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {truth.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred - truth
        value = float(np.sqrt(np.mean(diff ** 2)))
        if not math.isfinite(value) and diff.size and np.isfinite(diff).all():
            # 2**-e brings the largest |difference| into [0.5, 1): no square overflows
            e = math.frexp(float(np.max(np.abs(diff))))[1]
            value = float(np.ldexp(np.sqrt(np.mean(np.ldexp(diff, -e) ** 2)), e))
    if not math.isfinite(value):
        raise ValidationError("prediction - truth is empty or not finite")
    return value


def interpolate_uniform(ts: TimeSeries, dt: float) -> TimeSeries:
    """Resample onto the grid t0, t0+dt, ... up to the last timestamp,
    linearly interpolating each channel.  Duplicate timestamps are
    collapsed to their mean first."""
    if not 0 < dt < math.inf:
        raise ValidationError("dt must be positive and finite")
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
    span = float(t[-1] - t[0])
    # a grid no array can address is a bad dt, not the host running out of memory
    if (span / dt + 1) * 8 * max(v.shape[1], 1) > np.iinfo(np.intp).max:
        raise ValidationError(f"dt = {dt!r} is too small for the span {span!r}: "
                              "the grid would not fit in an array")
    n_out = int(np.floor(span / dt)) + 1
    grid = t[0] + dt * np.arange(n_out)
    out = np.empty((n_out, v.shape[1]))
    for ch in range(v.shape[1]):
        out[:, ch] = np.interp(grid, t, v[:, ch])
    return TimeSeries(timestamps=grid, values=out)


def make_windows(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Supervised one-step pairs from a (n, s) series: inputs[i] holds
    rows [i, i+window) and targets[i] is row i+window.  Both are views of
    the series, not copies."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if window < 1:
        raise ValidationError(f"window must be at least 1, got {window}")
    if n < window + 1:
        raise ValidationError(f"series of length {n} too short for window {window}")
    # a read-only strided view: indexing a batch out of it copies the rows
    windows = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)
    return np.moveaxis(windows, -1, 1)[:n - window], values[window:]


# ----------------------------------------------------------------------
# network core

def _sigmoid(z: np.ndarray) -> None:
    """Logistic function in place.  For z < -709, exp(-z) overflows to inf
    and 1 / (1 + inf) is the exact limit 0, so callers switch off the
    overflow warning."""
    np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def _step(z: np.ndarray, c: np.ndarray, c_next: np.ndarray, tc: np.ndarray,
          h_next: np.ndarray) -> None:
    """One LSTM step for a batch of rows, in place: the gate
    pre-activations z (4, B, H) become the gates [i, f, g, o], and the
    cell state c (B, H) gives c_next, tc = tanh(c_next) and h_next.
    c_next may overlap c: the rollout moves each state up one position."""
    with np.errstate(over="ignore"):
        _sigmoid(z[:2])
        _sigmoid(z[3])
    i, f, g, o = z
    np.tanh(g, out=g)
    np.multiply(f, c, out=c_next)
    c_next += np.multiply(i, g, out=tc)
    np.tanh(c_next, out=tc)
    np.multiply(o, tc, out=h_next)


def _gate_major(W: np.ndarray) -> np.ndarray:
    """(n, 4H) weights as (4, n, H): one (n, H) block per gate."""
    n, H = W.shape[0], W.shape[1] // 4
    return np.ascontiguousarray(W.reshape(n, 4, H).transpose(1, 0, 2))


def _head(p: dict[str, np.ndarray], hd: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ReLU layer and linear output on final hidden states (B, H):
    returns the dense pre-activation, the dense output and the
    normalized prediction (B, s)."""
    pre_dense = hd @ p["Wd"] + p["bd"]
    dense = np.maximum(pre_dense, 0.0)
    return pre_dense, dense, dense @ p["Wo"] + p["bo"]


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
    return LstmModel(input_dim=s, hidden_dim=H, dense_dim=D,
                     params=params, dropout_rate=cfg.dropout,
                     norm_mean=np.asarray(norm_mean, dtype=np.float64),
                     norm_std=np.asarray(norm_std, dtype=np.float64))


def _forward_batch(model: LstmModel, xb: np.ndarray, mask: np.ndarray | None
                   ) -> tuple[np.ndarray, dict]:
    """xb: normalized (B, T, s) batch; returns normalized outputs (B, s)
    and the cache needed for backpropagation, which holds the batch's
    time-major buffers: inputs x (T, B, s), gates z (T, 4, B, H),
    gate-major and activated in place, cell and hidden states cs, hs
    (T + 1, B, H), row 0 the zero initial state, and tcs = tanh(cs[1:])
    (T, B, H).  `mask` (B, H) scales the final hidden states for dropout;
    None switches dropout off.  Step t reads cs[t], hs[t] and writes
    t + 1."""
    B, T, s = xb.shape
    H = model.hidden_dim
    p = model.params
    x = np.ascontiguousarray(xb.transpose(1, 0, 2))
    # the input projection of every step, per gate: z = x @ Wx + b
    z = np.matmul(x[:, None], _gate_major(p["Wx"]))
    z += p["b"].reshape(4, 1, H)
    cs, hs, tcs = np.zeros((T + 1, B, H)), np.zeros((T + 1, B, H)), np.empty((T, B, H))
    Wh, zh = _gate_major(p["Wh"]), np.empty((4, B, H))
    for t in range(T):
        if t:  # the state starts at zero: step 0 has no recurrent term
            z[t] += np.matmul(hs[t], Wh, out=zh)
        _step(z[t], cs[t], cs[t + 1], tcs[t], hs[t + 1])
    hd = hs[T] if mask is None else hs[T] * mask
    pre_dense, dense, out = _head(p, hd)
    cache = {"x": x, "gates": z, "cs": cs, "hs": hs, "tcs": tcs, "mask": mask,
             "hd": hd, "pre_dense": pre_dense, "dense": dense}
    return out, cache


def _backward_batch(model: LstmModel, cache: dict, dout: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss wrt every parameter, given dL/d(output).
    This spends the forward cache: BPTT forms the gate gradients of step
    t in one (B, 4H) scratch block and copies them over the gates z[t],
    which nothing reads again.  Before that copy, the gate slots of z[t]
    hold the four per-gate products dz_g @ Wh_g^T, (B, H) x (H, H) each,
    against one contiguous (4, H, H) copy of Wh^T, and dh is their sum
    in the order i, f, g, o: at B 16, one (B, 4H) x (4H, H) product takes
    BLAS about twice the time of the four with K = H.  The head's
    activations leave the cache before BPTT and the copy is freed before
    the dWh product, which keeps the batch within its five buffers and
    1 MB.  The weight gradients of the recurrent layer are one GEMM or
    one reduction each over all T * B rows of z, read as dz (T, B, 4H)."""
    p = model.params
    x, z, cs, hs, tcs = (cache[k] for k in ("x", "gates", "cs", "hs", "tcs"))
    T, B, s = x.shape
    H = model.hidden_dim
    # the head's activations are spent once its gradients are formed
    dense, pre_dense, hd = (cache.pop(k) for k in ("dense", "pre_dense", "hd"))
    grads = {"bo": dout.sum(axis=0), "Wo": dense.T @ dout}
    ddense = dout @ p["Wo"].T
    ddense = np.where(pre_dense > 0, ddense, 0.0)
    grads["bd"] = ddense.sum(axis=0)
    grads["Wd"] = hd.T @ ddense
    dh = ddense @ p["Wd"].T
    del dense, pre_dense, hd, ddense
    if cache["mask"] is not None:
        dh *= cache["mask"]
    dc = np.zeros((B, H))
    tmp, tmp2, dzt = np.empty((B, H)), np.empty((B, H)), np.empty((B, 4 * H))
    dzi, dzf, dzg, dzo = dz_gates = [dzt[:, k * H:(k + 1) * H] for k in range(4)]
    # WhT[k] = Wh_k^T, the transpose of gate k's (H, H) block
    WhT = np.ascontiguousarray(p["Wh"].reshape(H, 4, H).transpose(1, 2, 0))
    for t in range(T - 1, -1, -1):
        i, f, g, o = z[t]
        tc = tcs[t]
        # dz_o = dh * tc * o * (1 - o)
        np.multiply(dh, tc, out=tmp)
        tmp *= o
        np.multiply(tmp, np.subtract(1.0, o, out=tmp2), out=dzo)
        # dc += dh * o * (1 - tc^2)
        np.multiply(dh, o, out=tmp)
        tmp *= np.subtract(1.0, np.multiply(tc, tc, out=tmp2), out=tmp2)
        dc += tmp
        # dz_i = dc * g * i * (1 - i)
        np.multiply(dc, g, out=tmp)
        tmp *= i
        np.multiply(tmp, np.subtract(1.0, i, out=tmp2), out=dzi)
        # dz_f = dc * c_prev * f * (1 - f)
        np.multiply(dc, cs[t], out=tmp)
        tmp *= f
        np.multiply(tmp, np.subtract(1.0, f, out=tmp2), out=dzf)
        # dz_g = dc * i * (1 - g^2)
        np.multiply(dc, i, out=tmp)
        np.multiply(tmp, np.subtract(1.0, np.multiply(g, g, out=tmp2), out=tmp2), out=dzg)
        if t:  # nothing reads the gradients wrt the zero initial state
            dc *= f
            # the gates of step t are spent: their slots take the products
            for k, dzk in enumerate(dz_gates):
                np.matmul(dzk, WhT[k], out=z[t, k])
            np.add(z[t, 0], z[t, 1], out=dh)
            dh += z[t, 2]
            dh += z[t, 3]
        z[t].reshape(B, 4 * H)[...] = dzt
    del dh, dc, tmp, tmp2, dzt, dz_gates, dzi, dzf, dzg, dzo, WhT  # free BPTT's scratch before dWh
    dz = z.reshape(T, B, 4 * H)
    rows = dz.reshape(T * B, 4 * H)
    # hs[0] is the zero state, so step 0 adds nothing to dWh
    grads["Wh"] = hs[1:T].reshape((T - 1) * B, H).T @ dz[1:].reshape((T - 1) * B, 4 * H)
    grads["Wx"] = x.reshape(T * B, s).T @ rows
    grads["b"] = rows.sum(axis=0)
    return grads


def lstm_forward(model: LstmModel, sequence: np.ndarray) -> tuple[np.ndarray, dict]:
    """One de-normalized prediction from one raw (T, s) input sequence,
    dropout off."""
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2 or sequence.shape[1] != model.input_dim or not len(sequence):
        raise ValidationError(f"sequence shape {sequence.shape} is not (T >= 1, "
                              f"input dim {model.input_dim})")
    xn = model.normalize(sequence)[None, :, :]
    out, cache = _forward_batch(model, xn, None)
    return model.denormalize(out[0]), cache


def loss_and_grads(model: LstmModel, xb: np.ndarray, yb: np.ndarray,
                   mask: np.ndarray | None = None,
                   batch_rows: int | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared error over a normalized batch plus its gradients.
    `mask` (B, H) is the dropout mask of the final hidden states, None for
    no dropout.  When the B rows are a part of a batch of `batch_rows`
    rows, the loss is their squared error over batch_rows * s, so the
    parts' losses and gradients sum to the whole batch's."""
    out, cache = _forward_batch(model, xb, mask)
    diff = out - yb
    n = diff.size if batch_rows is None else batch_rows * diff.shape[1]
    loss = float(np.sum(diff ** 2) / n)
    dout = 2.0 * diff / n
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
        self._scratch = {k: np.empty_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             cfg: TrainConfig) -> None:
        """One Adam update, in place and in the operation order of

            m <- b1 * m + (1 - b1) * g
            v <- b2 * v + (1 - b2) * g * g
            w <- w - lr * (m / bc1) / (sqrt(v / bc2) + eps)

        so the bytes equal that expression's.  Each gradient array is
        used as scratch and ends up holding the step subtracted from w."""
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            m, v, w = self.m[k], self.v[k], self._scratch[k]
            m *= b1
            m += np.multiply(1.0 - b1, g, out=w)
            v *= b2
            np.multiply(1.0 - b2, g, out=w)
            v += np.multiply(w, g, out=w)
            np.sqrt(np.divide(v, bc2, out=w), out=w)
            w += _ADAM_EPS
            np.divide(m, bc1, out=g)
            g *= cfg.learning_rate
            params[k] -= np.divide(g, w, out=g)


def _may_fork() -> bool:
    """Whether `train` may fork its worker: only from a process that runs
    one thread.  A forked child holds only the forking thread, so a lock
    that another thread held stays locked in it.  False where there is no
    /proc to count the threads in, and on a one-CPU affinity, where the
    worker would only take turns with the caller on that CPU."""
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _shared_arrays(specs: list[tuple[tuple[int, ...], type]]) -> list[np.ndarray]:
    """Arrays of the given (shape, dtype) in one anonymous shared mapping,
    each on a 64-byte boundary: a forked child sees the parent's writes,
    and the parent the child's."""
    sizes = [64 * -(-8 * math.prod(shape) // 64) for shape, _ in specs]
    buf = mmap.mmap(-1, max(sum(sizes), 1))
    offsets = np.cumsum([0, *sizes])
    return [np.frombuffer(buf, dtype, math.prod(shape), int(offset)).reshape(shape)
            for (shape, dtype), offset in zip(specs, offsets)]


class _Worker:
    """The second halves of a training run's batches, computed on one
    worker process forked for the length of a `with` block.

    The worker inherits the model and the training windows copy-on-write.
    The parameters, the worker's gradients and each half's window indices
    and dropout-mask rows live in one shared mapping, so the caller's
    in-place Adam step reaches the worker without a copy; two pipes carry
    one message each way per batch.  Where no worker can run (`_may_fork`
    says no, fork fails, or no batch has a second half) or the worker has
    died, the caller computes the half itself, with the same call on the
    same inputs, so the bytes do not depend on which process ran it.

    The worker ignores SIGINT, leaves by `os._exit` on every path, and
    exits when its command pipe reaches end of file, so it does not
    outlive a killed caller; leaving the block closes both pipes and
    reaps it."""

    def __init__(self, model: LstmModel, inputs: np.ndarray, targets: np.ndarray,
                 rows: int):
        self.model, self.inputs, self.targets = model, inputs, targets
        self.pid, self.alive = None, False
        if rows and _may_fork():
            self._fork(rows)

    def _fork(self, rows: int) -> None:
        p = self.model.params
        k = len(p)
        arrays = _shared_arrays([(v.shape, np.float64) for v in p.values()] * 2
                                + [((rows,), np.intp), ((rows, self.model.hidden_dim), np.float64)])
        for shared, value in zip(arrays, p.values()):
            shared[...] = value
        self.model.params = dict(zip(p, arrays[:k]))
        self.grads = dict(zip(p, arrays[k:2 * k]))
        self.sel, self.mask = arrays[2 * k:]
        cmd, self.cmd = os.pipe()
        self.res, res = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: the caller computes every half
            for fd in (cmd, self.cmd, self.res, res):
                os.close(fd)
            self.model.params = p
            return
        if self.pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(self.cmd)
                os.close(self.res)
                self._serve(cmd, res)
                code = 0
            finally:
                os._exit(code)
        os.close(cmd)
        os.close(res)
        self.alive = True

    def _serve(self, cmd: int, res: int) -> None:
        """The worker's loop: one half per command, until end of file."""
        with np.errstate(over="ignore", invalid="ignore"):  # as `train`'s batch loop
            while len(message := os.read(cmd, 16)) == 16:
                n, batch_rows = struct.unpack("qq", message)
                sel = self.sel[:n]
                mask = self.mask[:n] if self.model.dropout_rate > 0.0 else None
                loss, grads = loss_and_grads(self.model, self.inputs[sel], self.targets[sel],
                                             mask, batch_rows)
                for name, g in grads.items():
                    self.grads[name][...] = g
                os.write(res, struct.pack("d", loss))

    def start(self, sel: np.ndarray, mask: np.ndarray | None, batch_rows: int) -> None:
        """Hand over the windows `sel` of a batch of `batch_rows`, with
        their rows of the batch's dropout mask.  Only while this process
        still runs one thread: a fork shuts OpenBLAS's thread pool down
        in the parent, which passes `_may_fork` until a large product
        starts the pool again, and then both processes run it."""
        self.job, self.handed = (sel, mask, batch_rows), self.alive and _may_fork()
        if self.handed:
            self.sel[:sel.size] = sel
            if mask is not None:
                self.mask[:sel.size] = mask
            try:
                os.write(self.cmd, struct.pack("qq", sel.size, batch_rows))
            except BrokenPipeError:
                self.alive = self.handed = False

    def add_to(self, grads: dict[str, np.ndarray]) -> float:
        """Add the gradients of the half handed over last to `grads`, as
        grads + its gradients, and return its loss."""
        reply = os.read(self.res, 8) if self.handed else b""
        if len(reply) == 8:
            loss, half = struct.unpack("d", reply)[0], self.grads
        else:  # not handed over, or the worker died: compute the half here
            if self.handed:
                self.alive = False
            sel, mask, batch_rows = self.job
            loss, half = loss_and_grads(self.model, self.inputs[sel], self.targets[sel],
                                        mask, batch_rows)
        for name, g in grads.items():
            g += half[name]
        return loss

    def __enter__(self) -> _Worker:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid:
            os.close(self.cmd)
            os.close(self.res)
            os.waitpid(self.pid, 0)
            # the caller's model owns ordinary arrays again
            self.model.params = {k: v.copy() for k, v in self.model.params.items()}


def train(ts: TimeSeries, cfg: TrainConfig) -> tuple[LstmModel, list[float]]:
    """Fit the network on the one-step targets of the first 1 - _HOLD_OUT
    of the windows; the rows after them do not reach the model.  Returns
    the model and the per-epoch training RMSE (de-normalized units).

    Deterministic per cfg.seed: weight init, shuffling, and dropout masks
    all come from one seeded generator.  Raises TrainingDivergenceError if
    the loss goes non-finite.

    A batch of b windows is two halves, each its share of the batch's
    mean squared error (see `loss_and_grads`): the first ceil(b / 2)
    windows run on this process while a `_Worker` runs the rest, and the
    batch's gradient is the first half's plus the second's.
    """
    cfg.validate()
    values = ts.values
    n, s = values.shape
    if n < cfg.window + 1:
        raise ValidationError(f"series of length {n} too short for window {cfg.window}")
    n_windows = n - cfg.window
    n_train = max(1, int(np.ceil((1.0 - _HOLD_OUT) * n_windows)))
    # normalization statistics from the rows the training windows can see
    train_rows = values[:n_train + cfg.window]
    mean = train_rows.mean(axis=0)
    std = train_rows.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)

    rng = np.random.default_rng(cfg.seed)
    model = init_model(s, cfg, mean, std, rng)
    inputs, targets = make_windows(model.normalize(train_rows), cfg.window)

    adam = AdamState(model.params)
    H, keep = cfg.hidden_dim, 1.0 - cfg.dropout
    history: list[float] = []
    scale2 = float(np.mean(model.norm_std ** 2))
    # a diverging run overflows before its loss does: the loss check reports it
    with (_Worker(model, inputs, targets, min(cfg.batch_size, n_train) // 2) as worker,
          np.errstate(over="ignore", invalid="ignore")):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_train)
            sq_sum = 0.0
            count = 0
            for start in range(0, n_train, cfg.batch_size):
                sel = order[start:start + cfg.batch_size]
                b, half = sel.size, (sel.size + 1) // 2
                mask = (rng.random((b, H)) < keep) / keep if cfg.dropout > 0.0 else None
                masks = (None, None) if mask is None else (mask[:half], mask[half:])
                if half < b:
                    worker.start(sel[half:], masks[1], b)
                first = sel[:half]
                loss, grads = loss_and_grads(model, inputs[first], targets[first], masks[0], b)
                if half < b:
                    loss += worker.add_to(grads)
                if not np.isfinite(loss):
                    raise TrainingDivergenceError(epoch)
                sq_sum += loss * b
                count += b
                _clip_gradients(grads, cfg.clip_norm)
                adam.step(model.params, grads, cfg)
                # the next backward pass would otherwise peak with two gradient sets
                del grads
            history.append(float(np.sqrt(sq_sum / count * scale2)))
    return model, history


def predict_multistep(model: LstmModel, seed_window: np.ndarray,
                      horizon: int) -> np.ndarray:
    """Closed-loop rollout: each prediction joins the window, the oldest
    row drops out.  Dropout is disabled.  Returns (horizon, s).

    Window k reads rows k..k+T-1 of seed + predictions and predicts row
    T+k.  Window 0 reads only seed rows, all known up front, so it is the
    plain `lstm_forward(seed_window)` and the first step equals a direct
    forward pass bit for bit.  Windows 1.. run as one wavefront: at wave
    tau every window in flight reads row tau, at its own position, so
    row tau is projected once and the recurrent product of all of them
    is one GEMM per gate, into gate-major pre-activations that `_step`
    activates in place, as in training; the window that ends at wave tau
    writes row tau + 1 before wave tau + 1 reads it.  That is
    T + horizon - 2 waves (none at horizon 1), not T * horizon steps.
    The state is kept by position, not by window: h[p], c[p] belong to
    the window that has read p rows, and row 0 is the zero state, so
    memory is O(T * H) whatever the horizon.  Rows 1.. differ from a
    per-window forward pass only by GEMM-against-GEMV rounding.
    """
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    # a model whose weights overflow the rollout gives a non-finite row, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        first, _ = lstm_forward(model, seed_window)
        T, H, p = len(seed_window), model.hidden_dim, model.params
        Wx, Wh, b = _gate_major(p["Wx"]), _gate_major(p["Wh"]), p["b"].reshape(4, 1, H)
        seq = np.empty((T + horizon, model.input_dim))
        seq[:T] = seed_window
        seq[T] = first
        h, c = np.zeros((T + 1, H)), np.zeros((T + 1, H))
        tc = np.empty((T, H))
        # window 1 reads row 1 at wave 1; window horizon - 1 ends at wave T + horizon - 2
        for tau in range(1, T + horizon - 1 if horizon > 1 else 1):
            # window tau - p sits at position p, for p in lo..hi-1; each moves up one
            lo, hi = max(0, tau - horizon + 1), min(tau, T)
            zt = np.matmul(h[lo:hi], Wh)
            zt += np.matmul(model.normalize(seq[tau:tau + 1]), Wx) + b
            _step(zt, c[lo:hi], c[lo + 1:hi + 1], tc[:hi - lo], h[lo + 1:hi + 1])
            if hi == T:
                seq[tau + 1] = model.denormalize(_head(p, h[T:])[2][0])
    if not np.isfinite(seq[T:]).all():
        raise TrainingDivergenceError(None, f"the model's {horizon}-step forecast is not "
                                            "finite: its weights make the rollout overflow")
    return seq[T:]


def save_model(model: LstmModel, path) -> None:
    matio.write_record(path, _MODEL, (model.input_dim, model.hidden_dim, model.dense_dim,
                                      model.input_dim, model.dropout_rate),
                       [model.norm_mean, model.norm_std,
                        *(model.params[name] for name in _PARAM_ORDER)])


def load_model(path) -> LstmModel:
    (s, H, D, out, dropout), (mean, std, *weights) = matio.read_record(path, _MODEL)
    if out != s:
        raise ValidationError(f"{path}: output width {out} differs from input width {s}")
    if not all(np.isfinite(a).all() for a in (mean, std, *weights)):
        raise ValidationError(f"{path}: model holds non-finite entries")
    if not (std > 0).all():
        raise ValidationError(f"{path}: normalization std must be positive")
    return LstmModel(input_dim=s, hidden_dim=H, dense_dim=D,
                     params=dict(zip(_PARAM_ORDER, weights)), dropout_rate=dropout,
                     norm_mean=mean, norm_std=std)
