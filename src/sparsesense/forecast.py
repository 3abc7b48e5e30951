"""Sequence forecasting on the sensor measurement streams.

A from-scratch LSTM (single recurrent layer, dropout, ReLU dense layer,
linear output) trained with Adam on one-step-ahead targets; multi-step
forecasts are produced by closed-loop rollout.  Includes uniform-time
linear interpolation for irregularly sampled series and windowed dataset
construction.

A training batch runs on one time-major `Workspace` that `train`
allocates once per call, sized for its largest batch, with five buffers:
inputs (T, B, s), gates (T, 4, B, H), cell and hidden states
(T + 1, B, H) and tanh(c) (T, B, H).  The input projection is one
batched product before the time loop; the gates are activated in place,
gate-major, so the elementwise work of a step runs on contiguous (B, H)
blocks.  The backward pass spends the forward cache: once BPTT has read
the gates of step t for the last time, it stores that step's (B, 4H)
gate gradients dz[t] in their place, so the gate buffer ends up holding
dz and the weight gradients dWh, dWx and db are each one GEMM or one
reduction over all T * B rows, not T rank-B updates (Appleyard, Kočiský
& Blunsom, arXiv:1604.01946), with no separate (T, B, 4H) buffer
(in the spirit of Gruslys et al., arXiv:1606.03401, but with no
recomputation).  A batch allocates no buffer that grows with T.

The products that do not depend on the recurrence run on one helper
thread (`_Helper`), which `train` starts once and joins before it
returns; BLAS releases the GIL, so they take the second core.  A lone
`loss_and_grads` or `lstm_forward` call has no helper (`None`) and runs
every product on the calling thread.  While the calling thread steps the
recurrence, the helper projects the inputs of every time chunk after
the first, `_CHUNK` steps at a time; after BPTT it computes a column
block of dWh while the caller computes the rest of dWh, dWx and db.
`_later` hands each product over and returns the call that collects it:
a product the helper has not started by the time the caller needs it,
the caller runs itself, so a busy second core delays a batch by at
most the product in flight.  Every product is the same BLAS call
as on one thread, or a column block that OpenBLAS runs with the same
kernels, so the bytes do not change.  The time loop stays on one
thread: two threads stepping half a batch each contend for the GIL at
every step.

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

import contextvars
import math
import threading
from dataclasses import dataclass
from collections import deque
from functools import partial

import numpy as np

from . import matio
from .errors import TrainingDivergenceError, ValidationError

_PARAM_ORDER = ("Wx", "Wh", "b", "Wd", "bd", "Wo", "bo")
# arrays: norm_mean, norm_std, then the weights in _PARAM_ORDER
_MODEL = matio.Record(b"LSTM", "<HIIIId", 1, lambda s, H, D, out, dropout: [
    ("<f8", shape) for shape in ((s,), (s,), (s, 4 * H), (H, 4 * H), (4 * H,),
                                 (H, D), (D,), (D, out), (out,))])

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

#: time steps per chunk of a batch's input projection
_CHUNK = 10

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


class _Helper:
    """One helper thread beside the calling thread, for the length of a
    `with` block: it runs what `put` queues, in order, in a copy of the
    context `_Helper()` was made in, so numpy's error state holds there too."""

    def __init__(self):
        self._queue, self._ready = deque(), threading.Semaphore(0)
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._run,))

    def __enter__(self) -> _Helper:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.put(None)
        self._thread.join()

    def put(self, fn) -> None:
        self._queue.append(fn)
        self._ready.release()

    def _run(self) -> None:
        while self._ready.acquire() and (fn := self._queue.popleft()) is not None:
            fn()
            fn = None  # an idle helper keeps no task's arrays alive


def _later(helper: _Helper | None, fn):
    """Queue `fn` on `helper` and return the call that completes it:
    whichever thread takes the lock first runs `fn`, so the call never
    waits for an `fn` the helper has not started, and it re-raises what
    `fn` raised.  With no helper, the call runs `fn`."""
    if helper is None:
        return fn
    lock, outcome = threading.Lock(), []  # [None], or [what fn raised]

    def run(blocking: bool = True) -> None:
        if lock.acquire(blocking):  # else the other thread is running fn
            if not outcome:
                try:
                    fn()
                    outcome.append(None)
                except BaseException as exc:  # re-raised by the caller's call
                    outcome.append(exc)
            lock.release()
        if blocking and outcome[0] is not None:
            raise outcome[0]

    helper.put(partial(run, False))
    return run


def _gate_major(W: np.ndarray) -> np.ndarray:
    """(n, 4H) weights as (4, n, H): one (n, H) block per gate."""
    n, H = W.shape[0], W.shape[1] // 4
    return np.ascontiguousarray(W.reshape(n, 4, H).transpose(1, 0, 2))


def _project(x: np.ndarray, Wx: np.ndarray, b: np.ndarray, z: np.ndarray) -> None:
    """Input projection of steps x (t, B, s) into their gate
    pre-activations z (t, 4, B, H): z = x @ Wx + b, per step and gate."""
    np.matmul(x[:, None], Wx, out=z)
    z += b


class Workspace:
    """Time-major buffers for batches of up to `batch` windows of T rows,
    s channels and H hidden units:

        x     (T, B, s)      inputs
        z     (T, 4, B, H)   gate pre-activations, activated in place
        cs    (T + 1, B, H)  cell states, row 0 the zero initial state
        hs    (T + 1, B, H)  hidden states, likewise
        tcs   (T, B, H)      tanh of cs[1:]

    z is gate-major, so each gate of a step is one contiguous (B, H)
    block and the elementwise work runs on contiguous arrays.  During
    BPTT, z[t] is overwritten by the (B, 4H) gate gradients dz[t] once
    the gates of step t are spent, so z.reshape(T, B, 4H) ends up as dz
    and the backward pass needs no buffer of its own.  A batch
    of B windows takes contiguous views of each buffer's leading part,
    so one workspace serves every batch of a training run, the shorter
    last one included."""

    def __init__(self, batch: int, T: int, s: int, H: int):
        self.batch, self.dims = batch, (T, s, H)
        self._buffers = [np.empty(math.prod(shape)) for shape in self._shapes(batch)]

    def _shapes(self, B: int) -> tuple[tuple[int, ...], ...]:
        T, s, H = self.dims
        return (T, B, s), (T, 4, B, H), (T + 1, B, H), (T + 1, B, H), (T, B, H)

    def views(self, B: int, T: int, s: int, H: int) -> list[np.ndarray]:
        """x, z, cs, hs, tcs for a batch of B windows."""
        if not 1 <= B <= self.batch or (T, s, H) != self.dims:
            raise ValidationError(f"a batch of {B} windows with (T, s, H) = {(T, s, H)} does "
                                  f"not fit a workspace for up to {self.batch} windows "
                                  f"with (T, s, H) = {self.dims}")
        return [buf[:math.prod(shape)].reshape(shape)
                for buf, shape in zip(self._buffers, self._shapes(B))]


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


def _forward_batch(model: LstmModel, xb: np.ndarray, training: bool,
                   rng: np.random.Generator | None,
                   workspace: Workspace | None = None,
                   helper: _Helper | None = None) -> tuple[np.ndarray, dict]:
    """xb: normalized (B, T, s) batch; returns normalized outputs (B, s)
    and the cache needed for backpropagation, which holds views of the
    workspace (a fresh one when none is given).  Step t reads cs[t],
    hs[t] and writes t + 1.  This thread projects the first `_CHUNK`
    steps and `helper`'s thread, if it has one, the later chunks, in
    order; the loop collects a chunk when it reaches the chunk's first
    step."""
    B, T, s = xb.shape
    H = model.hidden_dim
    p = model.params
    if workspace is None:
        workspace = Workspace(B, T, s, H)
    x, z, cs, hs, tcs = workspace.views(B, T, s, H)
    x[...] = xb.transpose(1, 0, 2)
    Wx, b = _gate_major(p["Wx"]), p["b"].reshape(4, 1, H)
    cs[0] = 0.0
    hs[0] = 0.0
    Wh, zh = _gate_major(p["Wh"]), np.empty((4, B, H))
    chunks = [_later(helper, partial(_project, x[t:t + _CHUNK], Wx, b, z[t:t + _CHUNK]))
              for t in range(_CHUNK, T, _CHUNK)]
    _project(x[:_CHUNK], Wx, b, z[:_CHUNK])
    for t in range(T):
        if t % _CHUNK == 0 and t:
            chunks[t // _CHUNK - 1]()  # steps t..t + _CHUNK - 1 are projected
        if t:  # the state starts at zero: step 0 has no recurrent term
            z[t] += np.matmul(hs[t], Wh, out=zh)
        _step(z[t], cs[t], cs[t + 1], tcs[t], hs[t + 1])
    hd, mask = hs[T], None
    if training and model.dropout_rate > 0.0:
        if rng is None:
            raise ValidationError("training-mode forward needs an RNG for dropout")
        keep = 1.0 - model.dropout_rate
        mask = (rng.random((B, H)) < keep) / keep
        hd = hd * mask
    pre_dense, dense, out = _head(p, hd)
    cache = {"x": x, "gates": z, "cs": cs, "hs": hs, "tcs": tcs, "mask": mask,
             "hd": hd, "pre_dense": pre_dense, "dense": dense}
    return out, cache


def _backward_batch(model: LstmModel, cache: dict, dout: np.ndarray,
                    helper: _Helper | None = None) -> dict[str, np.ndarray]:
    """Gradients of the loss wrt every parameter, given dL/d(output).
    This spends the forward cache: BPTT forms the gate gradients of step
    t in one (B, 4H) scratch block, which feeds the dh product, and then
    copies them over the gates z[t], which nothing reads again.  The
    weight gradients of the recurrent layer are then one GEMM or one
    reduction each over all T * B rows of z, read as dz (T, B, 4H);
    `helper`'s thread computes a column block of dWh, or all of it,
    while this thread computes the rest, dWx and db."""
    p = model.params
    x, z, cs, hs, tcs = (cache[k] for k in ("x", "gates", "cs", "hs", "tcs"))
    T, B, s = x.shape
    H = model.hidden_dim
    grads = {"bo": dout.sum(axis=0), "Wo": cache["dense"].T @ dout}
    ddense = dout @ p["Wo"].T
    ddense = np.where(cache["pre_dense"] > 0, ddense, 0.0)
    grads["bd"] = ddense.sum(axis=0)
    grads["Wd"] = cache["hd"].T @ ddense
    dh = ddense @ p["Wd"].T
    if cache["mask"] is not None:
        dh *= cache["mask"]
    dc = np.zeros((B, H))
    tmp, tmp2, dzt = np.empty((B, H)), np.empty((B, H)), np.empty((B, 4 * H))
    dzi, dzf, dzg, dzo = dzt[:, :H], dzt[:, H:2 * H], dzt[:, 2 * H:3 * H], dzt[:, 3 * H:]
    WhT = p["Wh"].T
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
            np.matmul(dzt, WhT, out=dh)
            dc *= f
        z[t].reshape(B, 4 * H)[...] = dzt  # the gates of step t are spent
    del dh, dc, tmp, tmp2, dzt, dzi, dzf, dzg, dzo  # free BPTT's scratch before dWh
    dz = z.reshape(T, B, 4 * H)
    rows = dz.reshape(T * B, 4 * H)
    # hs[0] is the zero state, so step 0 adds nothing to dWh
    hsT, dzh = hs[1:T].reshape((T - 1) * B, H).T, dz[1:].reshape((T - 1) * B, 4 * H)
    grads["Wh"] = dWh = np.empty((H, 4 * H))
    # The helper takes dWh's columns from `split` on; this thread takes the
    # first quarter or less, as it also forms dWx and db.  On OpenBLAS
    # 0.3.31 (AVX-512 kernels, one or two threads) a column block has the
    # bytes of the whole product when it starts at a multiple of 64 columns
    # and 4H is a multiple of 8; at odd H the last four columns can round
    # differently (H = 129 on two threads), so the helper takes all of dWh.
    split = 64 * (H // 64) if H % 2 == 0 else 0
    right = _later(helper, partial(np.matmul, hsT, dzh[:, split:], out=dWh[:, split:]))
    np.matmul(hsT, dzh[:, :split], out=dWh[:, :split])
    grads["Wx"] = x.reshape(T * B, s).T @ rows
    grads["b"] = rows.sum(axis=0)
    right()
    return grads


def lstm_forward(model: LstmModel, sequence: np.ndarray) -> tuple[np.ndarray, dict]:
    """One de-normalized prediction from one raw (T, s) input sequence,
    dropout off."""
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2 or sequence.shape[1] != model.input_dim or not len(sequence):
        raise ValidationError(f"sequence shape {sequence.shape} is not (T >= 1, "
                              f"input dim {model.input_dim})")
    xn = model.normalize(sequence)[None, :, :]
    out, cache = _forward_batch(model, xn, False, None)
    return model.denormalize(out[0]), cache


def loss_and_grads(model: LstmModel, xb: np.ndarray, yb: np.ndarray,
                   training: bool = True,
                   rng: np.random.Generator | None = None,
                   workspace: Workspace | None = None,
                   helper: _Helper | None = None
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared error over a normalized batch plus its gradients.
    The batch runs on `workspace` when given (see `Workspace`), else on a
    fresh one; the workspace is overwritten, and the result does not
    depend on what it held.  Likewise its products run on `helper`'s
    thread when given one, else on this one."""
    out, cache = _forward_batch(model, xb, training, rng, workspace, helper)
    diff = out - yb
    loss = float(np.mean(diff ** 2))
    dout = 2.0 * diff / diff.size
    return loss, _backward_batch(model, cache, dout, helper)


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


def train(ts: TimeSeries, cfg: TrainConfig) -> tuple[LstmModel, list[float]]:
    """Fit the network on the one-step targets of the first 1 - _HOLD_OUT
    of the windows; the rows after them do not reach the model.  Returns
    the model and the per-epoch training RMSE (de-normalized units).

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
    workspace = Workspace(min(cfg.batch_size, n_train), cfg.window, s, cfg.hidden_dim)
    history: list[float] = []
    scale2 = float(np.mean(model.norm_std ** 2))
    with _Helper() as helper:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_train)
            sq_sum = 0.0
            count = 0
            for start in range(0, n_train, cfg.batch_size):
                sel = order[start:start + cfg.batch_size]
                loss, grads = loss_and_grads(model, inputs[sel], targets[sel], training=True,
                                             rng=rng, workspace=workspace, helper=helper)
                if not np.isfinite(loss):
                    raise TrainingDivergenceError(epoch)
                sq_sum += loss * sel.size
                count += sel.size
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
    first, _ = lstm_forward(model, seed_window)
    T, H, p = len(seed_window), model.hidden_dim, model.params
    Wx, Wh, b = _gate_major(p["Wx"]), _gate_major(p["Wh"]), p["b"].reshape(4, 1, H)
    seq = np.empty((T + horizon, model.input_dim))
    seq[:T] = seed_window
    seq[T] = first
    h, c = np.zeros((T + 1, H)), np.zeros((T + 1, H))
    # flat, so each wave's (4, B, H) view is contiguous, as in a Workspace
    z, tc = np.empty(4 * T * H), np.empty((T, H))
    # window 1 reads row 1 at wave 1; window horizon - 1 ends at wave T + horizon - 2
    for tau in range(1, T + horizon - 1 if horizon > 1 else 1):
        # window tau - p sits at position p, for p in lo..hi-1; each moves up one
        lo, hi = max(0, tau - horizon + 1), min(tau, T)
        zt = z[:4 * (hi - lo) * H].reshape(4, hi - lo, H)
        np.matmul(h[lo:hi], Wh, out=zt)
        zt += np.matmul(model.normalize(seq[tau:tau + 1]), Wx) + b
        _step(zt, c[lo:hi], c[lo + 1:hi + 1], tc[:hi - lo], h[lo + 1:hi + 1])
        if hi == T:
            seq[tau + 1] = model.denormalize(_head(p, h[T:])[2][0])
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
    return LstmModel(input_dim=s, hidden_dim=H, dense_dim=D,
                     params=dict(zip(_PARAM_ORDER, weights)), dropout_rate=dropout,
                     norm_mean=mean, norm_std=std)
