import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsesense import forecast
from sparsesense.errors import TrainingDivergenceError, ValidationError
from sparsesense.forecast import (
    AdamState,
    TimeSeries,
    TrainConfig,
    Workspace,
    init_model,
    interpolate_uniform,
    load_model,
    loss_and_grads,
    lstm_forward,
    make_windows,
    predict_multistep,
    rmse,
    save_model,
    train,
)


def tiny_model(input_dim=2, hidden=3, dense=3, seed=5, dropout=0.0):
    cfg = TrainConfig(window=4, hidden_dim=hidden, dense_dim=dense,
                      dropout=dropout, seed=seed)
    rng = np.random.default_rng(seed)
    return init_model(input_dim, cfg, np.zeros(input_dim), np.ones(input_dim), rng)


# ----------------------------------------------------------------------
# interpolation


def test_interpolate_identity_on_uniform_series():
    ts = TimeSeries(np.arange(5) * 0.5, np.arange(10.0).reshape(5, 2))
    out = interpolate_uniform(ts, 0.5)
    np.testing.assert_allclose(out.values, ts.values)
    np.testing.assert_allclose(out.timestamps, ts.timestamps)


def test_interpolate_linear_midpoint():
    ts = TimeSeries(np.array([0.0, 1.0]), np.array([[0.0], [10.0]]))
    out = interpolate_uniform(ts, 0.5)
    np.testing.assert_allclose(out.values[:, 0], [0.0, 5.0, 10.0])


def test_interpolate_matches_two_neighbor_oracle():
    rng = np.random.default_rng(12)
    t = np.sort(rng.uniform(0, 20, size=40))
    v = rng.standard_normal((40, 3))
    dt = 0.7
    out = interpolate_uniform(TimeSeries(t, v), dt)
    for k, tq in enumerate(out.timestamps):
        j = np.searchsorted(t, tq, side="right") - 1
        if j >= len(t) - 1:
            want = v[-1]
        else:
            w = (tq - t[j]) / (t[j + 1] - t[j])
            want = (1 - w) * v[j] + w * v[j + 1]
        np.testing.assert_allclose(out.values[k], want, atol=1e-10)


def test_interpolate_collapses_duplicate_timestamps():
    ts = TimeSeries(np.array([0.0, 1.0, 1.0, 2.0]),
                    np.array([[0.0], [2.0], [4.0], [6.0]]))
    out = interpolate_uniform(ts, 1.0)
    np.testing.assert_allclose(out.values[:, 0], [0.0, 3.0, 6.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_time_series_rejects_non_finite_timestamps(bad):
    with pytest.raises(ValidationError):
        TimeSeries(np.array([0.0, 1.0, bad]), np.zeros((3, 1)))


def test_interpolate_degenerate_input():
    with pytest.raises(ValidationError):
        interpolate_uniform(TimeSeries(np.array([1.0, 1.0]),
                                       np.zeros((2, 1))), 0.5)


@pytest.mark.parametrize("dt", [1e-17, 1e-300, 5e-324])
def test_interpolate_rejects_a_grid_no_array_can_hold(dt):
    ts = TimeSeries(np.array([0.0, 40.0, 100.0]), np.zeros((3, 2)))
    with pytest.raises(ValidationError, match="dt"):
        interpolate_uniform(ts, dt)


# ----------------------------------------------------------------------
# windowing


def test_make_windows_counts():
    values = np.arange(51.0)[:, None]
    inputs, targets = make_windows(values, 50)
    assert inputs.shape == (1, 50, 1) and targets.shape == (1, 1)
    inputs, targets = make_windows(np.zeros((150, 2)), 50)
    assert inputs.shape[0] == targets.shape[0] == 100


def test_make_windows_ramp_target():
    values = np.arange(200.0)[:, None]
    inputs, targets = make_windows(values, 50)
    np.testing.assert_array_equal(inputs[3, :, 0], np.arange(3.0, 53.0))
    np.testing.assert_array_equal(targets[:, 0], np.arange(50.0, 200.0))


def test_make_windows_are_views_and_a_batch_is_a_copy():
    values = np.arange(60.0).reshape(20, 3)
    inputs, targets = make_windows(values, 5)
    assert np.shares_memory(inputs, values) and np.shares_memory(targets, values)
    batch = inputs[np.array([4, 0, 9])]
    assert batch.flags.c_contiguous and not np.shares_memory(batch, values)
    np.testing.assert_array_equal(batch[0], values[4:9])


def test_make_windows_too_short():
    with pytest.raises(ValidationError):
        make_windows(np.zeros((10, 1)), 10)


@pytest.mark.parametrize("call", [
    lambda: train(TimeSeries(np.arange(30.0), np.zeros((30, 1))), TrainConfig(window=5, seed=-1)),
    lambda: make_windows(np.zeros((10, 1)), 0),
    lambda: make_windows(np.zeros((10, 1)), -3),
], ids=["negative seed", "window 0", "window -3"])
def test_bad_arguments_raise_validation_error_not_numpys(call):
    with pytest.raises(ValidationError):
        call()


# ----------------------------------------------------------------------
# forward pass


def test_zero_weights_give_zero_output_and_mean_prediction():
    model = tiny_model()
    for p in model.params.values():
        p[:] = 0.0
    model.norm_mean[:] = np.array([1.5, -2.0])
    seq = np.random.default_rng(0).standard_normal((4, 2))
    pred, _ = lstm_forward(model, seq)
    np.testing.assert_allclose(pred, model.norm_mean, atol=1e-15)


def test_hand_computed_scalar_cell():
    model = tiny_model(input_dim=1, hidden=1, dense=1)
    for p in model.params.values():
        p[:] = 0.0
    H = 1
    model.params["b"][0] = 10.0        # input gate bias
    model.params["b"][H] = 0.0         # forget gate bias (init writes +1)
    model.params["Wx"][0, 2 * H] = 1.0  # candidate input weight
    _, cache = lstm_forward(model, np.array([[1.0]]))
    c = cache["cs"][-1][0, 0]
    h = cache["hs"][-1][0, 0]
    sigma10 = 1.0 / (1.0 + math.exp(-10.0))
    assert c == pytest.approx(math.tanh(1.0) * sigma10, abs=1e-6)
    assert h == pytest.approx(0.5 * math.tanh(c), abs=1e-6)
    assert c == pytest.approx(0.76157, abs=1e-4)
    assert h == pytest.approx(0.32095, abs=1e-4)


def test_inference_deterministic_and_pure():
    model = tiny_model(dropout=0.2)
    seq = np.random.default_rng(1).standard_normal((4, 2))
    before = {k: v.copy() for k, v in model.params.items()}
    p1, _ = lstm_forward(model, seq)
    p2, _ = lstm_forward(model, seq)
    np.testing.assert_array_equal(p1, p2)
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])


def test_dropout_only_active_in_training():
    model = tiny_model(dropout=0.5)
    xb = np.random.default_rng(2).standard_normal((1, 4, 2))
    rng = np.random.default_rng(0)
    outs = {tuple(forecast._forward_batch(model, xb, True, rng)[0][0]) for _ in range(8)}
    assert len(outs) > 1  # masks vary across calls
    with pytest.raises(ValidationError):
        forecast._forward_batch(model, xb, True, None)


def test_forward_shape_validation():
    model = tiny_model()
    with pytest.raises(ValidationError):
        lstm_forward(model, np.zeros((4, 3)))
    with pytest.raises(ValidationError):  # no rows: no forecast, not the biases
        lstm_forward(model, np.zeros((0, 2)))


# ----------------------------------------------------------------------
# gradients


def test_bptt_gradients_match_finite_differences():
    model = tiny_model()
    rng = np.random.default_rng(5)
    xb = rng.standard_normal((3, 4, 2))
    yb = rng.standard_normal((3, 2))
    _, grads = loss_and_grads(model, xb, yb, training=False)
    h = 1e-5
    for name, W in model.params.items():
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = W[ix]
            W[ix] = orig + h
            lp, _ = loss_and_grads(model, xb, yb, training=False)
            W[ix] = orig - h
            lm, _ = loss_and_grads(model, xb, yb, training=False)
            W[ix] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[name][ix]
            if abs(fd - g) > 1e-7:
                assert abs(fd - g) / max(abs(fd), abs(g)) <= 1e-4, (name, ix)


def reference_loss_and_grads(model, xb, yb, rng):
    """The per-step loop the training batch used to run, batch-major with
    fresh arrays every step and dWh accumulated inside BPTT: the oracle
    for the time-major workspace."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    B, T, s = xb.shape
    H, p = model.hidden_dim, model.params
    zx = (xb.reshape(B * T, s) @ p["Wx"]).reshape(B, T, 4 * H) + p["b"]
    gates, cs, hs = [], [np.zeros((B, H))], [np.zeros((B, H))]
    for t in range(T):
        z = zx[:, t, :] + hs[t] @ p["Wh"]
        i, f = sigmoid(z[:, :H]), sigmoid(z[:, H:2 * H])
        g, o = np.tanh(z[:, 2 * H:3 * H]), sigmoid(z[:, 3 * H:])
        cs.append(f * cs[t] + i * g)
        tc = np.tanh(cs[-1])
        hs.append(o * tc)
        gates.append((i, f, g, o, tc))
    hd, mask = hs[T], None
    if model.dropout_rate > 0.0:
        keep = 1.0 - model.dropout_rate
        mask = (rng.random((B, H)) < keep) / keep
        hd = hd * mask
    pre_dense = hd @ p["Wd"] + p["bd"]
    dense = np.maximum(pre_dense, 0.0)
    diff = dense @ p["Wo"] + p["bo"] - yb
    dout = 2.0 * diff / diff.size
    grads = {"bo": dout.sum(axis=0), "Wo": dense.T @ dout}
    ddense = np.where(pre_dense > 0, dout @ p["Wo"].T, 0.0)
    grads["bd"], grads["Wd"] = ddense.sum(axis=0), hd.T @ ddense
    dh = ddense @ p["Wd"].T
    if mask is not None:
        dh = dh * mask
    dc, dWh, dzx = np.zeros((B, H)), np.zeros_like(p["Wh"]), np.empty((B, T, 4 * H))
    for t in range(T - 1, -1, -1):
        i, f, g, o, tc = gates[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * cs[t] * f * (1.0 - f),
                             dc * i * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dzx[:, t, :] = dz
        dWh += hs[t].T @ dz
        dh = dz @ p["Wh"].T
        dc = dc * f
    flat = dzx.reshape(B * T, 4 * H)
    grads.update(Wh=dWh, Wx=xb.reshape(B * T, s).T @ flat, b=flat.sum(axis=0))
    return float(np.mean(diff ** 2)), grads


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 6), extra=st.integers(0, 3), T=st.integers(1, 8),
       s=st.integers(1, 4), H=st.integers(1, 6), dropout=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(B=1, extra=2, T=1, s=1, H=1, dropout=0.0, seed=0)
@example(B=5, extra=3, T=8, s=3, H=6, dropout=0.3, seed=1)
def test_workspace_reuse_matches_fresh_and_per_step_reference(B, extra, T, s, H,
                                                              dropout, seed):
    model = random_model(s, H, 3, seed)
    model.dropout_rate = dropout
    data = np.random.default_rng(seed + 1)
    workspace = Workspace(B + extra, T, s, H)
    x_big = 1e3 * data.standard_normal((B + extra, T, s))
    _, big = loss_and_grads(model, x_big, data.standard_normal((B + extra, s)), rng=data,
                            workspace=workspace)
    # BPTT left the larger batch's gate gradients in the gate buffer
    x, z = workspace.views(B + extra, T, s, H)[:2]
    dz_big = z.reshape(T * (B + extra), 4 * H)
    np.testing.assert_array_equal(x, x_big.transpose(1, 0, 2))
    np.testing.assert_array_equal(dz_big.sum(axis=0), big["b"])
    np.testing.assert_array_equal(x.reshape(-1, s).T @ dz_big, big["Wx"])
    xb, yb = data.standard_normal((B, T, s)), data.standard_normal((B, s))
    reused = loss_and_grads(model, xb, yb, rng=np.random.default_rng(seed), workspace=workspace)
    fresh = loss_and_grads(model, xb, yb, rng=np.random.default_rng(seed))
    want_loss, want = reference_loss_and_grads(model, xb, yb, np.random.default_rng(seed))
    assert reused[0] == fresh[0]
    assert abs(reused[0] - want_loss) <= 1e-12 * abs(want_loss)
    for k, g in want.items():
        np.testing.assert_array_equal(reused[1][k], fresh[1][k])
        assert np.abs(reused[1][k] - g).max() <= 1e-12 * np.abs(g).max(), k


def test_workspace_rejects_a_batch_it_cannot_hold():
    model = tiny_model()
    xb, yb = np.zeros((3, 4, 2)), np.zeros((3, 2))
    for workspace in (Workspace(2, 4, 2, 3), Workspace(3, 5, 2, 3), Workspace(3, 4, 2, 4)):
        with pytest.raises(ValidationError):
            loss_and_grads(model, xb, yb, training=False, workspace=workspace)


def test_training_batch_allocates_no_step_sized_buffer():
    B, T, s, H = 32, 50, 16, 128
    model = random_model(s, H, H, seed=8)
    data = np.random.default_rng(9)
    xb, yb = data.standard_normal((B, T, s)), data.standard_normal((B, s))
    workspace = Workspace(B, T, s, H)
    loss_and_grads(model, xb, yb, rng=data, workspace=workspace)
    tracemalloc.start()
    try:
        loss_and_grads(model, xb, yb, rng=data, workspace=workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (T, B, 4H) float64 buffer: what the gate-gradient buffer alone used
    # to take, before BPTT wrote dz over the spent gates
    assert peak < T * B * 4 * H * 8


def test_training_batch_working_set_is_the_five_workspace_buffers():
    B, T, s, H = 32, 50, 16, 128
    model = random_model(s, H, H, seed=8)
    data = np.random.default_rng(9)
    xb, yb = data.standard_normal((B, T, s)), data.standard_normal((B, s))
    tracemalloc.start()
    try:
        loss_and_grads(model, xb, yb, rng=data, workspace=Workspace(B, T, s, H))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # inputs, gates (which BPTT reuses for dz), cell and hidden states and
    # tanh(c), plus 1 MB for the returned gradients and per-batch scratch
    buffers = 8 * (T * B * s + T * 4 * B * H + 2 * (T + 1) * B * H + T * B * H)
    assert peak < buffers + 10**6, (peak, buffers)


def serial_loss_and_grads(model, xb, yb, rng):
    """The training batch as it ran before its products moved to a helper
    thread: one input projection before the time loop and the three
    weight-gradient products after BPTT, all on the calling thread.  The
    oracle for byte identity."""
    B, T, s = xb.shape
    H, p = model.hidden_dim, model.params
    x, z, cs, hs, tcs = Workspace(B, T, s, H).views(B, T, s, H)
    x[...] = xb.transpose(1, 0, 2)
    np.matmul(x[:, None], forecast._gate_major(p["Wx"]), out=z)
    z += p["b"].reshape(4, 1, H)
    cs[0] = 0.0
    hs[0] = 0.0
    Wh, zh = forecast._gate_major(p["Wh"]), np.empty((4, B, H))
    for t in range(T):
        if t:
            z[t] += np.matmul(hs[t], Wh, out=zh)
        forecast._step(z[t], cs[t], cs[t + 1], tcs[t], hs[t + 1])
    hd, mask = hs[T], None
    if model.dropout_rate > 0.0:
        keep = 1.0 - model.dropout_rate
        mask = (rng.random((B, H)) < keep) / keep
        hd = hd * mask
    pre_dense, dense, out = forecast._head(p, hd)
    diff = out - yb
    dout = 2.0 * diff / diff.size
    grads = {"bo": dout.sum(axis=0), "Wo": dense.T @ dout}
    ddense = np.where(pre_dense > 0, dout @ p["Wo"].T, 0.0)
    grads["bd"], grads["Wd"] = ddense.sum(axis=0), hd.T @ ddense
    dh = ddense @ p["Wd"].T
    if mask is not None:
        dh *= mask
    dc = np.zeros((B, H))
    tmp, tmp2, dzt = np.empty((B, H)), np.empty((B, H)), np.empty((B, 4 * H))
    dzi, dzf, dzg, dzo = dzt[:, :H], dzt[:, H:2 * H], dzt[:, 2 * H:3 * H], dzt[:, 3 * H:]
    for t in range(T - 1, -1, -1):
        i, f, g, o = z[t]
        tc = tcs[t]
        np.multiply(dh, tc, out=tmp)
        tmp *= o
        np.multiply(tmp, np.subtract(1.0, o, out=tmp2), out=dzo)
        np.multiply(dh, o, out=tmp)
        tmp *= np.subtract(1.0, np.multiply(tc, tc, out=tmp2), out=tmp2)
        dc += tmp
        np.multiply(dc, g, out=tmp)
        tmp *= i
        np.multiply(tmp, np.subtract(1.0, i, out=tmp2), out=dzi)
        np.multiply(dc, cs[t], out=tmp)
        tmp *= f
        np.multiply(tmp, np.subtract(1.0, f, out=tmp2), out=dzf)
        np.multiply(dc, i, out=tmp)
        np.multiply(tmp, np.subtract(1.0, np.multiply(g, g, out=tmp2), out=tmp2), out=dzg)
        if t:
            np.matmul(dzt, p["Wh"].T, out=dh)
            dc *= f
        z[t].reshape(B, 4 * H)[...] = dzt
    dz = z.reshape(T, B, 4 * H)
    rows = dz.reshape(T * B, 4 * H)
    grads["Wh"] = hs[1:T].reshape((T - 1) * B, H).T @ dz[1:].reshape((T - 1) * B, 4 * H)
    grads["Wx"] = x.reshape(T * B, s).T @ rows
    grads["b"] = rows.sum(axis=0)
    return float(np.mean(diff ** 2)), grads


@settings(max_examples=30, deadline=None)
@given(B=st.integers(1, 40), T=st.integers(1, 60), s=st.integers(1, 40),
       H=st.integers(1, 160), dropout=st.sampled_from([0.0, 0.2]),
       seed=st.integers(0, 2**32 - 1))
@example(B=32, T=50, s=16, H=128, dropout=0.2, seed=0)   # the shipped batch
@example(B=3, T=21, s=400, H=6, dropout=0.0, seed=1)     # s >> H
@example(B=40, T=11, s=5, H=31, dropout=0.0, seed=2)     # 4H just below 128
@example(B=40, T=10, s=5, H=32, dropout=0.0, seed=3)     # one chunk, 4H = 128
@example(B=2, T=60, s=7, H=160, dropout=0.2, seed=4)
@example(B=4, T=51, s=5, H=129, dropout=0.0, seed=0)     # odd H: no column split
def test_overlapped_batch_equals_the_serial_batch_bit_for_bit(B, T, s, H, dropout, seed):
    model = random_model(s, H, 5, seed)
    model.dropout_rate = dropout
    data = np.random.default_rng(seed + 1)
    xb, yb = data.standard_normal((B, T, s)), data.standard_normal((B, s))
    want_loss, want = serial_loss_and_grads(model, xb, yb, np.random.default_rng(seed))
    for helper in (forecast._Helper(), None):
        with helper or contextlib.nullcontext():
            loss, grads = loss_and_grads(model, xb, yb, rng=np.random.default_rng(seed),
                                         helper=helper)
        assert loss == want_loss
        for k, g in want.items():
            np.testing.assert_array_equal(grads[k], g, err_msg=k)


def test_no_helper_thread_outlives_train():
    before = threading.active_count()
    t = np.arange(120) * 0.5
    train(TimeSeries(t, np.sin(t)[:, None]), small_cfg(window=25, epochs=2))
    assert threading.active_count() == before
    lstm_forward(random_model(2, 8, 3, seed=0), np.zeros((30, 2)))
    assert threading.active_count() == before
    with pytest.raises(TrainingDivergenceError), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(TimeSeries(t, np.sin(t)[:, None]),
              small_cfg(window=25, epochs=50, learning_rate=1e200, clip_norm=0.0))
    assert threading.active_count() == before


def test_an_exception_on_the_helper_reaches_the_caller(monkeypatch):
    project, failed = forecast._project, threading.Event()

    def project_or_fail(*args):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=60)  # the helper has taken the second chunk
            project(*args)
        else:
            failed.set()
            raise FloatingPointError("helper failed")

    monkeypatch.setattr(forecast, "_project", project_or_fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="helper failed"), forecast._Helper() as helper:
        loss_and_grads(random_model(2, 8, 3, seed=0), np.zeros((4, 25, 2)), np.zeros((4, 2)),
                       training=False, helper=helper)
    assert threading.active_count() == before


def test_a_lone_forward_pass_starts_no_thread_and_keeps_the_threaded_bytes(monkeypatch):
    model = random_model(16, 128, 128, seed=3)
    sequence = np.random.default_rng(4).standard_normal((50, 16))
    with forecast._Helper() as helper:
        out, _ = forecast._forward_batch(model, model.normalize(sequence)[None], False, None,
                                         helper=helper)
    want = model.denormalize(out[0])

    def start(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    pred, _ = lstm_forward(model, sequence)
    np.testing.assert_array_equal(pred, want)


def test_each_task_runs_once_on_whichever_thread_takes_it_first():
    before = threading.active_count()
    runs, started = [], threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over often, so the threads race
    try:
        with forecast._Helper() as helper:
            calls = [forecast._later(helper, started.set)]
            calls += [forecast._later(helper, partial(runs.append, k)) for k in range(200)]
            assert started.wait(timeout=60)
            for call in calls[::-1]:  # the caller runs what the helper has not reached
                call()
    finally:
        sys.setswitchinterval(interval)
    # the helper has run what it took, and has skipped the rest
    assert sorted(runs) == list(range(200))

    def fail():
        raise KeyError("late")

    with forecast._Helper() as helper:
        call = forecast._later(helper, fail)
        with pytest.raises(KeyError, match="late"):
            call()
    # the caller's own exception leaves the block, and the helper is joined
    with pytest.raises(ValueError), forecast._Helper() as helper:
        forecast._later(helper, fail)
        forecast._later(helper, fail)
        raise ValueError("caller")
    assert threading.active_count() == before


def test_the_helper_thread_keeps_the_error_state_it_was_made_in():
    with np.errstate(over="raise", under="ignore"):
        helper = forecast._Helper()
    seen, ran = [], threading.Event()

    def probe():
        seen.append((threading.current_thread(), np.geterr()))
        ran.set()

    assert np.geterr()["over"] != "raise"
    with helper:
        call = forecast._later(helper, probe)
        assert ran.wait(timeout=60)  # the helper, not this thread, runs the probe
        call()
    [(thread, err)] = seen
    assert thread is not threading.current_thread()
    assert (err["over"], err["under"]) == ("raise", "ignore")


def saturated_model():
    """Every gate pre-activation near -1000, where exp(-z) overflows."""
    model = random_model(2, 4, 3, seed=10)
    model.params["b"][:] = -1000.0
    return model


def test_saturated_gates_give_exact_limits_without_warnings():
    model = saturated_model()
    p = model.params
    window = np.random.default_rng(11).standard_normal((6, 2))
    # i = f = o = 0 exactly, so the state stays zero and the head sees h = 0
    want = model.denormalize((np.maximum(p["bd"], 0.0)[None] @ p["Wo"] + p["bo"])[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred, cache = lstm_forward(model, window)
        loss, grads = loss_and_grads(model, model.normalize(window)[None], np.zeros((1, 2)),
                                     rng=np.random.default_rng(0))
        rollout = predict_multistep(model, window, 4)
    np.testing.assert_array_equal(cache["hs"], 0.0)
    np.testing.assert_array_equal(pred, want)
    np.testing.assert_array_equal(rollout, np.tile(want, (4, 1)))
    assert math.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())


# ----------------------------------------------------------------------
# training


def constant_series(n=120, s=2, value=3.7):
    return TimeSeries(np.arange(n) * 0.5, np.full((n, s), value))


def small_cfg(**kw):
    base = dict(window=10, epochs=20, hidden_dim=16, dense_dim=16,
                dropout=0.0, learning_rate=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_constant_series():
    model, history = train(constant_series(), small_cfg())
    assert history[-1] <= 1e-3


def test_train_deterministic():
    ts = constant_series()
    cfg = small_cfg(epochs=3, dropout=0.2)
    m1, h1 = train(ts, cfg)
    m2, h2 = train(ts, cfg)
    assert h1 == h2
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])


def test_train_sinusoid_one_step():
    t = np.arange(500) * 0.5
    ts = TimeSeries(t, np.sin(2 * np.pi * t / 25.0)[:, None])
    model, history = train(ts, small_cfg(window=50, epochs=60,
                                         hidden_dim=32, dense_dim=32, seed=1))
    assert history[-1] <= 0.05  # amplitude is 1


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=2),
       steps=st.integers(1, 6), lr=st.sampled_from([1e-4, 1e-3, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(shape=[300, 300], steps=5, lr=1e-4, seed=0)
def test_adam_step_equals_textbook_expression_bit_for_bit(shape, steps, lr, seed):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(learning_rate=lr)
    params = {"w": rng.standard_normal(shape)}
    want, m, v = params["w"].copy(), np.zeros(shape), np.zeros(shape)
    adam = AdamState(params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        want = want - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        adam.step(params, {"w": g.copy()}, cfg)
        np.testing.assert_array_equal(params["w"], want)
        np.testing.assert_array_equal(adam.m["w"], m)
        np.testing.assert_array_equal(adam.v["w"], v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_raises():
    t = np.arange(80) * 0.5
    ts = TimeSeries(t, np.sin(t)[:, None])
    cfg = small_cfg(window=10, epochs=50, learning_rate=1e200, clip_norm=0.0)
    with pytest.raises(TrainingDivergenceError):
        train(ts, cfg)


def model_bytes(model):
    return [a.tobytes() for a in (model.norm_mean, model.norm_std,
                                  *(model.params[k] for k in forecast._PARAM_ORDER))]


@settings(max_examples=25, deadline=None)
@given(window=st.integers(1, 8), extra=st.integers(5, 40), s=st.integers(1, 3),
       batch=st.integers(1, 8), dropout=st.sampled_from([0.0, 0.3]),
       scale=st.sampled_from([1e-3, 1.0, 1e6]), seed=st.integers(0, 2**32 - 1))
def test_train_never_reads_the_held_out_rows(window, extra, s, batch, dropout, scale, seed):
    # the rows after the last fitted window's target are the training
    # hold-out: no value there may reach the model or its history
    n = window + extra
    n_train = max(1, math.ceil((1.0 - forecast._HOLD_OUT) * extra))
    first_unread = n_train + window
    assert first_unread < n
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.5
    values = rng.standard_normal((n, s))
    cfg = small_cfg(window=window, epochs=2, hidden_dim=4, dense_dim=3,
                    batch_size=batch, dropout=dropout, seed=seed)
    model, history = train(TimeSeries(t, values), cfg)

    changed = values.copy()
    at = rng.random((n - first_unread, s)) < 0.5
    at[rng.integers(at.shape[0]), rng.integers(s)] = True
    changed[first_unread:][at] = scale * rng.standard_normal(at.sum())
    model2, history2 = train(TimeSeries(t, changed), cfg)
    assert history2 == history
    assert model_bytes(model2) == model_bytes(model)

    # the row before them is the last target, and it does reach the model
    changed[first_unread - 1] += 1.0
    assert train(TimeSeries(t, changed), cfg)[1] != history


@pytest.mark.parametrize("window", [8, 50])   # at 8 <= _CHUNK the helper's last task is dWh's
def test_train_holds_one_gradient_set_at_a_time(monkeypatch, window):
    # the previous batch's gradients are gone before the next backward pass
    alive, last = [], []
    backward = forecast._backward_batch

    def watched(*args, **kwargs):
        alive.extend(ref() is not None for ref in last)
        grads = backward(*args, **kwargs)
        last[:] = [weakref.ref(g) for g in grads.values()]
        return grads

    monkeypatch.setattr(forecast, "_backward_batch", watched)
    n = 200
    ts = TimeSeries(np.arange(n) * 0.5, np.random.default_rng(0).standard_normal((n, 3)))
    train(ts, small_cfg(window=window, epochs=2, batch_size=16))
    assert alive and not any(alive)


def test_train_too_short_series():
    with pytest.raises(ValidationError):
        train(constant_series(n=5), small_cfg(window=10))


# ----------------------------------------------------------------------
# multi-step prediction


def test_predict_constant_fixed_point():
    ts = constant_series()
    model, _ = train(ts, small_cfg())
    preds = predict_multistep(model, ts.values[-10:], 20)
    assert np.abs(preds - 3.7).max() <= 1e-2


def test_predict_horizon_one_equals_forward():
    ts = constant_series()
    model, _ = train(ts, small_cfg(epochs=2))
    window = ts.values[-10:]
    one = predict_multistep(model, window, 1)
    direct, _ = lstm_forward(model, window)
    np.testing.assert_array_equal(one[0], direct)


def test_predict_sinusoid_envelope():
    t = np.arange(500) * 0.5
    vals = np.sin(2 * np.pi * t / 25.0)[:, None]
    ts = TimeSeries(t, vals)
    model, _ = train(ts, small_cfg(window=50, epochs=60,
                                   hidden_dim=32, dense_dim=32, seed=1))
    preds = predict_multistep(model, vals[-150:-100], 100)
    errs = np.abs(preds[:, 0] - vals[-100:, 0])
    assert errs.max() <= 0.2  # amplitude fraction over the whole horizon


def test_predict_shape_validation():
    model = tiny_model()
    with pytest.raises(ValidationError):
        predict_multistep(model, np.zeros((4, 3)), 5)
    with pytest.raises(ValidationError):
        predict_multistep(model, np.zeros((4, 2)), 0)
    with pytest.raises(ValidationError):
        predict_multistep(model, np.zeros((0, 2)), 5)


def random_model(s, H, D, seed):
    """A model whose every weight, bias and normalization entry is drawn,
    so no gate sits at its initial value."""
    rng = np.random.default_rng(seed)
    model = tiny_model(input_dim=s, hidden=H, dense=D, seed=seed)
    for v in model.params.values():
        v[...] = 0.7 * rng.standard_normal(v.shape)
    model.norm_mean[:] = rng.standard_normal(s)
    model.norm_std[:] = rng.uniform(0.5, 2.0, s)
    return model


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 4), H=st.integers(1, 8), D=st.integers(1, 4),
       T=st.integers(1, 12), horizon=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(s=2, H=5, D=3, T=12, horizon=3, seed=0)    # horizon < T
@example(s=2, H=5, D=3, T=7, horizon=7, seed=1)     # horizon = T
@example(s=3, H=8, D=4, T=4, horizon=30, seed=2)    # horizon > T
@example(s=1, H=1, D=1, T=1, horizon=2, seed=3)
def test_rollout_rows_equal_forward_pass_on_their_windows(s, H, D, T, horizon, seed):
    model = random_model(s, H, D, seed)
    window = np.random.default_rng(seed + 1).standard_normal((T, s))
    pred = predict_multistep(model, window, horizon)
    assert pred.shape == (horizon, s)
    np.testing.assert_array_equal(pred[0], lstm_forward(model, window)[0])
    # rows 1.. batch the recurrent product across windows: float64 rounding only
    seq = np.vstack([window, pred])
    want = np.array([lstm_forward(model, seq[k:k + T])[0] for k in range(horizon)])
    assert np.abs(pred - want).max() <= 1e-12 * np.abs(pred).max()


def _cell_rollout(model, seed_window, horizon):
    """The wavefront rollout on the [i, f, g, o] row layout: each wave's
    (B, 4H) pre-activations x @ Wx + b + h @ Wh in one GEMM per product,
    copied gate-major before `_step`.  The reference for the per-gate
    GEMMs of `predict_multistep`."""
    first, _ = lstm_forward(model, seed_window)
    T, H, p = len(seed_window), model.hidden_dim, model.params
    seq = np.empty((T + horizon, model.input_dim))
    seq[:T] = seed_window
    seq[T] = first
    h, c = np.zeros((T + 1, H)), np.zeros((T + 1, H))
    for tau in range(1, T + horizon - 1 if horizon > 1 else 1):
        lo, hi = max(0, tau - horizon + 1), min(tau, T)
        z = model.normalize(seq[tau:tau + 1]) @ p["Wx"] + p["b"] + h[lo:hi] @ p["Wh"]
        gates = np.ascontiguousarray(z.reshape(hi - lo, 4, H).transpose(1, 0, 2))
        c_next, tc, h_next = np.empty((3, hi - lo, H))
        forecast._step(gates, c[lo:hi], c_next, tc, h_next)
        c[lo + 1:hi + 1], h[lo + 1:hi + 1] = c_next, h_next
        if hi == T:
            seq[tau + 1] = model.denormalize(forecast._head(p, h[T:])[2][0])
    return seq[T:]


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 4), H=st.sampled_from([1, 3, 8, 32, 128]), D=st.integers(1, 4),
       T=st.integers(1, 12), kind=st.sampled_from(["one", "below T", "above T"]),
       offset=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
@example(s=2, H=128, D=3, T=12, kind="below T", offset=4, seed=0)
@example(s=3, H=8, D=4, T=5, kind="above T", offset=20, seed=1)
@example(s=1, H=3, D=2, T=9, kind="above T", offset=7, seed=2)
def test_rollout_equals_the_separate_cell_rollout(s, H, D, T, kind, offset, seed):
    horizon = {"one": 1, "below T": 1 + offset % max(T - 1, 1), "above T": T + 1 + offset}[kind]
    model = random_model(s, H, D, seed)
    window = np.random.default_rng(seed + 1).standard_normal((T, s))
    pred, want = predict_multistep(model, window, horizon), _cell_rollout(model, window, horizon)
    if H >= 8:
        np.testing.assert_array_equal(pred, want)
    else:
        # one GEMM per gate takes another BLAS path than the (B, 4H) one at
        # so few columns; 16,000 draws of this test's inputs differed by at
        # most 4.0e-15
        assert np.abs(pred - want).max() <= 1e-13 * np.abs(want).max()


def test_rollout_state_does_not_grow_with_horizon():
    model = random_model(16, 128, 16, seed=4)
    window = np.random.default_rng(5).standard_normal((50, 16))
    horizon = 20_000
    tracemalloc.start()
    try:
        pred = predict_multistep(model, window, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (horizon, H) state array alone would take 20 MB, h and c together 40
    assert peak < pred.nbytes + 16 * 2**20


@pytest.mark.parametrize("horizon", [1, 5, 100])
def test_rollout_runs_one_forward_pass_per_call(monkeypatch, horizon):
    calls = []
    direct = forecast.lstm_forward
    monkeypatch.setattr(forecast, "lstm_forward",
                        lambda *args, **kw: calls.append(1) or direct(*args, **kw))
    predict_multistep(random_model(2, 4, 3, seed=6), np.ones((10, 2)), horizon)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# rmse and normalization


def test_rmse_cases():
    assert rmse(np.ones((3, 2)), np.ones((3, 2))) == 0.0
    assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(25 / 2), abs=1e-5)
    with pytest.raises(ValidationError):
        rmse(np.zeros(2), np.zeros(3))


def test_rmse_matches_fsum_oracle():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((13, 7))
    b = rng.standard_normal((13, 7))
    oracle = math.sqrt(math.fsum((x - y) ** 2
                                 for x, y in zip(a.ravel(), b.ravel())) / a.size)
    assert rmse(a, b) == pytest.approx(oracle, rel=1e-12)


def test_normalization_round_trip():
    model = tiny_model()
    model.norm_mean[:] = [2.0, -1.0]
    model.norm_std[:] = [0.5, 3.0]
    x = np.random.default_rng(3).standard_normal((6, 2))
    np.testing.assert_allclose(model.denormalize(model.normalize(x)), x,
                               atol=1e-12)


# ----------------------------------------------------------------------
# serialization


def test_model_serialization_bit_exact(tmp_path):
    ts = constant_series()
    model, _ = train(ts, small_cfg(epochs=2, dropout=0.2))
    path = tmp_path / "model.lstm"
    save_model(model, path)
    loaded = load_model(path)
    for k in model.params:
        np.testing.assert_array_equal(loaded.params[k], model.params[k])
    np.testing.assert_array_equal(loaded.norm_mean, model.norm_mean)
    assert loaded.dropout_rate == model.dropout_rate
    save_model(loaded, tmp_path / "again.lstm")
    assert (tmp_path / "again.lstm").read_bytes() == path.read_bytes()


def test_model_rejects_wrong_magic(tmp_path):
    bad = tmp_path / "bad.lstm"
    bad.write_bytes(b"XXXX" + b"\0" * 64)
    with pytest.raises(ValidationError):
        load_model(bad)
