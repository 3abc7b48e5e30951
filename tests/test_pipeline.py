import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsesense import cli, decompose, forecast, matio, osp, pipeline
from sparsesense.config import RunConfig, parse_config
from sparsesense.rng import NORMAL_BOUND
from sparsesense.synth import GroundTruthSpec

SMALL_CFG = """\
synth.m = 60
synth.n = 80
synth.rank = 2
synth.scenario = 2
synth.n_outliers = 6
synth.seed = 3
osp.r = 2
osp.s = 2
train.window = 10
train.horizon = 5
train.holdout = 5
train.epochs = 2
train.batch_size = 16
train.hidden_dim = 8
train.dense_dim = 8
train.dropout = 0.0
train.learning_rate = 0.001
train.seed = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full small run; read-only for the tests that share it."""
    root = tmp_path_factory.mktemp("ws")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    out = root / "out"
    cfg = parse_config(cfg_path)
    reports = pipeline.run_all(cfg, out)
    return cfg_path, cfg, out, reports


def mutable_copy(workspace, tmp_path):
    cfg_path, cfg, out, _ = workspace
    dest = tmp_path / "out"
    shutil.copytree(out, dest)
    return cfg_path, cfg, dest


def test_run_all_produces_every_artifact(workspace):
    _, _, out, reports = workspace
    expected = [
        pipeline.TRUTH_FILE, pipeline.PERTURBED_FILE, pipeline.MASK_FILE,
        pipeline.TIMESTAMPS_FILE, pipeline.CLEAN_L_FILE, pipeline.CLEAN_S_FILE,
        pipeline.RESIDUALS_FILE, pipeline.BASIS_FILE, pipeline.MEASUREMENTS_FILE,
        pipeline.MODEL_FILE, pipeline.HISTORY_FILE, pipeline.PRED_SPARSE_FILE,
        pipeline.PRED_FULL_FILE, pipeline.RMSE_FILE,
    ]
    for name in expected:
        assert (out / name).exists(), name
    for stage in reports:
        assert (out / f"report_{stage}.json").exists()
    assert set(reports) == {"synth", "clean", "compress", "train",
                            "predict", "evaluate"}


def test_clean_residuals_trace_each_iteration(workspace):
    _, cfg, out, reports = workspace
    lines = (out / pipeline.RESIDUALS_FILE).read_text().splitlines()
    assert lines[0] == "iteration,residual,mu,kept,dual_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == reports["clean"]["metrics"]["iterations"]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert float(rows[-1][1]) == reports["clean"]["metrics"]["final_residual"]
    mus = [float(r[2]) for r in rows]
    assert all(b in (a, 1.5 * a) for a, b in zip(mus, mus[1:]))
    assert int(rows[-1][3]) == 2  # the rank of the synthetic truth
    # the inner-solve cost, as the solver counted it
    again = decompose.rpca(matio.read_matrix(out / pipeline.PERTURBED_FILE), cfg.rpca)
    metrics = reports["clean"]["metrics"]
    assert (metrics["svt_sweeps"], metrics["svt_full_svds"]) == (again.svt_sweeps,
                                                                again.svt_full_svds)
    assert again.svt_sweeps + again.svt_full_svds >= again.iterations
    assert "clean_S.rbdm" in reports["clean"]["manifest"]
    assert pipeline.RESIDUALS_FILE in reports["clean"]["manifest"]


def test_synth_outputs_and_report(workspace):
    _, _, out, reports = workspace
    assert (out / pipeline.TRUTH_FILE).stat().st_size == 16 + 8 * 60 * 80
    metrics = reports["synth"]["metrics"]
    assert metrics["masked"] == 6 * 80  # n_outliers per frame
    mask = matio.read_matrix(out / pipeline.MASK_FILE)
    assert mask.sum() == 6 * 80


def test_superposition_report_lists_component_masks(tmp_path):
    # 6 outliers and round(0.10 * 60) corruptions in each of the 80 frames
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG.replace("synth.scenario = 2", "synth.scenario = 4"))
    report = pipeline.cmd_synth(parse_config(cfg_path), tmp_path)
    comp = report["metrics"]["component_masked"]
    assert set(comp) == {"noise", "outliers", "corruptions"}
    assert comp["noise"] == 0          # additive noise is never masked
    assert comp["outliers"] == 6 * 80
    assert comp["corruptions"] == round(0.10 * 60) * 80
    # composed mask can be smaller than the sum when components overlap
    assert max(comp.values()) <= report["metrics"]["masked"] \
        <= comp["outliers"] + comp["corruptions"]


def test_rerun_manifests_byte_identical(workspace, tmp_path):
    cfg_path, cfg, out, reports = workspace
    out2 = tmp_path / "rerun"
    out2.mkdir()
    reports2 = pipeline.run_all(cfg, out2)
    assert pipeline.combined_manifest(reports) == pipeline.combined_manifest(reports2)


def test_seed_override_changes_outputs(workspace, tmp_path):
    cfg_path, _, out, reports = workspace
    out2 = tmp_path / "seeded"
    out2.mkdir()
    reports2 = pipeline.run_all(parse_config(cfg_path, seed=99), out2)
    m1 = pipeline.combined_manifest(reports)
    m2 = pipeline.combined_manifest(reports2)
    assert m1[pipeline.TRUTH_FILE] != m2[pipeline.TRUTH_FILE]


def test_stage_rerun_reproduces_outputs(workspace, tmp_path):
    cfg_path, cfg, out = mutable_copy(workspace, tmp_path)
    before = (out / pipeline.CLEAN_L_FILE).read_bytes()
    pipeline.cmd_clean(cfg, out)
    assert (out / pipeline.CLEAN_L_FILE).read_bytes() == before


def test_predict_consistent_with_basis_and_model(workspace):
    _, cfg, out, _ = workspace
    basis = osp.load_basis(out / pipeline.BASIS_FILE)
    model = forecast.load_model(out / pipeline.MODEL_FILE)
    pred_sparse = matio.read_matrix(out / pipeline.PRED_SPARSE_FILE)
    pred_full = matio.read_matrix(out / pipeline.PRED_FULL_FILE)
    assert pred_sparse.shape == (2, 5)
    assert pred_full.shape == (60, 5)
    np.testing.assert_array_equal(pred_full, osp.reconstruct(pred_sparse, basis))
    # first forecast step equals a direct one-step forward pass
    Y = matio.read_matrix(out / pipeline.MEASUREMENTS_FILE)
    window = Y.T[:-5][-10:]  # training span minus holdout, last window rows
    one_step, _ = forecast.lstm_forward(model, window)
    np.testing.assert_array_equal(pred_sparse[:, 0], one_step)


def test_evaluate_zero_error_on_perfect_prediction(workspace, tmp_path):
    cfg_path, cfg, out = mutable_copy(workspace, tmp_path)
    truth = matio.read_matrix(out / pipeline.TRUTH_FILE)
    matio.write_matrix(truth[:, -5:], out / pipeline.PRED_FULL_FILE)
    report = pipeline.cmd_evaluate(cfg, out)
    assert report["metrics"]["mean_rmse"] == 0.0
    per_step = np.loadtxt(out / pipeline.RMSE_FILE, delimiter=",",
                          skiprows=1, ndmin=2)
    assert per_step.shape[0] == 5
    assert not per_step[:, 1].any()


# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 2**64 + 3])  # seeds are masked to 64 bits
def test_sample_times_golden_bytes(seed):
    # n = 1000 takes 999 draws on one stream, a block that jumps ahead
    for n, want in [
            (57, "702784fc1743183cab911da53a7942488bdc4fa15750059abd06f27fc0c1f1ae"),
            (1000, "f59f45b7deddc6419114cf60bf071134b78e50650683e3fb9fc611639d648459")]:
        cfg = RunConfig(ground_truth=GroundTruthSpec(m=4, n=n, rank=1, seed=seed),
                        time_jitter=0.4)
        times = pipeline._sample_times(cfg)
        assert hashlib.sha256(times.tobytes()).hexdigest() == want, n


def test_run_all_draws_the_timestamps_once(tmp_path, monkeypatch):
    sample, calls = pipeline._sample_times, []
    monkeypatch.setattr(pipeline, "_sample_times", lambda cfg: calls.append(cfg) or sample(cfg))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + "synth.time_jitter = 0.3\n")
    pipeline.run_all(parse_config(cfg_path), tmp_path / "out")
    assert len(calls) == 1


# command-line interface


def test_cli_full_run_exit_zero(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / pipeline.RMSE_FILE).exists()


def test_cli_import_loads_neither_concurrent_futures_nor_logging():
    # a guard on set-up time: after numpy, importing concurrent.futures (which
    # pulls in logging) takes 10-12 ms, logging alone about 7 ms
    src = Path(pipeline.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", "import sys, sparsesense.cli; "
         "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_cli_unknown_config_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    for key in ("synth.bogus", "train.val_fraction"):   # the second was a key once
        cfg_path.write_text(f"{key} = 0.1\n")
        assert cli.main(["synth", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 2
        assert f"error: {cfg_path}:1: unknown key '{key}'" in capsys.readouterr().err


def test_cli_invalid_input_exit_2_and_no_partial_output(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    bad = np.zeros((6, 6))
    bad[0, 0] = np.nan
    matio.write_matrix(bad, tmp_path / pipeline.PERTURBED_FILE)
    assert cli.main(["clean", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / pipeline.CLEAN_L_FILE).exists()
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_cli_nonconvergence_exit_3_with_outputs(workspace, tmp_path, capsys):
    cfg_path, cfg, out = mutable_copy(workspace, tmp_path)
    strict = tmp_path / "strict.cfg"
    strict.write_text(SMALL_CFG + "rpca.max_iters = 1\nrpca.tol = 1e-16\n")
    (out / pipeline.CLEAN_L_FILE).unlink()
    assert cli.main(["clean", "--config", str(strict), "--out", str(out)]) == 3
    assert "converge" in capsys.readouterr().err
    assert (out / pipeline.CLEAN_L_FILE).exists()  # result is still usable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_training_divergence_exit_3(workspace, tmp_path, capsys):
    cfg_path, cfg, out = mutable_copy(workspace, tmp_path)
    hot = tmp_path / "hot.cfg"
    hot.write_text(SMALL_CFG.replace("train.learning_rate = 0.001",
                                     "train.learning_rate = 1e200")
                   + "train.clip_norm = 0\n")
    assert cli.main(["train", "--config", str(hot), "--out", str(out)]) == 3


@pytest.mark.parametrize("bad_line", [
    "rpca.lambda = abc",
    "synth.scenario = 7",
    "rpca.mu = -1",
    # no number may move mu_0 off 1.25 / ||X||_2: inf and 1e-320 break the
    # SVD, and 1e300 reports `converged` on a full-rank L
    "rpca.mu = inf",
    "rpca.mu = 1e-320",
    "rpca.mu = 1e300",
    "rpca.mu = 1e-5",
    # synth.per_frame is retired: every scenario perturbs frame by frame
    "synth.per_frame = false",
    "synth.per_frame = 0",
    "synth.per_frame = no",
    "rpca.lambda = nan",
    "train.learning_rate = nan",
    "train.learning_rate = inf",
    "osp.s = 1",                  # below osp.r = 2
    "train.interpolate = maybe",
    "train.window = 0",
    "rpca.mu_growth = 1.5",       # no longer a key
    "synth.outlier_hi_min = nan",
    "synth.outlier_hi_max = inf",
    "train.clip_norm = nan",
    "train.clip_norm = -1",
    "evaluate.baseline = x",      # no longer a key
    "train.val_fraction = 0.1",   # no longer a key: train holds out a fixed 20 %
    "synth.seed = -1",
    "train.seed = -1",
    "evaluate.pgm = true\nevaluate.frame_width = 7",   # 7 does not divide m = 60
    "osp.s = 61",                 # more sensors than m = 60 rows
    "osp.r = 61\nosp.s = 61",     # more modes than min(m, n) = 60
    "train.holdout = 80",         # no training frame of n = 80 left
    "train.window = 90",          # longer than the 75 training frames
    "train.window = 75",          # as long as them: no one-step target left
    # 75 jittered frames over ~37 time units make a 19-row grid at dt 2
    "train.interpolate = true\ntrain.dt = 2\nsynth.time_jitter = 0.2\ntrain.window = 60",
])
def test_cli_bad_config_value_exit_2_before_any_stage(tmp_path, capsys, bad_line):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + bad_line + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["run.cfg"]


def test_cli_synth_stage_runs_with_holdout_reaching_n(tmp_path):
    # a synth-only config (perfbench's synth-mix) keeps the default holdout
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + "train.holdout = 80\n")
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report_synth.json").exists()


def test_cli_negative_seed_flag_exit_2_before_any_stage(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("report_*.json"))


def test_cli_seed_above_64_bits_runs_and_reduces_modulo_2_64(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    big, small = tmp_path / "big", tmp_path / "small"
    assert cli.main(["run", "--config", str(cfg_path), "--seed", str(2**64 + 5),
                     "--out", str(big)]) == 0
    assert cli.main(["synth", "--config", str(cfg_path), "--seed", "5", "--out", str(small)]) == 0
    for name in (pipeline.TRUTH_FILE, pipeline.PERTURBED_FILE, pipeline.MASK_FILE,
                 pipeline.TIMESTAMPS_FILE):
        assert (big / name).read_bytes() == (small / name).read_bytes()


@pytest.mark.parametrize("artifact", [pipeline.MODEL_FILE, pipeline.BASIS_FILE])
@pytest.mark.parametrize("keep", [10, -8])  # inside the header, inside the payload
def test_cli_truncated_artifact_exit_2(workspace, tmp_path, capsys, artifact, keep):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    path = out / artifact
    path.write_bytes(path.read_bytes()[:keep])
    assert cli.main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("bad_row", ["abc", "nan"])
def test_cli_bad_timestamps_exit_2(workspace, tmp_path, capsys, bad_row):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    interp = tmp_path / "interp.cfg"
    interp.write_text(SMALL_CFG + "train.interpolate = true\n")
    path = out / pipeline.TIMESTAMPS_FILE
    lines = path.read_text().splitlines()
    lines[3] = bad_row
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--config", str(interp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("stage", ["train", "predict"])
@pytest.mark.parametrize("rows", [70, 84])  # fewer and more than the 80 frames
def test_cli_timestamps_not_one_per_frame_exit_2(workspace, tmp_path, capsys, stage, rows):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    path = out / pipeline.TIMESTAMPS_FILE
    matio.write_matrix_csv(0.5 * np.arange(rows, dtype=np.float64)[:, None], path)
    assert cli.main([stage, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"{rows} rows" in err and "80 frames" in err


@pytest.mark.parametrize("stage", ["train", "predict"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cli_non_finite_measurements_exit_2(workspace, tmp_path, capsys, stage, bad):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    path = out / pipeline.MEASUREMENTS_FILE
    values = matio.read_matrix(path)
    values[1, 3] = bad
    matio.write_matrix(values, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # bad input, not a numpy warning from training
        assert cli.main([stage, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "non-finite" in err and "Traceback" not in err


def test_cli_missing_input_exit_4(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    empty = tmp_path / "empty"
    assert cli.main(["clean", "--config", str(cfg_path),
                     "--out", str(empty)]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"stage": "train", "elapsed', "{}", None])
def test_cli_evaluate_reads_no_earlier_report(workspace, tmp_path, text):
    # evaluate's inputs are the prediction and the truth; the other stages'
    # reports, missing (None) or malformed, change nothing it writes
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    for stage in ("synth", "clean", "compress", "train", "predict"):
        report = out / f"report_{stage}.json"
        report.unlink()
        if text is not None:
            report.write_text(text)
    (out / pipeline.RMSE_FILE).unlink()
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
    rmse = (out / pipeline.RMSE_FILE).read_bytes()
    assert rmse == (workspace[2] / pipeline.RMSE_FILE).read_bytes()


def test_cli_evaluate_truth_shorter_than_holdout_exit_2(workspace, tmp_path, capsys):
    # 3 truth frames against train.holdout = 5: negative indices would wrap
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    short = tmp_path / "short.rbdm"
    matio.write_matrix(matio.read_matrix(out / pipeline.TRUTH_FILE)[:, :3], short)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SMALL_CFG + f"evaluate.truth = {short}\n")
    assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "short.rbdm" in err and "holdout" in err


@pytest.mark.parametrize("name", [pipeline.TRUTH_FILE, "evaluate.truth", pipeline.PRED_FULL_FILE])
def test_cli_evaluate_non_finite_input_exit_2(workspace, tmp_path, capsys, name):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    (out / "report_evaluate.json").unlink()
    path = out / (pipeline.TRUTH_FILE if name == "evaluate.truth" else name)
    matrix = matio.read_matrix(path)
    matrix[7, -2] = math.nan  # in a frame the evaluation scores
    if name == "evaluate.truth":
        path = tmp_path / "nan.rbdm"
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(SMALL_CFG + f"evaluate.truth = {path}\n")
    matio.write_matrix(matrix, path)
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert path.name in err and "non-finite" in err and "Traceback" not in err
    assert not (out / "report_evaluate.json").exists()


def test_cli_evaluate_empty_prediction_exit_2(workspace, tmp_path, capsys):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    matio.write_matrix(np.zeros((60, 0)), out / pipeline.PRED_FULL_FILE)
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert pipeline.PRED_FULL_FILE in capsys.readouterr().err


def test_cli_evaluate_frame_shape_checked_before_any_output(workspace, tmp_path, capsys):
    # the config's m = 50 tiles as 2 x 25, the 60-row prediction does not
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    for name in (pipeline.RMSE_FILE, "report_evaluate.json"):
        (out / name).unlink()
    cfg = tmp_path / "pgm.cfg"
    cfg.write_text(SMALL_CFG.replace("synth.m = 60", "synth.m = 50")
                   + "evaluate.pgm = true\nevaluate.frame_width = 25\n")
    assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "frame_width" in capsys.readouterr().err
    for name in (pipeline.RMSE_FILE, "report_evaluate.json", "frames"):
        assert not (out / name).exists()


@pytest.mark.parametrize("stage, extra", [
    # a 1e-15 grid over the training span: ~3.7e16 rows
    ("train", "train.interpolate = true\ntrain.dt = 1e-15\n"),
    # a 1e16-step rollout buffer
    ("predict", "train.horizon = 10000000000000000\n"),
])
def test_cli_oversized_allocation_exit_2(workspace, tmp_path, capsys, stage, extra):
    _, _, out = mutable_copy(workspace, tmp_path)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SMALL_CFG + extra)
    assert cli.main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("extra, names", [
    # a grid over the training span longer than any array can address
    ("train.interpolate = true\ntrain.dt = 1e-17\n", "dt"),
    ("train.interpolate = true\ntrain.dt = 1e-300\n", "dt"),
    # finite frames whose Frobenius norm overflows reach the clean stage
    ("synth.amplitude = 1e308\n", "norm"),
])
def test_cli_input_out_of_float_range_exit_2(tmp_path, capsys, extra, names):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace("synth.m = 60", "synth.m = 40")
                   .replace("synth.n = 80", "synth.n = 120") + extra)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert names in err


SYNTH_40_CFG = SMALL_CFG.replace("synth.m = 60", "synth.m = 40").replace(
    "synth.n = 80", "synth.n = 120").replace("synth.scenario = 2", "synth.scenario = 4")


@pytest.mark.parametrize("extra", [
    "synth.noise_std = inf",
    "synth.noise_std = 1e308",    # finite, but 1e308 times a draw above 1.8 is not
    "synth.corruption_min = -1e308\nsynth.corruption_max = 1e308",
    "synth.outlier_hi_min = -1e308\nsynth.outlier_hi_max = 1e308",
    "synth.dt = inf",
    "synth.dt = 1e308\nsynth.time_jitter = 0.5",
    "synth.smoothness = 1e-300",     # the bump width squared underflows to 0
    "synth.smoothness = inf",        # flat bumps: a rank-1 truth
    "synth.amplitude = inf",
    "synth.amplitude = nan",
    "train.interpolate = true\ntrain.dt = inf",
])
def test_cli_synth_overflowing_draws_exit_2_before_any_stage(tmp_path, capsys, extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SYNTH_40_CFG + extra + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["run.cfg"]


@pytest.mark.parametrize("extra", [
    f"synth.noise_std = {0.999 * sys.float_info.max / NORMAL_BOUND!r}",
    "synth.corruption_min = -8e307\nsynth.corruption_max = 8e307",
    f"synth.dt = {0.999 * sys.float_info.max / (1.5 * 120)!r}\nsynth.time_jitter = 0.5",
    # the narrowest and the widest bumps whose 2 w**2 and d**2 / (2 w**2)
    # stay in range at m = 40: w = smoothness * m * [0.5, 1.5]
    f"synth.smoothness = {1.001 * math.sqrt(2.0 / sys.float_info.max)!r}",
    f"synth.smoothness = {0.999 * math.sqrt(sys.float_info.max / 2.0) / (1.5 * 40)!r}",
    "synth.amplitude = 1e300",
])
def test_cli_synth_draws_just_inside_float_range_are_finite(tmp_path, extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SYNTH_40_CFG + extra + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert np.isfinite(matio.read_matrix(out / pipeline.PERTURBED_FILE)).all()
    assert np.isfinite(matio.read_matrix_csv(out / pipeline.TIMESTAMPS_FILE)).all()


def test_cli_predict_model_output_width_mismatch_exit_2(workspace, tmp_path, capsys):
    cfg_path, _, out = mutable_copy(workspace, tmp_path)
    model = forecast.load_model(out / pipeline.MODEL_FILE)
    s, p = model.input_dim, dict(model.params)
    p["Wo"] = np.hstack([p["Wo"], p["Wo"][:, :1]])
    p["bo"] = np.append(p["bo"], 0.0)
    matio.write_record(out / pipeline.MODEL_FILE, forecast._MODEL,
                       (s, model.hidden_dim, model.dense_dim, s + 1, model.dropout_rate),
                       [model.norm_mean, model.norm_std,
                        *(p[name] for name in forecast._PARAM_ORDER)])
    assert cli.main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert pipeline.MODEL_FILE in err and "Traceback" not in err


SPANS_CFG = """\
synth.m = 40
synth.n = 60
synth.rank = 2
synth.scenario = 4
synth.n_outliers = 2
synth.time_jitter = 0.2
osp.r = 2
osp.s = 4
train.window = 5
train.horizon = 3
train.epochs = 1
train.hidden_dim = 4
train.dense_dim = 4
train.interpolate = true
"""

SPANS_CHILD = """\
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from sparsesense import config, pipeline
tracer = spans.Tracer()
wrapped = []
wrap = tracer.wrap
tracer.wrap = lambda name, fn, count=None: wrapped.append(name) or wrap(name, fn, count)
spans.install(tracer)
pipeline.run_all(config.parse_config(sys.argv[3]), Path(sys.argv[4]))
called = set(tracer.aggregate()["spans"])
print(len(wrapped), sorted(set(wrapped) - called))
"""


def test_perfbench_spans_reach_every_entry_point(tmp_path):
    """perfbench/spans.py times layers by wrapping module attributes by
    name; a run that reaches every target calls each wrapper at least once."""
    cfg = tmp_path / "spans.cfg"
    cfg.write_text(SPANS_CFG)
    root = Path(__file__).resolve().parents[1]
    src = Path(pipeline.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", SPANS_CHILD, str(root / "perfbench"), str(src),
         str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    count, missed = child.stdout.split(" ", 1)
    assert int(count) >= 30 and missed.strip() == "[]", child.stdout


def test_artifacts_get_plain_open_file_mode(workspace, tmp_path):
    cfg_path, _, out, _ = workspace
    old = os.umask(0o027)
    try:
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        osp.save_basis(osp.load_basis(out / pipeline.BASIS_FILE), tmp_path / "b.ospb")
        forecast.save_model(forecast.load_model(out / pipeline.MODEL_FILE),
                            tmp_path / "m.lstm")
    finally:
        os.umask(old)
    names = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert {"report_synth.json", pipeline.TRUTH_FILE, pipeline.TIMESTAMPS_FILE,
            "b.ospb", "m.lstm"} <= set(names)
    assert set(names.values()) == {0o640}


def _uncastable_last_array(out, name):
    """The writer of `name` and an artifact whose last array holds text."""
    if name == pipeline.TRUTH_FILE:
        return matio.write_matrix, np.full((3, 2), "x")
    if name == pipeline.BASIS_FILE:
        basis = osp.load_basis(out / name)
        return osp.save_basis, dataclasses.replace(
            basis, theta_pinv=np.full(basis.theta_pinv.shape, "x"))
    model = forecast.load_model(out / name)
    model.params["bo"] = np.full(model.params["bo"].shape, "x")
    return forecast.save_model, model


@pytest.mark.parametrize("name", [pipeline.TRUTH_FILE, pipeline.BASIS_FILE,
                                  pipeline.MODEL_FILE])
def test_writer_failing_partway_keeps_old_file(workspace, tmp_path, name):
    _, _, out = mutable_copy(workspace, tmp_path)
    write, bad = _uncastable_last_array(out, name)
    before = (out / name).read_bytes()
    with pytest.raises(ValueError):
        write(bad, out / name)
    assert (out / name).read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.startswith(".tmp-")]


# Every binary artifact, with a stage that reads it.
_READER_STAGE = {
    pipeline.PERTURBED_FILE: "clean",
    pipeline.CLEAN_L_FILE: "compress",
    pipeline.MEASUREMENTS_FILE: "train",
    pipeline.BASIS_FILE: "predict",
    pipeline.MODEL_FILE: "predict",
}


def _truncate(raw: bytes, at: int) -> bytes:
    return raw[:at % len(raw)]


def _flip_bit(raw: bytes, at: int) -> bytes:
    byte, bit = divmod(at % (8 * len(raw)), 8)
    return raw[:byte] + bytes([raw[byte] ^ 1 << bit]) + raw[byte + 1:]


def _max_matrix_dims(raw: bytes, at: int) -> bytes:
    return raw[:8] + b"\xff" * 8 + raw[16:]


def _append(raw: bytes, at: int) -> bytes:
    return raw + bytes(at)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(artifact=st.sampled_from(sorted(_READER_STAGE)),
       mutate=st.sampled_from([_truncate, _flip_bit]),
       at=st.integers(min_value=0))
# rows 2 -> 2**30 + 2 (640 GiB), then 0xFFFFFFFF x 0xFFFFFFFF, then 8 trailing bytes
@example(artifact=pipeline.MEASUREMENTS_FILE, mutate=_flip_bit, at=94)
@example(artifact=pipeline.PERTURBED_FILE, mutate=_max_matrix_dims, at=0)
@example(artifact=pipeline.PERTURBED_FILE, mutate=_append, at=8)
def test_cli_survives_damaged_artifacts(workspace, artifact, mutate, at):
    """A truncated, extended or bit-flipped artifact gives a documented
    exit code and no traceback; one whose length changed exits 2."""
    cfg_path, _, out, _ = workspace
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "out"
        shutil.copytree(out, work)
        raw = (work / artifact).read_bytes()
        damaged = mutate(raw, at)
        (work / artifact).write_bytes(damaged)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([_READER_STAGE[artifact], "--config", str(cfg_path),
                             "--out", str(work)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if len(damaged) != len(raw):
        assert code == 2 and artifact in err.getvalue()
