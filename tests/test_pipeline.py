import hashlib
import json
import shutil

import numpy as np
import pytest

from sparsesense import cli, forecast, matio, osp, pipeline
from sparsesense.config import RunConfig, parse_config
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
        pipeline.PRED_FULL_FILE, pipeline.RMSE_FILE, pipeline.TIMINGS_FILE,
    ]
    for name in expected:
        assert (out / name).exists(), name
    for stage in reports:
        assert (out / f"report_{stage}.json").exists()
    assert set(reports) == {"synth", "clean", "compress", "train",
                            "predict", "evaluate"}


def test_clean_residuals_trace_each_iteration(workspace):
    _, _, out, reports = workspace
    lines = (out / pipeline.RESIDUALS_FILE).read_text().splitlines()
    assert lines[0] == "iteration,residual,mu,kept,dual_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == reports["clean"]["metrics"]["iterations"]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert float(rows[-1][1]) == reports["clean"]["metrics"]["final_residual"]
    mus = [float(r[2]) for r in rows]
    assert all(b in (a, 1.5 * a) for a, b in zip(mus, mus[1:]))
    assert int(rows[-1][3]) == 2  # the rank of the synthetic truth
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
    # per frame: 6 outliers and round(0.10 * 60) corruptions in each of the
    # 80 frames; one flattened draw: 6 and round(0.10 * 60 * 80) in total
    for per_frame, outliers, corruptions in ((True, 6 * 80, round(0.10 * 60) * 80),
                                             (False, 6, round(0.10 * 60 * 80))):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG.replace("synth.scenario = 2",
                                              "synth.scenario = 4")
                            + f"synth.per_frame = {str(per_frame).lower()}\n")
        cfg = parse_config(cfg_path)
        report = pipeline.cmd_synth(cfg, tmp_path)
        comp = report["metrics"]["component_masked"]
        assert set(comp) == {"noise", "outliers", "corruptions"}
        assert comp["noise"] == 0          # additive noise is never masked
        assert comp["outliers"] == outliers
        assert comp["corruptions"] == corruptions
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


def test_evaluate_writes_stage_timings(workspace):
    _, _, out, _ = workspace
    rows = (out / pipeline.TIMINGS_FILE).read_text().splitlines()
    assert rows[0] == "stage,elapsed_ms"
    assert [r.split(",")[0] for r in rows[1:]] == [
        "synth", "clean", "compress", "train", "predict"]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 2**64 + 3])  # seeds are masked to 64 bits
def test_sample_times_golden_bytes(seed):
    cfg = RunConfig(ground_truth=GroundTruthSpec(m=4, n=57, rank=1, seed=seed),
                    time_jitter=0.4)
    times = pipeline._sample_times(cfg)
    assert hashlib.sha256(times.tobytes()).hexdigest() == (
        "702784fc1743183cab911da53a7942488bdc4fa15750059abd06f27fc0c1f1ae")


# command-line interface


def test_cli_full_run_exit_zero(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / pipeline.RMSE_FILE).exists()


def test_cli_unknown_config_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth.bogus = 1\n")
    assert cli.main(["synth", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


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
    "rpca.lambda = nan",
    "train.learning_rate = nan",
    "osp.s = 1",                  # below osp.r = 2
    "train.interpolate = maybe",
    "train.window = 0",
    "rpca.mu_growth = 1.5",       # no longer a key
    "synth.outlier_hi_min = nan",
    "synth.outlier_hi_max = inf",
    "train.clip_norm = nan",
    "train.clip_norm = -1",
    "evaluate.baseline = x",      # no longer a key
    "synth.seed = -1",
    "train.seed = -1",
])
def test_cli_bad_config_value_exit_2_before_any_stage(tmp_path, capsys, bad_line):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG + bad_line + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("report_*.json"))


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


def test_cli_missing_input_exit_4(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CFG)
    empty = tmp_path / "empty"
    assert cli.main(["clean", "--config", str(cfg_path),
                     "--out", str(empty)]) == 4
    assert "error:" in capsys.readouterr().err
