"""Batch workflow: synth -> clean -> compress -> train -> predict -> evaluate.

Each stage reads only its declared inputs from the output directory,
writes its artifacts atomically, and drops a JSON report with wall-clock
timings, stage metrics, and a sha256 manifest of the artifacts it wrote.
Reports carry timings and are therefore excluded from the manifests, which
must be byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import decompose, forecast, linalg, matio, osp, synth
from .config import RunConfig
from .errors import ValidationError
from .rng import Xoshiro256pp

TRUTH_FILE = "truth.rbdm"
PERTURBED_FILE = "perturbed.rbdm"
MASK_FILE = "mask.rbdm"
TIMESTAMPS_FILE = "timestamps.csv"
CLEAN_L_FILE = "clean_L.rbdm"
CLEAN_S_FILE = "clean_S.rbdm"
RESIDUALS_FILE = "rpca_residuals.csv"
BASIS_FILE = "basis.ospb"
MEASUREMENTS_FILE = "measurements.rbdm"
MODEL_FILE = "model.lstm"
HISTORY_FILE = "train_history.csv"
PRED_SPARSE_FILE = "pred_sparse.rbdm"
PRED_FULL_FILE = "pred_full.rbdm"
RMSE_FILE = "rmse_per_step.csv"
TIMINGS_FILE = "timings.csv"

_STAGES = ("synth", "clean", "compress", "train", "predict", "evaluate")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_report(out: Path, stage: str, elapsed_ms: float,
                  metrics: dict, artifacts: list[str]) -> dict:
    report = {
        "stage": stage,
        "elapsed_ms": elapsed_ms,
        "metrics": metrics,
        "manifest": {name: _sha256(out / name) for name in sorted(artifacts)},
    }
    with matio.atomic_write(out / f"report_{stage}.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def _sample_times(cfg: RunConfig) -> np.ndarray:
    """Timestamps with average spacing synth.dt; synth.time_jitter
    perturbs each gap uniformly for irregular sampling."""
    n = cfg.ground_truth.n
    gaps = np.full(n - 1, cfg.dt) if n > 1 else np.empty(0)
    if cfg.time_jitter > 0.0 and n > 1:
        rng = Xoshiro256pp(cfg.ground_truth.seed ^ 0x74696D65)
        gaps = gaps * (1.0 + cfg.time_jitter * (2.0 * rng.random(n - 1) - 1.0))
    return np.concatenate([[0.0], np.cumsum(gaps)])


def cmd_synth(cfg: RunConfig, out: Path, times: np.ndarray | None = None) -> dict:
    """times: `_sample_times(cfg)`, when the caller has drawn it already."""
    t0 = time.perf_counter()
    gt_spec, sc_spec = cfg.ground_truth, cfg.scenario
    truth = synth.generate_ground_truth(gt_spec)
    perturbed, mask = synth.apply_scenario(truth, sc_spec)
    if times is None:
        times = _sample_times(cfg)
    matio.write_matrix(truth, out / TRUTH_FILE)
    matio.write_matrix(perturbed, out / PERTURBED_FILE)
    matio.write_matrix(mask.astype(np.float64), out / MASK_FILE)
    matio.write_matrix_csv(times[:, None], out / TIMESTAMPS_FILE)
    metrics = {"m": gt_spec.m, "n": gt_spec.n, "rank": gt_spec.rank,
               "scenario": int(sc_spec.scenario), "masked": int(mask.sum())}
    if sc_spec.scenario is synth.Scenario.SUPERPOSITION:
        # the composed mask is the union of the per-component masks; each
        # component marks a fixed number of distinct positions per frame
        # (the whole matrix is one frame when per_frame is off)
        rows, frames = ((gt_spec.m, gt_spec.n) if sc_spec.per_frame
                        else (gt_spec.m * gt_spec.n, 1))
        metrics["component_masked"] = {
            "noise": 0, "outliers": sc_spec.n_outliers * frames,
            "corruptions": round(sc_spec.corruption_fraction * rows) * frames}
    return _write_report(out, "synth", (time.perf_counter() - t0) * 1e3, metrics,
                         [TRUTH_FILE, PERTURBED_FILE, MASK_FILE, TIMESTAMPS_FILE])


def cmd_clean(cfg: RunConfig, out: Path) -> dict:
    t0 = time.perf_counter()
    X = matio.read_matrix(out / PERTURBED_FILE)
    result = decompose.rpca(X, cfg.rpca)
    matio.write_matrix(result.L, out / CLEAN_L_FILE)
    matio.write_matrix(result.S, out / CLEAN_S_FILE)
    matio.write_csv(out / RESIDUALS_FILE, "iteration,residual,mu,kept,dual_residual",
                    [(i + 1, *row) for i, row in enumerate(zip(
                        result.residual_history, result.mu_history, result.kept_history,
                        result.dual_history))])
    metrics = {"iterations": result.iterations,
               "converged": result.converged,
               "final_residual": result.residual_history[-1],
               "svt_sweeps": result.svt_sweeps, "svt_full_svds": result.svt_full_svds}
    return _write_report(out, "clean", (time.perf_counter() - t0) * 1e3, metrics,
                         [CLEAN_L_FILE, CLEAN_S_FILE, RESIDUALS_FILE])


def cmd_compress(cfg: RunConfig, out: Path) -> dict:
    t0 = time.perf_counter()
    L = matio.read_matrix(out / CLEAN_L_FILE)
    basis = osp.fit_basis(L, cfg.r, cfg.s)
    osp.save_basis(basis, out / BASIS_FILE)
    matio.write_matrix(osp.compress(L, basis), out / MEASUREMENTS_FILE)
    metrics = {"r": cfg.r, "s": cfg.s,
               "sensor_indices": [int(i) for i in basis.sensor_indices],
               "compression_ratio": osp.compression_ratio(basis.m, cfg.s)}
    return _write_report(out, "compress", (time.perf_counter() - t0) * 1e3,
                         metrics, [BASIS_FILE, MEASUREMENTS_FILE])


def _training_span(cfg: RunConfig, times: np.ndarray,
                   values: np.ndarray) -> forecast.TimeSeries:
    """The (n, c) series at times (n,) restricted to the training span,
    interpolated to a uniform grid when train.interpolate is set."""
    n = times.shape[0]
    if cfg.holdout >= n:
        raise ValidationError(f"train.holdout = {cfg.holdout} leaves no training "
                              f"frame of {n}")
    ts = forecast.TimeSeries(timestamps=times[:n - cfg.holdout],
                             values=values[:n - cfg.holdout])
    if cfg.interpolate:
        ts = forecast.interpolate_uniform(ts, cfg.train_dt)
    return ts


def _training_series(cfg: RunConfig, out: Path) -> forecast.TimeSeries:
    """The measurement series the train and predict stages see."""
    return _training_span(cfg, matio.read_matrix_csv(out / TIMESTAMPS_FILE)[:, 0],
                          matio.read_matrix(out / MEASUREMENTS_FILE).T)


def cmd_train(cfg: RunConfig, out: Path) -> dict:
    t0 = time.perf_counter()
    ts = _training_series(cfg, out)
    model, history = forecast.train(ts, cfg.train)
    forecast.save_model(model, out / MODEL_FILE)
    matio.write_csv(out / HISTORY_FILE, "epoch,train_rmse",
                    [(i + 1, r) for i, r in enumerate(history)])
    metrics = {"epochs": cfg.train.epochs, "final_train_rmse": history[-1],
               "samples": len(ts)}
    return _write_report(out, "train", (time.perf_counter() - t0) * 1e3, metrics,
                         [MODEL_FILE, HISTORY_FILE])


def cmd_predict(cfg: RunConfig, out: Path) -> dict:
    t0 = time.perf_counter()
    window, horizon = cfg.train.window, cfg.train.horizon
    model = forecast.load_model(out / MODEL_FILE)
    basis = osp.load_basis(out / BASIS_FILE)
    ts = _training_series(cfg, out)
    if len(ts) < window:
        raise ValidationError("training span shorter than one window")
    preds = forecast.predict_multistep(model, ts.values[-window:], horizon)
    pred_sparse = preds.T                       # (s, horizon)
    pred_full = osp.reconstruct(pred_sparse, basis)
    matio.write_matrix(pred_sparse, out / PRED_SPARSE_FILE)
    matio.write_matrix(pred_full, out / PRED_FULL_FILE)
    metrics = {"horizon": horizon}
    return _write_report(out, "predict", (time.perf_counter() - t0) * 1e3,
                         metrics, [PRED_SPARSE_FILE, PRED_FULL_FILE])


def cmd_evaluate(cfg: RunConfig, out: Path) -> dict:
    t0 = time.perf_counter()
    pred_full = linalg.validate_matrix(matio.read_matrix(out / PRED_FULL_FILE),
                                       str(out / PRED_FULL_FILE))
    truth_path = cfg.truth or out / TRUTH_FILE
    truth = linalg.validate_matrix(matio.read_matrix(truth_path), str(truth_path))
    if truth.shape[1] < cfg.holdout:
        raise ValidationError(f"{truth_path}: {truth.shape[1]} frames, fewer than "
                              f"train.holdout = {cfg.holdout}")
    start = truth.shape[1] - cfg.holdout
    horizon = min(pred_full.shape[1], truth.shape[1] - start)
    if pred_full.shape[0] != truth.shape[0]:
        raise ValidationError("prediction and truth have different spatial dimension")
    frame = cfg.frame_shape(pred_full.shape[0]) if cfg.pgm else None
    timing_rows = []
    for stage in _STAGES[:-1]:
        report_path = out / f"report_{stage}.json"
        if report_path.exists():
            try:
                with open(report_path) as fh:
                    timing_rows.append((stage, float(json.load(fh)["elapsed_ms"])))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValidationError(
                    f"{report_path}: not a stage report: {exc!r}") from exc
    per_step = [forecast.rmse(pred_full[:, k], truth[:, start + k])
                for k in range(horizon)]
    matio.write_csv(out / RMSE_FILE, "step,rmse",
                    [(k + 1, v) for k, v in enumerate(per_step)])
    artifacts = [RMSE_FILE]
    matio.write_csv(out / TIMINGS_FILE, "stage,elapsed_ms", timing_rows)

    metrics: dict = {"mean_rmse": float(np.mean(per_step)),
                     "final_rmse": per_step[-1]}
    if cfg.pgm:
        frames_dir = out / "frames"
        frames_dir.mkdir(exist_ok=True)
        for k in (0, horizon - 1):
            matio.write_pgm(truth[:, start + k].reshape(frame),
                            frames_dir / f"truth_{k:04d}.pgm")
            matio.write_pgm(pred_full[:, k].reshape(frame),
                            frames_dir / f"pred_{k:04d}.pgm")
            artifacts += [f"frames/truth_{k:04d}.pgm", f"frames/pred_{k:04d}.pgm"]
    # timings.csv is run-dependent metadata, not part of the manifest
    return _write_report(out, "evaluate", (time.perf_counter() - t0) * 1e3,
                         metrics, artifacts)


STAGE_FUNCS = dict(zip(_STAGES, (cmd_synth, cmd_clean, cmd_compress, cmd_train,
                                  cmd_predict, cmd_evaluate), strict=True))


def run_all(cfg: RunConfig, out: Path) -> dict[str, dict]:
    """Run every stage in order; returns the per-stage reports."""
    # holdout defaults to train.horizon, which may reach synth.n in a config
    # meant for the early stages only, so the training span is checked here,
    # once train will run.  The synth stage's timestamps are a function of
    # the config, and a series of zero channels has the training length.
    times = _sample_times(cfg)
    length = len(_training_span(cfg, times, np.empty((times.shape[0], 0))))
    if cfg.train.window + 1 > length:
        raise ValidationError(f"train.window = {cfg.train.window} needs "
                              f"{cfg.train.window + 1} training samples, the "
                              f"training series has {length}")
    out.mkdir(parents=True, exist_ok=True)
    reports = {"synth": STAGE_FUNCS["synth"](cfg, out, times)}
    for stage in _STAGES[1:]:
        reports[stage] = STAGE_FUNCS[stage](cfg, out)
    return reports


def combined_manifest(reports: dict[str, dict]) -> dict[str, str]:
    merged: dict[str, str] = {}
    for report in reports.values():
        merged.update(report["manifest"])
    return merged
