"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints
a single PASS/FAIL line directly to the terminal.
Criteria 5 and 6 run the experiments in scripts/, criterion 8 runs
configs/desk_scale.cfg.  Criterion 6 times training in a child
interpreter on one BLAS thread; its bound comes from the network's
multiply-add count (see the test).
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sparsesense
from sparsesense import osp, pipeline
from sparsesense.config import parse_config
from sparsesense.decompose import RpcaConfig, pca_reconstruct, rpca
from sparsesense.forecast import TrainConfig, init_model, loss_and_grads
from sparsesense.synth import (
    GroundTruthSpec,
    Scenario,
    ScenarioSpec,
    apply_scenario,
    generate_ground_truth,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


interpolation_benefit = load_script("interpolation_benefit")
timing_comparison = load_script("timing_comparison")


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""
    def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num}: {title}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line)
        assert ok, line
    return _report


def test_criterion_1_rpca_exact_recovery(report, low_rank_plus_sparse):
    t0 = time.perf_counter()
    L0, S0, support = low_rank_plus_sparse(seed=2024)
    result = rpca(L0 + S0, RpcaConfig(tol=1e-7, max_iters=500))
    elapsed = time.perf_counter() - t0
    rel_err = np.linalg.norm(result.L - L0) / np.linalg.norm(L0)
    support_hit = float(np.mean(np.abs(result.S.ravel()[support]) > 1e-6))
    ok = (rel_err <= 1e-3 and support_hit >= 0.95
          and result.iterations <= 500 and elapsed <= 10.0)
    report(1, "low-rank + sparse exact recovery", ok,
           f"rel_err={rel_err:.2e}, support={support_hit:.3f}, "
           f"iters={result.iterations}, {elapsed:.1f}s")


def test_criterion_2_robustness_ordering(report):
    rank = 3
    wins = 0
    trials = 0
    for scenario in (Scenario.OUTLIERS, Scenario.CORRUPTIONS):
        for seed in range(5):
            G = generate_ground_truth(
                GroundTruthSpec(m=500, n=120, rank=rank, seed=seed))
            X, _ = apply_scenario(G, ScenarioSpec(scenario=scenario, seed=seed))
            err_robust = np.linalg.norm(rpca(X).L - G)
            err_pca = np.linalg.norm(pca_reconstruct(X, rank) - G)
            wins += err_robust < err_pca
            trials += 1
    report(2, "robust cleaning beats rank-r PCA on both outlier scenarios",
           wins == trials, f"{wins}/{trials} seeds")


def test_criterion_3_osp_exactness_and_compression(report):
    m, r, n = 19200, 10, 50
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    X = Q @ (np.diag(np.arange(r, 0, -1.0)) @ rng.standard_normal((r, n)))
    basis = osp.fit_basis(X, r, r)
    Xhat = osp.reconstruct(X[basis.sensor_indices, :], basis)
    rel_err = np.linalg.norm(Xhat - X) / np.linalg.norm(X)
    ratio = osp.compression_ratio(19200, 10)
    ok = rel_err <= 1e-8 and ratio == 1920.0
    report(3, "10-sensor reconstruction of a 19200-pixel subspace", ok,
           f"rel_err={rel_err:.2e}, ratio={ratio}")


def test_criterion_4_lstm_gradient_audit(report):
    t0 = time.perf_counter()
    cfg = TrainConfig(window=4, hidden_dim=3, dense_dim=3, dropout=0.0, seed=5)
    rng = np.random.default_rng(5)
    model = init_model(2, cfg, np.zeros(2), np.ones(2), rng)
    xb = rng.standard_normal((3, 4, 2))
    yb = rng.standard_normal((3, 2))
    _, grads = loss_and_grads(model, xb, yb)
    h = 1e-5
    # the pass rule reads only the entries whose |fd - g| clears 1e-7, where
    # a wrong term shows above the finite-difference noise; the report line
    # also gives the worst over every entry and the count that cleared it
    worst = worst_all = 0.0
    gated = entries = 0
    for name, W in model.params.items():
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = W[ix]
            W[ix] = orig + h
            lp, _ = loss_and_grads(model, xb, yb)
            W[ix] = orig - h
            lm, _ = loss_and_grads(model, xb, yb)
            W[ix] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[name][ix]
            rel = abs(fd - g) / max(abs(fd), abs(g), np.finfo(float).tiny)
            worst_all = max(worst_all, rel)
            entries += 1
            if abs(fd - g) > 1e-7:
                gated += 1
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed <= 5.0
    report(4, "analytic BPTT gradients vs central differences", ok,
           f"worst rel err={worst_all:.2e} over {entries} entries, {gated} above the "
           f"1e-7 gate (their worst {worst:.2e}), {elapsed:.1f}s")


def test_criterion_5_interpolation_benefit(report):
    # the script's defaults: 600 samples, 40 epochs, seed 7
    curve_raw, curve_int = interpolation_benefit.curves(600, 40, 7)
    frac = float(np.mean(curve_int <= curve_raw))
    report(5, "uniform-grid interpolation improves the forecast curve",
           frac >= 0.80, f"interpolated <= raw at {frac:.0%} of 100 steps")


def lstm_train_macs(channels: int) -> int:
    """Multiply-adds per training window of `_forward_batch` plus
    `_backward_batch` at the script's sizes: the input projection and its
    weight gradient (8TsH), the recurrent products of the forward pass and
    of BPTT and the dWh GEMM after it (12TH^2), then the dense and output
    layers."""
    T, H, D = timing_comparison.WINDOW, timing_comparison.HIDDEN, timing_comparison.DENSE
    return 8 * T * channels * H + 12 * T * H ** 2 + 3 * H * D + 3 * D * channels


def test_criterion_6_training_cost_scaling(report):
    # The claim: at identical architecture, training on 10 sensor channels
    # is several times cheaper per epoch than training on 2000.  The
    # recurrent work 12*T*H^2 does not depend on the channel count, so the
    # multiply-add ratio W(2000)/W(10) = 113.0M / 10.4M = 10.9x is a ceiling
    # no implementation can beat; the channel-independent gate exp/tanh
    # work, which W leaves out, lowers the real ratio further.  The bound
    # is 4x: below the lowest warm single-thread reading on a 2-core host
    # (4.8x) and well below the ceiling.
    narrow, wide = 10, 2000
    bound = 4.0
    model_ratio = lstm_train_macs(wide) / lstm_train_macs(narrow)
    assert bound < model_ratio, (
        f"bound {bound}x exceeds the multiply-add ceiling {model_ratio:.1f}x")

    # a child interpreter pinned to one BLAS thread, so the ratio does not
    # depend on the host's core count or on which tests warmed this
    # process up
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsesense.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, str(SCRIPTS), os.environ.get("PYTHONPATH")])))
    code = ("import json, timing_comparison as t; "
            f"print(json.dumps(t.epoch_times([{narrow}, {wide}])))")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    times = json.loads(child.stdout)
    ratio = min(times[str(wide)]) / min(times[str(narrow)])
    report(6, f"per-epoch cost ratio {wide} vs {narrow} channels >= {bound:g}x",
           ratio >= bound,
           f"measured {ratio:.1f}x, multiply-add ceiling {model_ratio:.1f}x, "
           f"min of {timing_comparison.REPEATS} warm pairs on 1 BLAS thread")


def test_criterion_7_scenario_generator_statistics(report):
    ok = True
    details = []

    X = np.zeros((1000, 1000))
    noisy, _ = apply_scenario(X, ScenarioSpec(scenario=Scenario.NOISE, seed=1))
    std = float(noisy.std())
    ok &= abs(std - 4.0) <= 0.02 * 4.0
    details.append(f"noise std={std:.4f}")

    G = generate_ground_truth(GroundTruthSpec(m=500, n=50, rank=3, seed=2))
    spec2 = ScenarioSpec(scenario=Scenario.OUTLIERS, seed=3)
    out2, mask2 = apply_scenario(G, spec2)
    counts = mask2.sum(axis=0)
    vals = out2[mask2]
    ok &= bool(np.all(counts == 100))
    ok &= bool(np.all(((vals >= 30) & (vals <= 40))
                      | ((vals >= -40) & (vals <= -30))))
    details.append(f"outliers/frame={counts.min()}..{counts.max()}")

    spec3 = ScenarioSpec(scenario=Scenario.CORRUPTIONS, seed=4)
    out3, mask3 = apply_scenario(G, spec3)
    ok &= mask3.sum() == round(0.10 * 500) * 50
    add = (out3 - G)[mask3]
    ok &= bool(np.all((add >= -15.0) & (add <= 30.0)))
    details.append(f"corrupted={int(mask3.sum())}")

    rerun, _ = apply_scenario(G, spec2)
    ok &= out2.tobytes() == rerun.tobytes()
    details.append("rerun bit-identical")

    report(7, "scenario generator statistics and determinism", ok,
           ", ".join(details))


def test_criterion_8_end_to_end_determinism(tmp_path, report):
    cfg = parse_config(ROOT / "configs" / "desk_scale.cfg")
    manifests = []
    runtimes = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        t0 = time.perf_counter()
        reports = pipeline.run_all(cfg, out)
        runtimes.append(time.perf_counter() - t0)
        manifests.append(pipeline.combined_manifest(reports))
    ok = manifests[0] == manifests[1] and max(runtimes) <= 300.0
    report(8, "byte-identical manifests for two desk-scale runs", ok,
           f"runtimes {runtimes[0]:.0f}s / {runtimes[1]:.0f}s, "
           f"{len(manifests[0])} artifacts")
