"""Benchmark of the sparsesense pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--trace 0|1]

Load model: closed loop, one client.  Each repetition of a workload runs
one `sparsesense` CLI call in a fresh child interpreter (perfbench/child.py)
with single-threaded BLAS; repetitions never overlap.  A run repeats the
workload for about --seconds seconds, cycling through the workload's
program seeds derived from --seed, and runs at least one seed twice, so
its repetitions are checked for byte-identical manifests.  Workloads
whose cost depends on the data (the solver's iteration count) have three
program seeds, so the medians do not hinge on one draw.

Host speed on a shared machine drifts by tens of percent over tens of
seconds, most of all for pure-Python work.  The child therefore times a
fixed reference job (no library code) right before and right after the
CLI call, and `run_s` and `setup_s` are wall times scaled to a reference
host: wall seconds x CAL_REF_S / calibration seconds.  The unscaled wall
times are printed next to them as `run_wall_s` and `setup_wall_s`.

With --trace 0 a run reports the end-to-end metrics.  With --trace 1 each
program seed runs as a pair, one untraced and one traced repetition: the
traced one wraps the layer entry points from outside (perfbench/spans.py)
and gives the per-layer metrics, the pair's difference gives the tracing
overhead.

Every repetition is checked (exit code, no traceback, solver convergence,
reconstruction accuracy, manifests, synth goldens, forecast accuracy
against recorded values); one that fails counts
in `failed` and is never retried or dropped.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "sparsesense"
WORK = ROOT / ".perfbench"
CHILD = BENCH / "child.py"
GOLDENS = BENCH / "goldens.json"

#: ||clean_L - truth||_F / ||truth||_F allowed after a converged clean
CLEAN_TOL = 1e-6
#: ||reconstruct(measurements) - truth||_F / ||truth||_F allowed
RECON_TOL = 1e-5
#: forecast_rmse allowed, as a multiple of the value recorded for the
#: program seed in goldens.json.  Perturbing clean_L by 1e-6 relative moves
#: it by at most 1.5 % on program seeds 0-5 of desk and forecast.
RMSE_RATIO = 1.10
#: wall-clock cap on one benchmark invocation, which must end within 180 s
TIME_CAP_S = 170.0
#: BLAS threads given to the child.  On a 2-core shared host a 600 x 300
#: SVD is faster on one thread (44 ms against 51 ms), and over five seeds
#: a desk run's median spread 5.0 % on one thread against 9.3 % on two.
BLAS_THREADS = 1
#: median seconds of the child's two reference jobs (child.calibrate) on
#: the reference host: 2-core Intel Xeon VM, Python 3.11, numpy 2.4.6,
#: OpenBLAS 0.3.31 on one thread
CAL_REF_S = 0.07
ALL_STAGES = ("synth", "clean", "compress", "train", "predict", "evaluate")
ARTIFACT_NAMES = ("truth.rbdm", "perturbed.rbdm", "mask.rbdm")


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str            # CLI subcommand
    config: Path
    instances: int        # distinct program seeds a run cycles through

    @property
    def stages(self) -> tuple[str, ...]:
        return ALL_STAGES if self.stage == "run" else (self.stage,)


def _workload(name, stage, instances):
    return Workload(name, stage, BENCH / "workloads" / f"{name}.cfg", instances)


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    _workload("desk", "run", 3),
    _workload("synth-mix", "synth", 1),
    _workload("forecast", "run", 3),
)}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ----------------------------------------------------------------------
# inputs and outputs, read independently of the library under test

def read_cfg(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def read_rbdm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != b"RBDM":
        raise ValueError(f"{path.name}: not a matrix file")
    rows, cols = np.frombuffer(raw, dtype="<u4", count=2, offset=8)
    return np.frombuffer(raw, dtype="<f8", count=int(rows) * int(cols),
                         offset=16).reshape(int(rows), int(cols))


def reconstruct_from_files(out: Path) -> np.ndarray:
    """modes @ lstsq(modes[sensors], Y), from basis.ospb and measurements.rbdm."""
    raw = (out / "basis.ospb").read_bytes()
    if raw[:4] != b"OSPB":
        raise ValueError("basis.ospb: not a sensor-basis file")
    m, r, s = (int(x) for x in np.frombuffer(raw, dtype="<u4", count=3, offset=6))
    modes = np.frombuffer(raw, dtype="<f8", count=m * r, offset=18).reshape(m, r)
    sensors = np.frombuffer(raw, dtype="<u4", count=s, offset=18 + 8 * m * r).astype(np.int64)
    Y = read_rbdm(out / "measurements.rbdm")
    coeffs, *_ = np.linalg.lstsq(modes[sensors], Y, rcond=None)
    return modes @ coeffs


def rel_err(A: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(A - ref) / np.linalg.norm(ref))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# one repetition

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_rep(wl: Workload, seed: int, trace: bool, rep_dir: Path, deadline: float) -> dict:
    """Run one CLI call in a child interpreter and check its outputs."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    out = rep_dir / "out"
    out.mkdir(parents=True)
    spec_path = rep_dir / "spec.json"
    result_path = rep_dir / "result.json"
    spec_path.write_text(json.dumps({
        "argv": [wl.stage, "--config", str(wl.config), "--seed", str(seed), "--out", str(out)],
        "config": str(wl.config), "out": str(out), "result": str(result_path),
        "trace": trace, "package": str(PACKAGE)}))
    rep = {"seed": seed, "traced": trace, "failures": []}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rep["failures"].append("timed out")
        return rep
    rep["exit_code"] = proc.returncode
    if proc.returncode != 0:
        rep["failures"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if "Traceback" in proc.stderr:
        rep["failures"].append("traceback on stderr")
    if not result_path.exists():
        rep["failures"].append("child wrote no result")
        return rep
    result = json.loads(result_path.read_text())
    scale = CAL_REF_S / result["cal_s"]
    setup_wall_s = result["ready_monotonic"] - spawned
    rep.update(run_s=result["run_s"] * scale, run_wall_s=result["run_s"],
               setup_s=setup_wall_s * scale, setup_wall_s=setup_wall_s,
               cal_s=result["cal_s"], peak_rss_mb=result["peak_rss_mb"],
               trace=result.get("trace"))
    if proc.returncode == 0:
        try:
            check_outputs(wl, seed, out, rep)
        except (OSError, ValueError, KeyError) as exc:
            rep["failures"].append(f"missing or malformed output: {exc}")
    return rep


def check_outputs(wl: Workload, seed: int, out: Path, rep: dict) -> None:
    reports = {stage: json.loads((out / f"report_{stage}.json").read_text())
               for stage in wl.stages}
    rep["manifest"] = {k: v for r in reports.values() for k, v in r["manifest"].items()}
    fail = rep["failures"].append
    if "clean" in reports:
        metrics = reports["clean"]["metrics"]
        rep["iterations"] = metrics["iterations"]
        if metrics["converged"] is not True:
            fail("clean did not converge")
        truth = read_rbdm(out / "truth.rbdm")
        rep["clean_rel_err"] = rel_err(read_rbdm(out / "clean_L.rbdm"), truth)
        if not rep["clean_rel_err"] <= CLEAN_TOL:
            fail(f"clean_rel_err {rep['clean_rel_err']:.3g} > {CLEAN_TOL}")
        rep["recon_rel_err"] = rel_err(reconstruct_from_files(out), truth)
        if not rep["recon_rel_err"] <= RECON_TOL:
            fail(f"recon_rel_err {rep['recon_rel_err']:.3g} > {RECON_TOL}")
    golden = read_golden(wl, seed)
    if "evaluate" in reports:
        rmse = rep["forecast_rmse"] = reports["evaluate"]["metrics"]["mean_rmse"]
        if not np.isfinite(rmse):
            fail("forecast_rmse is not finite")
        elif golden is not None and not rmse <= RMSE_RATIO * golden["forecast_rmse"]:
            fail(f"forecast_rmse {rmse:.5g} > {RMSE_RATIO} x recorded {golden['forecast_rmse']:.5g}")
    if wl.stage == "synth":
        check_synth(wl, out, golden, fail)


def read_golden(wl: Workload, seed: int) -> dict | None:
    """What goldens.json records for this program seed, if anything."""
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    return goldens.get(wl.name, {}).get(str(seed))


def check_synth(wl: Workload, out: Path, golden: dict | None, fail) -> None:
    """The generator is fully specified: compare with the recorded sha256
    goldens where the seed has one, and check the structure always."""
    if golden is not None:
        for name in ARTIFACT_NAMES:
            if sha256(out / name) != golden[name]:
                fail(f"{name} differs from its recorded sha256")
    cfg = read_cfg(wl.config)
    m, rank = int(cfg["synth.m"]), int(cfg["synth.rank"])
    n_out = int(cfg["synth.n_outliers"])
    truth, perturbed = read_rbdm(out / "truth.rbdm"), read_rbdm(out / "perturbed.rbdm")
    mask = read_rbdm(out / "mask.rbdm") != 0
    sv = np.linalg.svd(truth, compute_uv=False)
    if int(np.sum(sv > 1e-10 * sv[0])) != rank:
        fail("truth is not exactly of the configured rank")
    # corruption fraction 0.10 and noise std 4 are the ScenarioSpec defaults
    per_frame = mask.sum(axis=0)
    k_corrupt = round(0.10 * m)
    if per_frame.min() < max(n_out, k_corrupt) or per_frame.max() > n_out + k_corrupt:
        fail("mask counts per frame outside [max(outliers, corruptions), their sum]")
    noise = (perturbed - truth)[~mask]
    if abs(noise.mean()) > 0.05 or abs(noise.std() - 4.0) > 0.05:
        fail("unmasked perturbation is not N(0, 4^2) noise")


# ----------------------------------------------------------------------
# a run: repetitions for about --seconds seconds

def program_seed(wl: Workload, seed: int, step: int) -> int:
    return seed * wl.instances + step % wl.instances


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 started: float) -> list[dict]:
    deadline = started + TIME_CAP_S
    # one import so bytecode caches exist before anything is timed
    subprocess.run([sys.executable, "-c", "import sparsesense"], cwd=ROOT,
                   env=child_env(), capture_output=True, timeout=60)
    reps: list[dict] = []
    stop = time.monotonic() + seconds
    step = 0
    while True:
        t0 = time.monotonic()
        s = program_seed(wl, seed, step)
        for traced in ((False, True) if trace else (False,)):
            reps.append(run_rep(wl, s, traced, WORK / wl.name / f"rep{len(reps) % 2}", deadline))
        step += 1
        # every program seed runs, so one slow draw sets no median, and
        # the first runs again, so its manifests are compared
        now = time.monotonic()
        if now >= deadline or (step > wl.instances and now + (now - t0) > stop):
            break
    first: dict[int, dict] = {}
    for rep in reps:
        if "manifest" in rep:
            base = first.setdefault(rep["seed"], rep["manifest"])
            if rep["manifest"] != base:
                rep["failures"].append(f"manifest differs from an earlier repetition of seed {rep['seed']}")
    return reps


# ----------------------------------------------------------------------
# metrics

def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition.  Figures marked
    computed come from shapes, not from hardware counters."""
    spans, c = agg["spans"], agg["counters"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def own(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    def per(x, n, scale=1.0):
        return x / n * scale if n else 0.0

    iterations = c.get("decompose.iterations", 0)
    write_mb = c.get("matio.write_bytes", 0) / 1e6
    draws = c.get("rng.normal_draws", 0)
    metrics = {f"pipeline.{stage}_s": (total(f"pipeline.{stage}"), "s") for stage in ALL_STAGES}
    metrics.update({
        "pipeline.self_s": (own("pipeline."), "s"),
        "decompose.rpca_s": (total("decompose.rpca"), "s"),
        "decompose.self_s": (own("decompose."), "s"),
        "decompose.iterations": (iterations, "count"),
        "decompose.iter_ms": (per(total("decompose.rpca"), iterations, 1e3), "ms"),
        "decompose.converged": (c.get("decompose.converged", 0), "count"),
        "linalg.svt_calls": (calls("linalg.svt"), "count"),
        "linalg.svt_s": (total("linalg.svt"), "s"),
        "linalg.svt_ms": (per(total("linalg.svt"), calls("linalg.svt"), 1e3), "ms"),
        "linalg.svt_gflop": (per(c.get("linalg.svt_flop", 0), calls("linalg.svt"), 1e-9), "GFLOP"),
        "linalg.shrink_s": (total("linalg.shrink"), "s"),
        "linalg.svd_truncated_s": (total("linalg.svd_truncated"), "s"),
        "linalg.qr_pivot_s": (total("linalg.qr_pivot"), "s"),
        "linalg.qr_pivot_cols": (c.get("linalg.qr_pivot_cols", 0), "count"),
        "linalg.qr_pivot_input_mb": (c.get("linalg.qr_pivot_bytes", 0) / 1e6, "MB"),
        "linalg.pinv_s": (total("linalg.pinv"), "s"),
        "osp.fit_basis_s": (total("osp.fit_basis"), "s"),
        "osp.self_s": (own("osp."), "s"),
        "osp.reconstruct_s": (total("osp.reconstruct"), "s"),
        "forecast.train_s": (total("forecast.train"), "s"),
        "forecast.epoch_s": (per(total("forecast.train"), c.get("forecast.epochs", 0)), "s"),
        "forecast.steps": (calls("forecast.step"), "count"),
        "forecast.step_ms": (per(total("forecast.step"), calls("forecast.step"), 1e3), "ms"),
        "forecast.adam_ms": (per(total("forecast.adam"), calls("forecast.adam"), 1e3), "ms"),
        "forecast.train_self_s": (spans.get("forecast.train", {}).get("self_s", 0.0), "s"),
        "forecast.predict_s": (total("forecast.predict"), "s"),
        "forecast.rollout_ms": (per(total("forecast.rollout"), calls("forecast.rollout"), 1e3), "ms"),
        "forecast.interpolate_s": (total("forecast.interpolate"), "s"),
        "synth.ground_truth_s": (total("synth.ground_truth"), "s"),
        "synth.scenario_s": (total("synth.scenario"), "s"),
        "synth.scenario_calls": (calls("synth.scenario"), "count"),
        "synth.self_s": (own("synth."), "s"),
        "rng.normals_s": (total("rng.normals"), "s"),
        "rng.normal_draws": (draws, "count"),
        "rng.normal_ns": (per(total("rng.normals"), draws, 1e9), "ns"),
        "rng.sample_s": (total("rng.sample"), "s"),
        "rng.sample_draws": (c.get("rng.sample_draws", 0), "count"),
        "rng.substreams": (calls("rng.substream"), "count"),
        "matio.write_s": (total("matio.write"), "s"),
        "matio.write_mb": (write_mb, "MB"),
        "matio.write_mb_per_s": (per(write_mb, total("matio.write")), "MB/s"),
        "matio.read_s": (total("matio.read"), "s"),
        "matio.read_mb": (c.get("matio.read_bytes", 0) / 1e6, "MB"),
        "matio.csv_s": (total("matio.write_csv") + total("matio.read_csv"), "s"),
    })
    return metrics


def summarize(reps: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Metrics for the last output line, and the human-readable table."""
    lines = []

    def fmt(value, width):
        return f"{'n/a':>{width}}" if value is None else f"{value:>{width}.6g}"

    def row(name, values, unit):
        values = [v for v in values if v is not None]
        if values:
            lines.append(f"  {name:<26} {statistics.median(values):>12.6g} {unit:<6} "
                         f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failed = sum(1 for r in reps if r["failures"])
    metrics = {}
    for name, unit in END_TO_END.items():
        row(name, [r.get(name) for r in plain], unit)
        if not trace:
            metrics[name] = {"value": median(r.get(name) for r in plain), "unit": unit}
    row("run_wall_s", [r.get("run_wall_s") for r in plain], "s")
    row("setup_wall_s", [r.get("setup_wall_s") for r in plain], "s")
    row("calibration_s", [r.get("cal_s") for r in plain], "s")
    for name in ("clean_rel_err", "recon_rel_err", "forecast_rmse", "iterations"):
        row(name, [r.get(name) for r in plain], "count" if name == "iterations" else "")
    lines.append(f"  {'failed_frac':<26} {failed / len(reps):>12.6g}        "
                 f"{failed} of {len(reps)} repetitions")
    if trace:
        per_rep = [layer_metrics(r["trace"]) for r in traced if r.get("trace")]
        lines.append(f"  per layer, median of {len(per_rep)} traced repetitions"
                     " (GFLOP and MB are computed from shapes):")
        for name, (_, unit) in layer_metrics({"spans": {}, "counters": {}}).items():
            value = median(m[name][0] for m in per_rep)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"    {name:<28} {fmt(value, 14)} {unit}")
        run_traced = median(r.get("run_s") for r in traced)
        run_plain = median(r.get("run_s") for r in plain)
        overhead = None if None in (run_traced, run_plain) else run_traced - run_plain
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"    {'trace.overhead_s':<28} {fmt(overhead, 14)} s")
        for r in [r for r in traced if r.get("trace")][-1:]:
            for stage, v in r["trace"]["stages"].items():
                lines.append(f"    {stage} {v['total_s']:.6f} s, span self times sum to "
                             f"{v['self_sum_s']:.6f} s")
    for r in reps:
        for failure in r["failures"]:
            lines.append(f"  FAILED seed {r['seed']}{' (traced)' if r['traced'] else ''}: {failure}")
    return metrics, lines


def host_record() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "loadavg_before": list(os.getloadavg())}


def run(wl: Workload, seed: int, seconds: float, trace: bool, started: float) -> dict:
    host = host_record()
    reps = run_workload(wl, seed, seconds, trace, started)
    host["loadavg_after"] = list(os.getloadavg())
    metrics, lines = summarize(reps, trace)
    failed = sum(1 for r in reps if r["failures"])
    seeds = sorted({r["seed"] for r in reps})
    print(f"workload {wl.name} (seed {seed}, program seeds {seeds}, "
          f"{'traced' if trace else 'untraced'})")
    print("  host " + json.dumps(host))
    print("\n".join(lines))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "trace": trace, "host": host,
         "metrics": metrics, "repetitions": reps}, indent=1))
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.workload == "all":
        for wl in WORKLOADS.values():
            print(json.dumps(run(wl, args.seed, args.seconds, bool(args.trace),
                                 time.monotonic())))
        return 0
    print(json.dumps(run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), started)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
