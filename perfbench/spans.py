"""Outside-in span tracer for the benchmark's traced runs.

`install` replaces the module and class attributes through which the
pipeline calls each layer with timing wrappers.  Library code is not
modified: a wrapper sits on the attribute the *caller* looks up at call
time (for example `sparsesense.decompose.singular_value_threshold`, which
`rpca` resolves as a global of `decompose`).  Spans are kept in memory and
aggregated once the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def svt_flops(m: int, n: int) -> float:
    """Computed operation count of one singular value threshold of an
    m x n matrix, with p = max(m, n) and q = min(m, n): economy R-SVD
    (6 p q^2 + 20 q^3, Golub & Van Loan) plus the rescaled product
    (U * s) @ Vt (2 p q^2 + p q)."""
    p, q = max(m, n), min(m, n)
    return 8.0 * p * q * q + 20.0 * q ** 3 + p * q


class Tracer:
    """Records (name, start, end, parent) spans and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn timed as span `name`; `count(counters, result, *args)`
        adds the call's work counts after it returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counters, result, *args)
            return result
        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by child spans).  Per pipeline stage: its
        duration and the sum of self times over its subtree, which must
        agree."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, dict] = {}
        stage_of = [-1] * len(self.spans)
        stages: dict[str, dict] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            total = end - start
            own = total - child_time[index]
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += own
            if name.startswith("pipeline."):
                stage_of[index] = index
                stage = stages.setdefault(name, {"total_s": 0.0, "self_sum_s": 0.0})
                stage["total_s"] += total
            elif parent >= 0:
                stage_of[index] = stage_of[parent]
            if stage_of[index] >= 0:
                stages[self.spans[stage_of[index]][0]]["self_sum_s"] += own
        return {"spans": by_name, "stages": stages, "counters": dict(self.counters)}


def _count_rpca(c, result, *args):
    c["decompose.iterations"] += result.iterations
    c["decompose.converged"] += bool(result.converged)


def _count_svt(c, result, A, *args):
    c["linalg.svt_flop"] += svt_flops(*result.shape)


def _count_qr(c, result, A, *args):
    c["linalg.qr_pivot_cols"] += A.shape[1]
    c["linalg.qr_pivot_bytes"] += 8 * A.size


def _count_train(c, result, ts, cfg, *args):
    c["forecast.epochs"] += cfg.epochs


def _count_normals(c, result, *args):
    c["rng.normal_draws"] += result.size


def _count_sample(c, result, *args):
    c["rng.sample_draws"] += result.size


def _count_write(c, result, A, *args):
    c["matio.write_bytes"] += 16 + 8 * A.size


def _count_read(c, result, *args):
    c["matio.read_bytes"] += 16 + 8 * result.size


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the pipeline reaches."""
    from sparsesense import decompose, forecast, matio, osp, pipeline, synth
    from sparsesense.rng import Xoshiro256pp

    for stage, fn in list(pipeline.STAGE_FUNCS.items()):
        pipeline.STAGE_FUNCS[stage] = tracer.wrap(f"pipeline.{stage}", fn)
    targets = [
        (decompose, "rpca", "decompose.rpca", _count_rpca),
        (decompose, "singular_value_threshold", "linalg.svt", _count_svt),
        (decompose, "soft_threshold", "linalg.shrink", None),
        (osp, "svd_truncated", "linalg.svd_truncated", None),
        (osp, "qr_column_pivot", "linalg.qr_pivot", _count_qr),
        (osp, "pseudoinverse", "linalg.pinv", None),
        (osp, "fit_basis", "osp.fit_basis", None),
        (osp, "compress", "osp.compress", None),
        (osp, "reconstruct", "osp.reconstruct", None),
        (osp, "save_basis", "osp.save_basis", None),
        (osp, "load_basis", "osp.load_basis", None),
        (forecast, "train", "forecast.train", _count_train),
        (forecast, "loss_and_grads", "forecast.step", None),
        (forecast.AdamState, "step", "forecast.adam", None),
        (forecast, "predict_multistep", "forecast.predict", None),
        (forecast, "lstm_forward", "forecast.rollout", None),
        (forecast, "interpolate_uniform", "forecast.interpolate", None),
        (forecast, "save_model", "forecast.save_model", None),
        (forecast, "load_model", "forecast.load_model", None),
        (synth, "generate_ground_truth", "synth.ground_truth", None),
        (synth, "apply_scenario", "synth.scenario", None),
        (synth, "substream", "rng.substream", None),
        (Xoshiro256pp, "normals", "rng.normals", _count_normals),
        (Xoshiro256pp, "sample_without_replacement", "rng.sample", _count_sample),
        (matio, "write_matrix", "matio.write", _count_write),
        (matio, "read_matrix", "matio.read", _count_read),
        (matio, "write_matrix_csv", "matio.write_csv", None),
        (matio, "read_matrix_csv", "matio.read_csv", None),
    ]
    for owner, attribute, name, count in targets:
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), count))
