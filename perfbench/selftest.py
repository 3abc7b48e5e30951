"""Self-test of the benchmark harness, seconds long.

    python3 perfbench/selftest.py

Runs a variant at the configs/small.cfg shape untraced and traced, and a
config the CLI rejects with exit code 2 untraced and traced, then asserts
that every metric BENCHMARK.json names is emitted with its unit, that in
every traced repetition the span self times under each stage sum to the
stage span, and that the rejected config counts as a failed repetition
while the benchmark still produces its result.  It also summarizes a
traced run in which no child wrote a result (every one timed out).
"""

import json
import sys
import time

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    small = run._workload("selftest-small", "run", 1)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(small, 0, 1.0, trace, time.monotonic())
        check(result["correct"] and result["failed"] == 0, f"{kind} run failed")
        for metric in declared[kind]:
            emitted = result["metrics"].get(metric["name"])
            check(emitted is not None and emitted["unit"] == metric["unit"],
                  f"{metric['name']} not emitted with unit {metric['unit']}")
        check(set(result["metrics"]) == {m["name"] for m in declared[kind]},
              f"{kind} run emits metrics BENCHMARK.json does not name")

    saved = json.loads((run.WORK / "results" / "selftest-small-seed0-trace1.json").read_text())
    traced = [r for r in saved["repetitions"] if r["traced"]]
    check(bool(traced), "no traced repetition")
    for rep in traced:
        stages = rep["trace"]["stages"]
        check(len(stages) == len(run.ALL_STAGES), "a stage span is missing")
        for stage, v in stages.items():
            check(abs(v["self_sum_s"] - v["total_s"]) <= 1e-6,
                  f"{stage}: self times sum to {v['self_sum_s']}, span is {v['total_s']}")

    bad = run._workload("selftest-bad", "run", 1)
    for trace in (False, True):
        result = run.run(bad, 0, 1.0, trace, time.monotonic())
        check(result["attempted"] >= 1 and result["failed"] == result["attempted"],
              f"rejected config not counted as failed (trace {trace})")
        check(not result["correct"], f"rejected config reported as correct (trace {trace})")

    timed_out = [{"seed": 0, "traced": traced, "failures": ["timed out"]}
                 for traced in (False, True)]
    metrics, _ = run.summarize(timed_out, True)
    check(metrics["trace.overhead_s"]["value"] is None, "overhead of runs without results")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
