"""Record the goldens the benchmark's checks compare against.

    python3 perfbench/record_goldens.py

For every program seed that workload seeds 0..GOLDEN_SEEDS-1 use, runs
the workload once and writes perfbench/goldens.json: the sha256 of the
synth-mix artifacts, and the forecast_rmse of every workload that
evaluates.  The generator is fully specified, so those bytes are the only
right answer; the recorded forecast_rmse is the accuracy a later change
may not lose (run.RMSE_RATIO).  Re-record only when a workload's config
changes, never to absorb a change of the library.
"""

import json
import sys
import time

import run

GOLDEN_SEEDS = 32


def main() -> int:
    goldens = {}
    run.GOLDENS.unlink(missing_ok=True)
    rep_dir = run.WORK / "goldens"
    for wl in run.WORKLOADS.values():
        recorded = {}
        for seed in range(GOLDEN_SEEDS * wl.instances):
            rep = run.run_rep(wl, seed, False, rep_dir, time.monotonic() + 120)
            if rep["failures"]:
                print(f"{wl.name} seed {seed}: {rep['failures']}", file=sys.stderr)
                return 1
            if wl.stage == "synth":
                recorded[str(seed)] = {name: run.sha256(rep_dir / "out" / name)
                                       for name in run.ARTIFACT_NAMES}
            elif "forecast_rmse" in rep:
                recorded[str(seed)] = {"forecast_rmse": rep["forecast_rmse"]}
        goldens[wl.name] = recorded
        print(f"{wl.name}: recorded {len(recorded)} program seeds", flush=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
