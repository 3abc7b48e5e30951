#!/usr/bin/env python3
"""Run the full synth -> clean -> compress -> train -> predict -> evaluate
workflow from a config file and print a per-stage summary.

Usage: python3 scripts/run_workflow.py [--config configs/small.cfg]
       [--out runs/demo] [--seed N]
"""

import argparse
import json
from pathlib import Path

from sparsesense import pipeline
from sparsesense.config import parse_config


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=root / "configs" / "small.cfg")
    parser.add_argument("--out", default=root / "runs" / "demo")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    cfg = parse_config(args.config, args.seed)
    out = Path(args.out)
    reports = pipeline.run_all(cfg, out)

    print(f"{'stage':<10} {'ms':>9}  metrics")
    for stage, report in reports.items():
        metrics = {k: v for k, v in report["metrics"].items()
                   if not isinstance(v, (list, dict))}
        print(f"{stage:<10} {report['elapsed_ms']:>9.1f}  {json.dumps(metrics)}")
    print(f"\nartifacts in {out}")


if __name__ == "__main__":
    main()
