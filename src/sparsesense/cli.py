"""Command-line entry point.

    sparsesense <synth|clean|compress|train|predict|evaluate|run>
                --config PATH [--seed N] [--out DIR]

Exit codes: 0 success, 2 validation error, 3 convergence/training failure,
4 I/O error.  Inputs that ask for an array larger than the host can
allocate (a tiny train.dt, a huge train.horizon) also exit 2: the
MemoryError is reported as one `error:` line, not a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from . import pipeline
from .errors import TrainingDivergenceError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsesense",
        description="Clean, compress, and forecast space-time data matrices.")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in (*pipeline.STAGE_FUNCS, "run"):
        p = sub.add_parser(stage, help=f"run the {stage} stage"
                           if stage != "run" else "run all stages in order")
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seeds in the config file")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.parse_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.stage == "run":
            reports = pipeline.run_all(cfg, out)
            report = reports["clean"]
        else:
            report = pipeline.STAGE_FUNCS[args.stage](cfg, out)
        if report.get("metrics", {}).get("converged") is False:
            print("warning: solver did not converge within max_iters",
                  file=sys.stderr)
            return EXIT_CONVERGENCE
        return EXIT_OK
    except TrainingDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
