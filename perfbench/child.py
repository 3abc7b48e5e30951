"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the CLI arguments, the output directory, the result file and
whether to trace.  The child records when the program is ready (the
package imported, the config parsed, the output directory created) on the
system-wide monotonic clock, so the parent can subtract its spawn time;
then it times a fixed reference job, one call of `sparsesense.cli.main`
and the reference job again, and writes those times, its peak resident
set and, when traced, the aggregated spans to the result file.
"""

import json
import resource
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed reference job that uses no library code: numpy
    scalar stores of math-library values, a pure-Python integer loop and
    a few small matrix products, the mix of work the pipeline does."""
    import math

    import numpy as np

    out = np.empty(2000)
    B = np.full((200, 200), 0.5)
    t0 = time.perf_counter()
    for _ in range(3):
        for i in range(2000):
            out[i] = math.sqrt(-2.0 * math.log((i + 1) / 2001.0)) * math.cos(0.001 * i)
    x = 0
    for i in range(100_000):
        x = (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
    for _ in range(20):
        B @ B
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import sparsesense
    from sparsesense import cli, config
    from sparsesense.errors import ValidationError

    if Path(sparsesense.__file__).resolve().parent != Path(spec["package"]):
        print(f"error: imported {sparsesense.__file__}, expected the checkout's "
              f"{spec['package']}", file=sys.stderr)
        return 2
    try:
        config.parse_config(spec["config"])
    except (ValidationError, OSError):
        pass  # the CLI reports it below with its own exit code
    Path(spec["out"]).mkdir(parents=True, exist_ok=True)
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    cal_s = calibrate()
    t0 = time.perf_counter()
    code = cli.main(spec["argv"])
    run_s = time.perf_counter() - t0
    cal_s += calibrate()

    result = {"ready_monotonic": ready, "run_s": run_s, "cal_s": cal_s, "exit_code": code,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.aggregate()
    Path(spec["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
