#!/usr/bin/env python3
"""Measure per-epoch training wall time as a function of channel count,
with the architecture held fixed (hidden 128, dense 128, window 50).

The recurrent and dense layers cost the same regardless of channel count,
so the measured ratio between a wide and a narrow input flattens well
below the raw channel ratio; this script prints the actual curve for the
current host.  Run as a script, BLAS runs on one thread unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is already set.
Each width is trained once untimed, then timed in interleaved rounds; the
table shows the minimum of five rounds per width and its ratio to the
first width.

Usage: python3 scripts/timing_comparison.py [--channels 10 100 500 2000]
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse
import time

import numpy as np

from sparsesense.forecast import TimeSeries, TrainConfig, train

WINDOW, HIDDEN, DENSE = 50, 128, 128
REPEATS = 5


def epoch_time(channels: int, epochs: int = 2) -> float:
    rng = np.random.default_rng(channels)
    values = rng.standard_normal((160, channels))
    ts = TimeSeries(0.5 * np.arange(160), values)
    cfg = TrainConfig(window=WINDOW, epochs=epochs, hidden_dim=HIDDEN,
                      dense_dim=DENSE, dropout=0.0, learning_rate=1e-4, seed=0)
    t0 = time.perf_counter()
    train(ts, cfg)
    return (time.perf_counter() - t0) / epochs


def epoch_times(widths: list[int]) -> dict[int, list[float]]:
    """Seconds per epoch of each width in REPEATS interleaved rounds,
    after one untimed warm-up run per width."""
    for channels in widths:
        epoch_time(channels)
    times = {channels: [] for channels in widths}
    for _ in range(REPEATS):
        for channels in widths:
            times[channels].append(epoch_time(channels))
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--channels", type=int, nargs="+",
                        default=[10, 100, 500, 2000])
    args = parser.parse_args()

    times = epoch_times(args.channels)
    base = min(times[args.channels[0]])
    print(f"{'channels':>8} {'s/epoch':>10} {'ratio':>7}")
    for channels in args.channels:
        seconds = min(times[channels])
        print(f"{channels:>8} {seconds:>10.3f} {seconds / base:>6.1f}x")


if __name__ == "__main__":
    main()
