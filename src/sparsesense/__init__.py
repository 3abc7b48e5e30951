"""Robust cleaning, sparse-sensor compression, and LSTM forecasting of
space-time data matrices (rows = spatial points, columns = time samples).

Import the modules by name (`sparsesense.synth`, `.decompose`, `.osp`,
`.forecast`, `.pipeline`, ...).  The package itself imports nothing, so
the command line can set its BLAS thread count before numpy loads (see
cli.py).
"""

__version__ = "0.1.0"
