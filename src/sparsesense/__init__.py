"""Robust cleaning, sparse-sensor compression, and LSTM forecasting of
space-time data matrices (rows = spatial points, columns = time samples).

The names below load on first use (PEP 562), so importing the package
loads no numpy: the command line sets its BLAS thread count before numpy
loads (see cli.py).
"""

import importlib

_EXPORTS = {
    "decompose": ("RpcaConfig", "RpcaResult", "pca_reconstruct", "rpca"),
    "errors": ("BoundsError", "ConstraintError", "DegenerateInputError", "SparseSenseError",
               "TrainingDivergenceError", "ValidationError"),
    "forecast": ("LstmModel", "TimeSeries", "TrainConfig", "interpolate_uniform",
                 "lstm_forward", "make_windows", "predict_multistep", "rmse", "train"),
    "linalg": ("SvdFactors", "pseudoinverse", "qr_column_pivot", "singular_value_threshold",
               "soft_threshold", "svd_truncated"),
    "osp": ("SensorBasis", "compress", "compression_ratio", "fit_basis", "reconstruct"),
    "synth": ("GroundTruthSpec", "Scenario", "ScenarioSpec", "apply_scenario",
              "generate_ground_truth"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
