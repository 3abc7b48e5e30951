"""Robust cleaning, sparse-sensor compression, and LSTM forecasting of
space-time data matrices (rows = spatial points, columns = time samples)."""

from .decompose import RpcaConfig, RpcaResult, pca_reconstruct, rpca
from .errors import (
    BoundsError,
    ConstraintError,
    DegenerateInputError,
    SparseSenseError,
    TrainingDivergenceError,
    ValidationError,
)
from .forecast import (
    LstmModel,
    TimeSeries,
    TrainConfig,
    interpolate_uniform,
    lstm_forward,
    make_windows,
    predict_multistep,
    rmse,
    train,
)
from .linalg import (
    SvdFactors,
    pseudoinverse,
    qr_column_pivot,
    singular_value_threshold,
    soft_threshold,
    svd_truncated,
)
from .osp import (
    SensorBasis,
    compress,
    compression_ratio,
    fit_basis,
    reconstruct,
)
from .synth import (
    GroundTruthSpec,
    Scenario,
    ScenarioSpec,
    apply_scenario,
    generate_ground_truth,
)

__version__ = "0.1.0"
