"""Frequency-domain denoising and short-horizon forecasting for evenly sampled series."""

from .data_io import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    CsvFormatError,
    NormStats,
    SyntheticConfig,
    fit_normalization,
    generate_synthetic,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    save_csv,
)
from .filters import filter_forward, moving_average, smooth
from .metrics import MetricsReport, compute_metrics, metrics_csv_line, render_metrics_table
from .predictors import (
    AffineForecaster,
    CopyLastStepPredictor,
    FilteredCopyLastStepPredictor,
    FilterPredictorState,
    RollingReport,
    copy_last_step,
    rolling_evaluate,
)
from .spectral import irfft, rfft
from .tensor import TimeSeriesTensor, slice_window
from .training import (
    TrainConfig,
    TrainingDivergedError,
    TrainingLog,
    WindowedDataset,
    adam_step,
    mae_loss,
    make_windows,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AffineForecaster",
    "CheckpointError",
    "CheckpointShapeError",
    "CheckpointTruncatedError",
    "CheckpointVersionError",
    "CopyLastStepPredictor",
    "CsvFormatError",
    "FilterPredictorState",
    "FilteredCopyLastStepPredictor",
    "MetricsReport",
    "NormStats",
    "RollingReport",
    "SyntheticConfig",
    "TimeSeriesTensor",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainingLog",
    "WindowedDataset",
    "adam_step",
    "compute_metrics",
    "copy_last_step",
    "filter_forward",
    "fit_normalization",
    "generate_synthetic",
    "irfft",
    "load_checkpoint",
    "load_csv",
    "mae_loss",
    "make_windows",
    "metrics_csv_line",
    "moving_average",
    "render_metrics_table",
    "rfft",
    "rolling_evaluate",
    "save_checkpoint",
    "save_csv",
    "slice_window",
    "smooth",
    "train",
]
