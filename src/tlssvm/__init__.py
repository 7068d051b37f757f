"""Tensorized least-squares SVM for multitask regression.

Tasks live on a multi-index grid and share a CP-factorized weight tensor:
a common matrix spans all tasks while per-mode factor rows specialize
them. Fitting alternates dual linear-system solves over the shared matrix
and the factor rows; linear and RBF kernels are supported, with an
independent per-task LSSVM as the comparison baseline.
"""

from .baseline import LssvmModel, fit_independent
from .data import (
    MtlDataset,
    SyntheticSpec,
    generate_synthetic,
    kfold_split,
    load_csv,
    save_csv,
)
from .errors import ConfigError, DataError, SolverError, UnsupportedOperation
from .experiments import (
    BenchmarkResult,
    CvPlan,
    CvResult,
    run_benchmark,
    run_cv,
)
from .kernels import KernelSpec, gram
from .metrics import EvalReport, correlation, evaluate_predictions, q_squared, rmse
from .model import TrainedModel, load_model, predict_dual, predict_primal, save_model
from .realdata import load_student_performance
from .solver import FitConfig, FitState, fit, fit_many
from .taskgrid import ModeFactors, TaskGrid, delinearize, linearize

__version__ = "0.1.0"

__all__ = [
    "TaskGrid",
    "ModeFactors",
    "linearize",
    "delinearize",
    "KernelSpec",
    "gram",
    "MtlDataset",
    "SyntheticSpec",
    "generate_synthetic",
    "save_csv",
    "load_csv",
    "kfold_split",
    "load_student_performance",
    "FitConfig",
    "FitState",
    "fit",
    "fit_many",
    "TrainedModel",
    "predict_primal",
    "predict_dual",
    "save_model",
    "load_model",
    "rmse",
    "q_squared",
    "correlation",
    "EvalReport",
    "evaluate_predictions",
    "LssvmModel",
    "fit_independent",
    "CvPlan",
    "CvResult",
    "run_cv",
    "BenchmarkResult",
    "run_benchmark",
    "ConfigError",
    "DataError",
    "SolverError",
    "UnsupportedOperation",
]
