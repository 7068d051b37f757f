"""Tensorized least-squares SVM for multitask regression.

Tasks live on a multi-index grid and share a CP-factorized weight tensor:
a common matrix spans all tasks while per-mode factor rows specialize
them. Fitting alternates dual linear-system solves over the shared matrix
and the factor rows; linear and RBF kernels are supported, with an
independent per-task LSSVM as the comparison baseline.

Every exported name is imported from its submodule on first use, so a
process that only reads data (`TaskGrid`, `load_csv`) loads `data`,
`taskgrid`, `errors`, `linsys` and `textio`, and never the solver, the
models, the kernels or scipy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "TaskGrid": "taskgrid",
    "ModeFactors": "taskgrid",
    "linearize": "taskgrid",
    "delinearize": "taskgrid",
    "KernelSpec": "kernels",
    "gram": "kernels",
    "MtlDataset": "data",
    "SyntheticSpec": "data",
    "generate_synthetic": "data",
    "save_csv": "data",
    "load_csv": "data",
    "kfold_split": "data",
    "load_student_performance": "realdata",
    "FitConfig": "solver",
    "FitState": "solver",
    "fit": "solver",
    "fit_many": "solver",
    "TrainedModel": "model",
    "predict_primal": "model",
    "predict_dual": "model",
    "save_model": "model",
    "load_model": "model",
    "rmse": "metrics",
    "q_squared": "metrics",
    "correlation": "metrics",
    "EvalReport": "metrics",
    "evaluate_predictions": "metrics",
    "LssvmModel": "baseline",
    "fit_independent": "baseline",
    "CvPlan": "experiments",
    "CvResult": "experiments",
    "run_cv": "experiments",
    "BenchmarkResult": "experiments",
    "run_benchmark": "experiments",
    "ConfigError": "errors",
    "DataError": "errors",
    "SolverError": "errors",
    "UnsupportedOperation": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
