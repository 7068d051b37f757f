"""Command-line front end.

Subcommands: generate, train, predict, evaluate, cv, benchmark. Every
command is deterministic for fixed flags and seed, and emitted JSON
contains no timestamps, so reruns produce byte-identical files at a fixed
BLAS thread count. LAPACK's threaded Cholesky (`dpotrf`) sums in an order
that depends on the thread count, so RBF outputs can differ in their last
bits between, say, OPENBLAS_NUM_THREADS=1 and =2.

A config file is a JSON object of known keys, whose numbers are JSON
numbers (whole where a field counts) and whose list fields are non-empty
lists; anything else exits 2 before any file is read or written.

Exit codes: 0 success, 2 usage or config error, 3 data error, 4 solver
error.

Each command imports what it needs: predict and evaluate load neither the
solver nor the experiments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .baseline import LssvmModel, fit_independent
from .data import SyntheticSpec, generate_synthetic, load_csv, save_csv
from .errors import ConfigError, DataError, SolverError, config_object, positive, whole
from .kernels import KernelSpec
from .metrics import evaluate_predictions
from .model import TrainedModel, load_model, save_model
from .taskgrid import TaskGrid, delinearize
from .textio import csv_line, csv_rows, write_json

__all__ = ["main", "build_parser"]

METHODS = (TrainedModel.method, LssvmModel.method)


# The train and cv commands call the solver and the experiments through
# these names of this module (benchmarks/tracing.py wraps them here). Each
# imports its module on the first call, so predict and evaluate load neither.
def fit(data, config):
    from . import solver

    return solver.fit(data, config)


def run_cv(data, method, plan, seed):
    from . import experiments

    return experiments.run_cv(data, method, plan, seed=seed)


def _load_json_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _parse_grid(text: str) -> TaskGrid:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"grid must be comma-separated integers, got {text!r}") from None
    return TaskGrid(sizes)


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def cmd_generate(args) -> int:
    spec = SyntheticSpec.from_config(_load_json_config(args.config))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    train, test, truth = generate_synthetic(spec)
    out = _out_dir(args)
    save_csv(train, os.path.join(out, "train.csv"))
    save_csv(test, os.path.join(out, "test.csv"))
    write_json(
        os.path.join(out, "truth.json"),
        {
            "spec": spec.to_config(),
            "shared": truth.shared.tolist(),
            "mode_factors": [f.tolist() for f in truth.factors.factors],
            "biases": truth.biases.tolist(),
        },
    )
    print(
        f"wrote train.csv ({train.n_samples} samples), test.csv ({test.n_samples} samples), "
        f"truth.json for {train.grid.n_tasks} tasks in {out}"
    )
    return 0


def _write_trace(path: str, trace) -> None:
    lines = [csv_line(["iteration", "step", "objective", "train_rmse", "factor_change"])]
    for entry in trace:
        change = "" if entry.factor_change is None else repr(entry.factor_change)
        lines.append(
            csv_line(
                [entry.iteration, entry.step, repr(entry.objective), repr(entry.train_rmse), change]
            )
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def _baseline_config(path: str) -> tuple[float, KernelSpec]:
    """The cost and kernel of a baseline config file, checked."""
    cfg = config_object(_load_json_config(path), "baseline config", ("C", "kernel"))
    return positive(cfg["C"], "C"), KernelSpec.from_config(cfg["kernel"])


def cmd_train(args) -> int:
    # the config is checked before anything is read or written
    if args.method == LssvmModel.method:
        C, kernel = _baseline_config(args.config)
    else:
        from .solver import FitConfig

        config = FitConfig.from_config(_load_json_config(args.config))
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.max_iters is not None:
            config = dataclasses.replace(config, max_iters=args.max_iters)
    data = load_csv(args.train, _parse_grid(args.grid))
    if args.method == LssvmModel.method:
        model = fit_independent(data, C, kernel)
        out = _out_dir(args)
        save_model(model, os.path.join(out, "model.json"))
        print(f"fit {data.grid.n_tasks} independent tasks; wrote model.json in {out}")
        return 0
    state = fit(data, config)
    out = _out_dir(args)
    save_model(TrainedModel.from_fit(data, state, config.kernel), os.path.join(out, "model.json"))
    _write_trace(os.path.join(out, "trace.csv"), state.trace)
    for warning in state.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    status = (
        f"converged after {state.iterations} iterations"
        if state.converged
        else f"stopped at max_iters={config.max_iters} without meeting tol={config.tol}"
    )
    print(f"{status}; wrote model.json and trace.csv in {out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.data, model.grid, allow_empty_tasks=True)
    blocks = model.predict_dataset(data)
    out = _out_dir(args)
    path = os.path.join(out, "predictions.csv")
    lines = [
        csv_line(
            [f"t_{n}" for n in range(1, model.grid.n_modes + 1)]
            + [f"x_{j}" for j in range(1, data.n_features + 1)]
            + ["y_hat"]
        )
    ]
    for t, block in enumerate(blocks, start=1):
        rows = np.column_stack((data.inputs[t - 1], block))
        lines.append(csv_rows(delinearize(model.grid, t), rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
    print(f"wrote {path} ({data.n_samples} predictions)")
    return 0


def cmd_evaluate(args) -> int:
    entries = []
    for model_path in args.model:
        model = load_model(model_path)
        data = load_csv(args.data, model.grid)
        report = evaluate_predictions(data, model.predict_dataset(data))
        entries.append((model_path, model, report))
        print(f"== {model.method} ({os.path.basename(model_path)}) ==")
        print(report.format_table())
        print()
    if len(entries) > 1:
        width = max(len(m.method) for _, m, _ in entries)
        print(f"{'method':<{width}}  {'rmse':>12}  {'q2':>12}  {'correlation':>12}")
        for _, model, report in entries:
            print(
                f"{model.method:<{width}}  {report.rmse:12.6f}  {report.q2:12.6f}  "
                f"{report.correlation:12.6f}"
            )
    out = _out_dir(args)
    write_json(
        os.path.join(out, "evaluation.json"),
        {
            "models": [
                {
                    "file": os.path.basename(path),
                    "method": model.method,
                    "report": report.to_dict(),
                }
                for path, model, report in entries
            ]
        },
    )
    return 0


def cmd_cv(args) -> int:
    from .experiments import CvPlan

    plan = CvPlan.from_config(_load_json_config(args.config) if args.config else {})
    data = load_csv(args.train, _parse_grid(args.grid))
    result = run_cv(data, args.method, plan, seed=args.seed)
    out = _out_dir(args)
    write_json(os.path.join(out, "cv.json"), result.to_dict())
    best = result.best
    print(
        f"best cell for {args.method}: rank={best.rank} cost={best.cost} gamma={best.gamma} "
        f"mean validation rmse={best.mean_rmse:.6f}; wrote cv.json in {out}"
    )
    return 0


def cmd_benchmark(args) -> int:
    from .experiments import CvPlan, run_benchmark

    cfg = config_object(
        _load_json_config(args.config), "benchmark config", ("synthetic", "snrs"), ("reps", "base_seed", "methods")
    )
    template = SyntheticSpec.from_config(cfg["synthetic"])
    base_seed = whole(cfg.get("base_seed", 0), "base_seed", 0)  # checked also where --seed replaces it
    if args.seed is not None:
        base_seed = args.seed
    methods = config_object(cfg.get("methods", {method: {} for method in METHODS}), "benchmark methods", (), METHODS)
    plans = {name: CvPlan.from_config(plan) for name, plan in methods.items()}
    result = run_benchmark(template, cfg["snrs"], cfg.get("reps", 10), base_seed, plans)
    out = _out_dir(args)
    runs_dir = os.path.join(out, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    for run in result.runs:
        snr_index = result.snrs.index(run.snr)
        name = f"run_s{snr_index}_r{run.rep}_{run.method}.json"
        write_json(os.path.join(runs_dir, name), run.to_dict())
    write_json(os.path.join(out, "benchmark.json"), result.to_dict())
    columns = ["snr", "method", "reps", "rmse", "q2", "correlation"]
    lines = [csv_line(columns)] + [csv_line(row[c] for c in columns) for row in result.summary_rows()]
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
    print(
        f"benchmark finished: {len(result.runs)} runs over snrs={list(result.snrs)} x "
        f"{list(result.methods)}; wrote benchmark.json, summary.csv, runs/ in {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlssvm",
        description="Tensorized multitask least-squares SVM regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic multitask dataset")
    p.add_argument("--config", required=True, help="synthetic spec JSON")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model on a training CSV")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--grid", required=True, help="task grid sizes, e.g. 2,3")
    p.add_argument("--method", choices=METHODS, default=TrainedModel.method, help="model family to fit")
    p.add_argument("--config", required=True, help="fit config JSON")
    p.add_argument("--max-iters", type=int, default=None, help="override max iterations")
    p.add_argument("--seed", type=int, default=None, help="override factor init seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict targets for a CSV with a saved model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--data", required=True, help="input CSV (y column is ignored)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score one or more models on a labeled CSV")
    p.add_argument(
        "--model", action="append", required=True, help="model JSON file (repeatable)"
    )
    p.add_argument("--data", required=True, help="labeled CSV")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="grid-search hyperparameters by k-fold RMSE")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--grid", required=True, help="task grid sizes, e.g. 2,3")
    p.add_argument("--method", choices=METHODS, default=TrainedModel.method, help="method to tune")
    p.add_argument("--config", default=None, help="cv plan JSON (defaults apply)")
    p.add_argument("--seed", type=int, default=0, help="fold and init seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("benchmark", help="multi-SNR comparison of tuned methods")
    p.add_argument("--config", required=True, help="benchmark config JSON")
    p.add_argument("--seed", type=int, default=None, help="override base seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
