from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tlssvm.cli import main
from tlssvm.data import MtlDataset, SyntheticSpec, kfold_split, load_csv, save_csv
from tlssvm.errors import ConfigError
from tlssvm.experiments import CvPlan, run_benchmark
from tlssvm.kernels import KernelSpec
from tlssvm.model import load_model
from tlssvm.solver import FitConfig, init_factors
from tlssvm.taskgrid import TaskGrid

SPEC = {
    "d": 3, "mode_sizes": [2, 2], "k_true": 2, "train_per_task": 10,
    "test_per_task": 5, "snr": 5.0, "seed": 11,
}
FIT = {"K": 2, "C": 100.0, "kernel": {"family": "linear"}, "max_iters": 40, "tol": 1e-6}


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate + train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    spec_cfg = write_json(root / "spec.json", SPEC)
    fit_cfg = write_json(root / "fit.json", FIT)
    data_dir = root / "data"
    model_dir = root / "model"
    assert main(["generate", "--config", spec_cfg, "--out-dir", str(data_dir)]) == 0
    assert (
        main(
            [
                "train", "--train", str(data_dir / "train.csv"), "--grid", "2,2",
                "--config", fit_cfg, "--out-dir", str(model_dir),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "spec_cfg": spec_cfg,
        "fit_cfg": fit_cfg,
        "train_csv": str(data_dir / "train.csv"),
        "test_csv": str(data_dir / "test.csv"),
        "model": str(model_dir / "model.json"),
        "trace": str(model_dir / "trace.csv"),
    }


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_writes_all_files(self, pipeline, capsys):
        root = pipeline["root"]
        assert (root / "data" / "train.csv").exists()
        assert (root / "data" / "test.csv").exists()
        truth = json.loads((root / "data" / "truth.json").read_text())
        assert set(truth) == {"spec", "shared", "mode_factors", "biases"}
        assert len(truth["biases"]) == 4
        train = load_csv(pipeline["train_csv"], TaskGrid((2, 2)))
        assert train.task_sizes == (10, 10, 10, 10)

    def test_reruns_are_byte_identical(self, pipeline, tmp_path):
        for sub in ("a", "b"):
            assert (
                main(["generate", "--config", pipeline["spec_cfg"], "--out-dir", str(tmp_path / sub)])
                == 0
            )
        for name in ("train.csv", "test.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_nonpositive_snr_is_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {**SPEC, "snr": 0.0})
        assert main(["generate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "snr" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"d": "abc"}, {"mode_sizes": [0, 3]}], ids=["d", "mode_sizes"])
    def test_bad_spec_value_is_usage_error(self, tmp_path, capsys, change):
        cfg = write_json(tmp_path / "bad.json", {**SPEC, **change})
        assert main(["generate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "none.json")]) == 2
        assert "not found" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_message(self, pipeline, capsys):
        model = load_model(pipeline["model"])
        assert model.method == "tlssvm"
        trace = read_trace(pipeline["trace"])
        assert trace[0]["step"] == "init"
        assert trace[0]["iteration"] == "0"

    def test_trace_objective_non_increasing(self, pipeline):
        objs = [float(row["objective"]) for row in read_trace(pipeline["trace"])]
        assert len(objs) > 2
        for a, b in zip(objs, objs[1:]):
            assert b <= a * (1 + 1e-8)

    def test_max_iters_override_runs_one_iteration(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--config", pipeline["fit_cfg"], "--max-iters", "1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        iterations = {row["iteration"] for row in read_trace(str(tmp_path / "trace.csv"))}
        assert iterations == {"0", "1"}
        out = capsys.readouterr().out
        assert "max_iters=1" in out or "converged after 1" in out

    def test_bad_config_key_is_usage_error(self, pipeline, tmp_path, capsys):
        cfg = write_json(tmp_path / "fit.json", {**FIT, "momentum": 0.9})
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "method, config",
        [("tlssvm", {**FIT, "C": float("inf")}),
         ("lssvm-independent", {"C": float("inf"), "kernel": {"family": "linear"}}),
         ("lssvm-independent", {"C": -1.0, "kernel": {"family": "linear"}}),
         ("lssvm-independent", {"C": "abc", "kernel": {"family": "linear"}}),
         ("lssvm-independent", {"C": None, "kernel": {"family": "linear"}}),
         ("tlssvm", {**FIT, "C": "abc"}),
         ("tlssvm", {**FIT, "K": 1.5})],
    )
    def test_bad_hyperparameter_is_usage_error(self, pipeline, tmp_path, capsys, method, config):
        cfg = write_json(tmp_path / "fit.json", config)
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "2,2", "--method", method,
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "method, config, kind",
        [("tlssvm", {**FIT, "jitter": 0.1}, "fit"),
         ("lssvm-independent", {"C": 1.0, "kernel": {"family": "linear"}, "jitter": 0.1}, "baseline")],
    )
    def test_jitter_key_is_unknown(self, pipeline, tmp_path, capsys, method, config, kind):
        # C is the only regularization; what a jitter j did is the cost 1/(1/C + j)
        cfg = write_json(tmp_path / "fit.json", config)
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "2,2", "--method", method,
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: unknown {kind} config keys: ['jitter']\n"
        assert not (tmp_path / "model.json").exists()

    def test_grid_mismatch_is_data_error(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "2,3",
                "--config", pipeline["fit_cfg"], "--out-dir", str(tmp_path),
            ]
        )
        assert code == 3

    def test_baseline_method(self, pipeline, tmp_path, capsys):
        cfg = write_json(tmp_path / "base.json", {"C": 10.0, "kernel": {"family": "linear"}})
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--method", "lssvm-independent", "--config", cfg,
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert load_model(str(tmp_path / "model.json")).method == "lssvm-independent"
        assert not (tmp_path / "trace.csv").exists()

    def test_zero_targets_train_the_zero_model(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = TaskGrid((2,))
        data = MtlDataset(
            grid, (rng.normal(size=(4, 2)), rng.normal(size=(4, 2))),
            (np.zeros(4), np.zeros(4)),
        )
        train_csv = tmp_path / "zeros.csv"
        save_csv(data, str(train_csv))
        cfg = write_json(tmp_path / "fit.json", {"K": 1, "C": 10.0, "kernel": {"family": "linear"}})
        code = main(
            [
                "train", "--train", str(train_csv), "--grid", "2",
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        model = load_model(str(tmp_path / "model.json"))
        assert not model.explicit.any() and not model.biases.any()
        assert not np.concatenate(model.predict_dataset(data)).any()


class TestPredict:
    def test_predictions_csv(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "predict", "--model", pipeline["model"], "--data", pipeline["test_csv"],
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_1", "t_2", "x_1", "x_2", "x_3", "y_hat"]
        assert len(rows) == 21
        model = load_model(pipeline["model"])
        test = load_csv(pipeline["test_csv"], model.grid)
        expected = np.concatenate(model.predict_dataset(test))
        np.testing.assert_array_equal(np.array([float(r[-1]) for r in rows[1:]]), expected)

    def test_corrupt_model_is_data_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{broken")
        code = main(
            ["predict", "--model", str(bad), "--data", pipeline["test_csv"], "--out-dir", str(tmp_path)]
        )
        assert code == 3


    def test_non_finite_model_is_data_error(self, pipeline, tmp_path, capsys):
        payload = json.loads(Path(pipeline["model"]).read_text())
        payload["explicit"][0][0] = float("nan")
        bad = write_json(tmp_path / "model.json", payload)
        code = main(["predict", "--model", bad, "--data", pipeline["test_csv"], "--out-dir", str(tmp_path)])
        assert code == 3
        assert "corrupted model file" in capsys.readouterr().err
        assert not (tmp_path / "predictions.csv").exists()


class TestEvaluate:
    def test_single_model_report(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "evaluate", "--model", pipeline["model"], "--data", pipeline["test_csv"],
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pooled" in out
        payload = json.loads((tmp_path / "evaluation.json").read_text())
        assert len(payload["models"]) == 1
        report = payload["models"][0]["report"]
        assert set(report["pooled"]) == {"rmse", "q2", "correlation"}
        assert len(report["per_task"]) == 4

    def test_two_models_comparison_table(self, pipeline, tmp_path, capsys):
        cfg = write_json(tmp_path / "base.json", {"C": 10.0, "kernel": {"family": "linear"}})
        base_dir = tmp_path / "base"
        assert (
            main(
                [
                    "train", "--train", pipeline["train_csv"], "--grid", "2,2",
                    "--method", "lssvm-independent", "--config", cfg,
                    "--out-dir", str(base_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "evaluate", "--model", pipeline["model"], "--model", str(base_dir / "model.json"),
                "--data", pipeline["test_csv"], "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method" in out
        assert "tlssvm" in out and "lssvm-independent" in out
        payload = json.loads((tmp_path / "evaluation.json").read_text())
        assert [m["method"] for m in payload["models"]] == ["tlssvm", "lssvm-independent"]

    def test_perfect_predictions_score_one(self, pipeline, tmp_path, capsys):
        model = load_model(pipeline["model"])
        test = load_csv(pipeline["test_csv"], model.grid)
        perfect = MtlDataset(
            test.grid, test.inputs, tuple(model.predict_dataset(test))
        )
        perfect_csv = tmp_path / "perfect.csv"
        save_csv(perfect, str(perfect_csv))
        code = main(
            ["evaluate", "--model", pipeline["model"], "--data", str(perfect_csv), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "evaluation.json").read_text())
        pooled = payload["models"][0]["report"]["pooled"]
        assert pooled["q2"] == 1.0
        assert pooled["rmse"] == 0.0

    def test_grid_mismatch_is_data_error(self, pipeline, tmp_path, capsys):
        rng = np.random.default_rng(1)
        other = MtlDataset(
            TaskGrid((2,)), (rng.normal(size=(3, 3)), rng.normal(size=(3, 3))),
            (rng.normal(size=3), rng.normal(size=3)),
        )
        other_csv = tmp_path / "other.csv"
        save_csv(other, str(other_csv))
        code = main(
            ["evaluate", "--model", pipeline["model"], "--data", str(other_csv), "--out-dir", str(tmp_path)]
        )
        assert code == 3


class TestFeatureWidth:
    @pytest.mark.parametrize("method", ["tlssvm", "lssvm-independent"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_wrong_width_is_data_error(self, pipeline, tmp_path, capsys, method, command):
        model = pipeline["model"]
        if method == "lssvm-independent":
            cfg = write_json(tmp_path / "base.json", {"C": 10.0, "kernel": {"family": "linear"}})
            assert main(
                [
                    "train", "--train", pipeline["train_csv"], "--grid", "2,2", "--method", method,
                    "--config", cfg, "--out-dir", str(tmp_path / "base"),
                ]
            ) == 0
            model = str(tmp_path / "base" / "model.json")
        rng = np.random.default_rng(2)
        narrow = MtlDataset(
            TaskGrid((2, 2)), tuple(rng.normal(size=(3, 2)) for _ in range(4)),
            tuple(rng.normal(size=3) for _ in range(4)),
        )
        narrow_csv = tmp_path / "narrow.csv"
        save_csv(narrow, str(narrow_csv))
        capsys.readouterr()
        code = main([command, "--model", model, "--data", str(narrow_csv), "--out-dir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == "error: dataset has 2 features, model expects 3\n"


class TestCv:
    def test_single_cell_grid_is_selected(self, pipeline, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cv.json.in",
            {"kernel_family": "linear", "ranks": [2], "costs": [10.0], "folds": 2, "max_iters": 10},
        )
        code = main(
            [
                "cv", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cv.json").read_text())
        assert len(payload["cells"]) == 1
        assert payload["best"] == payload["cells"][0]
        assert "best cell" in capsys.readouterr().out

    def test_best_not_worse_than_any_cell(self, pipeline, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cv.json.in",
            {"kernel_family": "linear", "ranks": [1, 2], "costs": [1.0, 10.0], "folds": 2, "max_iters": 10},
        )
        code = main(
            [
                "cv", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cv.json").read_text())
        assert len(payload["cells"]) == 4
        best = payload["best"]["mean_rmse"]
        assert all(best <= c["mean_rmse"] for c in payload["cells"])

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        cfg = write_json(
            tmp_path / "cv.json.in",
            {"kernel_family": "linear", "ranks": [1], "costs": [1.0], "folds": 2, "max_iters": 5},
        )
        blobs = []
        for sub in ("a", "b"):
            assert (
                main(
                    [
                        "cv", "--train", pipeline["train_csv"], "--grid", "2,2",
                        "--config", cfg, "--out-dir", str(tmp_path / sub),
                    ]
                )
                == 0
            )
            blobs.append((tmp_path / sub / "cv.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "method, config",
        [("lssvm-independent", {"costs": [-1.0]}),
         ("tlssvm", {"costs": [1.0, float("inf")]}),
         ("tlssvm", {"ranks": [0]}),
         ("tlssvm", {"costs": ["x"]}),
         ("tlssvm", {"ranks": [1.5]}),
         ("tlssvm", {"ranks": [float("inf")]}),
         ("tlssvm", {"costs": 5}),
         ("tlssvm", {"folds": 2.5})],
    )
    def test_out_of_range_plan_is_usage_error(self, pipeline, tmp_path, capsys, method, config):
        cfg = write_json(tmp_path / "cv.json.in", {"ranks": [1], "costs": [1.0], "folds": 2, **config})
        code = main(
            [
                "cv", "--train", pipeline["train_csv"], "--grid", "2,2", "--method", method,
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cv.json").exists()

    def test_unknown_config_key_is_usage_error(self, pipeline, tmp_path, capsys):
        cfg = write_json(tmp_path / "cv.json.in", {"n_jobs": 4})
        code = main(
            [
                "cv", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2

    def test_jitter_key_is_unknown(self, pipeline, tmp_path, capsys):
        cfg = write_json(tmp_path / "cv.json.in", {"ranks": [1], "costs": [1.0], "folds": 2, "jitter": 0.1})
        code = main(
            [
                "cv", "--train", pipeline["train_csv"], "--grid", "2,2",
                "--config", cfg, "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: unknown cv config keys: ['jitter']\n"
        assert not (tmp_path / "cv.json").exists()


BENCH = {
    "synthetic": {
        "d": 3, "mode_sizes": [2, 2], "k_true": 2, "train_per_task": 8,
        "test_per_task": 4, "snr": 1.0, "seed": 0,
    },
    "snrs": [5.0, 10.0],
    "reps": 2,
    "base_seed": 3,
    "methods": {
        "tlssvm": {"kernel_family": "linear", "ranks": [2], "costs": [10.0], "folds": 2, "max_iters": 10},
        "lssvm-independent": {"kernel_family": "linear", "costs": [10.0], "folds": 2},
    },
}


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    cfg = write_json(root / "bench.json.in", BENCH)
    assert main(["benchmark", "--config", cfg, "--out-dir", str(root / "out")]) == 0
    return root


class TestBenchmark:
    def test_summary_row_count(self, bench_dir):
        with open(bench_dir / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [(r["snr"], r["method"]) for r in rows] == [
            ("5.0", "tlssvm"), ("5.0", "lssvm-independent"),
            ("10.0", "tlssvm"), ("10.0", "lssvm-independent"),
        ]

    def test_summary_averages_match_run_files(self, bench_dir):
        runs_dir = bench_dir / "out" / "runs"
        run_files = sorted(runs_dir.glob("run_*.json"))
        assert len(run_files) == 8
        runs = [json.loads(p.read_text()) for p in run_files]
        payload = json.loads((bench_dir / "out" / "benchmark.json").read_text())
        for row in payload["summary"]:
            hits = [r for r in runs if r["snr"] == row["snr"] and r["method"] == row["method"]]
            assert len(hits) == row["reps"] == 2
            assert row["rmse"] == pytest.approx(
                np.mean([r["metrics"]["rmse"] for r in hits]), rel=1e-15
            )

    def test_seed_derivation(self, bench_dir):
        runs_dir = bench_dir / "out" / "runs"
        for snr_index in (0, 1):
            for rep in (0, 1):
                payload = json.loads(
                    (runs_dir / f"run_s{snr_index}_r{rep}_tlssvm.json").read_text()
                )
                assert payload["data_seed"] == 3 + 1000 * snr_index + rep

    def test_rerun_is_byte_identical(self, bench_dir, tmp_path):
        cfg = write_json(tmp_path / "bench.json.in", BENCH)
        assert main(["benchmark", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        for name in ("benchmark.json", "summary.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (
                bench_dir / "out" / name
            ).read_bytes()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bench.json.in", {**BENCH, "threads": 2})
        assert main(["benchmark", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    def test_missing_sections_is_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bench.json.in", {"snrs": [1.0]})
        assert main(["benchmark", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "change",
        [{"snrs": 5}, {"reps": "x"}, {"methods": []}, {"methods": {"tlssvm": 5}}],
        ids=["snrs", "reps", "methods", "method-plan"],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, change):
        cfg = write_json(tmp_path / "bench.json.in", {**BENCH, **change})
        assert main(["benchmark", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


CV_PLAN = {"kernel_family": "linear", "ranks": [1], "costs": [1.0], "folds": 2, "max_iters": 2}


class TestWholeNumbers:
    """Every integer field rejects a fractional value instead of truncating it."""

    @pytest.mark.parametrize(
        "command, config, key, value",
        [
            pytest.param(command, config, key, value, id=f"{command}-{key}")
            for command, config, key, value in (
                [("generate", SPEC, key, 2.5) for key in ("d", "k_true", "train_per_task", "test_per_task", "seed")]
                + [("generate", SPEC, "mode_sizes", [2.7, 2])]
                + [("train", FIT, key, 2.5) for key in ("K", "max_iters", "seed")]
                + [("cv", CV_PLAN, key, 2.5) for key in ("folds", "max_iters")]
                + [("cv", CV_PLAN, "ranks", [1.5])]
                + [("benchmark", BENCH, key, 2.5) for key in ("reps", "base_seed")]
                + [("benchmark", BENCH, "synthetic", {**BENCH["synthetic"], "train_per_task": 8.5})]
            )
        ],
    )
    def test_fractional_config_value_is_usage_error(self, pipeline, tmp_path, capsys, command, config, key, value):
        cfg = write_json(tmp_path / "config.json", {**config, key: value})
        args = {
            "generate": [],
            "train": ["--train", pipeline["train_csv"], "--grid", "2,2"],
            "cv": ["--train", pipeline["train_csv"], "--grid", "2,2"],
            "benchmark": [],
        }[command]
        assert main([command, *args, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "whole number" in err
        assert not (tmp_path / "out").exists()  # no output directory, let alone files

    @pytest.mark.parametrize(
        "config",
        [{"C": 2.5}, {"C": 0.0, "kernel": {"family": "linear"}}, {"C": 1.0, "kernel": {"family": "linear"}, "K": 2}],
        ids=["missing-kernel", "zero-cost", "unknown-key"],
    )
    def test_bad_baseline_config_is_usage_error(self, pipeline, tmp_path, capsys, config):
        cfg = write_json(tmp_path / "config.json", config)
        args = ["train", "--train", pipeline["train_csv"], "--grid", "2,2", "--method", "lssvm-independent"]
        assert main([*args, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: TaskGrid((2.7, 2)), id="TaskGrid-mode_sizes"),
            *(
                pytest.param(lambda key=key: SyntheticSpec(**{**SPEC, key: 2.5}), id=f"SyntheticSpec-{key}")
                for key in ("d", "k_true", "train_per_task", "test_per_task", "seed")
            ),
            *(
                pytest.param(lambda key=key: FitConfig(**{**FIT, "kernel": KernelSpec("linear"), key: 2.5}),
                             id=f"FitConfig-{key}")
                for key in ("K", "max_iters", "seed")
            ),
            *(pytest.param(lambda key=key: CvPlan(**{key: 2.5}), id=f"CvPlan-{key}") for key in ("folds", "max_iters")),
            pytest.param(lambda: CvPlan(ranks=(1, 1.5)), id="CvPlan-ranks"),
            pytest.param(lambda: run_benchmark(SyntheticSpec.from_config(SPEC), (5.0,), 2.5, 0, {"tlssvm": CvPlan()}),
                         id="run_benchmark-reps"),
            pytest.param(lambda: run_benchmark(SyntheticSpec.from_config(SPEC), (5.0,), 1, 0.5, {"tlssvm": CvPlan()}),
                         id="run_benchmark-base_seed"),
            pytest.param(lambda: init_factors(TaskGrid((2, 2)), 2.5, 0), id="init_factors-rank"),
        ],
    )
    def test_fractional_value_raises_config_error(self, call):
        with pytest.raises(ConfigError, match="whole number"):
            call()

    def test_fractional_folds_of_a_split_raise_config_error(self, pipeline):
        data = load_csv(pipeline["train_csv"], TaskGrid((2, 2)))
        with pytest.raises(ConfigError, match="whole number"):
            kfold_split(data, 2.5, 0)


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_method_choice(self, pipeline, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "train", "--train", pipeline["train_csv"], "--grid", "2,2",
                    "--method", "svr", "--config", pipeline["fit_cfg"],
                ]
            )
        assert exc.value.code == 2

    def test_bad_grid_string(self, pipeline, tmp_path, capsys):
        code = main(
            [
                "train", "--train", pipeline["train_csv"], "--grid", "two,2",
                "--config", pipeline["fit_cfg"], "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2


COLD_START = """
import sys
import tlssvm
from tlssvm import cli
from tlssvm.data import load_csv
from tlssvm.model import load_model

train_csv, test_csv, model_path, out_dir = sys.argv[1:]
grid = tlssvm.TaskGrid((2, 2))
test = load_csv(test_csv, grid)
load_model(model_path).predict_dataset(test)
for command in ("predict", "evaluate"):
    assert cli.main([command, "--model", model_path, "--data", test_csv, "--out-dir", out_dir]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
config = tlssvm.FitConfig(K=2, C=100.0, kernel=tlssvm.KernelSpec("linear"), max_iters=3)
tlssvm.fit(load_csv(train_csv, grid), config)
assert "scipy.linalg" in sys.modules
"""


class TestColdStart:
    def test_only_training_loads_scipy(self, pipeline, tmp_path):
        # a fresh interpreter: this one has imported scipy long ago
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        args = [pipeline["train_csv"], pipeline["test_csv"], pipeline["model"], str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestThreadCountContract:
    """Reruns are byte-identical at a fixed BLAS thread count (not across counts)."""

    @staticmethod
    def reruns(tmp_path, kernel):
        """Train and predict twice under 1 and twice under 2 BLAS threads: {threads: [out, out]}."""
        # m = 160 is above the n = 128 from which threaded dpotrf splits its work;
        # on 2 cores with OpenBLAS 0.3.31 the 1- and 2-thread outputs of the RBF fit differ
        spec = {**SPEC, "train_per_task": 40, "seed": 12}
        fit_cfg = {"K": 2, "C": 10.0, "kernel": kernel, "max_iters": 3, "tol": 1e-300}
        data = tmp_path / "data"
        assert main(["generate", "--config", write_json(tmp_path / "spec.json", spec), "--out-dir", str(data)]) == 0
        train = [
            "train", "--train", str(data / "train.csv"), "--grid", "2,2",
            "--config", write_json(tmp_path / "fit.json", fit_cfg),
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        outs = {}
        for threads in ("1", "2"):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
            )
            outs[threads] = [tmp_path / f"t{threads}_{rerun}" for rerun in "ab"]
            for out in outs[threads]:
                predict = ["predict", "--model", str(out / "model.json"), "--data", str(data / "test.csv")]
                for args in (train, predict):
                    proc = subprocess.run(
                        [sys.executable, "-m", "tlssvm", *args, "--out-dir", str(out)],
                        env=env, capture_output=True, text=True, timeout=120,
                    )
                    assert proc.returncode == 0, proc.stderr
        return outs

    @pytest.mark.parametrize(
        "kernel", [{"family": "rbf", "gamma": 0.1}, {"family": "linear"}], ids=["rbf", "linear"]
    )
    def test_train_reruns_are_byte_identical_per_thread_count(self, tmp_path, kernel):
        for threads, (first, second) in self.reruns(tmp_path, kernel).items():
            for name in ("model.json", "trace.csv", "predictions.csv"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), (threads, name)
