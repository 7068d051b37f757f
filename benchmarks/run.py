#!/usr/bin/env python3
"""Benchmark of tlssvm: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload linear-m3000 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 7      # every workload, both runs

One run generates the workload's inputs from `--seed`, writes them to CSV,
and only then starts timing. It measures the phases a user waits for for
about `--seconds` seconds, checks the outputs, prints a table, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones, from spans recorded around the package's
call sites (see tracing.py). The exit code is 0 only if every operation
and check passed. README.md in this directory describes each metric.
"""

import os

# One BLAS thread. On 2 cores the default two OpenBLAS threads made an RBF
# fit at m=1800 take 12.6 s instead of 8.3 s and pushed predict_dual p99
# from about 0.4 ms to 4.3 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC_FILE = ROOT / "BENCHMARK.json"

# A run is a sequence of rounds: setup once, train once, then the other
# phases one call each, in turn, until as much time as the training took
# has passed. So every phase is sampled all through the run.
MIN_ROUNDS = 3
CHUNK_CALLS = 250  # consecutive predict_dual calls in one turn
MIN_PREDICT_ONE_CALLS = 2000  # at least 20 samples beyond p99
# A batch-predict sample repeats the call until it lasts about this long, so
# that calls of a millisecond are not dominated by timer and cache effects.
MIN_SAMPLE_S = 0.02

# Calibrated time. The benchmark was written on a shared 2-core VM whose
# speed changed by up to 75% within seconds and stayed changed for minutes,
# so raw medians of identical runs spread by 7-13% (IQR over median).
# Every timed call is therefore bracketed by a calibration step that runs
# no tlssvm code: an LU factorisation (BLAS) and a JSON round trip (the
# interpreter), about 14 ms in all. The call's wall time is scaled by
# CAL_REF_S over the mean of the two steps' times: seconds at the speed
# where the step takes CAL_REF_S. Calibrated medians over ten seeds spread
# by 1-16%. The raw medians are printed too.
CAL_REF_S = 0.015
CAL_LU_N = 500
CAL_JSON_ROWS = 100
TRACE_PREDICT_ONE_CALLS = 200
CHECK_ROWS = 200

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
import tlssvm
grid = tlssvm.TaskGrid(tuple(int(s) for s in sys.argv[3].split(",")))
tlssvm.load_csv(sys.argv[1], grid)
tlssvm.load_csv(sys.argv[2], grid)
print(time.perf_counter() - start)
"""


def import_package() -> None:
    """Import tlssvm from this checkout's src/, never from an installed copy."""
    if not (SRC / "tlssvm" / "__init__.py").is_file():
        raise SystemExit(f"error: no tlssvm sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import tlssvm

    if Path(tlssvm.__file__).resolve().parent != SRC / "tlssvm":
        raise SystemExit(f"error: imported tlssvm from {tlssvm.__file__}, not from {SRC}")


def blas_threads() -> int | None:
    """Threads of the OpenBLAS library this process loaded, asked through its API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tlssvm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Ledger:
    """Operations attempted and failed; a failed output check counts as a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


_CALIBRATION_INPUTS = []


def calibration_s() -> float:
    """Time of the calibration step, run now."""
    import numpy as np
    from scipy.linalg import lu_factor

    if not _CALIBRATION_INPUTS:
        rng = np.random.default_rng(20231)
        _CALIBRATION_INPUTS.extend([
            rng.standard_normal((CAL_LU_N, CAL_LU_N)),
            rng.standard_normal((CAL_JSON_ROWS, 30)).tolist(),
        ])
    matrix, rows = _CALIBRATION_INPUTS
    t0 = time.perf_counter()
    lu_factor(matrix)
    json.loads(json.dumps(rows, indent=2))
    return time.perf_counter() - t0


def measure(fn):
    """Collect garbage, then call fn once between two calibration steps.

    Returns fn's wall time, its calibrated time and its result.
    """
    gc.collect()
    before = calibration_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    scale = 2.0 * CAL_REF_S / (before + calibration_s())
    return wall, wall * scale, result


class WorkloadRun:
    """One workload at one seed: inputs on disk, the trained model, the checks."""

    def __init__(self, workload, seed: int, workdir: Path, ledger: Ledger) -> None:
        from tlssvm import data

        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.ledger = ledger
        train, test, _ = data.generate_synthetic(dataclasses.replace(workload.spec, seed=seed))
        self.grid = train.grid
        self.train_csv = workdir / "train.csv"
        self.test_csv = workdir / "test.csv"
        self.model_json = workdir / "model.json"
        data.save_csv(train, self.train_csv)
        data.save_csv(test, self.test_csv)
        self.train, self.test = self.load()
        self.model = None
        self.state = None  # FitState of the last single fit
        self.fingerprints: list[dict] = []
        self.one_calls = 0
        self.one_values: list[float] = []

    def load(self):
        from tlssvm import data

        return data.load_csv(self.train_csv, self.grid), data.load_csv(self.test_csv, self.grid)

    def setup_once(self) -> float:
        """Time a fresh interpreter takes to import tlssvm and load both CSVs."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        grid = ",".join(str(s) for s in self.grid.mode_sizes)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(self.train_csv), str(self.test_csv), grid],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.split()[-1])

    def fit_config(self, rank: int, cost: float, kernel):
        from tlssvm.solver import FitConfig
        from workloads import TOL_OFF

        return FitConfig(
            K=rank, C=cost, kernel=kernel, max_iters=self.w.iterations, tol=TOL_OFF, seed=self.seed
        )

    def train_once(self):
        """Time to a fitted model: one fit, or both grid searches plus the refit of the best cell."""
        from tlssvm import experiments, model, solver
        from workloads import RANK

        w = self.w
        if w.is_cv:
            tensor = experiments.run_cv(self.train, experiments.METHOD_TENSOR, w.tensor_plan, self.seed)
            base = experiments.run_cv(self.train, experiments.METHOD_BASELINE, w.baseline_plan, self.seed)
            fitted = experiments.fit_best(self.train, tensor, w.tensor_plan, self.seed)
            return fitted, (tensor, base)
        state = solver.fit(self.train, self.fit_config(RANK, w.C, w.kernel))
        return model.TrainedModel.from_fit(self.train, state, w.kernel), state

    def after_train(self, fitted, detail) -> None:
        """Count the operations of one training repetition and record what must repeat exactly."""
        from tlssvm import metrics

        self.model = fitted
        report = metrics.evaluate_predictions(self.test, fitted.predict_dataset(self.test))
        fingerprint = {"test_rmse": report.rmse}
        if self.w.is_cv:
            cells = [c for result in detail for c in result.cells]
            for cell in cells:
                self.ledger.op(cell.error is None, f"cv cell rank={cell.rank} cost={cell.cost}")
            self.ledger.op(True, "fit_best")
            fingerprint["experiments.cv_cells"] = len(cells)
            fingerprint["best_cell"] = [detail[0].best.rank, detail[0].best.cost, detail[1].best.cost]
        else:
            self.ledger.op(True, "fit")
            self.state = detail
            fingerprint["solver.fit.iterations"] = detail.iterations
        self.fingerprints.append(fingerprint)

    def train_measured(self) -> tuple[float, float]:
        """Wall and calibrated time of one training repetition."""
        wall, calibrated, (fitted, detail) = measure(self.train_once)
        self.after_train(fitted, detail)
        return wall, calibrated

    def predict_one(self, calls: int) -> list[tuple[float, float]]:
        """Closed loop, one caller: predict_dual on the next test row per call.

        Returns each call's wall and calibrated time. The values of the first
        pass over the test rows are kept for the checks.
        """
        from tlssvm import model
        from tlssvm.taskgrid import delinearize

        X = self.test.stacked_inputs()
        idx = [delinearize(self.grid, t + 1) for t in self.test.sample_task_ids()]
        n = X.shape[0]
        walls = []

        def loop() -> None:
            for _ in range(calls):
                j = self.one_calls % n
                t0 = time.perf_counter()
                value = model.predict_dual(self.model, idx[j], X[j])
                walls.append(time.perf_counter() - t0)
                if self.one_calls < n:
                    self.one_values.append(value)
                self.one_calls += 1

        wall, calibrated, _ = measure(loop)
        self.ledger.attempted += calls
        return [(w, w * calibrated / wall) for w in walls]

    def persist_once(self):
        from tlssvm import model

        model.save_model(self.model, self.model_json)
        return model.load_model(self.model_json)

    def cli_once(self) -> None:
        from tlssvm import cli

        argv = [
            "predict", "--model", str(self.model_json), "--data", str(self.test_csv),
            "--out-dir", str(self.dir / "cli"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        self.ledger.op(code == 0, f"cli predict exit code {code}")

    def check_outputs(self, loaded) -> None:
        """The output checks; each is one operation of the ledger."""
        import numpy as np
        from tlssvm import linsys, model, solver
        from tlssvm.taskgrid import delinearize

        op = self.ledger.op
        w = self.w
        flat = np.concatenate(self.model.predict_dataset(self.test))
        if w.is_cv:
            # The refit of the best cell again, for its objective trace and residuals.
            best = self.fingerprints[-1]["best_cell"]
            state = solver.fit(self.train, self.fit_config(best[0], best[1], self.model.kernel))
            again = np.concatenate(
                model.TrainedModel.from_fit(self.train, state, self.model.kernel).predict_dataset(
                    self.test
                )
            )
            op(np.array_equal(again, flat), "refit of the best cell predicts like fit_best")
        else:
            state = self.state
        objectives = [e.objective for e in state.trace]
        op(
            all(b <= a * (1 + 1e-8) for a, b in zip(objectives, objectives[1:])),
            "objective trace non-increasing",
        )
        bound = linsys.RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(self.train.stacked_targets())))
        op(state.max_system_residual <= bound, f"max_system_residual {state.max_system_residual:.3e} > {bound:.3e}")

        values = np.asarray(self.one_values)
        scale = np.maximum(1.0, np.abs(flat[: values.size]))
        op(
            bool(np.all(np.abs(values - flat[: values.size]) <= 1e-9 * scale)),
            "predict_dual equals predict_dataset",
        )
        op(
            np.array_equal(np.concatenate(loaded.predict_dataset(self.test)), flat),
            "loaded model predicts bit-identically",
        )
        with open(self.dir / "cli" / "predictions.csv", newline="", encoding="utf-8") as fh:
            cli_values = np.array([float(row[-1]) for row in list(csv.reader(fh))[1:]])
        op(np.array_equal(cli_values, flat), "cli predictions equal in-memory predictions")
        if self.model.explicit is not None:
            X = self.test.stacked_inputs()[:CHECK_ROWS]
            tids = self.test.sample_task_ids()[:CHECK_ROWS]
            worst = 0.0
            for x, t in zip(X, tids):
                idx = delinearize(self.grid, int(t) + 1)
                p = model.predict_primal(self.model, idx, x)
                d = model.predict_dual(self.model, idx, x)
                worst = max(worst, abs(p - d) / max(1.0, abs(p)))
            op(worst <= 1e-8, f"predict_primal vs predict_dual relative gap {worst:.2e} > 1e-8")
        first = self.fingerprints[0]
        op(all(f == first for f in self.fingerprints), "training repeats exactly within the run")


def check_repeat_across_runs(key: str, fingerprint: dict, ledger: Ledger) -> None:
    """Compare with earlier runs of the same sources, workload and seed in this checkout."""
    WORK.mkdir(exist_ok=True)
    path = WORK / "repeat.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    known = state.setdefault(key, {})
    diff = sorted(k for k in fingerprint if k in known and known[k] != fingerprint[k])
    ledger.op(not diff, f"differs from an earlier run of this commit and seed: {diff}")
    known.update(fingerprint)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def median(values) -> float:
    return float(statistics.median(values))


def run_untraced(run: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    import numpy as np

    samples = {name: [] for name in ("setup_s", "train_s", "batch_s", "persist_s", "cli_predict_s")}
    latencies: list[tuple[float, float]] = []
    batch_reps = 0

    def predict_batch() -> None:
        for _ in range(batch_reps):
            run.model.predict_dataset(run.test)

    start = time.perf_counter()
    while len(samples["train_s"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        wall, calibrated, setup_s = measure(run.setup_once)
        samples["setup_s"].append((setup_s, setup_s * calibrated / wall))
        train = run.train_measured()
        samples["train_s"].append(train)
        end = time.perf_counter() + train[0]
        while True:
            if not batch_reps:
                batch_reps = 1
                once = measure(predict_batch)[0]
                batch_reps = max(1, math.ceil(MIN_SAMPLE_S / once))
            wall, calibrated, _ = measure(predict_batch)
            samples["batch_s"].append((wall / batch_reps, calibrated / batch_reps))
            run.ledger.attempted += batch_reps
            latencies += run.predict_one(CHUNK_CALLS)
            *persist, loaded = measure(run.persist_once)
            samples["persist_s"].append(tuple(persist))
            samples["cli_predict_s"].append(measure(run.cli_once)[:2])
            if time.perf_counter() >= end:
                break
    if len(latencies) < MIN_PREDICT_ONE_CALLS:
        latencies += run.predict_one(MIN_PREDICT_ONE_CALLS - len(latencies))
    run.ledger.attempted += len(samples["persist_s"])
    run.check_outputs(loaded)

    out, notes = {}, {}
    rows = run.test.n_samples
    for name, pairs in samples.items():
        raw, calibrated = median(w for w, _ in pairs), median(c for _, c in pairs)
        notes[name] = f"median of {len(pairs)}"
        if name == "batch_s":
            name, raw, calibrated = "predict_batch_rows_per_s", rows / raw, rows / calibrated
            notes[name] = f"{rows} rows, {batch_reps} calls per sample, " + notes.pop("batch_s")
        out[name] = calibrated
        notes[name] += f"; raw {raw:.6g}"
    ms = np.asarray(latencies) * 1e3
    for q in (50, 99):
        name = f"predict_one_ms_p{q}"
        out[name] = float(np.percentile(ms[:, 1], q))
        notes[name] = f"{len(ms)} calls; raw {np.percentile(ms[:, 0], q):.6g}"
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out, notes


# Per-layer metrics that are counts: they must repeat exactly from pass to pass.
EXACT_LAYER_METRICS = (
    "linsys.solve.calls", "linsys.solve.baseline_calls", "linsys.max_n", "solver.shared_step.calls",
    "solver.row_step.calls", "solver.fit.calls", "solver.fit.iterations",
    "solver.fit.max_system_residual", "kernels.gram.calls",
    "experiments.cv_cells", "experiments.cv_cells_failed", "experiments.fit_method.calls",
    "metrics.test_rmse",
)


def traced_pass(run: WorkloadRun, tracer) -> tuple[dict, float, object]:
    """Load, train, evaluate, predict one row at a time, persist and run the CLI, all traced."""
    from tlssvm import metrics
    from tracing import layer_metrics

    gc.collect()
    lo = len(tracer.spans)
    with tracer:
        run.train, run.test = run.load()
        _, train_s = run.train_measured()
        report = metrics.evaluate_predictions(run.test, run.model.predict_dataset(run.test))
        run.predict_one(TRACE_PREDICT_ONE_CALLS)
        loaded = run.persist_once()
        run.cli_once()
    layers = layer_metrics(tracer.spans, lo, len(tracer.spans))
    layers["metrics.test_rmse"] = report.rmse
    return layers, train_s, loaded


def run_traced(run: WorkloadRun, seconds: float, names: list[str]) -> tuple[dict, dict]:
    """Rounds of one untraced training, the overhead baseline, and one traced pass."""
    from tracing import Tracer

    tracer = Tracer()
    passes, traced_train, untraced_train = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        untraced_train.append(run.train_measured()[1])
        layers, train_s, loaded = traced_pass(run, tracer)
        passes.append(layers)
        traced_train.append(train_s)
    run.check_outputs(loaded)
    for key in EXACT_LAYER_METRICS:
        run.ledger.op(
            len({p.get(key, 0.0) for p in passes}) == 1, f"{key} differs between traced passes"
        )
    out = {}
    for name in names:
        values = [p.get(name, 0.0) for p in passes]
        out[name] = values[0] if name in EXACT_LAYER_METRICS else median(values)
    out["model.predict_dual.s"] /= TRACE_PREDICT_ONE_CALLS
    out["model.json_bytes"] = float(run.model_json.stat().st_size)
    out["trace.overhead_frac"] = median(traced_train) / median(untraced_train) - 1.0
    run.fingerprints[0].update(
        {k: passes[0][k] for k in ("linsys.solve.calls", "solver.fit.iterations")}
    )
    print(f"{'span (median per pass)':34} {'calls':>8} {'total_s':>12} {'self_s':>12}")
    for layer in sorted({k[: -len(".calls")] for p in passes for k in p if k.endswith(".calls")}):
        if f"{layer}.s" in passes[0]:
            row = [median([p.get(f"{layer}.{x}", 0.0) for p in passes]) for x in ("calls", "s", "self_s")]
            print(f"{layer:34} {row[0]:>8g} {row[1]:>12.6f} {row[2]:>12.6f}")
    notes = {"trace.overhead_frac": f"median of {len(passes)} traced vs untraced fits"}
    return out, notes


def format_value(value: float) -> str:
    return f"{value:.6g}"


def run_one(args, spec: dict) -> int:
    import_package()
    from workloads import SMOKE_WORKLOADS, WORKLOADS

    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in listed]
    prov = provenance(args.seed)
    print(f"tlssvm benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}{', smoke sizes' if args.smoke else ''}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    ledger = Ledger()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        run = WorkloadRun(workload, args.seed, workdir, ledger)
        if args.trace:
            values, notes = run_traced(run, args.seconds, names)
        else:
            values, notes = run_untraced(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workload_digest = hashlib.sha256(repr(workload).encode()).hexdigest()[:16]
    key = f"{prov['source_sha256']}:{workload_digest}:{args.workload}:{args.seed}"
    fingerprint = run.fingerprints[0]
    check_repeat_across_runs(key, {k: v for k, v in fingerprint.items() if k != "best_cell"}, ledger)

    print(f"{'metric':34} {'value':>14}  {'unit':16} better  note")
    for m in listed:
        note = notes.get(m["name"], "")
        better = m.get("better", "")
        print(f"{m['name']:34} {format_value(values[m['name']]):>14}  {m['unit']:16} {better:6}  {note}")
    # Printed but not bounded: see README.md.
    extra = {"ops_failed_frac": ("1", ledger.failed / ledger.attempted)}
    if "predict_one_ms_p99" in values:
        extra["predict_one_ms_p99"] = ("ms", values["predict_one_ms_p99"])
    for name, (unit, value) in extra.items():
        note = notes.get(name, f"{ledger.failed} of {ledger.attempted} operations")
        print(f"{name:34} {format_value(value):>14}  {unit:16} {'lower':6}  {note}")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, untraced then traced; a summary at the end."""
    results, failed = {}, False
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed = True
                print(f"{w['name']} trace {trace}: exit code {proc.returncode}")
                continue
            results.setdefault(w["name"], {})[f"trace{trace}"] = json.loads(lines[-1])
            provenance_line = next(x for x in lines if x.startswith("provenance "))
            results[w["name"]]["provenance"] = json.loads(provenance_line.split(" ", 1)[1])
    print()
    header = f"{'end-to-end metric':28} {'unit':10} {'better':7}"
    print(header + "".join(f"{w['name']:>16}" for w in spec["workloads"]))
    for m in spec["end_to_end"]:
        cells = []
        for w in spec["workloads"]:
            got = results.get(w["name"], {}).get("trace0")
            cells.append(format_value(got["metrics"][m["name"]]["value"]) if got else "-")
        print(f"{m['name']:28} {m['unit']:10} {m['better']:7}" + "".join(f"{c:>16}" for c in cells))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    if not SPEC_FILE.is_file():
        raise SystemExit(f"error: {SPEC_FILE} not found")
    spec = json.loads(SPEC_FILE.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"], help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--out", help="with --workload all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
