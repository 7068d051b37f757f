#!/usr/bin/env python3
"""Hash every file that a fixed set of tlssvm CLI runs writes, and compare checkouts.

    python3 tools/artifacts.py CHECKOUT                   # prints the combined digest
    python3 tools/artifacts.py CHECKOUT --expect DIGEST   # and exits 1 unless it is DIGEST
    python3 tools/artifacts.py PARENT CHANGE              # both digests and each file's change

With two checkouts the exit code is 1 when any file differs or is
present on one side only, and 0 when every file is byte-identical, so
the comparison is a gate by itself. `--expect DIGEST` makes one run the
same gate against a digest recorded before: the exit code is 1 when a
checkout's combined digest does not start with DIGEST (a full digest or
a prefix of it, such as the 8 digits a document quotes).

Each CHECKOUT is the root of a tlssvm source tree; its `src/` is put on
PYTHONPATH and the CLI runs as `python -m tlssvm`, with one BLAS thread.
The runs, every config file they read included (120 files):

* for the inputs of the benchmark workloads linear-m3000, rbf-3mode and
  cv-small (d=30, k_true=3, snr=5) at data seeds 4242 and 7: generate;
  train with K=3, C=10, tol=1e-300 and max_iters 2, 5 and 4 (the linear
  kernel, or the RBF kernel with gamma 0.01 for rbf-3mode); predict the
  test set;
* at the same seeds, cv of both methods: on cv-small with the
  benchmark's plans (ranks 1-3, costs 0.1-100 and baseline costs
  0.01-1000, 5 folds, max_iters 4, tol 1e-300), on rbf-3mode with ranks 1
  and 3, costs 1 and 10, gammas 0.01 and 0.1, 3 folds, max_iters 3;
* the README walkthrough, its 10-repetition benchmark included.

The runs are frozen on purpose: they are the ones recorded in
BENCH_gram_workspace.json (`artifacts.what`), kept fixed so that digests
taken at different commits stay comparable (the directory layout is this
tool's own, so its digests differ from the one recorded there). Their
shapes, seeds and plans are written out here rather than read from
benchmarks/workloads.py, and a change to the benchmark's workloads does
not change them.

The digest is the sha256 of the sorted `sha256sum` lines ("<hex>  <path>")
of those files. With two checkouts, each file that differs is listed
with the largest relative change |a - b| / max(|a|, |b|) over the numbers
in it, and the largest |a - b| over the file's largest |a|, when the
text around the numbers is the same in both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = {  # name: (mode sizes, train and test samples per task, max_iters, kernel)
    "linear-m3000": ((3, 4), 250, 100, 2, {"family": "linear"}),
    "rbf-3mode": ((2, 3, 4), 75, 50, 5, {"family": "rbf", "gamma": 0.01}),
    "cv-small": ((3, 4), 30, 20, 4, {"family": "linear"}),
}
SEEDS = (4242, 7)
CV_PLANS = {  # workload: {method: plan}
    "cv-small": {
        "tlssvm": {"kernel_family": "linear", "ranks": [1, 2, 3], "costs": [0.1, 1.0, 10.0, 100.0],
                   "folds": 5, "max_iters": 4, "tol": 1e-300},
        "lssvm-independent": {"kernel_family": "linear",
                              "costs": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0], "folds": 5},
    },
    "rbf-3mode": {
        method: {"kernel_family": "rbf", "ranks": [1, 3], "costs": [1.0, 10.0],
                 "gammas": [0.01, 0.1], "folds": 3, "max_iters": 3}
        for method in ("tlssvm", "lssvm-independent")
    },
}
README = {  # the README's config files
    "spec.json": {"d": 20, "mode_sizes": [2, 3], "k_true": 2, "train_per_task": 60,
                  "test_per_task": 20, "snr": 10.0, "seed": 0},
    "fit.json": {"K": 2, "C": 100.0, "kernel": {"family": "linear"}, "max_iters": 100, "tol": 1e-3},
    "base.json": {"C": 10.0, "kernel": {"family": "linear"}},
    "cv.json": {"kernel_family": "rbf", "ranks": [1, 2, 3], "costs": [0.1, 1.0, 10.0],
                "gammas": [0.01, 0.1, 1.0], "folds": 5},
    "bench.json": {
        "synthetic": {"d": 30, "mode_sizes": [3, 4], "k_true": 3, "train_per_task": 30,
                      "test_per_task": 20, "snr": 5.0, "seed": 0},
        "snrs": [5.0, 10.0], "reps": 10, "base_seed": 7,
        "methods": {"tlssvm": {"ranks": [1, 2, 3], "costs": [0.1, 1.0, 10.0, 100.0]},
                    "lssvm-independent": {"costs": [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]}},
    },
}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def run_all(checkout: Path, work: Path) -> None:
    """Every CLI run above, for the source tree at `checkout`, writing under `work`."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    def cli(cwd: Path, *args) -> None:
        subprocess.run([sys.executable, "-m", "tlssvm", *map(str, args)], cwd=cwd, env=env,
                       check=True, stdout=subprocess.DEVNULL)

    for name, (mode_sizes, train, test, iters, kernel) in WORKLOADS.items():
        grid = ",".join(map(str, mode_sizes))
        for seed in SEEDS:
            out = work / name / str(seed)
            _write_json(out / "spec.json", {
                "d": 30, "mode_sizes": list(mode_sizes), "k_true": 3, "train_per_task": train,
                "test_per_task": test, "snr": 5.0, "seed": seed,
            })
            _write_json(out / "fit.json", {"K": 3, "C": 10.0, "kernel": kernel,
                                           "max_iters": iters, "tol": 1e-300})
            cli(out, "generate", "--config", "spec.json", "--out-dir", "data")
            cli(out, "train", "--train", "data/train.csv", "--grid", grid, "--config", "fit.json",
                "--out-dir", "run")
            cli(out, "predict", "--model", "run/model.json", "--data", "data/test.csv",
                "--out-dir", "run")
            for method, plan in CV_PLANS.get(name, {}).items():
                _write_json(out / f"cv_{method}.json", plan)
                cli(out, "cv", "--train", "data/train.csv", "--grid", grid, "--method", method,
                    "--config", f"cv_{method}.json", "--out-dir", f"cv/{method}")

    out = work / "readme"
    for file, payload in README.items():
        _write_json(out / file, payload)
    cli(out, "generate", "--config", "spec.json", "--out-dir", "data")
    cli(out, "train", "--train", "data/train.csv", "--grid", "2,3", "--config", "fit.json",
        "--out-dir", "run")
    cli(out, "predict", "--model", "run/model.json", "--data", "data/test.csv", "--out-dir", "run")
    cli(out, "evaluate", "--model", "run/model.json", "--data", "data/test.csv", "--out-dir", "run")
    cli(out, "train", "--train", "data/train.csv", "--grid", "2,3", "--method",
        "lssvm-independent", "--config", "base.json", "--out-dir", "base")
    cli(out, "evaluate", "--model", "run/model.json", "--model", "base/model.json",
        "--data", "data/test.csv", "--out-dir", "run")
    cli(out, "cv", "--train", "data/train.csv", "--grid", "2,3", "--config", "cv.json",
        "--out-dir", "cv")
    cli(out, "benchmark", "--config", "bench.json", "--out-dir", "bench")


def file_hashes(work: Path) -> dict[str, str]:
    return {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*")) if path.is_file()
    }


def digest(hashes: dict[str, str]) -> str:
    lines = "".join(f"{h}  {path}\n" for path, h in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_changes(a: str, b: str) -> tuple[float, float] | None:
    """How far the numbers of two texts differ; None if the text around them differs.

    Returns the largest |x - y| / max(|x|, |y|) over pairs of numbers, and
    the largest |x - y| over the largest |x| in the first text.
    """
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    x = np.array(NUMBER.findall(a), dtype=float)
    y = np.array(NUMBER.findall(b), dtype=float)
    diff = np.abs(x - y)
    differs = diff > 0
    if not differs.any():
        return 0.0, 0.0
    relative = diff[differs] / np.maximum(np.abs(x), np.abs(y))[differs]
    return float(relative.max()), float(diff.max() / np.abs(x).max())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path, help="one or two source trees")
    parser.add_argument("--expect", metavar="DIGEST", help="exit 1 unless each combined digest starts with DIGEST")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    if args.expect is not None and not re.fullmatch(r"[0-9a-f]{8,64}", args.expect):
        parser.error("--expect takes 8 to 64 lowercase hex digits of a sha256 digest")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        works = []
        passed = True
        for i, checkout in enumerate(args.checkouts):
            work = root / f"{i}-{checkout.resolve().name}"
            run_all(checkout, work)
            hashes = file_hashes(work)
            combined = digest(hashes)
            print(f"{checkout}: {len(hashes)} files, sha256 {combined}")
            if args.expect is not None and not combined.startswith(args.expect):
                print(f"  expected sha256 {args.expect}")
                passed = False
            works.append((work, hashes))
        if len(works) == 2:
            (work_a, a), (work_b, b) = works
            for path in sorted(set(a) | set(b)):
                if path not in a or path not in b:
                    print(f"  {path}: only in {'the second' if path in b else 'the first'}")
                elif a[path] != b[path]:
                    changes = largest_changes(
                        (work_a / path).read_text(encoding="utf-8"),
                        (work_b / path).read_text(encoding="utf-8"),
                    )
                    if changes is None:
                        print(f"  {path}: text differs")
                    else:
                        print(f"  {path}: largest relative change {changes[0]:.3g}, "
                              f"{changes[1]:.3g} of the file's largest number")
            same = sum(a[path] == b.get(path) for path in a)
            print(f"{same} of {len(a)} files identical")
            passed = passed and a == b
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
