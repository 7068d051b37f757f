#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, for one workload and a list of seeds.

    python3 tools/pairs.py PARENT CHANGE --workload cv-small --seeds 9101 9102 9103
    python3 tools/pairs.py PARENT CHANGE --workload rbf-3mode --seeds 9301 9302 9303 --out BENCH_x.json

For each seed, `benchmarks/run.py --workload W --seed S --trace 0` runs once
in each checkout (its root as the working directory, so each side
benchmarks its own source), the parent first in even-numbered pairs and
the change first in odd ones, so a drift of the machine's speed favours
neither side. Each run's last stdout line is the benchmark's JSON result.

For every end-to-end metric of the change's BENCHMARK.json it reports
both medians, the change's relative difference, the parent's
interquartile range, and the number of pairs the change won (better in
the metric's direction); and for every run its failed operations, with
the benchmark's FAILED lines. `--out` merges the result into a JSON file
under `workloads[W]`, with this command quoted, so one file can hold
several workloads. The exit code is 0 when every run completed, whether
or not operations failed.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int | None) -> dict:
    """One benchmark run in `checkout`: its JSON result and its FAILED lines."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: seed {seed} gave no result (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["failures"] = [line[len("FAILED: "):] for line in lines if line.startswith("FAILED: ")]
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per metric: medians, relative change, the parent's IQR and the pairs the change won."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p, c = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": p,
            "change_median": c,
            "change_vs_parent": round(c / p - 1.0, 4),
            "parent_iqr": iqr(parent),
            "change_won": sum((b < a) if lower else (b > a) for a, b in zip(parent, change)),
            "pairs": len(parent),
            "parent": parent,
            "change": change,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, help="measuring time per run (default: the benchmark's)")
    parser.add_argument("--out", type=Path, help="merge the result into this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    first = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                  f"{result['failed']} of {result['attempted']} operations failed", flush=True)

    metrics = summary(spec["end_to_end"], runs)
    record = {
        "command": shlex.join(["python3", "tools/pairs.py", *(argv if argv is not None else sys.argv[1:])]),
        "run_command": f"python3 benchmarks/run.py --workload {args.workload} --seed S --trace 0"
        + (f" --seconds {args.seconds}" if args.seconds is not None else ""),
        "seeds": args.seeds,
        "first": first,
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "failures": {side: [r["failures"] for r in rs] for side, rs in runs.items()},
        "metrics": metrics,
    }
    print(f"{'metric':26} {'parent':>12} {'change':>12} {'change':>8} {'parent IQR':>12} {'won':>6}")
    for name, m in metrics.items():
        print(f"{name:26} {m['parent_median']:>12.6g} {m['change_median']:>12.6g} "
              f"{m['change_vs_parent']:>+8.2%} {m['parent_iqr']:>12.4g} {m['change_won']:>3}/{m['pairs']}")
    if args.out is None:
        print(json.dumps(record, indent=1))
    else:
        merged = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        merged.setdefault("workloads", {})[args.workload] = record
        args.out.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
