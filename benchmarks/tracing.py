"""Spans around the call sites where tlssvm modules reach each other.

The package itself is not changed. `Tracer.install` replaces the module or
class attribute through which a caller reaches a function with a wrapper
that records a span (name, start, end, parent), and `Tracer.uninstall` puts
the originals back. Spans stay in memory; `layer_metrics` turns the spans
of one pass of a workload into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, class or None, attribute, span name). A function reached through
# several modules is wrapped at each of them under one span name.
CALL_SITES = (
    ("tlssvm.solver", None, "gram", "kernels.gram"),
    ("tlssvm.model", None, "gram", "kernels.gram"),
    ("tlssvm.baseline", None, "gram", "kernels.gram"),
    ("tlssvm.solver", None, "solve_dual_system", "linsys.solve"),
    ("tlssvm.baseline", None, "solve_dual_system", "linsys.solve"),
    ("tlssvm.solver", None, "solve_shared_step", "solver.shared_step"),
    ("tlssvm.solver", None, "solve_mode_row_step", "solver.row_step"),
    ("tlssvm.solver", None, "reduced_features", "solver.reduced_features"),
    ("tlssvm.solver", None, "shared_projection", "solver.shared_projection"),
    ("tlssvm.solver", None, "fit", "solver.fit"),
    ("tlssvm.experiments", None, "fit", "solver.fit"),
    ("tlssvm.cli", None, "fit", "solver.fit"),
    ("tlssvm.model", "TrainedModel", "from_fit", "model.from_fit"),
    ("tlssvm.model", "TrainedModel", "predict_dataset", "model.predict_dataset"),
    ("tlssvm.model", None, "predict_dual", "model.predict_dual"),
    ("tlssvm.model", None, "save_model", "model.save_model"),
    ("tlssvm.cli", None, "save_model", "model.save_model"),
    ("tlssvm.model", None, "load_model", "model.load_model"),
    ("tlssvm.cli", None, "load_model", "model.load_model"),
    ("tlssvm.data", None, "load_csv", "data.load_csv"),
    ("tlssvm.cli", None, "load_csv", "data.load_csv"),
    ("tlssvm.experiments", None, "kfold_split", "data.kfold_split"),
    ("tlssvm.experiments", None, "run_cv", "experiments.run_cv"),
    ("tlssvm.cli", None, "run_cv", "experiments.run_cv"),
    ("tlssvm.experiments", None, "fit_method", "experiments.fit_method"),
    ("tlssvm.experiments", None, "fit_best", "experiments.fit_best"),
    ("tlssvm.experiments", None, "fit_independent", "baseline.fit_independent"),
    ("tlssvm.cli", None, "fit_independent", "baseline.fit_independent"),
    ("tlssvm.metrics", None, "evaluate_predictions", "metrics.evaluate_predictions"),
    ("tlssvm.experiments", None, "evaluate_predictions", "metrics.evaluate_predictions"),
    ("tlssvm.cli", None, "evaluate_predictions", "metrics.evaluate_predictions"),
    ("tlssvm.cli", None, "main", "cli.main"),
)

# Spans under these ancestors belong to training; other Gram work is prediction.
FIT_SPANS = ("solver.fit", "baseline.fit_independent")


# Span attributes. The solve size is taken from the arguments, so that a
# solve that raises (a failed CV cell) still counts; the others from results.
def _solve_attrs(args) -> dict:
    block_sizes, _, y = args[:3]
    return {"n": len(block_sizes) + len(y)}


def _fit_attrs(result) -> dict:
    return {"iterations": result.iterations, "max_system_residual": result.max_system_residual}


def _cv_attrs(result) -> dict:
    return {
        "cells": len(result.cells),
        "cells_failed": sum(cell.error is not None for cell in result.cells),
    }


ARG_ATTRS = {"linsys.solve": _solve_attrs}
RESULT_ATTRS = {"solver.fit": _fit_attrs, "experiments.run_cv": _cv_attrs}


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None


class Tracer:
    """Records spans while installed; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        arg_attrs, result_attrs = ARG_ATTRS.get(name), RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            if arg_attrs is not None:
                span.attrs = arg_attrs(args)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if result_attrs is not None:
                span.attrs = result_attrs(result)
            return result

        return traced

    def install(self) -> None:
        for module, owner, attr, name in CALL_SITES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(target, attr, replacement)
            self._saved.append((target, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans with index in [lo, hi), one pass of a workload.

    `*.s` is the total duration of a layer's spans, `*.self_s` that minus the
    time of their child spans. Counts are calls, iterations or CV cells.
    """
    child_time: dict[int, float] = {}
    for span in spans[lo:hi]:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start

    def under_fit(i: int) -> bool:
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name in FIT_SPANS:
                return True
            parent = spans[parent].parent
        return False

    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for key in (
        "linsys.solve.shared_s", "linsys.solve.row_s", "linsys.solve.baseline_calls",
        "linsys.max_n", "linsys.lu_gflop", "solver.fit.iterations",
        "solver.fit.max_system_residual", "kernels.gram.fit_s", "kernels.gram.predict_s",
        "experiments.cv_cells", "experiments.cv_cells_failed",
    ):
        out[key] = 0.0
    for i in range(lo, hi):
        span = spans[i]
        name, dur = span.name, span.end - span.start
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", dur - child_time.get(i, 0.0))
        if name == "linsys.solve":
            n = span.attrs["n"]
            parent = spans[span.parent].name if span.parent is not None else None
            if parent == "solver.shared_step":
                add("linsys.solve.shared_s", dur)
            elif parent == "solver.row_step":
                add("linsys.solve.row_s", dur)
            else:
                add("linsys.solve.baseline_calls", 1)
            out["linsys.max_n"] = max(out["linsys.max_n"], n)
            add("linsys.lu_gflop", 2.0 / 3.0 * n**3 / 1e9)
        elif name == "kernels.gram":
            add("kernels.gram.fit_s" if under_fit(i) else "kernels.gram.predict_s", dur)
        elif span.attrs is None:  # a fit or grid search that raised
            continue
        elif name == "solver.fit":
            add("solver.fit.iterations", span.attrs["iterations"])
            out["solver.fit.max_system_residual"] = max(
                out["solver.fit.max_system_residual"], span.attrs["max_system_residual"]
            )
        elif name == "experiments.run_cv":
            add("experiments.cv_cells", span.attrs["cells"])
            add("experiments.cv_cells_failed", span.attrs["cells_failed"])
    return out
