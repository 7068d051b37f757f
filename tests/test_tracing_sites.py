"""Every call site that the benchmark's tracer wraps exists in the package.

`benchmarks/tracing.py` lists in `CALL_SITES` the module and class
attributes through which tlssvm modules reach one another, and
`Tracer.install` replaces each of them, raising KeyError for one that is
gone. The benchmark's smoke test is not part of this suite, so without this
check a renamed or deleted attribute would show only when the benchmark
runs. The list is read from the file's source, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def call_sites() -> tuple:
    """The literal `CALL_SITES` of benchmarks/tracing.py."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "CALL_SITES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CALL_SITES in {TRACING}")


def test_every_traced_call_site_exists():
    sites = call_sites()
    assert sites
    missing = []
    for module, owner, attr, _ in sites:
        target = importlib.import_module(module)
        if owner is not None:
            target = vars(target).get(owner)
        if target is None or attr not in vars(target):
            missing.append((module, owner, attr))
    assert missing == []
