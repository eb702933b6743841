"""The library names the benchmark workloads call still exist.

The workload modules under ``perfbench/`` are read as source, never
imported or changed: every attribute they take from an ``idmbounds``
module alias must resolve, so deleting a name the benchmark uses fails
here instead of in a benchmark run.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from idmbounds import grid_extrema

WORKLOADS = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("wl_*.py"))


def _library_references(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each ``alias.name`` on an ``idmbounds`` import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] == "idmbounds" and item.asname:
                    aliases[item.asname] = item.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("idmbounds"):
            refs.extend((node.module, item.name) for item in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def test_every_workload_is_read():
    assert [p.stem for p in WORKLOADS] == ["wl_cli", "wl_lattice", "wl_montecarlo", "wl_report"]


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_every_library_name_resolves(path):
    refs = _library_references(path)
    assert refs, f"{path.name} takes nothing from idmbounds"
    missing = sorted(
        f"{module}.{name}"
        for module, name in set(refs)
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"{path.name} calls names idmbounds no longer has: {missing}"


def test_grid_extrema_accepts_on_lattice():
    assert "on_lattice" in inspect.signature(grid_extrema).parameters


_TRACED_RUN = """
import sys
sys.path.insert(0, {perfbench!r})
import numpy as np
import idmbounds as idm
from tracer import Tracer

tracer = Tracer()
tracer.install()
counts, cfg = idm.CountVector([3, 6, 1]), idm.IdmConfig(1.0)
idm.entropy_interval_exact(counts, cfg)
kernel = idm.EntropyKernel(counts.total + cfg.s)
idm.concave_remainder_bounds(counts, cfg, idm.entropy_summand(kernel))
idm.ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)
idm.CredibleSpec(0.9)
grid = idm.GridSpec(20)
objective = idm.lattice_entropy_objective(counts, cfg, grid)
idm.grid_extrema(objective, counts, cfg, grid, on_lattice=True)
tbl = idm.ContingencyCounts([[3, 1], [1, 3]])
idm.product_idm_check(tbl, cfg, idm.mi_interval_bounds(tbl, cfg), 6)
spans = tracer.span_table()
for key in (
    "exact_extrema.ConcaveSummand",
    "credible.CredibleSpec",
    "special_fn.kappa_from_alpha",
    "oracle.grid_extrema",
    "mutual_info.product_idm_check",
    "oracle.product_grid_extrema",
):
    assert spans[key]["calls"] == 1, (key, spans.get(key))
# The summary's own calls only: the MI bounds evaluate their entropies in one
# private special-function pass, without calling either function.
assert spans["exact_extrema.entropy_interval_exact"]["calls"] == 1
assert spans["taylor_bounds.concave_remainder_bounds"]["calls"] == 1
# The lattice hooks bind grid, counts and tbl by name: C(22, 2) + 7 * 7 points.
assert tracer.counts["oracle.lattice_points"] == 231 + 49, tracer.counts
print("traced")
"""


def test_tracer_installs_and_counts():
    """``perfbench/tracer.py`` still wraps the names and parameters it binds.

    Run in a child process: installing the tracer patches the package for
    the rest of the process.
    """
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    src = Path(__file__).resolve().parent.parent / "src"
    code = _TRACED_RUN.format(perfbench=str(perfbench))
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "traced"
