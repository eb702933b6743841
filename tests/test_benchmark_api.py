"""The library names the benchmark workloads call still exist.

The workload modules under ``perfbench/`` are read as source, never
imported or changed: every attribute they take from an ``idmbounds``
module alias must resolve, so deleting a name the benchmark uses fails
here instead of in a benchmark run.
"""

import ast
import importlib
import inspect
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
