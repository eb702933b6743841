"""The package's public names and the README's code examples."""

import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import idmbounds

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = (
    "simplex_core", "special_fn", "exact_extrema", "taylor_bounds", "mutual_info", "credible",
    "oracle",
)
# Exported module constants; every other public name is a function or class.
CONSTANTS = {"simplex_core": {"SIMPLEX_TOL"}, "special_fn": {"EULER_GAMMA"}}


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(idmbounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(idmbounds.__all__) == sorted(bound)
    # A star import resolves every listed name.
    namespace = {}
    exec("from idmbounds import *", namespace)
    assert set(idmbounds.__all__) <= set(namespace)


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_lists_its_public_functions_and_classes(layer):
    module = importlib.import_module(f"idmbounds.{layer}")
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined | CONSTANTS.get(layer, set())


def test_layer_lists_are_disjoint_and_make_the_package_list():
    names = [n for layer in LAYERS for n in importlib.import_module(f"idmbounds.{layer}").__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(idmbounds.__all__)


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)


def test_stored_terms_and_cached_parts_leave_the_count_types_alone():
    counts = idmbounds.CountVector([3.0, 6.0, 1.0])
    tbl = idmbounds.ContingencyCounts([[3.0, 1.0], [0.0, 2.5]])
    cfg = idmbounds.IdmConfig(1.0)
    kernel = idmbounds.EntropyKernel(counts.total + cfg.s)
    idmbounds.entropy_interval_exact(counts, cfg)
    idmbounds.concave_remainder_bounds(counts, cfg, idmbounds.entropy_summand(kernel))
    idmbounds.mi_interval_bounds(tbl, cfg)
    assert [f.name for f in dataclasses.fields(idmbounds.CountVector)] == ["counts"]
    assert [f.name for f in dataclasses.fields(idmbounds.ContingencyCounts)] == ["table"]
    assert repr(counts) == "CountVector(counts=array([3., 6., 1.]))"
    assert repr(tbl) == "ContingencyCounts(table=array([[3. , 1. ],\n       [0. , 2.5]]))"
    assert repr(tbl.joint_counts()) == "CountVector(counts=array([3. , 1. , 0. , 2.5]))"
    # Equality stays identity, and each part is built once.
    assert counts != idmbounds.CountVector([3.0, 6.0, 1.0])
    for part in ("joint_counts", "row_counts", "col_counts"):
        assert getattr(tbl, part)() is getattr(tbl, part)()


# One request of each subcommand, the lattice checks included, answered in a
# fresh process; it prints the top-level names of the test-only packages
# that the package loaded.
_RUNTIME_PROBE = """
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from idmbounds.cli import main
requests = [
    ["entropy", "--inline", "3,6,1,0", "--grid-check", "8"],
    ["mutinfo", "--inline", "3,1\\n0,2", "--grid-check", "6"],
    ["credible", "--inline", "3,1\\n1,2", "--alpha", "0.9"],
    ["sweep", "--inline", "3,6,1", "--sweep", "n:1:5"],
]
for argv in requests:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
test_only = {"scipy", "mpmath", "hypothesis", "pytest"}
print(sorted({name.split(".")[0] for name in sys.modules} & test_only))
"""


def test_the_package_runs_on_numpy_alone():
    src = str(Path(idmbounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
