"""The package's public names and the README's code examples."""

import re
import types
import warnings
from pathlib import Path

import idmbounds

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
