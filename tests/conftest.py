"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from idmbounds import special_fn


@pytest.fixture
def passes(monkeypatch):
    """The arguments of every ``_shift_and_series`` call, as float arrays."""
    calls = []
    original = special_fn._shift_and_series

    def counting(x, orders):
        calls.append(np.atleast_1d(np.asarray(x, dtype=float)).copy())
        return original(x, orders)

    monkeypatch.setattr(special_fn, "_shift_and_series", counting)
    return calls
