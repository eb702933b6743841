"""Property tests of the MI bounds on random tables (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idmbounds import ContingencyCounts, IdmConfig, mi_interval_bounds

TOL = 1e-12


@st.composite
def tables(draw):
    d1 = draw(st.integers(1, 5))
    d2 = draw(st.integers(1, 5))
    cell = st.one_of(
        st.integers(0, 60).map(float),
        st.floats(0.0, 60.0, allow_nan=False).map(lambda x: round(x, 2)),
    )
    flat = draw(st.lists(cell, min_size=d1 * d2, max_size=d1 * d2))
    return np.array(flat).reshape(d1, d2)


strengths = st.sampled_from([0.5, 1.0, 2.0, 10.0])


def _conservative(table, s):
    return mi_interval_bounds(ContingencyCounts(table), IdmConfig(s)).conservative_interval()


def _assert_same_interval(a, b):
    assert abs(a.lower - b.lower) <= TOL
    assert abs(a.upper - b.upper) <= TOL


@settings(max_examples=150, deadline=None)
@given(tables(), strengths)
def test_sandwich(table, s):
    b = mi_interval_bounds(ContingencyCounts(table), IdmConfig(s))
    assert b.i0 + b.r_lb <= b.inner_lower + TOL
    assert b.inner_lower <= b.inner_upper + TOL
    assert b.inner_upper <= b.i0 + b.r_ub + TOL
    assert b.conservative_interval().contains_interval(b.inner_interval(), TOL)


@settings(max_examples=100, deadline=None)
@given(tables(), strengths)
def test_transposition_invariance(table, s):
    _assert_same_interval(_conservative(table, s), _conservative(table.T, s))


@settings(max_examples=100, deadline=None)
@given(tables(), strengths, st.randoms(use_true_random=False))
def test_row_and_column_permutation_invariance(table, s, rnd):
    rows = list(range(table.shape[0]))
    cols = list(range(table.shape[1]))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    _assert_same_interval(_conservative(table, s), _conservative(table[rows][:, cols], s))
