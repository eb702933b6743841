"""Property tests of the special functions and the entropy and MI bounds (hypothesis)."""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idmbounds import (
    ContingencyCounts,
    CountVector,
    EntropyKernel,
    IdmConfig,
    concave_remainder_bounds,
    digamma,
    entropy_interval_exact,
    entropy_summand,
    mi_interval_bounds,
    trigamma,
)

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


@st.composite
def count_vectors(draw):
    d = draw(st.integers(1, 11))
    count = st.one_of(
        st.integers(0, 60).map(float),
        st.floats(0.0, 60.0, allow_nan=False).map(lambda x: round(x, 2)),
    )
    return np.array(draw(st.lists(count, min_size=d, max_size=d)))


def _entropy_intervals(counts, s):
    cv, cfg = CountVector(counts), IdmConfig(s)
    est = concave_remainder_bounds(cv, cfg, entropy_summand(EntropyKernel(cv.total + cfg.s)))
    return entropy_interval_exact(cv, cfg), est.conservative_interval(), est.inner_interval()


def _conservative(table, s):
    return mi_interval_bounds(ContingencyCounts(table), IdmConfig(s)).conservative_interval()


def _assert_same_interval(a, b):
    assert abs(a.lower - b.lower) <= TOL
    assert abs(a.upper - b.upper) <= TOL


@settings(max_examples=150, deadline=None)
@given(count_vectors(), strengths)
def test_entropy_exact_within_conservative(counts, s):
    exact, cons, _ = _entropy_intervals(counts, s)
    assert cons.contains_interval(exact, TOL)


@settings(max_examples=150, deadline=None)
@given(count_vectors(), strengths)
def test_entropy_inner_within_exact(counts, s):
    exact, _, inner = _entropy_intervals(counts, s)
    assert exact.contains_interval(inner, TOL)


@settings(max_examples=100, deadline=None)
@given(count_vectors(), strengths, st.randoms(use_true_random=False))
def test_entropy_permutation_invariance(counts, s, rnd):
    order = list(range(counts.size))
    rnd.shuffle(order)
    exact, cons, _ = _entropy_intervals(counts, s)
    exact_p, cons_p, _ = _entropy_intervals(counts[order], s)
    _assert_same_interval(exact, exact_p)
    _assert_same_interval(cons, cons_p)


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


special_fn_args = st.one_of(
    st.floats(math.log(1e-8), math.log(1e15)).map(math.exp),
    st.integers(1, 10**7).map(float),
)


@settings(max_examples=300, deadline=None)
@given(special_fn_args)
def test_digamma_trigamma_against_mpmath(x):
    for got, expected in (
        (digamma(x), mpmath.digamma(mpmath.mpf(x))),
        (trigamma(x), mpmath.polygamma(1, mpmath.mpf(x))),
    ):
        assert abs(got - float(expected)) <= 2e-15 * max(1.0, abs(float(expected)))
