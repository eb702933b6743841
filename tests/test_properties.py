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


# Widths grow with s: a larger strength moves the posterior means further.
# TOL absorbs the last-bit rounding seen between adjacent strengths.
strength_pairs = st.tuples(st.floats(0.01, 20.0), st.floats(0.01, 20.0)).map(sorted)


@settings(max_examples=150, deadline=None)
@given(count_vectors(), strength_pairs)
def test_entropy_widths_non_decreasing_in_s(counts, pair):
    s1, s2 = pair
    exact1, cons1, _ = _entropy_intervals(counts, s1)
    exact2, cons2, _ = _entropy_intervals(counts, s2)
    assert exact2.width >= exact1.width - TOL
    assert cons2.width >= cons1.width - TOL


@settings(max_examples=100, deadline=None)
@given(tables(), strength_pairs)
def test_mi_conservative_width_non_decreasing_in_s(table, pair):
    s1, s2 = pair
    assert _conservative(table, s2).width >= _conservative(table, s1).width - TOL


near_integer_counts = st.lists(
    st.tuples(st.integers(0, 60), st.floats(-1e-10, 1e-10)).map(lambda p: abs(p[0] + p[1])),
    min_size=2,
    max_size=6,
)
huge_counts = st.lists(
    st.one_of(st.just(0.0), st.floats(1.0, 1e12), st.integers(0, 10**12).map(float)),
    min_size=2,
    max_size=6,
)
any_strength = st.floats(1e-3, 50.0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(near_integer_counts, huge_counts), any_strength)
def test_endpoints_ordered_for_near_integer_and_huge_counts(counts, s):
    # Interval refuses crossed endpoints, so building each interval is the check.
    counts = np.array(counts)
    for iv in _entropy_intervals(counts, s):
        assert iv.lower <= iv.upper
    if counts.size % 2 == 0:
        b = mi_interval_bounds(ContingencyCounts(counts.reshape(2, -1)), IdmConfig(s))
        for iv in (b.conservative_interval(), b.inner_interval(), b.crude):
            assert iv.lower <= iv.upper


def test_endpoints_ordered_when_rounding_crosses_them():
    # Huge counts and a tiny s put the extrema within an ulp of each other,
    # where rounding alone can cross the float endpoints.
    exact, _, inner = _entropy_intervals(np.array([353493338123.0, 786491915002.0]), 1e-3)
    assert exact.lower <= exact.upper
    assert inner.lower <= inner.upper
    # Here rounding puts h' at u0 + sigma above h' at u0.
    cons = _conservative(np.array([[395215259692.5], [395215259692.25]]), 1e-3)
    assert cons.lower <= cons.upper


@settings(max_examples=200, deadline=None)
@given(st.floats(math.log(1e-8), math.log(1e15)).map(math.exp))
def test_entropy_summand_derivative_non_increasing(total):
    # h is concave for every T > 0; entropy_summand relies on this instead of
    # spot-checking its curvature, so the property is tested here.
    d = np.asarray(entropy_summand(EntropyKernel(total)).deriv(np.linspace(0.0, 1.0, 201)))
    assert np.all(np.diff(d) <= 1e-9 * max(1.0, float(np.abs(d).max())))
