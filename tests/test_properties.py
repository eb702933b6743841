"""Property tests of the special functions and the entropy and MI bounds (hypothesis)."""

import io
import json
import math
import warnings

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from contextlib import redirect_stderr, redirect_stdout

from idmbounds import (
    ContingencyCounts,
    CountVector,
    CredibleSpec,
    EntropyKernel,
    IdmConfig,
    Interval,
    SimplexPoint,
    concave_remainder_bounds,
    digamma,
    entropy_interval_exact,
    entropy_summand,
    mi_interval_bounds,
    mi_interval_crude,
    mi_variance_leading,
    robust_credible_mi,
    trigamma,
)
from idmbounds.cli import main

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


@st.composite
def positive_tables(draw):
    """2x2 to 4x4 tables of total 64 in which every cell holds at least one count."""
    d1, d2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(1.0, 4.0), min_size=d1 * d2, max_size=d1 * d2))
    table = np.array(weights).reshape(d1, d2)
    return table / table.sum() * 64.0


def _mi_gaps(table):
    """How far the conservative MI interval reaches past the inner one, at s = 1."""
    b = mi_interval_bounds(ContingencyCounts(table), IdmConfig(1.0))
    cons, inner = b.conservative_interval(), b.inner_interval()
    return inner.lower - cons.lower, cons.upper - inner.upper


@settings(max_examples=300, deadline=None, derandomize=True)
@given(positive_tables())
def test_mi_gaps_are_second_order_when_every_cell_is_positive(table):
    # Scaling n from 64 to 256 takes sigma from 1/65 to 1/257: an O(sigma^2)
    # gap shrinks about 15.6x, an O(sigma) one about 4x.  A zero cell makes
    # the lower end O(sigma) (4.0x on [[1, 0], [0, 1]]), so it is not drawn.
    (lower64, upper64), (lower256, upper256) = _mi_gaps(table), _mi_gaps(table * 4.0)
    assert lower64 >= 8.0 * lower256
    assert upper64 >= 8.0 * upper256


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


# Every double from the smallest subnormal to near the float maximum, with
# zeros and small integers mixed in for counts.
any_positive = st.floats(5e-324, 1.7e308)
any_count = st.one_of(st.just(0.0), st.integers(0, 60).map(float), any_positive)


@st.composite
def hostile_tables(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return np.array(draw(st.lists(any_count, min_size=d1 * d2, max_size=d1 * d2))).reshape(d1, d2)


def _finite_ordered_or_value_error(call):
    # The estimator returns finite intervals with lower <= upper (and a
    # finite, non-negative variance) or raises ValueError; a RuntimeWarning
    # is an error.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = call()
    except ValueError:
        return
    if isinstance(result, float):
        assert math.isfinite(result) and result >= 0.0
        return
    if isinstance(result, Interval):
        intervals = [result]
    else:
        intervals = [result.conservative_interval(), result.inner_interval(), result.crude]
    for iv in intervals:
        assert math.isfinite(iv.lower) and math.isfinite(iv.upper)
        assert iv.lower <= iv.upper


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    st.lists(any_count, min_size=1, max_size=6),
    hostile_tables(),
    any_positive,
    st.sampled_from([0.5, 0.95, 0.9999999999999999]),
    st.booleans(),
)
@example([1e308, 1.0], np.array([[1e308, 1.0], [1.0, 1.0]]), 1.7e308, 0.95, False)
@example([5e-324, 0.0], np.array([[5e-324, 0.0]]), 5e-324, 0.5, True)
@example([5e-324], np.array([[5e-324, 5e-324]]), 5e-324, 0.5, False)
def test_public_estimators_give_finite_ordered_intervals_or_value_error(
    counts, table, s, alpha, at_vertex
):
    # Building the inputs is part of each call: a constructor may raise too.
    cells = table.size
    t = SimplexPoint.vertex(cells, cells - 1) if at_vertex else SimplexPoint.uniform(cells)
    for estimate in (
        lambda: entropy_interval_exact(CountVector(np.array(counts)), IdmConfig(s)),
        lambda: mi_interval_bounds(ContingencyCounts(table), IdmConfig(s)),
        lambda: mi_interval_crude(ContingencyCounts(table), IdmConfig(s)),
        lambda: robust_credible_mi(ContingencyCounts(table), IdmConfig(s), CredibleSpec(alpha)),
        lambda: mi_variance_leading(ContingencyCounts(table), IdmConfig(s), t),
    ):
        _finite_ordered_or_value_error(estimate)


sweep_strengths = st.one_of(st.sampled_from([5e-324, 1e-320, 1.0, 1e300]), st.floats(5e-324, 1e300))
sweep_counts = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(0, 60).map(float),
        st.floats(0.0, 60.0).map(lambda x: round(x, 2)),
        st.floats(0.0, 1e12),
    ),
    min_size=1,
    max_size=8,
).filter(lambda counts: sum(counts) > 0)


@st.composite
def sweep_requests(draw):
    if draw(st.booleans()):
        counts = ",".join(repr(c) for c in draw(sweep_counts))
        lo = draw(st.integers(1, 1000))
        spec = f"n:{lo}:{lo + draw(st.integers(0, 4))}"
        argv = ["sweep", "--inline", counts, "--sweep", spec]
    else:
        argv = ["sweep", "--sweep", f"ratio:{draw(st.floats(1.0, 1e300))!r}"]
    fmt = draw(st.sampled_from(["json", "csv"]))
    return argv + ["--s", repr(draw(sweep_strengths)), "--format", fmt]


def _emitted_at_most(a, b):
    # A crossing of a few ulps, which cancellation in h near u = 1 leaves when
    # s is tiny against n, shows in 12 emitted digits as at most one unit in
    # the last digit; near 0 it stays below the library properties' TOL.
    return a <= b + TOL + 1e-11 * max(abs(a), abs(b))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(sweep_requests())
@example(["sweep", "--inline", "0,5,0", "--sweep", "n:1:4", "--s", "5e-324", "--format", "csv"])
@example(["sweep", "--sweep", "ratio:1e300", "--s", "1e300", "--format", "json"])
@example(["sweep", "--inline", "1", "--sweep", "n:1:1", "--s", "5e-324", "--format", "json"])
@example(["sweep", "--sweep", "ratio:1.6529136653587308e+99", "--s", "1.7225469075270933e+87"])
def test_sweep_rows_sandwich_the_exact_interval(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    if argv[-1] == "json":
        rows = json.loads(out.getvalue())["rows"]
    else:
        rows = [[float(v) for v in ln.split(",")] for ln in out.getvalue().splitlines()[1:]]
    assert rows
    for x, exact_lo, exact_hi, cons_lo, cons_hi, *points in rows:
        assert exact_lo <= exact_hi
        assert _emitted_at_most(cons_lo, exact_lo) and _emitted_at_most(exact_hi, cons_hi)
        assert all(math.isfinite(p) for p in points)
