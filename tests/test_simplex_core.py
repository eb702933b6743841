"""Domain types and the count-to-posterior-mean correspondence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idmbounds import (
    SIMPLEX_TOL,
    ConcaveSummand,
    ContingencyCounts,
    CountVector,
    DerivativeBoundProvider,
    GridSpec,
    IdmConfig,
    Interval,
    SimplexPoint,
    approx_interval_general,
    concave_remainder_bounds,
    entropy_interval_exact,
    expected_mi,
    grid_extrema,
    max_concave_sum,
    mi_interval_bounds,
    mi_interval_crude,
    min_concave_sum,
    product_grid_extrema,
    sigma_of,
    u_from_t,
    validate_simplex,
)

# The README's summand of -sum(u_i^2), the recipe for a convex estimator.
NEG_SQUARE = ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)


class TestCorrespondence:
    def test_worked_example_lower_vertex(self):
        """counts (3,6), s=1, t=(0,1) maps to u=(0.3, 0.7)."""
        u = u_from_t(CountVector([3, 6]), IdmConfig(1.0), SimplexPoint([0.0, 1.0]))
        np.testing.assert_allclose(u, [0.3, 0.7], rtol=0, atol=1e-15)

    def test_worked_example_upper_corner(self):
        u = u_from_t(CountVector([3, 6]), IdmConfig(1.0), SimplexPoint([1.0, 0.0]))
        np.testing.assert_allclose(u, [0.4, 0.6], rtol=0, atol=1e-15)

    def test_symmetric_center(self):
        u = u_from_t(CountVector([5, 5]), IdmConfig(2.0), SimplexPoint([0.5, 0.5]))
        np.testing.assert_allclose(u, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            u_from_t(CountVector([3, 6]), IdmConfig(1.0), SimplexPoint([1.0]))

    def test_membership_and_displacement_bound_randomized(self):
        """u lies in the shifted simplex and |u - u0| <= sigma, 10^4 draws."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            counts = CountVector(rng.uniform(0, 20, size=d))
            cfg = IdmConfig(float(rng.uniform(0.25, 4.0)))
            u0 = counts.counts / (counts.total + cfg.s)
            sigma = sigma_of(counts, cfg)
            ts = rng.dirichlet(np.ones(d), size=50)
            for row in ts:
                u = u_from_t(counts, cfg, SimplexPoint(row))
                assert np.all(u >= u0 - 1e-15)
                assert abs(u.sum() - 1.0) <= 1e-9
                assert np.all(u - u0 <= sigma + 1e-15)

    def test_affine_in_t(self):
        rng = np.random.default_rng(11)
        counts = CountVector([2.0, 7.5, 0.5])
        cfg = IdmConfig(1.5)
        for _ in range(100):
            t1 = rng.dirichlet([1, 1, 1])
            t2 = rng.dirichlet([1, 1, 1])
            lam = float(rng.uniform())
            mix = u_from_t(counts, cfg, SimplexPoint(lam * t1 + (1 - lam) * t2))
            direct = (
                lam * u_from_t(counts, cfg, SimplexPoint(t1))
                + (1 - lam) * u_from_t(counts, cfg, SimplexPoint(t2))
            )
            np.testing.assert_allclose(mix, direct, rtol=0, atol=1e-12)


@st.composite
def correspondences(draw):
    d = draw(st.integers(1, 6))
    count = st.one_of(
        st.just(0.0),
        st.floats(0.0, 100.0).map(lambda x: round(x, 2)),
        st.floats(0.0, 1e12),
    )
    counts = CountVector(draw(st.lists(count, min_size=d, max_size=d)))
    s = draw(st.one_of(st.floats(5e-324, 1e300), st.sampled_from([5e-324, 1e-6, 1.0, 1e300])))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    t = SimplexPoint(weights / weights.sum()) if weights.sum() > 0 else SimplexPoint.vertex(d, 0)
    return counts, IdmConfig(s), t


@settings(max_examples=200, deadline=None)
@given(correspondences())
def test_posterior_mean_and_witness_properties(case):
    """``u`` is a read-only array that dominates ``u0``, exceeds it by at most
    ``sigma`` and sums to one; every extremum's witness is ``u_from_t(t_star)``."""
    counts, cfg, t = case
    u = u_from_t(counts, cfg, t)
    assert isinstance(u, np.ndarray) and u.dtype == np.float64 and not u.flags.writeable
    u0 = counts.counts / (counts.total + cfg.s)
    assert np.all(u >= u0)
    assert np.all(u - u0 <= sigma_of(counts, cfg) + 1e-15)
    assert abs(u.sum() - 1.0) <= SIMPLEX_TOL
    for res in (min_concave_sum(counts, cfg, NEG_SQUARE), max_concave_sum(counts, cfg, NEG_SQUARE)):
        assert np.array_equal(res.u_star, u_from_t(counts, cfg, res.t_star))
        assert not res.u_star.flags.writeable


class TestSubnormalStrength:
    """n + s below the normal range: s * t must keep its digits."""

    TINY = CountVector([5e-324, 5e-324])
    CFG = IdmConfig(5e-324)

    def test_posterior_mean_sums_to_one(self):
        u = u_from_t(self.TINY, self.CFG, SimplexPoint([0.5, 0.5]))
        assert u.sum() == 1.0
        np.testing.assert_array_equal(u, [0.5, 0.5])

    def test_estimators_return_intervals(self):
        tbl = ContingencyCounts([[5e-324, 5e-324]])
        for iv in (
            entropy_interval_exact(self.TINY, self.CFG),
            mi_interval_crude(tbl, self.CFG),
            mi_interval_bounds(tbl, self.CFG).conservative_interval(),
        ):
            assert isinstance(iv, Interval)


HUGE_COUNTS = CountVector([1.7e308, 1.0])
HUGE_TABLE = ContingencyCounts([[1.7e308, 1.0]])
HUGE_S = IdmConfig(1.7e308)
SQUARES = DerivativeBoundProvider(
    fn=lambda u: float((u**2).sum()), upper_i=lambda i: 2.0, lower_i=lambda i: 0.0
)
OVERFLOWING_CALLS = {
    "u_from_t": lambda: u_from_t(HUGE_COUNTS, HUGE_S, SimplexPoint.uniform(2)),
    "sigma_of": lambda: sigma_of(HUGE_COUNTS, HUGE_S),
    "concave_remainder_bounds": lambda: concave_remainder_bounds(HUGE_COUNTS, HUGE_S, NEG_SQUARE),
    "min_concave_sum": lambda: min_concave_sum(HUGE_COUNTS, HUGE_S, NEG_SQUARE),
    "max_concave_sum": lambda: max_concave_sum(HUGE_COUNTS, HUGE_S, NEG_SQUARE),
    "approx_interval_general": lambda: approx_interval_general(HUGE_COUNTS, HUGE_S, SQUARES),
    "grid_extrema": lambda: grid_extrema(
        lambda u: (u**2).sum(axis=1), HUGE_COUNTS, HUGE_S, GridSpec(4)
    ),
    "product_grid_extrema": lambda: product_grid_extrema(
        lambda u: (u**2).sum(axis=(1, 2)), HUGE_TABLE, HUGE_S, GridSpec(4)
    ),
    "expected_mi": lambda: expected_mi(HUGE_TABLE, HUGE_S, SimplexPoint.uniform(2)),
}


@pytest.mark.parametrize("call", OVERFLOWING_CALLS.values(), ids=OVERFLOWING_CALLS.keys())
def test_overflowing_total_refused_without_warning(call):
    """n + s beyond the float range is refused by every estimator."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="total must be a positive finite real"):
            call()


class TestSigma:
    def test_worked_example(self):
        assert sigma_of(CountVector([3, 6]), IdmConfig(1.0)) == pytest.approx(0.1, abs=1e-15)

    def test_no_data(self):
        assert sigma_of(CountVector([0, 0]), IdmConfig(1.0)) == 1.0

    def test_doubled_counts(self):
        assert sigma_of(CountVector([6, 12]), IdmConfig(1.0)) == pytest.approx(
            1 / 19, abs=1e-15
        )

    def test_equals_one_minus_baseline_mass(self):
        counts = CountVector([1.5, 2.25, 0.25])
        cfg = IdmConfig(1.25)
        u0 = counts.counts / (counts.total + cfg.s)
        assert sigma_of(counts, cfg) == pytest.approx(1.0 - u0.sum(), abs=1e-15)


class TestValidateSimplex:
    def test_accepts_valid_point(self):
        assert validate_simplex([0.3, 0.7])

    def test_rejects_bad_sum(self):
        assert not validate_simplex([0.5, 0.6])

    def test_degenerate_dimension(self):
        assert validate_simplex([1.0])

    def test_rejects_negative_and_nonfinite(self):
        assert not validate_simplex([-0.1, 1.1])
        assert not validate_simplex([np.nan, 1.0])

    def test_tolerance_is_simplex_tol(self):
        assert validate_simplex([-SIMPLEX_TOL / 2, 1.0])
        assert not validate_simplex([-2 * SIMPLEX_TOL, 1.0])
        assert validate_simplex([0.5, 0.5 + SIMPLEX_TOL / 2])
        assert not validate_simplex([0.5, 0.5 + 2 * SIMPLEX_TOL])


class TestTypes:
    def test_counts_must_be_nonnegative_finite(self):
        with pytest.raises(ValueError):
            CountVector([-1.0, 2.0])
        with pytest.raises(ValueError):
            CountVector([np.inf, 2.0])
        with pytest.raises(ValueError):
            CountVector([])

    def test_overflowing_total_rejected_without_warning(self):
        # The suite turns RuntimeWarning into an error, so an overflow warning
        # from the sum would escape pytest.raises(ValueError).
        with pytest.raises(ValueError, match="finite"):
            CountVector([1e308, 1e308])
        assert CountVector([1e308, 1.0]).total == 1e308

    def test_fractional_counts_are_legal(self):
        cv = CountVector([0.5, 2.75])
        assert cv.total == pytest.approx(3.25)

    def test_strength_must_be_positive(self):
        with pytest.raises(ValueError):
            IdmConfig(0.0)
        with pytest.raises(ValueError):
            IdmConfig(-1.0)

    def test_simplex_point_clamps_tolerated_negatives(self):
        p = SimplexPoint([-1e-12, 1.0])
        assert p.t[0] == 0.0

    def test_simplex_point_rejects_bad_points(self):
        with pytest.raises(ValueError):
            SimplexPoint([0.5, 0.6])

    def test_vertex_and_uniform_constructors(self):
        v = SimplexPoint.vertex(3, 1)
        np.testing.assert_array_equal(v.t, [0.0, 1.0, 0.0])
        u = SimplexPoint.uniform(4)
        np.testing.assert_allclose(u.t, 0.25, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SimplexPoint.vertex(3, 3), "vertex index 3 out of range for dimension 3"),
            (lambda: SimplexPoint.uniform(0), "dim must be >= 1"),
            (lambda: Interval(math.nan, 1.0), "interval endpoints must be finite"),
        ],
        ids=["vertex-index", "uniform-dim", "interval-nan"],
    )
    def test_constructors_refuse_out_of_range_arguments(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_interval_orders_endpoints(self):
        iv = Interval(1.0, 2.0)
        assert iv.width == 1.0
        assert iv.contains(1.5)
        assert not iv.contains(0.75) and not iv.contains(2.25)
        assert iv.contains_interval(Interval(1.2, 1.8))
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_contains_widens_both_ends_by_the_tolerance(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(0.75, 0.25) and iv.contains(2.25, 0.25)
        assert not iv.contains(0.5, 0.25) and not iv.contains(2.5, 0.25)

    def test_immutability(self):
        cv = CountVector([1, 2])
        with pytest.raises(ValueError):
            cv.counts[0] = 5.0
