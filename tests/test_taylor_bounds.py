"""First-order conservative bounds, inner bounds, and error propagation."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from idmbounds import (
    ConcaveSummand,
    CountVector,
    DerivativeBoundProvider,
    EntropyKernel,
    GridSpec,
    IdmConfig,
    RobustEstimate,
    UnboundedDerivativeError,
    approx_interval_general,
    concave_remainder_bounds,
    entropy_interval_exact,
    entropy_summand,
    grid_extrema,
    h,
    h_prime,
    lift,
    negate,
    propagate_product,
    propagate_sum,
)
from _helpers import entropy_objective_direct

COUNTS = CountVector([3, 6])
CFG = IdmConfig(1.0)
KERNEL = EntropyKernel(10.0)


def _entropy_estimate(counts=COUNTS, cfg=CFG):
    kernel = EntropyKernel(counts.total + cfg.s)
    return concave_remainder_bounds(counts, cfg, entropy_summand(kernel))


def _coordinate_estimate(counts, cfg, k):
    """Robust estimate of the linear functional u -> u_k."""
    d = counts.dim
    provider = DerivativeBoundProvider(
        fn=lambda u: float(u[k]),
        upper_i=lambda i: 1.0 if i == k else 0.0,
        lower_i=lambda i: 1.0 if i == k else 0.0,
        nonneg=True,
    )
    return approx_interval_general(counts, cfg, provider)


def _sandwich_holds(est, tol=1e-12):
    return (
        est.f0 + est.r_lb <= est.inner_lower + tol
        and est.inner_lower <= est.inner_upper + tol
        and est.inner_upper <= est.f0 + est.r_ub + tol
    )


class TestConcaveRemainderBounds:
    def test_worked_example_values(self):
        est = _entropy_estimate()
        assert est.f0 == pytest.approx(float(Fraction(69, 112)), abs=1e-12)
        assert est.r_ub == pytest.approx(
            0.1 * (float(Fraction(13051, 2520)) - math.pi**2 / 2), abs=1e-12
        )
        assert est.r_lb == pytest.approx(
            0.1 * (float(Fraction(91717, 8400)) - 7 * math.pi**2 / 6), abs=1e-12
        )
        cons = est.conservative_interval()
        assert cons.lower == pytest.approx(0.5564, abs=2e-4)
        assert cons.upper == pytest.approx(0.6404, abs=2e-4)

    def test_aggregates_use_extreme_baseline_components(self):
        # For decreasing f', the max remainder sits at the smallest count.
        counts = CountVector([2, 7, 4])
        cfg = IdmConfig(2.0)
        kernel = EntropyKernel(counts.total + cfg.s)
        est = concave_remainder_bounds(counts, cfg, entropy_summand(kernel))
        sigma = est.sigma
        assert est.r_ub == pytest.approx(sigma * h_prime(2 / 15, kernel), abs=1e-14)
        assert est.r_lb == pytest.approx(sigma * h_prime(9 / 15, kernel), abs=1e-14)
        assert est.i1 == 0 and est.i2 == 1

    def test_inner_bounds_equal_exact_extrema_here(self):
        est = _entropy_estimate()
        exact = entropy_interval_exact(COUNTS, CFG)
        assert est.inner_lower == pytest.approx(exact.lower, abs=1e-12)
        assert est.inner_upper == pytest.approx(exact.upper, abs=1e-12)
        assert est.f0 + est.r_ub - exact.upper == pytest.approx(0.0148, abs=2e-4)
        assert exact.lower - (est.f0 + est.r_lb) == pytest.approx(0.0074, abs=2e-4)

    def test_zero_strength_limit_collapses(self):
        # sigma = s / (n + s) underflows to exactly 0 at the smallest strength.
        cfg = IdmConfig(5e-324)
        kernel = EntropyKernel(COUNTS.total)
        est = concave_remainder_bounds(COUNTS, cfg, entropy_summand(kernel))
        assert est.sigma == 0.0
        assert est.r_ub == 0.0 and est.r_lb == 0.0
        assert est.inner_lower == est.inner_upper == est.f0

    def test_conservative_against_grid_oracle(self):
        counts = CountVector([1, 1, 8])
        cfg = IdmConfig(2.0)
        kernel = EntropyKernel(counts.total + cfg.s)
        est = concave_remainder_bounds(counts, cfg, entropy_summand(kernel))
        oracle = grid_extrema(
            entropy_objective_direct(counts, cfg), counts, cfg, GridSpec(300)
        )
        assert est.f0 + est.r_lb <= oracle.lower + 1e-12
        assert oracle.upper <= est.f0 + est.r_ub + 1e-12
        assert _sandwich_holds(est)

    def test_unbounded_plugin_derivative_refused(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            plugin = ConcaveSummand(
                fn=lambda u: np.where(np.asarray(u) > 0, -np.asarray(u) * np.log(u), 0.0),
                deriv=lambda u: -np.log(u) - 1.0,
                curvature="concave",
            )
            with pytest.raises(UnboundedDerivativeError, match="non-finite"):
                concave_remainder_bounds(CountVector([0, 5]), IdmConfig(1.0), plugin)

    def test_convex_dispatch_mirrors(self):
        est = _entropy_estimate()
        flipped = concave_remainder_bounds(COUNTS, CFG, entropy_summand(KERNEL).negated())
        assert flipped.f0 == pytest.approx(-est.f0, abs=1e-15)
        assert flipped.r_ub == pytest.approx(-est.r_lb, abs=1e-15)
        assert flipped.r_lb == pytest.approx(-est.r_ub, abs=1e-15)
        assert flipped.inner_upper == pytest.approx(-est.inner_lower, abs=1e-15)
        assert _sandwich_holds(flipped)


class TestGeneralProvider:
    def test_specializes_to_concave_rule(self):
        provider = DerivativeBoundProvider(
            fn=lambda u: float(np.sum(h(u, KERNEL))),
            upper_i=lambda i: h_prime(COUNTS.counts[i] / 10.0, KERNEL),
            lower_i=lambda i: h_prime(COUNTS.counts[i] / 10.0 + 0.1, KERNEL),
        )
        general = approx_interval_general(COUNTS, CFG, provider)
        special = _entropy_estimate()
        assert general.f0 == pytest.approx(special.f0, abs=1e-12)
        np.testing.assert_allclose(general.r_ub_per_i, special.r_ub_per_i, atol=1e-14)
        np.testing.assert_allclose(general.r_lb_per_i, special.r_lb_per_i, atol=1e-14)
        np.testing.assert_allclose(general.vertex_values, special.vertex_values, atol=1e-12)
        assert (general.i1, general.i2) == (special.i1, special.i2)

    def test_nonfinite_provider_rejected(self):
        provider = DerivativeBoundProvider(
            fn=lambda u: 0.0, upper_i=lambda i: math.inf, lower_i=lambda i: 0.0
        )
        with pytest.raises(ValueError, match="non-finite"):
            approx_interval_general(COUNTS, CFG, provider)

    def test_inverted_bounds_rejected(self):
        provider = DerivativeBoundProvider(
            fn=lambda u: 0.0, upper_i=lambda i: -1.0, lower_i=lambda i: 1.0
        )
        with pytest.raises(ValueError, match="dominate"):
            approx_interval_general(COUNTS, CFG, provider)


class TestPropagateSum:
    def test_identity_weights_return_operand(self):
        g = _entropy_estimate()
        zero = propagate_sum(g, g, alpha=1.0, beta=0.0)
        assert zero.f0 == g.f0
        np.testing.assert_array_equal(zero.r_ub_per_i, g.r_ub_per_i)
        np.testing.assert_array_equal(zero.r_lb_per_i, g.r_lb_per_i)
        assert (zero.i1, zero.i2) == (g.i1, g.i2)
        assert zero.inner_upper == g.inner_upper

    def test_cancellation_needs_per_component_propagation(self):
        g = _coordinate_estimate(COUNTS, CFG, 0)
        neg = DerivativeBoundProvider(
            fn=lambda u: -float(u[0]),
            upper_i=lambda i: -1.0 if i == 0 else 0.0,
            lower_i=lambda i: -1.0 if i == 0 else 0.0,
        )
        h_est = approx_interval_general(COUNTS, CFG, neg)
        total = propagate_sum(g, h_est)
        np.testing.assert_array_equal(total.r_ub_per_i, np.zeros(2))
        np.testing.assert_array_equal(total.r_lb_per_i, np.zeros(2))
        # Aggregating before summing would have left an O(sigma) residue.
        assert g.r_ub + h_est.r_ub == pytest.approx(0.1, abs=1e-15)

    def test_doubling_scales_every_field(self):
        g = _entropy_estimate()
        double = propagate_sum(g, g, alpha=1.0, beta=1.0)
        assert double.f0 == pytest.approx(2 * g.f0, abs=1e-15)
        np.testing.assert_allclose(double.r_ub_per_i, 2 * g.r_ub_per_i, atol=1e-15)
        np.testing.assert_allclose(double.vertex_values, 2 * g.vertex_values, atol=1e-15)
        assert double.r_ub == pytest.approx(2 * g.r_ub, abs=1e-15)
        assert _sandwich_holds(double)

    def test_negative_weights_rejected(self):
        g = _entropy_estimate()
        with pytest.raises(ValueError):
            propagate_sum(g, g, alpha=-1.0, beta=0.0)

    def test_dimension_mismatch_rejected(self):
        g = _entropy_estimate()
        other = _entropy_estimate(CountVector([1, 2, 3]), CFG)
        with pytest.raises(ValueError, match="dimension"):
            propagate_sum(g, other)


class TestLiftAndNegate:
    def test_negate_mirrors_the_sandwich(self):
        est = _entropy_estimate()
        neg = negate(est)
        assert neg.conservative_interval().lower == -est.conservative_interval().upper
        assert neg.conservative_interval().upper == -est.conservative_interval().lower
        assert neg.inner_interval().lower == -est.inner_upper
        assert (neg.i1, neg.i2) == (est.i2, est.i1)
        twice = negate(neg)
        np.testing.assert_array_equal(twice.r_ub_per_i, est.r_ub_per_i)
        np.testing.assert_array_equal(twice.vertex_values, est.vertex_values)

    def test_lift_keeps_intervals_and_gathers_components(self):
        est = _entropy_estimate()
        lifted = lift(est, np.array([1, 0, 1, 0]))
        assert lifted.dim == 4
        assert lifted.conservative_interval() == est.conservative_interval()
        assert lifted.inner_interval() == est.inner_interval()
        np.testing.assert_array_equal(lifted.vertex_values, est.vertex_values[[1, 0, 1, 0]])
        # Smallest finer index among the tied copies of the extremizer.
        assert lifted.i1 == [1, 0].index(est.i1)
        assert lifted.i2 == [1, 0].index(est.i2)


class TestPropagateProduct:
    def test_multiplicative_identity(self):
        g = _coordinate_estimate(COUNTS, CFG, 0)
        one = RobustEstimate(
            f0=1.0,
            r_ub_per_i=np.zeros(2),
            r_lb_per_i=np.zeros(2),
            r_ub=0.0,
            r_lb=0.0,
            inner_upper=1.0,
            inner_lower=1.0,
            i1=0,
            i2=0,
            vertex_values=np.ones(2),
            sigma=g.sigma,
            nonneg=True,
        )
        prod = propagate_product(g, one)
        assert prod.f0 == g.f0
        np.testing.assert_array_equal(prod.r_ub_per_i, g.r_ub_per_i)
        np.testing.assert_array_equal(prod.vertex_values, g.vertex_values)

    def test_coordinate_product_against_grid_oracle(self):
        g = _coordinate_estimate(COUNTS, CFG, 0)
        h_est = _coordinate_estimate(COUNTS, CFG, 1)
        prod = propagate_product(g, h_est)

        def objective(u_rows):
            return u_rows[:, 0] * u_rows[:, 1]

        oracle = grid_extrema(objective, COUNTS, CFG, GridSpec(400))
        assert prod.f0 + prod.r_lb <= oracle.lower + 1e-12
        assert oracle.upper <= prod.f0 + prod.r_ub + 1e-12
        assert _sandwich_holds(prod)
        assert prod.nonneg

    def test_zero_remainders_collapse_to_point(self):
        base = _coordinate_estimate(COUNTS, CFG, 0)
        const = replace(
            base,
            r_ub_per_i=np.zeros(2),
            r_lb_per_i=np.zeros(2),
            r_ub=0.0,
            r_lb=0.0,
            inner_upper=base.f0,
            inner_lower=base.f0,
            vertex_values=np.full(2, base.f0),
            nonneg=True,
        )
        prod = propagate_product(const, const)
        assert prod.r_ub == 0.0 and prod.r_lb == 0.0
        assert prod.f0 == pytest.approx(base.f0**2, abs=1e-15)

    def test_missing_certification_rejected(self):
        g = _entropy_estimate()  # entropy derivative changes sign: never certified
        with pytest.raises(ValueError, match="certified"):
            propagate_product(g, g)


class TestTightnessOrder:
    def test_widening_shrinks_quadratically(self):
        ratios = np.array([1.0, 2.0]) / 3.0
        widths = []
        for n in (8, 16, 32, 64):
            counts = CountVector(ratios * n)
            est = _entropy_estimate(counts, CFG)
            widths.append((est.f0 + est.r_ub) - est.inner_upper)
        for before, after in zip(widths, widths[1:]):
            assert after / before <= 0.35

    def test_sandwich_on_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            counts = CountVector(rng.integers(0, 21, size=d).astype(float))
            cfg = IdmConfig(float(rng.choice([1.0, 2.0])))
            est = _entropy_estimate(counts, cfg)
            assert _sandwich_holds(est)
