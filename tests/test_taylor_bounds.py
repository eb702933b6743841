"""First-order conservative bounds, inner bounds, and error propagation."""

import inspect
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sigma_of,
)
from idmbounds.simplex_core import _posterior_means
from _helpers import assert_same_bits, entropy_objective_direct

COUNTS = CountVector([3, 6])
CFG = IdmConfig(1.0)
KERNEL = EntropyKernel(10.0)


def _entropy_estimate(counts=COUNTS, cfg=CFG):
    kernel = EntropyKernel(counts.total + cfg.s)
    return concave_remainder_bounds(counts, cfg, entropy_summand(kernel))


def _linear_estimate(counts, cfg, weights):
    """Robust estimate of the linear functional u -> weights . u, weights >= 0."""
    weights = np.asarray(weights, dtype=float)
    provider = DerivativeBoundProvider(
        fn=lambda u: float(u @ weights),
        upper_i=lambda i: weights[i],
        lower_i=lambda i: weights[i],
        nonneg=True,
    )
    return approx_interval_general(counts, cfg, provider)


def _coordinate_estimate(counts, cfg, k):
    """Robust estimate of the linear functional u -> u_k."""
    return _linear_estimate(counts, cfg, np.arange(counts.dim) == k)


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
            )
            with pytest.raises(UnboundedDerivativeError, match="non-finite"):
                concave_remainder_bounds(CountVector([0, 5]), IdmConfig(1.0), plugin)

    def test_convex_dispatch_mirrors(self):
        # A convex g = u^2 goes through the concave -g, then negate: the
        # upper remainders use g' at u0 + sigma and the lower ones g' at u0.
        neg_square = ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)
        est = negate(concave_remainder_bounds(COUNTS, CFG, neg_square))
        u0 = COUNTS.counts / (COUNTS.total + CFG.s)
        sigma = est.sigma
        assert est.f0 == pytest.approx(float(np.sum(u0**2)), abs=1e-15)
        np.testing.assert_allclose(est.r_ub_per_i, sigma * 2 * (u0 + sigma), atol=1e-15)
        np.testing.assert_allclose(est.r_lb_per_i, sigma * 2 * u0, atol=1e-15)
        assert _sandwich_holds(est)
        oracle = grid_extrema(
            lambda u_rows: (u_rows**2).sum(axis=1), COUNTS, CFG, GridSpec(200)
        )
        assert est.conservative_interval().contains_interval(oracle, 1e-12)


def _four_call_reference(counts, cfg, f):
    """The remainder bounds with the summand called once per point set."""
    sigma = sigma_of(counts, cfg)
    u0 = _posterior_means(counts.counts, counts.total, cfg.s, 0.0)
    u_vertex = _posterior_means(counts.counts, counts.total, cfg.s, 1.0)
    deriv_low = np.asarray(f.deriv(u0), dtype=float)
    deriv_high = np.minimum(np.asarray(f.deriv(u_vertex), dtype=float), deriv_low)
    f_low = np.asarray(f.fn(u0), dtype=float)
    f_high = np.asarray(f.fn(u_vertex), dtype=float)
    f0 = float(f_low.sum())
    return RobustEstimate(
        f0, sigma * deriv_low, sigma * deriv_high, f0 - f_low + f_high, sigma
    )


_FIELDS = (
    "f0", "r_ub_per_i", "r_lb_per_i", "vertex_values", "sigma", "nonneg",
    "r_ub", "r_lb", "inner_upper", "inner_lower", "i1", "i2",
)


def _remainder_corpus():
    rng = np.random.default_rng(29)
    strengths = [5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1.0, 2.0, 1e3]
    strengths += [float(10.0 ** rng.uniform(-323, 3)) for _ in range(22)]
    for s in strengths:
        d = int(rng.integers(1, 13))
        counts = rng.integers(0, 10 ** int(rng.integers(0, 13)), d, endpoint=True)
        counts = counts * (rng.uniform(size=d) > 0.3)
        yield CountVector(counts.astype(float)), IdmConfig(s)


class TestStackedSummandCalls:
    def test_bit_identical_to_four_separate_calls(self):
        neg_square = ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)
        cases = list(_remainder_corpus())
        assert any(c.counts.max() > 1e11 for c, _ in cases)
        assert any((c.counts == 0).any() for c, _ in cases)
        for counts, cfg in cases:
            kernel = EntropyKernel(counts.total + cfg.s)
            for f in (entropy_summand(kernel), neg_square):
                got = concave_remainder_bounds(counts, cfg, f)
                want = _four_call_reference(counts, cfg, f)
                for name in _FIELDS:
                    a, b = getattr(got, name), getattr(want, name)
                    assert np.array_equal(a, b), (name, counts.counts, cfg.s)
                    assert np.array_equal(np.signbit(a), np.signbit(b)), name

    def test_summand_called_once_per_function(self):
        calls = {"fn": [], "deriv": []}
        kernel = EntropyKernel(COUNTS.total + CFG.s)
        f = entropy_summand(kernel)

        class Counting:
            def fn(self, u):
                calls["fn"].append(np.shape(u))
                return f.fn(u)

            def deriv(self, u):
                calls["deriv"].append(np.shape(u))
                return f.deriv(u)

        concave_remainder_bounds(COUNTS, CFG, Counting())
        assert calls == {"fn": [(4,)], "deriv": [(4,)]}

    @pytest.mark.parametrize("which", ["fn", "deriv"])
    def test_wrong_shaped_output_raises(self, which):
        # A summand that skips the construction spot-check, or passes it on
        # ten points only, must not be summed over the wrong coordinates.
        good = {"fn": lambda u: -(u**2), "deriv": lambda u: -2 * u}
        bad = dict(good, **{which: lambda u: good[which](u)[:2]})
        with pytest.raises(ValueError, match=f"summand {which} returned shape"):
            concave_remainder_bounds(CountVector([3, 6, 1]), IdmConfig(1.0), SimpleNamespace(**bad))


def _plain_entropy_summand(kernel):
    """``h`` and ``h'`` as an ordinary summand, which takes the generic path."""
    return ConcaveSummand(fn=lambda u: h(u, kernel), deriv=lambda u: h_prime(u, kernel))


def _pin_vectors():
    """Seeded counts: 2-decimal and integer up to 1e12, zeros, s in [1e-12, 1e3]."""
    rng = np.random.default_rng(2026)
    strengths = [1e-12, 1e3] + [float(10.0 ** rng.uniform(-12, 3)) for _ in range(118)]
    for s in strengths:
        d = int(rng.integers(1, 16))
        if rng.uniform() < 0.5:
            counts = rng.integers(0, 10 ** int(rng.integers(0, 13)), d, endpoint=True)
        else:
            counts = np.round(rng.uniform(0.0, 10 ** rng.uniform(0, 6), d), 2)
        counts = counts * (rng.uniform(size=d) > 0.3)
        yield CountVector(counts.astype(float)), IdmConfig(s)


class TestEntropySummandPass:
    def test_one_pass_matches_the_generic_path(self):
        # The entropy summand takes h and h' in one pass; a plain summand of
        # the same functions calls deriv, then fn.  Every bit must agree.
        cases = list(_pin_vectors())
        values = [c.counts for c, _ in cases]
        assert any(v.max() > 1e11 for v in values)
        assert any((v == 0).any() for v in values)
        assert any((v != np.round(v)).any() for v in values)
        for counts, cfg in cases:
            kernel = EntropyKernel(counts.total + cfg.s)
            got = concave_remainder_bounds(counts, cfg, entropy_summand(kernel))
            want = concave_remainder_bounds(counts, cfg, _plain_entropy_summand(kernel))
            assert_same_bits(got, want, _FIELDS, (counts.counts, cfg.s))


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

    def test_nonfinite_provider_value_rejected(self):
        provider = DerivativeBoundProvider(
            fn=lambda u: math.nan, upper_i=lambda i: 0.0, lower_i=lambda i: 0.0
        )
        with pytest.raises(ValueError, match="non-finite values"):
            approx_interval_general(COUNTS, CFG, provider)

    def test_inverted_bounds_rejected(self):
        provider = DerivativeBoundProvider(
            fn=lambda u: 0.0, upper_i=lambda i: -1.0, lower_i=lambda i: 1.0
        )
        with pytest.raises(ValueError, match="dominate"):
            approx_interval_general(COUNTS, CFG, provider)


@st.composite
def _primary_vectors(draw):
    # Upper remainders, lower remainders and vertex values of one length,
    # drawn from a few values so that ties are common.
    d = draw(st.integers(1, 6))
    vector = st.lists(st.sampled_from((-2.0, -0.5, 0.0, 0.5, 1.0, 3.0)), min_size=d, max_size=d)
    return tuple(np.array(draw(vector)) for _ in range(3))


class TestDerivedAggregates:
    def test_replace_recomputes_the_extremes(self):
        est = _entropy_estimate()
        moved = replace(est, r_ub_per_i=np.array([-1.0, 5.0]))
        assert (moved.r_ub, moved.i1) == (5.0, 1)
        assert moved.inner_upper == est.vertex_values[1]
        assert (moved.r_lb, moved.i2, moved.inner_lower) == (est.r_lb, est.i2, est.inner_lower)

    def test_constructor_takes_only_the_primaries(self):
        assert list(inspect.signature(RobustEstimate).parameters) == [
            "f0", "r_ub_per_i", "r_lb_per_i", "vertex_values", "sigma", "nonneg"
        ]

    @settings(max_examples=200, deadline=None)
    @given(_primary_vectors())
    def test_first_extremizing_index_wins(self, vectors):
        r_ub, r_lb, vertex = vectors
        est = RobustEstimate(0.5, r_ub, r_lb, vertex, 0.1)
        i1 = next(i for i, v in enumerate(r_ub) if v == r_ub.max())
        i2 = next(i for i, v in enumerate(r_lb) if v == r_lb.min())
        assert (est.i1, est.i2) == (i1, i2)
        assert (est.r_ub, est.r_lb) == (r_ub.max(), r_lb.min())
        assert (est.inner_upper, est.inner_lower) == (vertex[i1], vertex[i2])


class TestPropagateSum:
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
        double = propagate_sum(g, g)
        assert double.f0 == pytest.approx(2 * g.f0, abs=1e-15)
        np.testing.assert_allclose(double.r_ub_per_i, 2 * g.r_ub_per_i, atol=1e-15)
        np.testing.assert_allclose(double.vertex_values, 2 * g.vertex_values, atol=1e-15)
        assert double.r_ub == pytest.approx(2 * g.r_ub, abs=1e-15)
        assert _sandwich_holds(double)

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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 30), min_size=2, max_size=3), st.floats(0.05, 20.0), st.data())
    def test_linear_factors_bound_the_lattice_range_to_second_order(self, counts, s, data):
        # G = a.u and H = b.u with a, b >= 0 are certified.  On the image
        # u0 + sigma t of the simplex, GH = (g0 + sigma a.t)(h0 + sigma b.t)
        # is a product of non-negative affine functions, so its minimum sits
        # at a vertex, a lattice point.  The conservative ends contain the
        # lattice range, and pass its ends by at most the second-order terms
        # sigma^2 a_i b_j of the vertices their remainders come from.
        weights = st.lists(st.floats(0.0, 2.0), min_size=len(counts), max_size=len(counts))
        a, b = np.array(data.draw(weights)), np.array(data.draw(weights))
        cv, cfg = CountVector(counts), IdmConfig(s)
        prod = propagate_product(_linear_estimate(cv, cfg, a), _linear_estimate(cv, cfg, b))
        lattice = grid_extrema(lambda u: (u @ a) * (u @ b), cv, cfg, GridSpec(24))
        cons = prod.conservative_interval()
        second = prod.sigma**2 * a.max() * b.max()
        assert cons.lower <= lattice.lower + 1e-12 and lattice.upper <= cons.upper + 1e-12
        assert lattice.lower - cons.lower <= second + 1e-12
        assert cons.upper - lattice.upper <= 2 * second + 1e-12

    def test_zero_remainders_collapse_to_point(self):
        base = _coordinate_estimate(COUNTS, CFG, 0)
        const = replace(
            base,
            r_ub_per_i=np.zeros(2),
            r_lb_per_i=np.zeros(2),
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

    def test_dimension_mismatch_rejected(self):
        g = _coordinate_estimate(COUNTS, CFG, 0)
        other = _coordinate_estimate(CountVector([1, 2, 3]), CFG, 0)
        with pytest.raises(ValueError, match="mismatched dimensions"):
            propagate_product(g, other)


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
