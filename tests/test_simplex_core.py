"""Domain types and the count-to-posterior-mean correspondence."""

import numpy as np
import pytest

from idmbounds import (
    CountVector,
    IdmConfig,
    Interval,
    SimplexPoint,
    sigma_of,
    u_from_t,
    validate_simplex,
)


class TestCorrespondence:
    def test_worked_example_lower_vertex(self):
        """counts (3,6), s=1, t=(0,1) maps to u=(0.3, 0.7)."""
        u = u_from_t(CountVector([3, 6]), IdmConfig(1.0), SimplexPoint([0.0, 1.0]))
        np.testing.assert_allclose(u.u, [0.3, 0.7], rtol=0, atol=1e-15)

    def test_worked_example_upper_corner(self):
        u = u_from_t(CountVector([3, 6]), IdmConfig(1.0), SimplexPoint([1.0, 0.0]))
        np.testing.assert_allclose(u.u, [0.4, 0.6], rtol=0, atol=1e-15)

    def test_symmetric_center(self):
        u = u_from_t(CountVector([5, 5]), IdmConfig(2.0), SimplexPoint([0.5, 0.5]))
        np.testing.assert_allclose(u.u, [0.5, 0.5], rtol=0, atol=1e-15)

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
            ts = rng.dirichlet(np.ones(d), size=50)
            for row in ts:
                u = u_from_t(counts, cfg, SimplexPoint(row))
                assert np.all(u.u >= u.u0 - 1e-15)
                assert abs(u.u.sum() - 1.0) <= 1e-9
                assert np.all(u.u - u.u0 <= u.sigma + 1e-15)

    def test_affine_in_t(self):
        rng = np.random.default_rng(11)
        counts = CountVector([2.0, 7.5, 0.5])
        cfg = IdmConfig(1.5)
        for _ in range(100):
            t1 = rng.dirichlet([1, 1, 1])
            t2 = rng.dirichlet([1, 1, 1])
            lam = float(rng.uniform())
            mix = u_from_t(counts, cfg, SimplexPoint(lam * t1 + (1 - lam) * t2)).u
            direct = (
                lam * u_from_t(counts, cfg, SimplexPoint(t1)).u
                + (1 - lam) * u_from_t(counts, cfg, SimplexPoint(t2)).u
            )
            np.testing.assert_allclose(mix, direct, rtol=0, atol=1e-12)


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
        u = u_from_t(counts, cfg, SimplexPoint.uniform(3))
        assert sigma_of(counts, cfg) == pytest.approx(1.0 - u.u0.sum(), abs=1e-15)


class TestValidateSimplex:
    def test_accepts_valid_point(self):
        assert validate_simplex([0.3, 0.7], 1e-12)

    def test_rejects_bad_sum(self):
        assert not validate_simplex([0.5, 0.6], 1e-12)

    def test_degenerate_dimension(self):
        assert validate_simplex([1.0], 0.0)

    def test_rejects_negative_and_nonfinite(self):
        assert not validate_simplex([-0.1, 1.1], 1e-12)
        assert not validate_simplex([np.nan, 1.0], 1e-12)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            validate_simplex([1.0], -1.0)


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

    def test_interval_orders_endpoints(self):
        iv = Interval(1.0, 2.0)
        assert iv.width == 1.0
        assert iv.contains(1.5)
        assert iv.contains_interval(Interval(1.2, 1.8))
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_immutability(self):
        cv = CountVector([1, 2])
        with pytest.raises(ValueError):
            cv.counts[0] = 5.0
