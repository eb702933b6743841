"""Robust credible sets: triangular closed forms and the MI interval."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from idmbounds import (
    ContingencyCounts,
    CredibleSpec,
    IdmConfig,
    McSpec,
    dirichlet_draws,
    kappa_from_alpha,
    mi_interval_bounds,
    one_sided_robust_bound,
    robust_credible_mi,
    triangular_mass,
    triangular_minimal_robust,
    triangular_robust_union,
    triangular_shortest_interval,
)
from _helpers import mutual_information_of_chances


def _triangle_density(t):
    return lambda x: max(0.0, 1.0 - abs(x - t))


def _mass_by_quadrature(t, a, b):
    kinks = [x for x in (t - 1.0, t, t + 1.0) if a < x < b]
    val, err = quad(_triangle_density(t), a, b, epsabs=1e-12, limit=200, points=kinks)
    assert err < 1e-10
    return val


class TestTriangularMass:
    def test_full_support(self):
        assert triangular_mass(0.0, -1.0, 1.0) == 1.0

    def test_half_coverage_interval(self):
        c = 1.0 - math.sqrt(0.5)
        assert triangular_mass(0.0, -c, c) == pytest.approx(0.5, abs=1e-15)

    def test_against_quadrature(self):
        assert triangular_mass(0.3, 0.0, 1.0) == pytest.approx(
            _mass_by_quadrature(0.3, 0.0, 1.0), abs=1e-10
        )
        rng = np.random.default_rng(41)
        for _ in range(25):
            t = float(rng.uniform(-1, 1))
            a = float(rng.uniform(-2, 1))
            b = a + float(rng.uniform(0, 2.5))
            assert triangular_mass(t, a, b) == pytest.approx(
                _mass_by_quadrature(t, a, b), abs=1e-9
            )

    def test_rejects_disordered_interval(self):
        with pytest.raises(ValueError):
            triangular_mass(0.0, 1.0, -1.0)


class TestShortestInterval:
    def test_simple_case(self):
        iv = triangular_shortest_interval(0.0, 0.75)
        assert iv.lower == pytest.approx(-0.5, abs=1e-15)
        assert iv.upper == pytest.approx(0.5, abs=1e-15)

    def test_translated_case(self):
        iv = triangular_shortest_interval(1.0, 0.9)
        root = math.sqrt(0.1)
        assert iv.lower == pytest.approx(root, abs=1e-15)
        assert iv.upper == pytest.approx(2.0 - root, abs=1e-15)

    def test_coverage_identity_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            t = float(rng.uniform(-3, 3))
            alpha = float(rng.uniform(0.5, 0.999))
            iv = triangular_shortest_interval(t, alpha)
            assert triangular_mass(t, iv.lower, iv.upper) == pytest.approx(
                alpha, abs=1e-12
            )

    def test_regime_restriction(self):
        with pytest.raises(ValueError):
            triangular_shortest_interval(0.0, 0.3)


class TestRobustFamily:
    def test_union_endpoints(self):
        iv = triangular_robust_union(0.5, 0.9)
        edge = 1.5 - math.sqrt(0.1)
        assert iv.lower == pytest.approx(-edge, abs=1e-15)
        assert iv.upper == pytest.approx(edge, abs=1e-15)
        # Coverage at the extreme translates is still alpha.
        assert triangular_mass(0.5, *_pair(iv)) >= 0.9 - 1e-12

    def test_union_collapses_with_gamma(self):
        tiny = triangular_robust_union(1e-9, 0.8)
        single = triangular_shortest_interval(0.0, 0.8)
        assert tiny.lower == pytest.approx(single.lower, abs=1e-8)
        assert tiny.upper == pytest.approx(single.upper, abs=1e-8)

    def test_minimal_branch_two_value(self):
        iv = triangular_minimal_robust(0.5, 0.9)
        radius = 1.5 - math.sqrt(0.2)
        assert iv.upper == pytest.approx(radius, abs=1e-15)
        assert iv.lower == pytest.approx(-radius, abs=1e-15)

    def test_branch_seam_is_continuous(self):
        for alpha in (0.5, 0.75, 0.9, 0.95):
            gamma = math.sqrt(0.5 * (1.0 - alpha))
            small = 1.0 - math.sqrt(1.0 - alpha - gamma**2)
            large = gamma + 1.0 - math.sqrt(2.0 * (1.0 - alpha))
            assert small == pytest.approx(large, abs=1e-12)

    def test_minimal_strictly_inside_union(self):
        for gamma in (0.25, 0.5, 1.0):
            for alpha in (0.5, 0.75, 0.9, 0.95):
                minimal = triangular_minimal_robust(gamma, alpha)
                union = triangular_robust_union(gamma, alpha)
                assert union.contains_interval(minimal)
                assert minimal.width < union.width

    def test_minimal_covers_every_translate(self):
        for gamma in (0.1, 0.25, 0.5, 1.0):
            for alpha in (0.5, 0.75, 0.9, 0.95):
                iv = triangular_minimal_robust(gamma, alpha)
                for t in (-gamma, -gamma / 2, 0.0, gamma / 2, gamma):
                    assert triangular_mass(t, iv.lower, iv.upper) >= alpha - 1e-9

    def test_union_bound_inequality_closed_form(self):
        # max_t (center + halfwidth) <= max_t center + max_t halfwidth;
        # for the triangular family the halfwidth is t-independent, so the
        # two sides agree exactly.
        gamma, alpha = 0.5, 0.9
        halfwidth = 1.0 - math.sqrt(1.0 - alpha)
        lhs = max(t + halfwidth for t in (-gamma, 0.0, gamma))
        rhs = gamma + halfwidth
        assert lhs <= rhs
        assert triangular_robust_union(gamma, alpha).upper == pytest.approx(
            rhs, abs=1e-15
        )

    def test_non_positive_gamma_rejected(self):
        for fn in (triangular_robust_union, triangular_minimal_robust):
            for gamma in (0.0, -0.5):
                with pytest.raises(ValueError, match="gamma"):
                    fn(gamma, 0.9)


class TestOneSided:
    def test_triangular_per_translate_endpoints(self):
        alpha = 0.9
        gamma = 0.7
        a_of_t = lambda t: t - 1.0 + math.sqrt(2.0 * (1.0 - alpha))
        # Analytic per-translate solve: each endpoint leaves mass alpha above it.
        for t in (-gamma, 0.0, gamma):
            assert triangular_mass(t, a_of_t(t), t + 1.0) == pytest.approx(
                alpha, abs=1e-12
            )
        grid = np.linspace(-gamma, gamma, 201)
        bound = one_sided_robust_bound(a_of_t, grid)
        assert bound == pytest.approx(-gamma - 1.0 + math.sqrt(2.0 * (1.0 - alpha)), abs=1e-12)

    def test_constant_and_singleton(self):
        assert one_sided_robust_bound(lambda t: 3.25, [0.0, 1.0, 2.0]) == 3.25
        assert one_sided_robust_bound(lambda t: t, [0.7]) == 0.7

    def test_monotone_under_refinement(self):
        f = lambda t: math.sin(3 * t) + t * t
        coarse = one_sided_robust_bound(f, np.linspace(-1, 1, 11))
        fine = one_sided_robust_bound(f, np.linspace(-1, 1, 101))
        assert fine <= coarse + 1e-15

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            one_sided_robust_bound(lambda t: t, [])


class TestCredibleSpec:
    def test_kappa_consistency(self):
        spec = CredibleSpec(0.9545)
        assert spec.kappa == pytest.approx(kappa_from_alpha(0.9545), abs=1e-9)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            CredibleSpec(0.0)
        with pytest.raises(ValueError):
            CredibleSpec(1.0)


class TestRobustCredibleMi:
    TBL = ContingencyCounts([[5, 1], [1, 5]])
    CFG = IdmConfig(1.0)

    def test_tiny_alpha_collapses_to_conservative(self):
        bounds = mi_interval_bounds(self.TBL, self.CFG)
        iv = robust_credible_mi(self.TBL, self.CFG, CredibleSpec(1e-12))
        assert iv.lower == pytest.approx(bounds.i0 + bounds.r_lb, abs=1e-9)
        assert iv.upper == pytest.approx(bounds.i0 + bounds.r_ub, abs=1e-9)

    def test_upper_dominates_conservative(self):
        bounds = mi_interval_bounds(self.TBL, self.CFG)
        iv = robust_credible_mi(self.TBL, self.CFG, CredibleSpec(0.95))
        assert iv.upper >= bounds.i0 + bounds.r_ub
        assert iv.lower <= bounds.i0 + bounds.r_lb

    def test_empirical_coverage(self):
        # Gaussian-approximation interval; coverage is checked with slack
        # because the construction is explicitly not conservative.
        iv = robust_credible_mi(self.TBL, self.CFG, CredibleSpec(0.95))
        params = (self.TBL.table + self.CFG.s * 0.25).ravel()
        draws = dirichlet_draws(params, McSpec(draws=100_000, seed=20260809))
        values = mutual_information_of_chances(draws, 2, 2)
        coverage = float(np.mean((values >= iv.lower) & (values <= iv.upper)))
        assert coverage >= 0.90


def _pair(iv):
    return iv.lower, iv.upper
