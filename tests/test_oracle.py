"""Lattice enumeration, Monte-Carlo sampling, and their reduction helpers."""

import math

import numpy as np
import pytest

from idmbounds import (
    ContingencyCounts,
    CountVector,
    GridOverflowError,
    GridSpec,
    IdmConfig,
    McSpec,
    composition_count,
    compositions,
    dirichlet_draws,
    grid_extrema,
    h_fraction,
    jackknife_variance_stderr,
    lattice_entropy_objective,
    lattice_mi_objective,
    mc_functional_stats,
    mi_interval_bounds,
    product_grid_extrema,
)
from _helpers import (
    entropy_objective_direct,
    mi_objective_direct,
    shannon_entropy,
)

CFG = IdmConfig(1.0)


class TestCompositions:
    def test_colex_golden_order(self):
        got = compositions(2, 3)
        expected = [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 1], [0, 1, 1], [0, 0, 2]]
        np.testing.assert_array_equal(got, expected)

    def test_counts_and_row_sums(self):
        for total, parts in ((5, 1), (4, 2), (6, 4)):
            rows = compositions(total, parts)
            assert rows.shape == (composition_count(total, parts), parts)
            assert composition_count(total, parts) == math.comb(total + parts - 1, parts - 1)
            np.testing.assert_array_equal(rows.sum(axis=1), total)

    def test_cache_returns_readonly(self):
        rows = compositions(3, 2)
        assert not rows.flags.writeable


class TestGridExtrema:
    def test_constant_objective(self):
        counts = CountVector([1, 2, 3])
        iv = grid_extrema(lambda u: np.full(u.shape[0], 2.5), counts, CFG, GridSpec(20))
        assert iv.lower == 2.5 and iv.upper == 2.5

    def test_linear_objective_peaks_at_vertices(self):
        counts = CountVector([4, 1, 2])
        coeff = np.array([0.3, -1.2, 2.0])
        denom = counts.total + CFG.s

        def objective(u_rows):
            t_rows = (u_rows * denom - counts.counts) / CFG.s
            return t_rows @ coeff

        iv = grid_extrema(objective, counts, CFG, GridSpec(60))
        assert iv.upper == pytest.approx(coeff.max(), abs=1e-12)
        assert iv.lower == pytest.approx(coeff.min(), abs=1e-12)

    def test_entropy_against_worked_example(self):
        counts = CountVector([3, 6])
        iv = grid_extrema(
            entropy_objective_direct(counts, CFG), counts, CFG, GridSpec(1000)
        )
        assert iv.lower == pytest.approx(0.5639, abs=2e-3)
        assert iv.upper == pytest.approx(0.6256, abs=2e-3)

    def test_lattice_objective_matches_direct_evaluation(self):
        counts = CountVector([2, 0, 7])
        grid = GridSpec(37)
        direct = grid_extrema(entropy_objective_direct(counts, CFG), counts, CFG, grid)
        fast = grid_extrema(
            lattice_entropy_objective(counts, CFG, grid), counts, CFG, grid, on_lattice=True
        )
        assert fast.lower == pytest.approx(direct.lower, abs=1e-12)
        assert fast.upper == pytest.approx(direct.upper, abs=1e-12)

    def test_refinement_nests_up_to_lipschitz_slack(self):
        counts = CountVector([3, 1, 5])
        objective = entropy_objective_direct(counts, CFG)
        coarse = grid_extrema(objective, counts, CFG, GridSpec(50))
        fine = grid_extrema(objective, counts, CFG, GridSpec(100))
        # Finer lattices only widen the enumerated interval...
        assert fine.lower <= coarse.lower + 1e-12
        assert fine.upper >= coarse.upper - 1e-12
        # ...and by no more than a Lipschitz step of the summand sum.
        slack = 3 * math.log(counts.total + CFG.s + 1) / 50
        assert coarse.lower - fine.lower <= slack
        assert fine.upper - coarse.upper <= slack

    def test_overflow_guard(self):
        counts = CountVector([1, 1, 1, 1])
        with pytest.raises(GridOverflowError):
            grid_extrema(
                lambda u: u.sum(axis=1), counts, CFG, GridSpec(400, max_points=1000)
            )

    def test_deterministic(self):
        counts = CountVector([2, 5])
        objective = entropy_objective_direct(counts, CFG)
        a = grid_extrema(objective, counts, CFG, GridSpec(100))
        b = grid_extrema(objective, counts, CFG, GridSpec(100))
        assert (a.lower, a.upper) == (b.lower, b.upper)


class TestProductGrid:
    TBL = ContingencyCounts([[3, 1], [1, 3]])

    def test_degenerate_single_point(self):
        tbl = ContingencyCounts([[4.0]])
        iv = product_grid_extrema(mi_objective_direct(tbl, CFG), tbl, CFG, GridSpec(5))
        assert iv.lower == iv.upper == 0.0

    def test_subset_of_full_lattice(self):
        objective = mi_objective_direct(self.TBL, CFG)
        prod = product_grid_extrema(objective, self.TBL, CFG, GridSpec(50))
        full = grid_extrema(
            lattice_mi_objective(self.TBL, CFG, GridSpec(200)),
            self.TBL.joint_counts(),
            CFG,
            GridSpec(200),
            on_lattice=True,
        )
        assert prod.upper <= full.upper + 1e-12
        assert prod.lower >= full.lower - 1e-12

    def test_within_conservative_mi_bounds(self):
        prod = product_grid_extrema(
            mi_objective_direct(self.TBL, CFG), self.TBL, CFG, GridSpec(50)
        )
        cons = mi_interval_bounds(self.TBL, CFG).conservative_interval()
        assert cons.contains_interval(prod, tol=1e-9)

    def test_overflow_guard(self):
        with pytest.raises(GridOverflowError):
            product_grid_extrema(
                mi_objective_direct(self.TBL, CFG),
                self.TBL,
                CFG,
                GridSpec(300, max_points=10_000),
            )


class TestDirichletDraws:
    def test_symmetric_mean(self):
        draws = dirichlet_draws([1.0, 1.0], McSpec(draws=100_000, seed=7))
        assert draws.shape == (100_000, 2)
        assert float(draws[:, 0].mean()) == pytest.approx(0.5, abs=5e-3)

    def test_posterior_mean_of_worked_example(self):
        # counts (3,6) with all prior weight on the second category.
        draws = dirichlet_draws([3.0, 7.0], McSpec(draws=100_000, seed=11))
        means = draws.mean(axis=0)
        assert means[0] == pytest.approx(0.3, abs=5e-3)
        assert means[1] == pytest.approx(0.7, abs=5e-3)

    def test_rows_are_simplex_points(self):
        draws = dirichlet_draws([0.4, 2.0, 1.3], McSpec(draws=2000, seed=3))
        assert np.all(draws >= 0)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_fixed_seed_is_bitwise_reproducible(self):
        a = dirichlet_draws([0.5, 1.5, 2.5], McSpec(draws=500, seed=99))
        b = dirichlet_draws([0.5, 1.5, 2.5], McSpec(draws=500, seed=99))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dirichlet_draws([1.0, 0.0], McSpec(draws=10, seed=1))
        with pytest.raises(ValueError):
            McSpec(draws=0, seed=1)

    def test_gamma_underflow_raises_instead_of_nan_rows(self):
        # Both variates of some draws underflow to 0 at these tiny shapes.
        with pytest.raises(ValueError, match="underflow"):
            dirichlet_draws([1e-3, 1e-3], McSpec(draws=2000, seed=1))


class TestMcStats:
    def test_expected_entropy_recovered(self):
        # E[Shannon entropy] under Dirichlet(3, 7) is the closed-form
        # harmonic expression h(3/10) + h(7/10).
        expected = float(h_fraction(3, 10) + h_fraction(7, 10))
        draws = dirichlet_draws([3.0, 7.0], McSpec(draws=40_000, seed=5))
        stats = mc_functional_stats(draws, shannon_entropy)
        assert abs(stats.mean - expected) <= 3 * stats.stderr

    def test_constant_functional(self):
        draws = dirichlet_draws([1.0, 1.0], McSpec(draws=100, seed=2))
        stats = mc_functional_stats(draws, lambda rows: np.full(rows.shape[0], 4.0))
        assert stats.variance == 0.0
        assert stats.stderr == 0.0

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            mc_functional_stats(np.ones((1, 2)), lambda rows: rows[:, 0])

    def test_jackknife_matches_moment_formula(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(5000)
        se = jackknife_variance_stderr(values)
        n = values.size
        s2 = values.var(ddof=1)
        m4 = ((values - values.mean()) ** 4).mean()
        moment = math.sqrt((m4 - (n - 3) / (n - 1) * s2 * s2) / n)
        assert se == pytest.approx(moment, rel=1e-2)
