"""Closed-form extrema of concave separable estimators vs the grid oracle."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from idmbounds import (
    ConcaveSummand,
    CountVector,
    EntropyKernel,
    GridSpec,
    IdmConfig,
    entropy_interval_exact,
    entropy_interval_rational,
    entropy_summand,
    grid_extrema,
    h_prime,
    max_concave_sum,
    min_concave_sum,
    sigma_of,
)
from idmbounds import exact_extrema
from idmbounds.cli import main as cli_main
from _helpers import entropy_objective_direct


def _entropy(counts, s=1.0):
    cfg = IdmConfig(s)
    kernel = EntropyKernel(counts.total + cfg.s)
    return cfg, entropy_summand(kernel)


class TestSummandContract:
    def test_misdeclared_concavity_rejected(self):
        with pytest.raises(ValueError, match="concave"):
            ConcaveSummand(fn=lambda u: u**2, deriv=lambda u: 2 * u)

    def test_two_init_fields(self):
        assert [f.name for f in dataclasses.fields(ConcaveSummand)] == ["fn", "deriv"]

    def test_entropy_summand_is_built_without_the_spot_check(self, monkeypatch):
        calls = []
        original = exact_extrema.h_prime
        monkeypatch.setattr(
            exact_extrema, "h_prime", lambda *a: calls.append(a) or original(*a)
        )
        f = entropy_summand(EntropyKernel(10.0))
        assert calls == []
        assert f.deriv(0.5) == original(0.5, EntropyKernel(10.0))
        assert len(calls) == 1
        # The same functions as an ordinary summand run the check again.
        ConcaveSummand(fn=f.fn, deriv=f.deriv)
        assert len(calls) > 1


class TestMinimum:
    def test_worked_example(self):
        counts = CountVector([3, 6])
        cfg, f = _entropy(counts)
        res = min_concave_sum(counts, cfg, f)
        assert res.vertex_index == 1
        np.testing.assert_allclose(res.u_star, [0.3, 0.7], atol=1e-15)
        np.testing.assert_array_equal(res.t_star.t, [0.0, 1.0])

    def test_tie_break_smallest_index(self):
        counts = CountVector([5, 5])
        cfg, f = _entropy(counts)
        res = min_concave_sum(counts, cfg, f)
        assert res.vertex_index == 0
        np.testing.assert_allclose(res.u_star, [6 / 11, 5 / 11], atol=1e-15)

    def test_against_grid_oracle(self):
        counts = CountVector([1, 6])
        cfg, f = _entropy(counts)
        res = min_concave_sum(counts, cfg, f)
        oracle = grid_extrema(
            entropy_objective_direct(counts, cfg), counts, cfg, GridSpec(2000)
        )
        assert res.value == pytest.approx(oracle.lower, abs=1e-3)
        # The vertex minimizer sits exactly on the lattice.
        assert oracle.lower >= res.value - 1e-12


class TestMaximum:
    def test_worked_example_corner(self):
        counts = CountVector([3, 6])
        cfg, f = _entropy(counts)
        res = max_concave_sum(counts, cfg, f)
        assert res.m_star == 1
        assert res.vertex_index == 0
        np.testing.assert_allclose(res.u_star, [0.4, 0.6], atol=1e-15)
        np.testing.assert_allclose(res.t_star.t, [1.0, 0.0], atol=1e-12)

    def test_empty_counts_level_at_center(self):
        counts = CountVector([0, 0, 0])
        cfg, f = _entropy(counts)
        res = max_concave_sum(counts, cfg, f)
        np.testing.assert_allclose(res.u_star, 1 / 3, atol=1e-15)
        assert res.m_star == 3
        assert res.vertex_index is None

    def test_unbalanced_corner_and_oracle(self):
        counts = CountVector([1, 6])
        cfg, f = _entropy(counts)
        res = max_concave_sum(counts, cfg, f)
        assert res.m_star == 1
        np.testing.assert_allclose(res.u_star, [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(res.t_star.t, [1.0, 0.0], atol=1e-12)
        oracle = grid_extrema(
            entropy_objective_direct(counts, cfg), counts, cfg, GridSpec(2000)
        )
        assert res.value == pytest.approx(oracle.upper, abs=1e-3)

    def test_total_near_the_float_maximum(self):
        # m (n+s) overflows for m = 2; that candidate is 0.5, not x / inf = 0.
        counts = CountVector([1e308, 1.0])
        cfg, f = _entropy(counts)
        res = max_concave_sum(counts, cfg, f)
        assert res.m_star == 1
        assert res.vertex_index == 1
        assert res.value == entropy_interval_exact(counts, cfg).upper

    def test_leveling_candidates_are_unimodal(self):
        # The greedy rule (stop at the first non-decrease) must agree with
        # full enumeration over m; the implementation enumerates anyway, so
        # unimodality is a checked property rather than an assumption.
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            counts = CountVector(rng.integers(0, 15, size=d).astype(float))
            s = float(rng.choice([0.5, 1.0, 2.0]))
            denom = counts.total + s
            ordered = np.sort(counts.counts)
            candidates = (s + np.cumsum(ordered)) / (np.arange(1, d + 1) * denom)
            greedy = 0
            while greedy + 1 < d and candidates[greedy + 1] < candidates[greedy]:
                greedy += 1
            assert candidates[greedy] == pytest.approx(candidates.min(), abs=1e-15)
            res = max_concave_sum(counts, IdmConfig(s), _entropy(counts, s)[1])
            assert candidates[res.m_star - 1] == pytest.approx(
                candidates.min(), abs=1e-15
            )

    def test_value_is_sum_of_summands_at_witness(self):
        counts = CountVector([2, 3, 9])
        cfg, f = _entropy(counts)
        for res in (min_concave_sum(counts, cfg, f), max_concave_sum(counts, cfg, f)):
            assert res.value == pytest.approx(float(np.sum(f.fn(res.u_star))), abs=1e-12)


class TestConvexDispatch:
    """A convex ``g`` goes through the concave summand ``-g``, values negated."""

    def test_convex_min_mirrors_concave_max(self):
        # min sum u_i^2 levels the posterior means: for counts [3, 6] and
        # s = 1 the prior weight goes to the first category, u* = [0.4, 0.6].
        counts = CountVector([3, 6])
        cfg = IdmConfig(1.0)
        neg_square = ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)
        res = max_concave_sum(counts, cfg, neg_square)
        assert -res.value == pytest.approx(0.52, abs=1e-15)
        np.testing.assert_allclose(res.u_star, [0.4, 0.6], atol=1e-15)
        assert res.vertex_index == 0

    def test_convex_extrema_against_oracle(self):
        counts = CountVector([2, 5, 1])
        cfg = IdmConfig(1.0)
        neg_square = ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)

        def objective(u_rows):
            return (u_rows**2).sum(axis=1)

        oracle = grid_extrema(objective, counts, cfg, GridSpec(400))
        assert -max_concave_sum(counts, cfg, neg_square).value == pytest.approx(
            oracle.lower, abs=1e-4
        )
        assert -min_concave_sum(counts, cfg, neg_square).value == pytest.approx(
            oracle.upper, abs=1e-4
        )


class TestEntropyInterval:
    def test_worked_example_rationals(self):
        iv = entropy_interval_exact(CountVector([3, 6]), IdmConfig(1.0))
        assert iv.lower == pytest.approx(float(Fraction(7106, 12600)), abs=1e-12)
        assert iv.upper == pytest.approx(float(Fraction(7883, 12600)), abs=1e-12)
        rational = entropy_interval_rational(CountVector([3, 6]), IdmConfig(1.0))
        assert rational == (Fraction(7106, 12600), Fraction(7883, 12600))

    def test_degenerate_dimension_collapses(self):
        iv = entropy_interval_exact(CountVector([7]), IdmConfig(1.0))
        assert iv.lower == 0.0
        assert iv.upper == 0.0

    def test_interior_maximum_against_oracle(self):
        counts = CountVector([2, 2, 2])
        cfg = IdmConfig(2.0)
        iv = entropy_interval_exact(counts, cfg)
        # Resolution divisible by 3 puts the leveled center on the lattice.
        oracle = grid_extrema(
            entropy_objective_direct(counts, cfg), counts, cfg, GridSpec(600)
        )
        assert iv.upper == pytest.approx(oracle.upper, abs=1e-6)
        assert iv.lower == pytest.approx(oracle.lower, abs=1e-6)
        center = u_center_value(counts, cfg)
        assert iv.lower <= center <= iv.upper

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            counts = CountVector(rng.integers(0, 21, size=d).astype(float))
            cfg = IdmConfig(float(rng.choice([1.0, 2.0])))
            iv = entropy_interval_exact(counts, cfg)
            oracle = grid_extrema(
                entropy_objective_direct(counts, cfg), counts, cfg, GridSpec(200)
            )
            assert iv.lower == pytest.approx(oracle.lower, abs=1e-2)
            assert iv.upper == pytest.approx(oracle.upper, abs=1e-2)
            assert oracle.lower >= iv.lower - 1e-9
            assert oracle.upper <= iv.upper + 1e-9

    def test_width_scales_like_sigma(self):
        base = np.array([1.0, 2.0]) / 3.0
        for n in (9, 18, 36, 72):
            counts = CountVector(base * n)
            cfg = IdmConfig(1.0)
            iv = entropy_interval_exact(counts, cfg)
            sigma = sigma_of(counts, cfg)
            kernel = EntropyKernel(counts.total + cfg.s)
            u0 = counts.counts / (counts.total + cfg.s)
            bound = counts.dim * float(
                np.max(np.abs([h_prime(u0, kernel), h_prime(u0 + sigma, kernel)]))
            )
            assert iv.width <= bound * sigma + 1e-12

    def test_enlarging_s_never_shrinks_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            counts = CountVector(rng.integers(0, 12, size=d).astype(float))
            small = entropy_interval_exact(counts, IdmConfig(1.0))
            big = entropy_interval_exact(counts, IdmConfig(2.5))
            assert big.contains_interval(small, tol=1e-12)

    def test_rational_path_declines_off_grid_levels(self):
        # Leveling value 3/10 puts (n+s)*u at 1.5: no rational closed form.
        assert entropy_interval_rational(CountVector([1, 1, 2]), IdmConfig(1.0)) is None
        assert entropy_interval_rational(CountVector([1.5, 2.0]), IdmConfig(1.0)) is None

    def test_rational_path_needs_exactly_integral_inputs(self):
        # Reals within 1e-9 of an integer are not that integer: [3, 6] has
        # rational endpoints, its neighbours do not.
        assert entropy_interval_rational(CountVector([3, 6]), IdmConfig(1.0)) is not None
        assert entropy_interval_rational(CountVector([3.0000000005, 6]), IdmConfig(1.0)) is None
        assert entropy_interval_rational(CountVector([3, 6]), IdmConfig(1.0000000004)) is None

    def test_rational_path_declines_before_summing_fractions(self, monkeypatch):
        # Leveling value 20/1000 puts (n+s)*u at 20/19 for the nineteen 1s.
        calls = []
        original = exact_extrema.h_fraction
        monkeypatch.setattr(
            exact_extrema, "h_fraction", lambda *a: calls.append(a) or original(*a)
        )
        counts = CountVector([1.0] * 19 + [980.0])
        assert entropy_interval_rational(counts, IdmConfig(1.0)) is None
        assert calls == []


class TestTinyStrength:
    COUNTS = [21.2, 29.1, 21.4]

    def test_upper_witness_is_a_simplex_point(self):
        # The witness t* = (u*(n+s) - n)/s loses digits when s << n.
        counts, cfg = CountVector(self.COUNTS), IdmConfig(1e-6)
        iv = entropy_interval_exact(counts, cfg)
        f = entropy_summand(EntropyKernel(counts.total + cfg.s))
        res = max_concave_sum(counts, cfg, f)
        assert res.t_star.t.sum() == pytest.approx(1.0, abs=1e-15)
        assert iv.upper == res.value
        assert 0.0 <= iv.width <= sigma_of(counts, cfg)

    def test_randomized_small_strengths(self):
        rng = np.random.default_rng(1200)
        for s in (1e-6, 1e-5, 1.0):
            cfg = IdmConfig(s)
            for _ in range(100):
                counts = CountVector(np.round(rng.uniform(1, 50, size=3), 1))
                iv = entropy_interval_exact(counts, cfg)
                assert iv.lower <= iv.upper

    def test_cli_answers_with_result_json(self, capsys):
        code = cli_main(["entropy", "--inline", "21.2,29.1,21.4", "--s", "1e-6"])
        result = json.loads(capsys.readouterr().out)
        assert code == 0
        assert result["command"] == "entropy"
        exact = result["intervals"]["exact"]
        assert exact["lower"] <= exact["upper"]


def u_center_value(counts, cfg):
    from idmbounds import SimplexPoint, h, u_from_t

    kernel = EntropyKernel(counts.total + cfg.s)
    u = u_from_t(counts, cfg, SimplexPoint.uniform(counts.dim))
    return float(np.sum(h(u, kernel)))
