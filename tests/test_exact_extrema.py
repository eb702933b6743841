"""Closed-form extrema of concave separable estimators vs the grid oracle."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idmbounds import (
    ConcaveSummand,
    ContingencyCounts,
    CountVector,
    EntropyKernel,
    GridSpec,
    IdmConfig,
    concave_remainder_bounds,
    entropy_interval_exact,
    entropy_interval_rational,
    entropy_summand,
    grid_extrema,
    h_prime,
    max_concave_sum,
    mi_interval_crude,
    min_concave_sum,
    sigma_of,
)
from idmbounds import exact_extrema, special_fn
from idmbounds.cli import main as cli_main
from _helpers import entropy_extrema_exact, entropy_objective_direct, sigma_at_least


def _h_by_resum(numer, total):
    """Reference ``h(numer/total)``: the coordinate's own tail, re-summed."""
    tail = sum((Fraction(1, k) for k in range(numer + 1, total + 1)), Fraction(0))
    return Fraction(numer, total) * tail


def _rational_by_resum(ints, s):
    """Reference rational endpoints for integral counts, one re-sum per coordinate."""
    total = sum(ints) + s
    ordered = sorted(ints)
    u_tilde = min(
        Fraction(s + sum(ordered[:m]), m * total) for m in range(1, len(ints) + 1)
    )
    scaled = [max(Fraction(c, total), u_tilde) * total for c in ints]
    if any(x.denominator != 1 for x in scaled):
        return None
    i_star = ints.index(max(ints))
    lower = sum(
        (_h_by_resum(c + (s if i == i_star else 0), total) for i, c in enumerate(ints)),
        Fraction(0),
    )
    upper = sum((_h_by_resum(int(x), total) for x in scaled), Fraction(0))
    return lower, upper


@st.composite
def _integral_requests(draw):
    """Integral counts (zero cells allowed), d 1..20, s in {1, 2}, n + s <= 1000."""
    d = draw(st.integers(1, 20))
    s = draw(st.sampled_from([1, 2]))
    # Drawn down from the limit, so that large totals are common.
    n = exact_extrema.RATIONAL_TOTAL_LIMIT - s - draw(
        st.integers(0, exact_extrema.RATIONAL_TOTAL_LIMIT - s)
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=d - 1, max_size=d - 1)))
    bounds = [0, *cuts, n]
    return [b - a for a, b in zip(bounds, bounds[1:])], s


def _record_table_reads(monkeypatch):
    """Record every read of the rational path's harmonic table and every
    harmonic series summed by binary splitting."""
    calls = {"table": [], "sums": []}
    table, pair = exact_extrema._harmonic_table, special_fn._harmonic_pair
    monkeypatch.setattr(
        exact_extrema, "_harmonic_table", lambda: calls["table"].append(()) or table()
    )
    monkeypatch.setattr(
        special_fn, "_harmonic_pair", lambda *a: calls["sums"].append(a) or pair(*a)
    )
    return calls


def _entropy(counts, s=1.0):
    cfg = IdmConfig(s)
    kernel = EntropyKernel(counts.total + cfg.s)
    return cfg, entropy_summand(kernel)


class TestSummandContract:
    def test_misdeclared_concavity_rejected(self):
        with pytest.raises(ValueError, match="concave"):
            ConcaveSummand(fn=lambda u: u**2, deriv=lambda u: 2 * u)

    def test_non_finite_derivative_rejected(self):
        with pytest.raises(ValueError, match="derivative must be finite"):
            ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: np.full_like(u, np.nan))

    def test_wrong_shaped_fn_rejected(self):
        # Summed over two of three coordinates, it would give a maximum of
        # -0.3719 on counts [3, 6, 1] at s = 1 instead of -0.40496.
        with pytest.raises(ValueError, match="fn must be vectorized"):
            ConcaveSummand(fn=lambda u: -(u[:2] ** 2), deriv=lambda u: -2 * u)

    @pytest.mark.parametrize("extremum", [min_concave_sum, max_concave_sum])
    def test_wrong_shaped_fn_output_raises_in_the_extrema(self, extremum):
        # Ten outputs pass the ten-point spot-check; summed over 10 of 12
        # coordinates they gave a minimum of -0.06169 and a maximum of
        # -0.06217 on counts 1..12 at s = 1, instead of -0.10816 and -0.10463.
        f = ConcaveSummand(fn=lambda u: -(u[:10] ** 2), deriv=lambda u: -2 * u)
        with pytest.raises(ValueError, match=r"summand fn returned shape \(10,\)"):
            extremum(CountVector(np.arange(1.0, 13.0)), IdmConfig(1.0), f)

    @pytest.mark.parametrize("rise, accepted", [(1e-7, True), (1e-5, False)])
    def test_spot_check_slack_grows_with_the_steepest_slope(self, rise, accepted):
        # f' is about -1000 on the grid, so the slack is 1e-9 * 1000 = 1e-6:
        # a rise of 1e-7 between two grid points is rounding, one of 1e-5 is not.
        def deriv(u):
            return np.where(u > 0.5, -1000.0 + rise, -1000.0)

        def fn(u):
            return -1000.0 * u + rise * np.maximum(u - 0.5, 0.0)

        if accepted:
            ConcaveSummand(fn=fn, deriv=deriv)
        else:
            with pytest.raises(ValueError, match="concave"):
                ConcaveSummand(fn=fn, deriv=deriv)

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

    def test_vertex_witness_carries_its_index(self):
        # Rounding leaves t* = e_0 at m* = 2; its index was None.
        counts, cfg = CountVector([2, 2, 1000.0000000000005]), IdmConfig(3.8181382472832275e-16)
        res = max_concave_sum(counts, cfg, _NEG_SQUARE)
        assert (res.t_star.t.tolist(), res.m_star, res.vertex_index) == ([1.0, 0.0, 0.0], 2, 0)

    def test_vertex_index_names_a_vertex_witness(self):
        # At tiny strengths rounding leaves t* at a vertex whatever m* is
        # (tied smallest counts give m* > 1), and at m* = 1 not always at
        # the least-observed category.
        rng = np.random.default_rng(1867)
        seen = set()
        for _ in range(3000):
            d = int(rng.integers(2, 5))
            counts = rng.integers(0, 1000, d) + rng.choice([0.0, 5e-13, 1e-10], d)
            counts[1] = counts[0]
            counts = CountVector(counts)
            res = max_concave_sum(counts, IdmConfig(10.0 ** rng.uniform(-20, -12)), _NEG_SQUARE)
            nonzero = np.flatnonzero(res.t_star.t)
            if nonzero.size == 1:
                assert res.vertex_index == nonzero[0], (counts.counts, res.m_star)
                seen.add((res.m_star == 1, nonzero[0] == np.argmin(counts.counts)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

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

    @pytest.mark.parametrize(
        "counts, s",
        [
            # Leveling value 20/1000 puts (n+s)*u at 20/19 for the nineteen 1s.
            ([1.0] * 19 + [980.0], 1.0),
            ([1.5, 2.0], 1.0),
            ([3.0, 6.0], 1.5),
            ([500.0, 500.0], 1.0),
        ],
        ids=["off-grid", "fractional-count", "fractional-s", "above-the-limit"],
    )
    def test_rational_path_declines_before_reading_the_table(self, counts, s, monkeypatch):
        calls = _record_table_reads(monkeypatch)
        assert entropy_interval_rational(CountVector(counts), IdmConfig(s)) is None
        assert calls == {"table": [], "sums": []}

    def test_rational_path_sums_no_harmonic_series(self, monkeypatch):
        exact_extrema._harmonic_table()
        calls = _record_table_reads(monkeypatch)
        counts = CountVector([36.0, 62.0, 1.0, 9.0, 131.0, 760.0])
        expected = _rational_by_resum([36, 62, 1, 9, 131, 760], 1)
        assert expected is not None
        assert entropy_interval_rational(counts, IdmConfig(1.0)) == expected
        # Both endpoints are integer sums over one read of the built table.
        assert calls == {"table": [()], "sums": []}

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_integral_requests())
    def test_rational_path_matches_per_coordinate_resum(self, case):
        ints, s = case
        counts, cfg = CountVector([float(c) for c in ints]), IdmConfig(float(s))
        rational = entropy_interval_rational(counts, cfg)
        assert rational == _rational_by_resum(ints, s)
        if rational is not None:
            iv = entropy_interval_exact(counts, cfg)
            assert float(rational[0]) == pytest.approx(iv.lower, abs=1e-12)
            assert float(rational[1]) == pytest.approx(iv.upper, abs=1e-12)


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


class TestHugeStrength:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_leveled_witness_at_the_float_maximum(self, d):
        # The leveled prior's mass rounded past the float maximum, so the
        # witness was rebuilt as all zeros and refused (d = 3, 9, 11 and 12).
        counts, cfg = CountVector(np.zeros(d)), IdmConfig(_FLOAT_MAX)
        res = max_concave_sum(counts, cfg, entropy_summand(EntropyKernel(_FLOAT_MAX)))
        np.testing.assert_allclose(res.t_star.t, 1.0 / d, rtol=1e-15)
        assert res.m_star == d
        assert res.value == pytest.approx(np.log(d), rel=1e-12)
        assert entropy_interval_exact(counts, cfg).upper == res.value

    def test_cli_answers(self, capsys):
        code = cli_main(["entropy", "--inline", "0,0,0", "--s", repr(_FLOAT_MAX)])
        result = json.loads(capsys.readouterr().out)
        assert code == 0
        assert result["intervals"]["exact"]["upper"] == pytest.approx(np.log(3), rel=1e-11)


@st.composite
def _reference_requests(draw):
    """d 2..12 counts within a factor 100 of each other (n >= 20), s in [1e-3, 1e3]."""
    d = draw(st.integers(2, 12))
    scale = 10.0 ** draw(st.integers(0, 12))
    cells = draw(st.lists(st.floats(10.0, 1000.0), min_size=d, max_size=d))
    return [c * scale for c in cells], 10.0 ** draw(st.floats(-3.0, 3.0))


class TestIndependentReference:
    """The exact endpoints against 60-digit mpmath at the extrema recomputed
    from the counts, which shares no float path with the package.

    Budget 1e-12 relative on the stated domain; a 3520-case scratch corpus
    on it (ratios 1 to 100, totals 20 to 1e15, both ends of the s range)
    read at most 9.4e-14.  Outside it, where the entropy is small against
    its summands (a zero cell with a tiny s, counts far apart, s far above
    n), the float endpoints lose more digits.

    The conservative interval contains that exact interval, with no slack,
    where ``sigma = s / (n + s) >= 1e-7``: 178 of 178 such cases in a
    600-case scratch corpus of the domain.  Below, its first-order ends
    exceed the true ones by O(sigma^2), under the float error of ``f0``:
    they crossed in 7 of 51 cases at sigma from 1e-8 to 1e-7, and in 366
    of 371 below 1e-8.
    """

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_reference_requests())
    def test_exact_endpoints_within_budget(self, case):
        counts, s = case
        iv = entropy_interval_exact(CountVector(counts), IdmConfig(s))
        for got, want in zip((iv.lower, iv.upper), entropy_extrema_exact(counts, s)):
            assert abs(mpmath.mpf(got) - want) <= 1e-12 * abs(want)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_reference_requests().filter(sigma_at_least(1e-7)))
    def test_conservative_interval_contains_the_exact_interval(self, case):
        counts, s = case
        cv, cfg = CountVector(counts), IdmConfig(s)
        est = concave_remainder_bounds(cv, cfg, entropy_summand(EntropyKernel(cv.total + s)))
        cons = est.conservative_interval()
        lower, upper = entropy_extrema_exact(counts, s)
        assert mpmath.mpf(cons.lower) <= lower and upper <= mpmath.mpf(cons.upper)


def u_center_value(counts, cfg):
    from idmbounds import SimplexPoint, h, u_from_t

    kernel = EntropyKernel(counts.total + cfg.s)
    u = u_from_t(counts, cfg, SimplexPoint.uniform(counts.dim))
    return float(np.sum(h(u, kernel)))


_FLOAT_MAX = float(np.finfo(float).max)
_NEG_SQUARE = ConcaveSummand(fn=lambda u: -(u**2), deriv=lambda u: -2 * u)


def _branch_case(rng, branch, d):
    """Counts of length ``d`` and a strength that reach one branch of the maximiser."""
    if branch == "interior":
        # 1 < m* < d often, with m* = 1 and m* = d mixed in.
        counts = rng.integers(0, 20, d) * rng.choice([1.0, 0.25])
        return counts, float(rng.choice([0.5, 1, 2, 7.5]))
    if branch == "vertex":
        # One count far below the rest: m* = 1.
        counts = rng.integers(10, 1000, d).astype(float)
        counts[rng.integers(d)] = rng.choice([0.0, 1.5])
        return counts, float(rng.uniform(0.01, 5.0))
    if branch == "level":
        return np.full(d, float(rng.integers(0, 5))), float(rng.uniform(0.1, 10.0))
    if branch == "overflow":
        # n + s above the float maximum / d: m (n+s) overflows for the larger
        # m; an s near the total also overflows n + s itself.
        total = _FLOAT_MAX / d * rng.uniform(1.05, 0.95 * d)
        counts = total * rng.dirichlet(np.ones(d)) * (rng.uniform(size=d) > 0.3)
        return counts, float(rng.choice([10.0 ** rng.uniform(0, 306), total * rng.uniform(0.05, 1)]))
    # "tiny-s": often too small to move u, the vertex fallback; ties give m* > 1.
    counts = rng.integers(1, 1000, d) + rng.choice([0.0, 5e-13, 0.25], d)
    counts[1] = counts[0]
    return counts, float(10.0 ** rng.uniform(-20, -12))


def _pin_update(sha, call):
    """Hash the float64 bits of ``call()``'s values, or its error's type and message."""
    try:
        values = call()
    except ValueError as exc:
        sha.update(f"{type(exc).__name__}: {exc}".encode())
        return None
    for value in values:
        sha.update(np.asarray(-1 if value is None else value, dtype=float).tobytes())
    return values


def _ends(iv):
    return iv.lower, iv.upper


def _witness(res):
    return res.value, res.u_star, res.t_star.t, res.m_star


class TestPinnedBits:
    """sha256 of the bits of the exact entropy interval, both witnesses and the
    crude MI interval, recorded before their point sets were restructured.

    Each group's seeded corpus reaches one branch of the water-filling
    maximiser: an interior ``m*``, ``m* = 1``, ``m* = d``, the two-step
    division where ``m (n + s)`` overflows, and the vertex fallback for an
    ``s`` too small to move ``u``.  Witnesses are taken for the entropy
    summand and for ``neg_square``: ``value``, ``u_star``, ``t_star.t`` and
    ``m_star``.
    """

    BRANCHES = ["interior", "vertex", "level", "overflow", "tiny-s"]
    VECTORS = {
        "interior": "aeef09f8c78c1b0a6c6bc25bbc43c8d03de9a07d120d2a7a02d1a160dc1895f1",
        "vertex": "38ecebf3fd7f6acde4bc4c1458dbab63da664f1df005f3c6ac11345d50a625d6",
        "level": "727f4a7fc071614814032a89d5af78b9ed1ed1b7b2abf57dfbf62d2b3425035c",
        "overflow": "c5ba420c7bceb61eec0a0a9fbeb7f0fd0734600b2487bd0f310842dbc2d46d45",
        "tiny-s": "1e86480df0c5c252f6868f16c5e753b38ed3237ae3bf48dc95db9539252de16a",
    }
    # m* = 1, 1 < m* < d and m* = d, as the maximum's m_star reports them.
    LEVELS = {"interior": {"1", "mid", "d"}, "vertex": {"1"}, "level": {"d"}}
    TABLES = {
        "interior": "d5f950b97a571d8f5f0c34e3c65823dcca0db8cd0c60a0b87ec7d1f448527e1e",
        "vertex": "884771893fc67ef64b52aad5faefa35bd4106bcd23e46266aff181fdd5810cd0",
        "level": "994dedb4ccacae52b2a2100785aff89ed8657803917e994713fc05a336f13b85",
        "overflow": "741101f8adf0abc7aaccc4e76d7bbaaba85c92c7761cceb43118ae16fc36c569",
        "tiny-s": "c8a9fce8762ab0cef57b0115b1a785b8d6998c8170b153e10804cdbbd3e1fa0e",
    }

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_vector_bits_are_pinned(self, branch):
        rng = np.random.default_rng(self.BRANCHES.index(branch) + 61)
        sha, levels = hashlib.sha256(), set()
        for _ in range(80):
            counts, s = _branch_case(rng, branch, int(rng.integers(2, 13)))
            counts, cfg = CountVector(counts), IdmConfig(s)
            _pin_update(sha, lambda: _ends(entropy_interval_exact(counts, cfg)))
            entropy = lambda: entropy_summand(EntropyKernel(counts.total + cfg.s))  # noqa: E731
            for summand in (entropy, lambda: _NEG_SQUARE):
                for extremum in (min_concave_sum, max_concave_sum):
                    res = _pin_update(sha, lambda: _witness(extremum(counts, cfg, summand())))
                    if res is not None and extremum is max_concave_sum:
                        levels.add("1" if res[3] == 1 else "d" if res[3] == counts.dim else "mid")
        if branch in self.LEVELS:
            assert levels == self.LEVELS[branch]
        assert sha.hexdigest() == self.VECTORS[branch]

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_crude_mi_bits_are_pinned(self, branch):
        rng = np.random.default_rng(self.BRANCHES.index(branch) + 71)
        sha = hashlib.sha256()
        for _ in range(40):
            shape = (int(rng.integers(1, 5)), int(rng.integers(2, 5)))
            table, s = _branch_case(rng, branch, shape[0] * shape[1])
            tbl, cfg = ContingencyCounts(table.reshape(shape)), IdmConfig(s)
            _pin_update(sha, lambda: _ends(mi_interval_crude(tbl, cfg)))
        assert sha.hexdigest() == self.TABLES[branch]
