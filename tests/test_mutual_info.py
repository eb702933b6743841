"""Expected mutual information: decomposition, bounds, variance, product IDM."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idmbounds import (
    ConcaveSummand,
    ContingencyCounts,
    EntropyKernel,
    GridSpec,
    IdmConfig,
    SimplexPoint,
    concave_remainder_bounds,
    expected_mi,
    grid_extrema,
    h,
    h_prime,
    lattice_mi_objective,
    lift,
    mi_estimate,
    mi_interval_bounds,
    mi_interval_crude,
    mi_variance_leading,
    negate,
    product_grid_extrema,
    product_idm_check,
    propagate_sum,
)
from _helpers import (
    ESTIMATE_FIELDS,
    assert_same_bits,
    expected_mi_mp,
    expected_mi_scipy,
    mi_objective_direct,
    mutual_information_of_chances,
    sigma_at_least,
)

CFG = IdmConfig(1.0)


def _mi_grid_interval(tbl, cfg, resolution):
    return grid_extrema(
        lattice_mi_objective(tbl, cfg, GridSpec(resolution)),
        tbl.joint_counts(),
        cfg,
        GridSpec(resolution),
        on_lattice=True,
    )


def _variance_mpmath(table, s):
    """The leading-order variance at the uniform ``t``, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        d1, d2 = table.shape
        total = mpmath.fsum(mpmath.mpf(x) for x in table.ravel()) + s
        u = [[(mpmath.mpf(table[i, j]) + mpmath.mpf(s) / (d1 * d2)) / total for j in range(d2)]
             for i in range(d1)]
        rows = [mpmath.fsum(u[i]) for i in range(d1)]
        cols = [mpmath.fsum(u[i][j] for i in range(d1)) for j in range(d2)]
        cells = [(u[i][j], mpmath.log(u[i][j] / (rows[i] * cols[j])))
                 for i in range(d1) for j in range(d2)]
        center = mpmath.fsum(w * r for w, r in cells)
        return float(mpmath.fsum(w * (r - center) ** 2 for w, r in cells) / total)


class TestContingencyCounts:
    def test_marginals_match_recomputed_sums(self):
        tbl = ContingencyCounts([[2, 1], [1, 2]])
        np.testing.assert_array_equal(tbl.row_sums, tbl.table.sum(axis=1))
        np.testing.assert_array_equal(tbl.col_sums, tbl.table.sum(axis=0))
        assert tbl.total == 6.0

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            ContingencyCounts([[1, -1], [0, 0]])
        with pytest.raises(ValueError):
            ContingencyCounts([[np.nan, 1], [0, 0]])
        with pytest.raises(ValueError):
            ContingencyCounts([1, 2, 3])

    def test_overflowing_total_rejected_without_warning(self):
        with pytest.raises(ValueError, match="finite"):
            ContingencyCounts([[1e308, 1.0], [1e308, 1.0]])

    def test_flattening_is_row_major(self):
        tbl = ContingencyCounts([[1, 2], [3, 4]])
        np.testing.assert_array_equal(tbl.joint_counts().counts, [1, 2, 3, 4])


class TestExpectedMi:
    def test_single_row_vanishes_exactly(self):
        tbl = ContingencyCounts([[3, 6]])
        assert expected_mi(tbl, CFG, SimplexPoint([0.25, 0.75])) == 0.0

    def test_transpose_symmetry(self):
        tbl = ContingencyCounts([[2, 1, 0], [1, 3, 2]])
        flipped = ContingencyCounts(tbl.table.T)
        t = SimplexPoint.uniform(6)
        a = expected_mi(tbl, CFG, t)
        b = expected_mi(flipped, CFG, t)
        assert a == pytest.approx(b, abs=1e-13)

    def test_against_independent_resummation(self):
        tbl = ContingencyCounts([[2, 1], [1, 2]])
        bounds = mi_interval_bounds(tbl, CFG)
        u0 = tbl.table / (tbl.total + CFG.s)
        assert bounds.i0 == pytest.approx(
            expected_mi_scipy(u0, tbl.total + CFG.s), abs=1e-12
        )
        t = SimplexPoint([0.1, 0.2, 0.3, 0.4])
        u = (tbl.table + CFG.s * t.t.reshape(2, 2)) / (tbl.total + CFG.s)
        assert expected_mi(tbl, CFG, t) == pytest.approx(
            expected_mi_scipy(u, tbl.total + CFG.s), abs=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        tbl = ContingencyCounts([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="dimension"):
            expected_mi(tbl, CFG, SimplexPoint([1.0]))


class TestCrudeInterval:
    def test_single_row_contains_zero(self):
        iv = mi_interval_crude(ContingencyCounts([[2, 5, 1]]), CFG)
        assert iv.lower <= 0.0 <= iv.upper

    def test_one_by_two_example(self):
        iv = mi_interval_crude(ContingencyCounts([[3, 6]]), CFG)
        assert iv.lower <= 0.0 <= iv.upper

    def test_contains_grid_extrema(self):
        tbl = ContingencyCounts([[5, 1], [1, 5]])
        iv = mi_interval_crude(tbl, CFG)
        oracle = _mi_grid_interval(tbl, CFG, 40)
        assert iv.contains_interval(oracle, tol=1e-9)


class TestConservativeBounds:
    def test_zero_strength_limit_collapses(self):
        # sigma = s / (n + s) underflows to exactly 0 at the smallest strength.
        cfg = IdmConfig(5e-324)
        tbl = ContingencyCounts([[5, 1], [1, 5]])
        bounds = mi_interval_bounds(tbl, cfg)
        assert bounds.r_ub == 0.0 and bounds.r_lb == 0.0
        assert bounds.inner_upper == pytest.approx(bounds.i0, abs=1e-14)
        assert bounds.inner_lower == pytest.approx(bounds.i0, abs=1e-14)

    def test_contains_grid_extrema(self):
        tbl = ContingencyCounts([[5, 1], [1, 5]])
        bounds = mi_interval_bounds(tbl, CFG)
        oracle = _mi_grid_interval(tbl, CFG, 40)
        assert bounds.conservative_interval().contains_interval(oracle, tol=1e-9)

    def test_one_by_two_sandwich(self):
        bounds = mi_interval_bounds(ContingencyCounts([[3, 6]]), CFG)
        assert bounds.i0 + bounds.r_lb <= bounds.inner_lower + 1e-12
        assert bounds.inner_lower <= bounds.inner_upper + 1e-12
        assert bounds.inner_upper <= bounds.i0 + bounds.r_ub + 1e-12

    def test_sandwich_and_crude_dominate_inner_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            d1 = int(rng.integers(1, 4))
            d2 = int(rng.integers(1, 4))
            tbl = ContingencyCounts(rng.integers(0, 13, size=(d1, d2)).astype(float))
            cfg = IdmConfig(float(rng.choice([1.0, 2.0])))
            bounds = mi_interval_bounds(tbl, cfg)
            assert bounds.i0 + bounds.r_lb <= bounds.inner_lower + 1e-12
            assert bounds.inner_lower <= bounds.inner_upper + 1e-12
            assert bounds.inner_upper <= bounds.i0 + bounds.r_ub + 1e-12
            assert bounds.crude.upper >= bounds.inner_upper - 1e-12

    def test_every_cell_vertex_value_is_the_mi_there(self):
        tbl = ContingencyCounts([[4, 0, 2], [1, 7, 3]])
        bounds = mi_interval_bounds(tbl, CFG)
        for k in range(tbl.cells):
            vertex = SimplexPoint.vertex(tbl.cells, k)
            assert bounds.vertex_values[k] == pytest.approx(
                expected_mi(tbl, CFG, vertex), abs=1e-13
            )
        assert bounds.cell1 == divmod(bounds.i1, 3)
        assert bounds.inner_upper == bounds.vertex_values[bounds.i1]

    def test_tie_break_is_row_major(self):
        tbl = ContingencyCounts([[2, 2], [2, 2]])
        bounds = mi_interval_bounds(tbl, CFG)
        assert bounds.cell1 == (0, 0)
        assert bounds.cell2 == (0, 0)


def _composed_estimate(tbl, cfg):
    """The public composition of per-part remainder bounds on kernel ``n + s``.

    Each part goes through a plain summand of ``h`` and ``h'``, the generic
    path, and the three combine through ``lift``, ``negate`` and
    ``propagate_sum`` with each cell's row and column in row-major order.
    """
    kernel = EntropyKernel(tbl.total + cfg.s)
    f = ConcaveSummand(fn=lambda u: h(u, kernel), deriv=lambda u: h_prime(u, kernel))
    rows, cols, cells = (
        concave_remainder_bounds(part, cfg, f)
        for part in (tbl.row_counts(), tbl.col_counts(), tbl.joint_counts())
    )
    i, j = np.divmod(np.arange(tbl.cells), tbl.shape[1])
    return propagate_sum(propagate_sum(lift(rows, i), lift(cols, j)), negate(cells))


def _pin_tables():
    """Seeded tables: 1 x d and d x 1 among them, zero cells and zero margins,
    2-decimal and integer counts up to 1e12, and s from 1e-12 to 1e3."""
    rng = np.random.default_rng(2610)
    strengths = [1e-12, 1e3] + [float(10.0 ** rng.uniform(-12, 3)) for _ in range(178)]
    for k, s in enumerate(strengths):
        d = int(rng.integers(1, 6))
        shape = [(1, d), (d, 1)][k % 2] if k % 3 == 0 else tuple(rng.integers(1, 6, 2))
        if rng.uniform() < 0.5:
            table = rng.integers(0, 10 ** int(rng.integers(0, 13)), shape, endpoint=True)
        else:
            table = np.round(rng.uniform(0.0, 10 ** rng.uniform(0, 6), shape), 2)
        table = table * (rng.uniform(size=shape) > 0.3)
        if k % 5 == 1:
            table[int(rng.integers(shape[0]))] = 0
        elif k % 5 == 2:
            table[:, int(rng.integers(shape[1]))] = 0
        yield ContingencyCounts(table.astype(float)), IdmConfig(s)


class TestAssemblyBits:
    """The one-estimate assembly against the public lift/negate/sum composition."""

    CASES = list(_pin_tables())

    def test_corpus_covers_the_edges(self):
        tables = [tbl.table for tbl, _ in self.CASES]
        assert any(t.shape[0] == 1 and t.shape[1] > 1 for t in tables)
        assert any(t.shape[1] == 1 and t.shape[0] > 1 for t in tables)
        assert any((t == 0).any() and t.any() for t in tables)
        assert any(
            t.shape[0] > 1 and t.shape[1] > 1 and (~t.any(axis=0)).any() and t.any()
            for t in tables
        )
        assert any(
            t.shape[0] > 1 and t.shape[1] > 1 and (~t.any(axis=1)).any() and t.any()
            for t in tables
        )
        assert any(t.max() > 1e11 for t in tables)
        assert any((t != np.round(t)).any() for t in tables)
        strengths = [cfg.s for _, cfg in self.CASES]
        assert min(strengths) == 1e-12 and max(strengths) == 1e3

    @pytest.mark.parametrize("call", [mi_estimate, mi_interval_bounds])
    def test_equals_the_public_composition(self, call):
        for tbl, cfg in self.CASES:
            got, want = call(tbl, cfg), _composed_estimate(tbl, cfg)
            assert_same_bits(got, want, ESTIMATE_FIELDS, (tbl.table, cfg.s))

    def test_bounds_carry_the_crude_interval_and_the_shape(self):
        for tbl, cfg in self.CASES:
            bounds = mi_interval_bounds(tbl, cfg)
            crude = mi_interval_crude(tbl, cfg)
            assert (bounds.crude.lower, bounds.crude.upper) == (crude.lower, crude.upper)
            assert bounds.shape == tbl.shape


class TestVarianceLeading:
    def test_single_row_is_exactly_zero(self):
        tbl = ContingencyCounts([[2, 3, 4]])
        assert mi_variance_leading(tbl, CFG, SimplexPoint.uniform(3)) == 0.0

    def test_single_row_is_exactly_zero_at_a_subnormal_total(self):
        tbl, cfg = ContingencyCounts([[5e-324, 5e-324]]), IdmConfig(5e-324)
        assert mi_variance_leading(tbl, cfg, SimplexPoint.uniform(2)) == 0.0

    def test_non_negative_and_scaling(self):
        tbl = ContingencyCounts([[5, 1], [1, 5]])
        v1 = mi_variance_leading(tbl, CFG, SimplexPoint.uniform(4))
        assert v1 >= 0.0
        big = ContingencyCounts(4 * tbl.table)
        v4 = mi_variance_leading(big, CFG, SimplexPoint.uniform(4))
        assert 0.22 <= v4 / v1 <= 0.30

    def test_is_the_leading_term_of_the_mc_variance(self):
        # The gap to the Monte-Carlo variance must shrink like 1/n when all
        # counts scale up: that pins the formula as the correct first term.
        rng = np.random.default_rng(2024)
        base = np.array([[5.0, 1.0], [1.0, 5.0]])
        gaps = []
        for scale in (1, 4):
            tbl = ContingencyCounts(base * scale)
            lead = mi_variance_leading(tbl, CFG, SimplexPoint.uniform(4))
            params = (tbl.table + CFG.s * 0.25).ravel()
            chances = rng.dirichlet(params, size=60_000)
            values = mutual_information_of_chances(chances, 2, 2)
            mc = float(values.var(ddof=1))
            gaps.append(abs(lead - mc) / mc)
        assert gaps[1] <= 0.45 * gaps[0]

    def test_underflowing_margin_product_against_mpmath(self):
        # Each zero cell's row and column masses are 5e-171; their product
        # is below the float range.
        tbl, cfg = ContingencyCounts([[0, 0], [0, 1]]), IdmConfig(1e-170)
        got = mi_variance_leading(tbl, cfg, SimplexPoint.uniform(4))
        assert got == pytest.approx(_variance_mpmath(tbl.table, 1e-170), rel=1e-12)
        assert got == pytest.approx(3.8306454074713385e-166, rel=1e-12)

    def test_huge_count_beside_zero_cells_stays_finite(self):
        # The true value, 5.3e-396, rounds to 0.
        tbl = ContingencyCounts([[0, 0], [0, 1e200]])
        got = mi_variance_leading(tbl, CFG, SimplexPoint.uniform(4))
        assert math.isfinite(got) and got >= 0.0

    def test_ordinary_tables_against_mpmath(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            table = rng.integers(0, 15, size=tuple(rng.integers(2, 4, size=2))).astype(float)
            tbl = ContingencyCounts(table)
            got = mi_variance_leading(tbl, CFG, SimplexPoint.uniform(tbl.cells))
            assert got == pytest.approx(_variance_mpmath(table, 1.0), rel=1e-12)

    def test_overflowing_total_rejected(self):
        # n + s overflows: the same error as the bounds, not a zero cell.
        tbl, cfg = ContingencyCounts([[1e308, 1], [1, 1]]), IdmConfig(1.7e308)
        t = SimplexPoint.uniform(4)
        calls = (
            lambda: mi_variance_leading(tbl, cfg, t),
            lambda: expected_mi(tbl, cfg, t),
            lambda: mi_interval_bounds(tbl, cfg),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="total must be a positive finite real"):
                    call()

    def test_variance_beyond_the_float_range_rejected(self):
        # n + s near the smallest double: the leading term overflows.
        tbl, cfg = ContingencyCounts([[1e-320, 5e-321], [5e-321, 1e-320]]), IdmConfig(1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                mi_variance_leading(tbl, cfg, SimplexPoint.uniform(4))

    def test_zero_cell_rejected(self):
        tbl = ContingencyCounts([[0, 1], [1, 1]])
        vertex_elsewhere = SimplexPoint([0.0, 0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="zero cell"):
            mi_variance_leading(tbl, CFG, vertex_elsewhere)


class TestProductIdm:
    def test_bounds_hold_on_product_lattice(self):
        tbl = ContingencyCounts([[3, 1], [1, 3]])
        bounds = mi_interval_bounds(tbl, CFG)
        assert product_idm_check(tbl, CFG, bounds, resolution=50)

    def test_degenerate_single_cell(self):
        tbl = ContingencyCounts([[4.0]])
        bounds = mi_interval_bounds(tbl, CFG)
        assert product_idm_check(tbl, CFG, bounds, resolution=2)

    def test_resolution_floor(self):
        tbl = ContingencyCounts([[1, 1], [1, 1]])
        bounds = mi_interval_bounds(tbl, CFG)
        with pytest.raises(ValueError):
            product_idm_check(tbl, CFG, bounds, resolution=1)

    @pytest.mark.parametrize("resolution", [2.5, 4.0, np.float64(4.0)])
    def test_resolution_must_be_an_integer(self, resolution):
        tbl = ContingencyCounts([[1, 1], [1, 1]])
        bounds = mi_interval_bounds(tbl, CFG)
        with pytest.raises(ValueError, match="resolution must be an integer"):
            product_idm_check(tbl, CFG, bounds, resolution=resolution)

    def test_product_lattice_below_full_lattice(self):
        tbl = ContingencyCounts([[3, 1], [1, 3]])
        objective = mi_objective_direct(tbl, CFG)
        prod = product_grid_extrema(objective, tbl, CFG, GridSpec(50))
        full = _mi_grid_interval(tbl, CFG, 200)
        assert prod.upper <= full.upper + 1e-12
        assert prod.lower >= full.lower - 1e-12

    def test_vertices_are_outer_products(self):
        d1, d2 = 2, 3
        for i in range(d1):
            for j in range(d2):
                v = SimplexPoint.vertex(d1, i)
                w = SimplexPoint.vertex(d2, j)
                outer = np.outer(v.t, w.t).ravel()
                vertex = SimplexPoint.vertex(d1 * d2, i * d2 + j)
                np.testing.assert_array_equal(outer, vertex.t)


@st.composite
def _reference_tables(draw):
    """1x1 to 3x3 tables of zeros, small integers and reals from 10 to 1000
    times 10^0..10^12, with s in [1e-3, 1e3]."""
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(0, 12))
    cell = st.one_of(
        st.just(0.0),
        st.integers(1, 40).map(float),
        st.floats(10.0, 1000.0).map(lambda x: x * scale),
    )
    table = [[draw(cell) for _ in range(d2)] for _ in range(d1)]
    return table, 10.0 ** draw(st.floats(-3.0, 3.0))


class TestIndependentReference:
    """The MI intervals against the 60-digit ``E[I]`` taken from the counts,
    which shares no float path with the package, at every vertex prior and
    at the uniform prior.

    Only where ``sigma = s / (n + s) >= 1e-7``: below, the first-order ends
    exceed the true ones by O(sigma^2), under the float error of ``f0``
    (in a 600-case scratch corpus of tables with cells from 10 to 1000
    times 10^0..10^12, 3 of 42 cases crossed at sigma from 1e-8 to 1e-7,
    and 339 of 346 below 1e-8).  The conservative interval
    contains the reference with no slack.  A crude end is a sum of three
    float entropy ends up to log 9; when one vertex attains all three, that
    end is the vertex's E[I] itself and lands on either side of it by their
    rounding (worst seen 9.6e-16 in about 1700 cases), hence ``CRUDE_SLACK``.
    """

    CRUDE_SLACK = 4e-15

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_reference_tables().filter(sigma_at_least(1e-7)))
    def test_intervals_contain_the_reference_at_the_vertices_and_the_center(self, case):
        table, s = case
        tbl, cfg = ContingencyCounts(table), IdmConfig(s)
        cells = tbl.cells
        priors = [[Fraction(int(i == k)) for i in range(cells)] for k in range(cells)]
        priors.append([Fraction(1, cells)] * cells)
        values = [expected_mi_mp(table, s, t) for t in priors]
        cons = mi_interval_bounds(tbl, cfg).conservative_interval()
        crude = mi_interval_crude(tbl, cfg)
        for value in values:
            assert mpmath.mpf(cons.lower) <= value <= mpmath.mpf(cons.upper)
            assert crude.lower - self.CRUDE_SLACK <= value <= crude.upper + self.CRUDE_SLACK

    @pytest.mark.parametrize("table", [[[3.0, 0.0, 5.5]], [[1.0], [7.0], [0.0]], [[2.0]]])
    def test_reference_is_exactly_zero_on_a_lone_row_or_column(self, table):
        cells = sum(map(len, table))
        for k in range(cells):
            assert expected_mi_mp(table, 0.7, [Fraction(int(i == k)) for i in range(cells)]) == 0
        assert expected_mi_mp(table, 0.7, [Fraction(1, cells)] * cells) == 0
