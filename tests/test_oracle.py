"""Lattice enumeration, Monte-Carlo sampling, and their reduction helpers."""

import functools
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idmbounds import oracle
from idmbounds import (
    ContingencyCounts,
    CountVector,
    EntropyKernel,
    GridOverflowError,
    GridSpec,
    IdmConfig,
    McSpec,
    composition_count,
    compositions,
    dirichlet_draws,
    grid_extrema,
    h,
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

    @pytest.mark.parametrize("total, parts", [(0, 1), (5, 1), (3, 2), (4, 4), (7, 5)])
    def test_build_entries_counts_what_the_build_writes(self, total, parts, monkeypatch):
        written = total + 1  # the first level: one entry per total
        empty = np.empty

        def counting(shape, dtype):
            nonlocal written
            written += math.prod(shape)
            return empty(shape, dtype=dtype)

        monkeypatch.setattr(np, "empty", counting)
        oracle._build_compositions(total, parts)
        assert written == oracle._build_entries(total, parts)

    def test_lattices_in_use_stay_under_the_build_bound(self):
        # The largest lattice the suite builds, the 2x2 table at the point
        # cap and a 15x15 table at resolution 2.
        for total, parts in ((60, 6), (490, 4), (2, 225)):
            assert oracle._build_entries(total, parts) <= oracle._MAX_BUILD_ENTRIES


def _wide_mi_check():
    # 4.5 M points, under the point cap; the build would write ~1e13 entries.
    tbl, grid = ContingencyCounts(np.ones((1, 3000))), GridSpec(2)
    objective = lattice_mi_objective(tbl, CFG, grid)
    return functools.partial(
        grid_extrema, objective, tbl.joint_counts(), CFG, grid, on_lattice=True
    )


@pytest.mark.parametrize(
    "prepare",
    [
        lambda: functools.partial(compositions, 2, 3000),
        lambda: functools.partial(compositions, 32000, 3),
        lambda: functools.partial(compositions, 1, 20000),
        _wide_mi_check,
    ],
    ids=["compositions(2,3000)", "compositions(32000,3)", "compositions(1,20000)", "mi-1x3000-R2"],
)
def test_oversized_build_raises_before_anything_is_built(prepare, monkeypatch):
    call = prepare()

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be built for an oversized lattice")

    monkeypatch.setattr(oracle, "_COMP_CACHE", {})
    monkeypatch.setattr(oracle, "_MI_INDEX_CACHE", {})
    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(np, "concatenate", refuse)
    with pytest.raises(GridOverflowError):
        call()


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
        # C(503, 3) = 21.1 M points, above the 20 M cap.
        counts = CountVector([1, 1, 1, 1])
        with pytest.raises(GridOverflowError):
            grid_extrema(lambda u: u.sum(axis=1), counts, CFG, GridSpec(500))

    @pytest.mark.parametrize("resolution", [400, 100])  # several blocks, one block
    def test_non_finite_objective_value_raises(self, resolution):
        counts = CountVector([3, 6, 1])
        objective = entropy_objective_direct(counts, CFG)

        def holed(u):
            return np.where(u[:, 2] > 0.15, np.nan, objective(u))

        with pytest.raises(ValueError, match="objective values must be finite"):
            grid_extrema(holed, counts, CFG, GridSpec(resolution))

    @pytest.mark.parametrize("kind", ["grid", "product"])
    def test_blocks_hold_at_most_chunk_rows_cells(self, kind):
        # 53 130 points of six cells, one block of 318 780 cells if cut by rows.
        shapes = []

        def spy(u):
            shapes.append(u.shape)
            return np.zeros(u.shape[0])

        if kind == "grid":
            grid_extrema(spy, CountVector(np.ones(6)), CFG, GridSpec(20))
        else:
            product_grid_extrema(spy, ContingencyCounts(np.ones((1, 6))), CFG, GridSpec(20))
        assert max(math.prod(shape) for shape in shapes) <= oracle._CHUNK_ROWS
        assert sum(shape[0] for shape in shapes) == composition_count(20, 6)

    @pytest.mark.parametrize("resolution", [10.0, 10.5, np.float64(10.0), math.inf, True, "10"])
    def test_grid_spec_takes_only_integers(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            GridSpec(resolution)

    def test_numpy_integer_resolution(self):
        counts = CountVector([3, 6, 1])
        objective = entropy_objective_direct(counts, CFG)
        a = grid_extrema(objective, counts, CFG, GridSpec(np.int64(12)))
        b = grid_extrema(objective, counts, CFG, GridSpec(12))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_on_lattice_needs_tables(self):
        counts, grid = CountVector([2, 0, 7]), GridSpec(10)
        objective = lattice_entropy_objective(counts, CFG, grid)

        def bare(rows):
            return objective(rows)

        with pytest.raises(ValueError, match="tables"):
            grid_extrema(bare, counts, CFG, grid, on_lattice=True)

    @pytest.mark.parametrize("kind", ["entropy", "mi"])
    def test_wrapped_objective_keeps_its_tables(self, kind):
        # A functools.wraps wrapper, as a tracer installs, copies the
        # callable's attributes, so it is reduced exactly as the bare one.
        tbl, grid = ContingencyCounts([[3, 0, 2], [1, 4, 0]]), GridSpec(12)
        counts = tbl.joint_counts()
        if kind == "entropy":
            objective = lattice_entropy_objective(counts, CFG, grid)
        else:
            objective = lattice_mi_objective(tbl, CFG, grid)

        @functools.wraps(objective)
        def traced(rows):
            return objective(rows)

        bare = grid_extrema(objective, counts, CFG, grid, on_lattice=True)
        wrapped = grid_extrema(traced, counts, CFG, grid, on_lattice=True)
        assert (wrapped.lower, wrapped.upper) == (bare.lower, bare.upper)

    def test_deterministic(self):
        counts = CountVector([2, 5])
        objective = entropy_objective_direct(counts, CFG)
        a = grid_extrema(objective, counts, CFG, GridSpec(100))
        b = grid_extrema(objective, counts, CFG, GridSpec(100))
        assert (a.lower, a.upper) == (b.lower, b.upper)


def _table_backed(kind, counts, cfg, grid):
    # The objective and the counts it reduces over: the vector itself for the
    # entropy, the joint counts of the table [counts, reversed counts] for the MI.
    if kind == "entropy":
        cv = CountVector(counts)
        return lattice_entropy_objective(cv, cfg, grid), cv
    tbl = ContingencyCounts([counts, counts[::-1]])
    return lattice_mi_objective(tbl, cfg, grid), tbl.joint_counts()


@pytest.mark.parametrize("kind", ["entropy", "mi"])
class TestTableBackedReduction:
    """The reduction follows the objective's tables, whatever ``on_lattice`` says."""

    GRID = GridSpec(20)

    def test_default_flag_reduces_the_tables(self, kind):
        objective, counts = _table_backed(kind, [3, 6, 1], CFG, self.GRID)
        iv = grid_extrema(objective, counts, CFG, self.GRID)
        vals = objective(compositions(self.GRID.resolution, counts.dim))
        assert (iv.lower, iv.upper) == (vals.min(), vals.max())
        if kind == "entropy":
            assert (iv.lower, iv.upper) == (0.7789682539682543, 0.9107864357864359)

    @pytest.mark.parametrize("on_lattice", [False, True])
    def test_tables_of_other_counts_are_rejected(self, kind, on_lattice):
        objective, _ = _table_backed(kind, [3, 6, 1], CFG, self.GRID)
        _, other = _table_backed(kind, [3, 6, 2], CFG, self.GRID)
        with pytest.raises(ValueError, match="other counts or another s"):
            grid_extrema(objective, other, CFG, self.GRID, on_lattice=on_lattice)

    @pytest.mark.parametrize("on_lattice", [False, True])
    def test_tables_of_another_strength_are_rejected(self, kind, on_lattice):
        objective, counts = _table_backed(kind, [3, 6, 1], CFG, self.GRID)
        with pytest.raises(ValueError, match="other counts or another s"):
            grid_extrema(objective, counts, IdmConfig(50.0), self.GRID, on_lattice=on_lattice)


@st.composite
def entropy_lattices(draw):
    d = draw(st.integers(1, 5))
    count = st.one_of(
        st.just(0.0),
        st.integers(0, 40).map(float),
        st.floats(0.0, 40.0, allow_nan=False).map(lambda x: round(x, 2)),
    )
    counts = draw(st.lists(count, min_size=d, max_size=d))
    resolution = draw(st.integers(1, 60 if d <= 4 else 30))
    s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return CountVector(counts), IdmConfig(s), GridSpec(resolution)


class TestSeparableEntropyLattice:
    @settings(max_examples=150, deadline=None)
    @given(entropy_lattices())
    def test_equals_full_enumeration_bit_for_bit(self, case):
        counts, cfg, grid = case
        objective = lattice_entropy_objective(counts, cfg, grid)
        iv = grid_extrema(objective, counts, cfg, grid, on_lattice=True)
        vals = objective(compositions(grid.resolution, counts.dim))
        assert iv.lower == vals.min()
        assert iv.upper == vals.max()

    def test_does_not_enumerate(self, monkeypatch):
        def refuse(total, parts):
            raise AssertionError("the entropy lattice must not be enumerated")

        counts, grid = CountVector([3, 0, 7, 1]), GridSpec(400)
        monkeypatch.setattr(oracle, "compositions", refuse)
        iv = grid_extrema(
            lattice_entropy_objective(counts, CFG, grid), counts, CFG, grid, on_lattice=True
        )
        assert iv.lower < iv.upper

    def test_overflow_guard_still_applies(self):
        counts, grid = CountVector([1, 1, 1, 1]), GridSpec(500)
        with pytest.raises(GridOverflowError):
            grid_extrema(
                lattice_entropy_objective(counts, CFG, grid), counts, CFG, grid, on_lattice=True
            )

    def test_two_categories_at_top_resolution_stay_linear(self):
        counts, grid = CountVector([3, 6]), GridSpec(32000)
        objective = lattice_entropy_objective(counts, CFG, grid)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            iv = grid_extrema(objective, counts, CFG, grid, on_lattice=True)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An (R+1)^2 array would be 8 GB; a few table-sized arrays are ~1 MB.
        assert peak < 4 * 8 * (grid.resolution + 1)
        assert elapsed < 0.5
        first, second = objective.tables.cells
        vals = first[::-1] + second
        assert (iv.lower, iv.upper) == (vals.min(), vals.max())

    def test_mismatched_tables_are_rejected(self):
        counts = CountVector([1, 2, 3])
        objective = lattice_entropy_objective(counts, CFG, GridSpec(20))
        with pytest.raises(ValueError):
            grid_extrema(objective, counts, CFG, GridSpec(30), on_lattice=True)


class TestMiObjective:
    @staticmethod
    def _naive(tbl, cfg, grid, rows):
        d1, d2 = tbl.shape
        denom = tbl.total + cfg.s
        kernel = EntropyKernel(denom)
        steps = np.arange(grid.resolution + 1) / grid.resolution

        def table(c):
            return h((c + cfg.s * steps) / denom, kernel)

        cells = rows.reshape(rows.shape[0], d1, d2).astype(np.int64)
        row_ints, col_ints = cells.sum(axis=2), cells.sum(axis=1)
        vals = table(tbl.row_sums[0])[row_ints[:, 0]]
        for i in range(1, d1):
            vals += table(tbl.row_sums[i])[row_ints[:, i]]
        for j in range(d2):
            vals += table(tbl.col_sums[j])[col_ints[:, j]]
        for c, count in enumerate(tbl.table.ravel()):
            vals -= table(count)[rows[:, c]]
        return vals

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_naive_marginal_sums(self, shape):
        rng = np.random.default_rng(sum(shape))
        grid = GridSpec(12)
        for table in (
            rng.integers(0, 9, size=shape).astype(float),
            np.round(rng.uniform(0, 9, size=shape), 2),
        ):
            tbl = ContingencyCounts(table)
            rows = compositions(grid.resolution, tbl.cells)
            got = lattice_mi_objective(tbl, CFG, grid)(rows)
            assert np.array_equal(got, self._naive(tbl, CFG, grid, rows))


@st.composite
def mi_lattices(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = st.one_of(
        st.just(0.0),
        st.integers(0, 40).map(float),
        st.floats(0.0, 40.0, allow_nan=False).map(lambda x: round(x, 2)),
    )
    table = [[draw(count) for _ in range(d2)] for _ in range(d1)]
    # Keep every lattice within 50 000 points (3x3 tables up to R = 11).
    top = max(r for r in range(1, 61) if composition_count(r, d1 * d2) <= 50_000)
    resolution = draw(st.integers(1, top))
    s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return ContingencyCounts(table), IdmConfig(s), GridSpec(resolution)


def _mi_lattice_check(tbl, cfg, grid):
    objective = lattice_mi_objective(tbl, cfg, grid)
    iv = grid_extrema(objective, tbl.joint_counts(), cfg, grid, on_lattice=True)
    vals = objective(compositions(grid.resolution, tbl.cells))
    assert iv.lower == vals.min()
    assert iv.upper == vals.max()


class TestMiLatticeReduction:
    @settings(max_examples=150, deadline=None)
    @given(mi_lattices())
    def test_equals_full_enumeration_bit_for_bit(self, case):
        _mi_lattice_check(*case)

    @settings(max_examples=60, deadline=None)
    @given(mi_lattices(), st.integers(1, 300))
    def test_any_block_size(self, case, rows):
        # A fresh index cache, so the index is also built in these blocks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_CHUNK_ROWS", rows)
            mp.setattr(oracle, "_MI_INDEX_CACHE", {})
            _mi_lattice_check(*case)

    def test_does_not_call_the_objective(self):
        tbl, grid = ContingencyCounts([[3, 0, 2], [1, 4, 0]]), GridSpec(20)
        objective = lattice_mi_objective(tbl, CFG, grid)

        def refuse(rows):
            raise AssertionError("the MI lattice must be reduced without the closure")

        refuse.tables = objective.tables
        iv = grid_extrema(refuse, tbl.joint_counts(), CFG, grid, on_lattice=True)
        vals = objective(compositions(grid.resolution, tbl.cells))
        assert (iv.lower, iv.upper) == (vals.min(), vals.max())

    def test_wide_table_stays_proportional_to_its_points(self, monkeypatch):
        # A dense radix over the 18 free margins would have 3**18 = 387 M
        # entries (3 GB of floats); the lattice has 5050 points of 100 cells,
        # and building it takes about 3 MB.
        tbl, grid = ContingencyCounts(np.arange(100.0).reshape(10, 10) % 7), GridSpec(2)
        npoints = composition_count(2, 100)
        monkeypatch.setattr(oracle, "_MI_INDEX_CACHE", {})
        monkeypatch.setattr(oracle, "_COMP_CACHE", {})
        objective = lattice_mi_objective(tbl, CFG, grid)
        tracemalloc.start()
        try:
            iv = grid_extrema(objective, tbl.joint_counts(), CFG, grid, on_lattice=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * tbl.cells * npoints
        index = oracle._MI_INDEX_CACHE[(2, 10, 10)]
        # The int16 lattice the index was built from is not kept beside it.
        assert (2, 100) not in oracle._COMP_CACHE
        assert int(index.pairs.max()) < composition_count(2, 10) ** 2 <= npoints
        vals = objective(compositions(2, 100))
        assert (iv.lower, iv.upper) == (vals.min(), vals.max())

    def test_overflow_raises_before_any_index_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("nothing may be built for an oversized lattice")

        monkeypatch.setattr(oracle, "_mi_index", refuse)
        monkeypatch.setattr(oracle, "compositions", refuse)
        monkeypatch.setattr(oracle, "_build_compositions", refuse)
        # C(205, 5) = 2.9 G points, far above the cap.
        tbl, grid = ContingencyCounts(np.ones((2, 3))), GridSpec(200)
        with pytest.raises(GridOverflowError):
            grid_extrema(
                lattice_mi_objective(tbl, CFG, grid), tbl.joint_counts(), CFG, grid, on_lattice=True
            )

    def test_mismatched_tables_are_rejected(self):
        tbl = ContingencyCounts([[1, 2], [3, 4]])
        objective = lattice_mi_objective(tbl, CFG, GridSpec(20))
        with pytest.raises(ValueError):
            grid_extrema(objective, tbl.joint_counts(), CFG, GridSpec(30), on_lattice=True)


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
                GridSpec(5000),  # 5001 x 5001 = 25 M pairs, above the 20 M cap
            )


class TestDirichletDraws:
    # sha256 of the float64 bytes of each stream, recorded from the
    # sampler as first written (one Box-Muller and one Marsaglia-Tsang
    # helper per variate).  Shapes below 1, exactly 1 and 200; d = 1 and
    # d = 9; the extreme seeds; criterion 7's stream.
    PINNED = [
        ([0.3, 0.05, 0.9], 400, 7, "3ea0fccae865a68e8599819a566fd8eb17674cf8fa5604914a55019728d37648"),
        ([1.0, 1.0, 1.0], 300, 11, "36e07da72856f4b385cda245eb0ddabe1b5fc4c92e50e47d9d2db9721b83700c"),
        ([200.0, 0.5], 250, 12, "5348dc1ba2ac96b3943777b5f18db671079e1e4dcadc8c6b3c5d0a14094dde8f"),
        ([2.5], 50, 3, "3afcb42ae5e5e41174d7d1c525646238c7d0cc913c61adb6efe8cdfd7e6b3333"),
        (
            [0.02, 0.4, 1.0, 1.7, 3.0, 9.5, 30.0, 120.0, 200.0],
            200,
            5,
            "15771a1a0ac4edb908b9a61049316b68df5d6e4026fdf0d3673fbe5736c28be0",
        ),
        ([0.7, 4.0, 1.0], 300, 0, "d0064d81f6cb889a73138df547825fa8ea9f6460778c23adfcceb22a76c085d3"),
        ([0.2, 2.0], 300, 2**64 - 1, "91c4ea2419a5c346365d25e42e4a0c20f250dba597c9b28a0def5956b6eb93a8"),
        (
            [5.25, 1.25, 1.25, 5.25],
            100_000,
            20260707,
            "b71cea879068aa90aa0026328627e2a6fa7f5108f62eb481a828565c341868ac",
        ),
    ]

    @pytest.mark.parametrize(
        "params, draws, seed, digest",
        PINNED,
        ids=["below-1", "exactly-1", "200", "d1", "d9", "seed-0", "seed-max", "criterion-7"],
    )
    def test_stream_is_pinned(self, params, draws, seed, digest):
        out = dirichlet_draws(params, McSpec(draws=draws, seed=seed))
        assert out.shape == (draws, len(params)) and out.dtype == np.float64
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "draws, seed",
        [
            (10, 1.5),
            (10, -0.5),
            (10, math.inf),
            (10, np.float64(1.0)),
            (10, "3"),
            (2.5, 1),
            (True, 1),
            (10, False),
        ],
    )
    def test_spec_takes_only_integers(self, draws, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            McSpec(draws=draws, seed=seed)

    def test_numpy_integers_are_integers(self):
        spec = McSpec(draws=np.int64(40), seed=np.uint64(2**64 - 1))
        np.testing.assert_array_equal(
            dirichlet_draws([0.5, 2.0], spec), dirichlet_draws([0.5, 2.0], McSpec(40, 2**64 - 1))
        )

    def test_gamma_underflow_raises_instead_of_nan_rows(self):
        # Both variates of some draws underflow to 0 at these tiny shapes.
        with pytest.raises(ValueError, match="underflow"):
            dirichlet_draws([1e-3, 1e-3], McSpec(draws=2000, seed=1))

    def test_gamma_overflow_raises_instead_of_zero_rows(self):
        # Two variates near 1e308 sum to infinity; the rows would be 0 / inf.
        with pytest.raises(ValueError, match="too large"):
            dirichlet_draws([1e308, 1e308], McSpec(draws=3, seed=1))


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
