"""Lattice enumeration, Monte-Carlo sampling, and their reduction helpers."""

import functools
import hashlib
import math
import sys
import threading
import time
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    product_idm_check,
)
from idmbounds.mutual_info import _three_entropies
from _helpers import (
    entropy_objective_direct,
    mi_objective_direct,
    peak_traced,
    shannon_entropy,
)

CFG = IdmConfig(1.0)


@pytest.fixture(autouse=True)
def _cold_caches():
    # Every test starts from empty lattice caches and leaves them empty.
    caches = (oracle._compositions, oracle._mi_index)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _lattice_digest(*arrays) -> str:
    # sha256 over each array's dtype, shape, C-contiguity and bytes.
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(f"{arr.dtype.str}{arr.shape}{arr.flags.c_contiguous}".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _colex_reference(total: int, parts: int) -> np.ndarray:
    """Compositions of ``total`` into ``parts`` parts as the columns of one
    array, uint8 below 256 and int16 from 256, by stars and bars: the bars
    ``b_1 < ... < b_{p-1}`` among ``total + parts - 1`` slots.  Taken from
    the slots in descending order, itertools yields ``(b_{p-1}, ..., b_1)``
    in descending lexicographic order, which is colex order."""
    slots = total + parts - 1
    count = math.comb(slots, parts - 1)
    flat = chain.from_iterable(combinations(range(slots - 1, -1, -1), parts - 1))
    raw = np.fromiter(flat, np.intp)
    bars = np.full((count, parts + 1), slots, dtype=np.int16)
    bars[:, 0] = -1
    bars[:, parts - 1 : 0 : -1] = raw.reshape(count, parts - 1)
    parts_of = np.diff(bars, axis=1) - 1
    return parts_of.T.astype(np.uint8 if total < 256 else np.int16, order="C")


def _assert_same_array(got: np.ndarray, expected: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


class TestCompositions:
    # Recorded from the int16 block-list builder, on both sides of the
    # uint8/int16 switch at 256.
    PINNED = [
        ((0, 1), "40ce26d04b34c7b09943fda394ed25c23311faf852a66347efd9830c23eef91b"),
        ((5, 1), "739967ed0485d98364a8a5483e05d6be38dbd2f2e4a712d673a6c709403d8b4b"),
        ((3, 2), "e8ea78b2abd0619f497a42c0cdbfa95463099eff8be97623de9d11d95c9f42f1"),
        ((7, 5), "b04c3c3adf3b42df37002740d07bf534030063c41fc8aabe3652a7c3df2df75a"),
        ((255, 3), "344441e0c5f61da790922198776184c0e3cf96cd86c1b35a81399ca9ef8cf19d"),
        ((256, 3), "2957c718dc6fa91d5c41ab6194248a6cb04ad72e929d8fdfb71069b2645cf303"),
        ((400, 3), "b5ace077217384793430037accc4ba9c19913a29e0e4169cb5d0360d47e5e03c"),
        ((2, 225), "f94b200a9e9ee370fc98d59107eac748b5f9b1bcc1dd1fb235e473d0645b94d0"),
        ((32000, 2), "16ba9d7c575b8c9c962d11d841bb9cce997e3bf37f420139d48bb0589190885a"),
    ]

    @pytest.mark.parametrize("key, digest", PINNED, ids=[str(k) for k, _ in PINNED])
    def test_bytes_are_pinned(self, key, digest):
        rows = compositions(*key)
        assert rows.dtype == np.int16 and rows.flags.c_contiguous and not rows.flags.writeable
        assert _lattice_digest(rows) == digest

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

    @pytest.mark.parametrize("call", [compositions, composition_count])
    @pytest.mark.parametrize(
        "total, parts", [(2.0, 2), (2.5, 2), (True, 2), (2, 2.0), (2, 2.5), (2, True)]
    )
    def test_only_integers(self, call, total, parts):
        compositions(2, 2)  # a cached int key must not answer an equal float
        with pytest.raises(ValueError, match="must be an integer"):
            call(total, parts)

    def test_numpy_integers_are_accepted(self):
        assert composition_count(np.int64(4), np.int32(3)) == 15
        rows = compositions(np.int64(3), np.int16(2))
        np.testing.assert_array_equal(rows, [[3, 0], [2, 1], [1, 2], [0, 3]])

    @pytest.mark.parametrize("total, parts", [(0, 1), (5, 1), (3, 2), (4, 4), (7, 5), (300, 3)])
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

    @pytest.mark.parametrize(
        "total, parts", [(0, 1), (5, 1), (3, 2), (4, 4), (7, 5), (300, 3), (400, 3), (40, 6)]
    )
    def test_build_peak_stays_within_its_entries_and_one_row(self, total, parts):
        # The count above sees only np.empty.  Besides those entries the
        # build holds one last row while it writes it, at most the result's
        # width, and its size tables: three of total + 1 intp entries, and
        # a few array headers.
        out, peak = peak_traced(lambda: oracle._build_compositions(total, parts))
        entries = oracle._build_entries(total, parts) + composition_count(total, parts)
        assert peak <= out.itemsize * entries + 24 * (total + 1) + 4096

    @pytest.mark.parametrize("parts", range(1, 7))
    def test_build_equals_stars_and_bars_up_to_41(self, parts):
        for total in range(42):
            expected = _colex_reference(total, parts)
            _assert_same_array(oracle._build_compositions(total, parts), expected)

    @pytest.mark.parametrize("total, parts", [(255, 3), (256, 3), (400, 3), (2000, 2), (2, 100)])
    def test_build_equals_stars_and_bars(self, total, parts):
        # Both sides of the uint8/int16 switch at 256, and a wide lattice.
        _assert_same_array(oracle._build_compositions(total, parts), _colex_reference(total, parts))

    def test_lattices_in_use_stay_under_the_build_bound(self):
        # The largest lattice the suite builds, the 2x2 table at the point
        # cap and a 15x15 table at resolution 2.
        for total, parts in ((60, 6), (490, 4), (2, 225)):
            assert oracle._build_entries(total, parts) <= oracle._MAX_BUILD_ENTRIES


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GridSpec(0), "resolution must be >= 1"),
        (lambda: McSpec(10, 2**64), "seed must be an unsigned 64-bit integer"),
        (lambda: composition_count(-1, 2), "need total >= 0 and parts >= 1"),
        (lambda: compositions(32001, 2), "total above 32000 is not supported"),
        (
            lambda: grid_extrema(
                lambda u: np.zeros((len(u), 2)), CountVector([1, 2]), CFG, GridSpec(3)
            ),
            "objective must return one value per lattice point",
        ),
        (
            lambda: mc_functional_stats(np.ones((3, 2)), lambda rows: rows),
            "functional must return one value per sample",
        ),
        (lambda: jackknife_variance_stderr([1.0, 2.0]), "need at least three values"),
    ],
    ids=[
        "grid-zero", "seed-2**64", "count-negative-total", "compositions-above-32000",
        "objective-shape", "functional-shape", "jackknife-two-values",
    ],
)
def test_documented_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    def test_objective_without_its_tables_raises(self, kind):
        # A wrapper that drops the tables hands the objective posterior
        # means, which would truncate to step 0 and give a wrong interval.
        tbl, grid = ContingencyCounts([[3, 6, 1]]), GridSpec(20)
        counts = tbl.joint_counts()
        if kind == "entropy":
            objective = lattice_entropy_objective(counts, CFG, grid)
        else:
            objective = lattice_mi_objective(tbl, CFG, grid)
        with pytest.raises(ValueError, match="integer lattice rows"):
            grid_extrema(lambda u: objective(u), counts, CFG, grid)
        if kind == "mi":
            with pytest.raises(ValueError, match="integer lattice rows"):
                product_grid_extrema(lambda u: objective(u), tbl, CFG, grid)

    @pytest.mark.parametrize("kind", ["entropy", "mi"])
    def test_objective_takes_narrow_integer_rows(self, kind):
        tbl, grid = ContingencyCounts([[3, 0, 2], [1, 4, 0]]), GridSpec(12)
        if kind == "entropy":
            objective = lattice_entropy_objective(tbl.joint_counts(), CFG, grid)
        else:
            objective = lattice_mi_objective(tbl, CFG, grid)
        rows = compositions(grid.resolution, tbl.cells)
        assert rows.dtype == np.int16
        want = objective(rows.astype(np.intp))
        assert np.array_equal(objective(rows), want)
        assert np.array_equal(objective(rows.astype(np.uint8)), want)

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

        def timed():
            t0 = time.perf_counter()
            iv = grid_extrema(objective, counts, CFG, grid, on_lattice=True)
            return iv, time.perf_counter() - t0

        (iv, elapsed), peak = peak_traced(timed)
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


def _mi_interval_corpus():
    """Seeded MI lattice cases: single rows and columns, all-zero tables,
    2x2 through 3x3 (the benchmark's 2x2 at 60 and 2x3 / 3x2 at 40 among
    them), ``s`` from 1e-3 to 1e3, and the small shapes on both sides of
    the uint8/int16 switch at resolution 256."""
    rng = np.random.default_rng(2026)
    strengths = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3]
    cases = [((1, 1), 5), ((1, 4), 30), ((4, 1), 30), ((2, 3), 12), ((3, 2), 12)]
    cases += [((1, 2), r) for r in (40, 250, 260)] + [((2, 1), r) for r in (40, 250, 260)]
    cases += [((1, 3), r) for r in (40, 250, 260)] + [((3, 1), r) for r in (40, 250, 260)]
    cases += [((2, 2), r) for r in (20, 60, 250, 260)]
    cases += [((2, 3), 40), ((3, 2), 40), ((3, 3), 8), ((3, 3), 14)]
    for shape, resolution in cases:
        zeros = np.zeros(shape)
        integers = rng.integers(0, 13, size=shape).astype(float)
        reals = np.round(rng.uniform(0, 30, size=shape), 2)
        reals.flat[rng.integers(reals.size)] = 0.0
        for table in (zeros, integers, reals):
            s = float(rng.choice(strengths))
            yield ContingencyCounts(table), IdmConfig(s), GridSpec(resolution)


def _mi_lattice_check(tbl, cfg, grid):
    objective = lattice_mi_objective(tbl, cfg, grid)
    iv = grid_extrema(objective, tbl.joint_counts(), cfg, grid, on_lattice=True)
    vals = objective(compositions(grid.resolution, tbl.cells))
    assert iv.lower == vals.min()
    assert iv.upper == vals.max()


@st.composite
def forced_split_cases(draw):
    # Lattices of at most 200 points, reduced in blocks of 3 to 16 cells,
    # so that the whole-lattice pattern, and most group patterns, are wider
    # than a block.
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = st.one_of(st.just(0.0), st.integers(0, 40).map(float))
    table = [[draw(count) for _ in range(d2)] for _ in range(d1)]
    top = max(r for r in range(1, 41) if composition_count(r, d1 * d2) <= 200)
    resolution = draw(st.integers(1, top))
    s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return ContingencyCounts(table), IdmConfig(s), GridSpec(resolution), draw(st.integers(3, 16))


def _index_arrays(index) -> list:
    # Every array of an MI index: each group's pattern, sub-run starts and
    # pair ids, then the trailing cells and both margin lattices.
    arrays = [a for group in index.groups for a in (group.pattern, group.starts, group.pairs)]
    return arrays + [index.trailing, index.row_margins, index.col_margins]


def _kept_bytes(index) -> int:
    # Bytes an index keeps alive: the arrays its views are cut from, once each.
    bases = {}
    for a in _index_arrays(index):
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


class TestMiLatticeReduction:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(forced_split_cases())
    @example((ContingencyCounts([[2, 0], [1, 5]]), CFG, GridSpec(12), 4))
    def test_every_split_gives_the_bits_of_enumeration(self, case):
        # The split rule keeps lattices this small in one group, so every
        # feasible (t, a) is forced, each on a fresh index.
        tbl, cfg, grid, rows = case
        objective = lattice_mi_objective(tbl, cfg, grid)
        vals = objective(compositions(grid.resolution, tbl.cells))
        ends = (vals.min().hex(), vals.max().hex())
        widest = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_CHUNK_ROWS", rows)
            for trailing in range(tbl.cells):
                for shared in range(tbl.cells - trailing):
                    split = (trailing, shared)
                    mp.setattr(oracle, "_mi_split", lambda resolution, cells, split=split: split)
                    oracle._mi_index.cache_clear()
                    iv = grid_extrema(objective, tbl.joint_counts(), cfg, grid, on_lattice=True)
                    assert (iv.lower.hex(), iv.upper.hex()) == ends, split
                    if trailing:
                        groups = oracle._mi_index(grid.resolution, *tbl.shape).groups
                        widest = max(widest, max(g.pattern.shape[1] for g in groups))
        if tbl.cells > 2 and grid.resolution >= rows:
            assert widest > rows  # a pattern wider than a block was cut

    def test_wide_table_build_is_refused_before_any_group_is_built(self, monkeypatch):
        # The golden GRID_OVERFLOW-wide-table-build request: 1000 cells at
        # resolution 2, 500 500 points, under the point cap.
        def refuse(*args):
            raise AssertionError("nothing may be built for an oversized lattice")

        for name in ("compositions", "_build_compositions", "_mi_split"):
            monkeypatch.setattr(oracle, name, refuse)
        tbl, grid = ContingencyCounts(np.ones((1, 1000))), GridSpec(2)
        objective = lattice_mi_objective(tbl, CFG, grid)
        message = (
            "building the compositions of 2 into 1000 parts writes more than 1073741824 entries"
        )
        with pytest.raises(GridOverflowError) as refused:
            grid_extrema(objective, tbl.joint_counts(), CFG, grid, on_lattice=True)
        assert str(refused.value) == message

    def test_grouped_index_keeps_no_cell_columns(self):
        # The benchmark's 2x3 lattice at R = 40 (1.22 M points): uint16 pair
        # ids and the narrow patterns only, 2.56 bytes a point, where one
        # uint8 column per cell would alone take 6.
        index = oracle._mi_index(40, 2, 3)
        assert len(index.trailing) >= 2
        assert _kept_bytes(index) <= 3 * composition_count(40, 6)

    def test_grouped_reduction_stays_small(self):
        # 3x3 at R = 14, 319 770 points, with cold caches: the build and the
        # reduction peaked at 3.9 MB (9.9 MB with one cell column per cell).
        tbl, grid = ContingencyCounts(np.arange(9.0).reshape(3, 3) % 5), GridSpec(14)
        objective = lattice_mi_objective(tbl, CFG, grid)
        _, peak = peak_traced(
            lambda: grid_extrema(objective, tbl.joint_counts(), CFG, grid, on_lattice=True)
        )
        assert peak < 4_500_000

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
            oracle._mi_index.cache_clear()
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

    def test_wide_table_stays_proportional_to_its_points(self):
        # A dense radix over the 18 free margins would have 3**18 = 387 M
        # entries (3 GB of floats); the lattice has 5050 points of 100 cells,
        # and building it takes about 3 MB.
        tbl, grid = ContingencyCounts(np.arange(100.0).reshape(10, 10) % 7), GridSpec(2)
        npoints = composition_count(2, 100)
        objective = lattice_mi_objective(tbl, CFG, grid)
        iv, peak = peak_traced(
            lambda: grid_extrema(objective, tbl.joint_counts(), CFG, grid, on_lattice=True)
        )
        assert peak < 16 * tbl.cells * npoints
        index = oracle._mi_index(2, 10, 10)
        # The index's lattice does not also go into the compositions cache.
        assert oracle._compositions.cache_info().currsize == 0
        top_pair = max(int(group.pairs.max()) for group in index.groups)
        assert top_pair < composition_count(2, 10) ** 2 <= npoints
        vals = objective(compositions(2, 100))
        assert (iv.lower, iv.upper) == (vals.min(), vals.max())

    @pytest.mark.parametrize("key", [(40, 2, 3), (20, 3, 3)])
    def test_index_build_peak_stays_under_twice_what_it_keeps(self, key):
        # Each level is written once, so the build's peak is the index plus
        # the level below the last, not further copies of the lattice.
        index, peak = peak_traced(lambda: oracle._mi_index(*key))
        assert peak < 2 * _kept_bytes(index)

    # The split, the pair ids' type, and every array of the index (each
    # group's pattern, sub-run starts and pair ids, the trailing cells, row
    # and column margins), recorded from the index grouped by the total of
    # its first cells.  The pair ids are hashed widened to int32, the type
    # they were recorded in, so the digests also show that narrowing them
    # kept every id.  (400, 1, 3) has 80 601 margin pairs, above 2**16.
    PINNED = [
        ((40, 2, 3), (2, 0), np.uint16,
         "15625cfda8fa1bd842dd58f1328bc581b09c25759303ee92eb50ac94864f6a43"),
        ((40, 3, 2), (2, 0), np.uint16,
         "d2a125132d0e3767894b37ed294bdfea7cf59aaa7ab33154ef45d99a52ff4e3b"),
        ((60, 2, 2), (0, 1), np.uint16,
         "08e53e5b08df50f7b3a96a5f100596dc2f6394bf2744f1837bd41a9ee8de128f"),
        ((2, 10, 10), (0, 11), np.uint16,
         "6017f6f4f24f1dc31154a647ef355570a8364730d9f7c09a57635d624d80da99"),
        ((260, 1, 3), (0, 1), np.uint16,
         "50baea9efaaea4db21fde1a7119d75e13838d3fd5e7a197dd97c1ab00a56e284"),
        ((5, 1, 1), (0, 0), np.uint16,
         "e4ad34957c737a5f6ea3842c671b39d7a4c05c750cb3eb2a48b2e5ca0c9411e6"),
        ((400, 1, 3), (0, 1), np.int32,
         "ef7f41163b8166e147e1b8920fe1d3d66b87060f41db523dbb960ad2d4582a12"),
    ]

    @pytest.mark.parametrize(
        "key, split, pair_type, digest", PINNED, ids=[str(k) for k, *_ in PINNED]
    )
    def test_index_bytes_are_pinned(self, key, split, pair_type, digest):
        index = oracle._mi_index(*key)
        assert (len(index.trailing), index.shared) == split
        narrow = np.uint8 if key[0] < 256 else np.int16
        dtypes = [narrow, np.intp, pair_type] * len(index.groups) + [narrow] * 3
        arrays = _index_arrays(index)
        assert [a.dtype for a in arrays] == dtypes
        widened = [a.astype(np.int32) if a.dtype == pair_type else a for a in arrays]
        assert _lattice_digest(*widened) == digest

    @pytest.mark.parametrize(
        "key, split",
        [((60, 2, 2), None), ((30, 2, 3), None), ((30, 3, 2), None), ((400, 1, 3), None)]
        + [((6, 2, 3), (t, 0)) for t in range(1, 6)]
        + [((6, 3, 2), (t, 1)) for t in range(1, 5)],
    )
    def test_pair_ids_rank_each_points_margins(self, key, split, monkeypatch):
        # Each point's pair id is row rank * nc + column rank, the ranks its
        # margins have in compositions(R, d1) and compositions(R, d2), found
        # by their digits in base R + 1.  The default splits cover t = 0,
        # t = 2 and int32 ids; the forced ones every trailing count, with
        # running sums over first cells only and over some of each.
        resolution, d1, d2 = key
        if split is not None:
            monkeypatch.setattr(oracle, "_mi_split", lambda resolution, cells: split)
        index = oracle._mi_index(*key)

        def ranks_of(margins):
            rows = compositions(resolution, len(margins)).astype(np.int64)
            digits = (resolution + 1) ** np.arange(len(margins))
            codes = rows @ digits
            order = codes.argsort()
            found = codes[order].searchsorted(digits @ margins)
            assert (codes[order[found]] == digits @ margins).all()
            return order[found]

        nc = composition_count(resolution, d2)
        points = 0
        for group in index.groups:
            (lead, width), runs = group.pattern.shape, index.trailing[:, group.runs]
            shape = (runs.shape[1], width)
            cells = np.stack(
                [np.broadcast_to(row, shape) for row in group.pattern]
                + [np.broadcast_to(row[:, None], shape) for row in runs]
            ).astype(np.int64).reshape(d1, d2, -1)
            expected = ranks_of(cells.sum(axis=1)) * nc + ranks_of(cells.sum(axis=0))
            np.testing.assert_array_equal(group.pairs.ravel(), expected)
            points += group.pairs.size
        assert points == composition_count(resolution, d1 * d2)

    def test_pair_id_past_the_pair_count_is_refused(self, monkeypatch):
        # The reduction gathers with mode="clip", so the build refuses an id
        # it would clamp: one row margin fewer makes the last ids too large.
        count = oracle.composition_count
        monkeypatch.setattr(oracle, "_mi_split", lambda resolution, cells: (2, 0))
        monkeypatch.setattr(
            oracle, "composition_count", lambda total, parts: count(total, parts) - (parts == 2)
        )
        with pytest.raises(RuntimeError, match="MI pair id out of range"):
            oracle._mi_index(6, 2, 3)

    # sha256 over float.hex of both ends of every case of _mi_interval_corpus,
    # so that a changed bit, the sign of a zero included, shows.
    INTERVALS_DIGEST = "0bbd4492c176495ebae962ab1fb25b2323768a5efb215190eb4d6aeebe2d5eab"

    def test_interval_bits_are_pinned(self):
        sha = hashlib.sha256()
        for tbl, cfg, grid in _mi_interval_corpus():
            objective = lattice_mi_objective(tbl, cfg, grid)
            iv = grid_extrema(objective, tbl.joint_counts(), cfg, grid, on_lattice=True)
            sha.update(f"{iv.lower.hex()} {iv.upper.hex()}\n".encode())
        assert sha.hexdigest() == self.INTERVALS_DIGEST

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


class TestMiIndexCache:
    # Kept bytes: (20, 2, 2) 11 KB, (30, 2, 2) 33 KB, (8, 3, 3) 143 KB,
    # (60, 2, 2) 239 KB, (12, 2, 4) 509 KB, (30, 2, 3) 884 KB.
    KEYS = [(20, 2, 2), (30, 2, 2), (8, 3, 3), (60, 2, 2), (12, 2, 4), (30, 2, 3)]

    @pytest.mark.parametrize("budget", [0, 400_000, 1_000_000, 1 << 24])
    def test_holds_the_least_recently_used_indices_that_fit(self, budget, monkeypatch):
        # A model of the cache: the newest index always, then older ones,
        # most recently used first, while they fit in the budget.
        monkeypatch.setattr(oracle._mi_index, "maxbytes", budget)
        # At 400 KB the hit on the first key makes the third the one to go.
        order = [0, 2, 3, 0, 1, 4, 5, 2, 1, 3, 3, 0, 4, 2, 5, 0]
        model = []  # (key, kept bytes), least recently used first
        for key in (self.KEYS[i] for i in order):
            index = oracle._mi_index(*key)
            held = [entry for entry in model if entry[0] == key]
            if held:
                model.remove(held[0])
                model.append(held[0])
            else:
                model.append((key, _kept_bytes(index)))
                while sum(size for _, size in model) > budget and len(model) > 1:
                    model.pop(0)
            info = oracle._mi_index.cache_info()
            assert (info.currsize, info.currbytes) == (len(model), sum(s for _, s in model))
            assert info.currbytes <= budget + _kept_bytes(index)
        assert info.hits + info.misses == len(order)

    def test_an_evicted_index_is_rebuilt_to_the_same_arrays(self, monkeypatch):
        monkeypatch.setattr(oracle._mi_index, "maxbytes", 0)
        first = oracle._mi_index(30, 2, 3)
        oracle._mi_index(12, 2, 4)
        again = oracle._mi_index(30, 2, 3)
        assert again is not first and oracle._mi_index.cache_info().misses == 3
        assert (len(again.trailing), again.shared) == (len(first.trailing), first.shared)
        assert [(g.runs, g.pattern.shape) for g in again.groups] == [
            (g.runs, g.pattern.shape) for g in first.groups
        ]
        assert [(a.dtype, a.shape, a.tobytes()) for a in _index_arrays(again)] == [
            (a.dtype, a.shape, a.tobytes()) for a in _index_arrays(first)
        ]

    def test_the_lattice_benchmark_keys_stay_cached(self):
        # The MI blocks of the lattice workload: set-up reduces one 2x2
        # table at resolution 60 and one 2x3 table at 40; each round then
        # 12 2x2 tables and 28 alternating 2x3 and 3x2 ones.
        warm_up = [(60, 2, 2), (40, 2, 3)]
        round_keys = [(60, 2, 2)] * 12 + [(40, 2, 3), (40, 3, 2)] * 14
        for key in warm_up + round_keys:
            oracle._mi_index(*key)
        built = oracle._mi_index.cache_info().misses
        assert built == 3
        for key in round_keys:
            oracle._mi_index(*key)
        info = oracle._mi_index.cache_info()
        assert (info.misses, info.currsize) == (built, 3)
        assert info.currbytes <= info.maxbytes

    def test_threads_keep_the_books(self, monkeypatch):
        # Four threads with a short switch interval share one cache small
        # enough to evict: a lost update would leave a call uncounted, or
        # held bytes that are not those of the entries.
        monkeypatch.setattr(oracle._mi_index, "maxbytes", 400_000)
        keys, calls, wrong = self.KEYS[:4], 24, []

        def work(offset):
            for i in range(calls):
                key = keys[(i + offset) % len(keys)]
                if oracle._mi_index(*key).row_margins.shape[0] != key[1]:
                    wrong.append(key)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not wrong
        info = oracle._mi_index.cache_info()
        assert info.hits + info.misses == len(threads) * calls
        entries = oracle._mi_index._entries.values()
        assert info.currbytes == sum(_kept_bytes(index) for index, _ in entries)
        assert info.currbytes <= info.maxbytes or info.currsize == 1

    def test_clear_empties_the_cache(self):
        oracle._mi_index(20, 2, 2)
        oracle._mi_index.cache_clear()
        assert oracle._mi_index.cache_info()[:] == (0, 0, 1 << 24, 0, 0)


class TestCompositionCache:
    # Array bytes: (20, 2) 84, (30, 2) 124, (150, 2) 604, (8, 4) 1320,
    # (30, 3) 2976, (12, 4) 3640.
    KEYS = [(20, 2), (30, 2), (150, 2), (8, 4), (30, 3), (12, 4)]

    @pytest.mark.parametrize("budget", [0, 3000, 5000, 1 << 24])
    def test_holds_at_most_the_budget_and_the_newest_array(self, budget, monkeypatch):
        monkeypatch.setattr(oracle._compositions, "maxbytes", budget)
        for i in [0, 4, 5, 1, 0, 3, 2, 5, 4, 4, 1, 0, 2]:
            newest = compositions(*self.KEYS[i])
            info = oracle._compositions.cache_info()
            held = [rows for rows, _ in oracle._compositions._entries.values()]
            assert info.currbytes == sum(rows.nbytes for rows in held)
            assert info.currbytes <= budget + newest.nbytes
            assert any(rows is newest for rows in held)
        if budget == 1 << 24:
            assert (info.misses, info.currsize) == (len(self.KEYS), len(self.KEYS))

    def test_an_evicted_array_is_rebuilt_to_the_same_bytes(self, monkeypatch):
        monkeypatch.setattr(oracle._compositions, "maxbytes", 0)
        first = compositions(30, 3)
        compositions(150, 2)
        again = compositions(30, 3)
        assert again is not first and oracle._compositions.cache_info().misses == 3
        assert not again.flags.writeable and again.flags.c_contiguous
        _assert_same_array(again, first)

    def test_the_lattice_benchmark_keys_stay_cached(self):
        # The product checks of the lattice workload: 7 2x2 tables at
        # resolution 150, then 7 alternating 2x3 and 3x2 ones at 30.
        round_keys = [(150, 2)] * 14 + [(30, 2), (30, 3)] * 7
        for key in round_keys * 3:
            compositions(*key)
        info = oracle._compositions.cache_info()
        assert (info.misses, info.currsize) == (3, 3)


@st.composite
def product_lattices(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = st.one_of(
        st.just(0.0),
        st.integers(0, 40).map(float),
        st.floats(0.0, 40.0, allow_nan=False).map(lambda x: round(x, 2)),
    )
    table = [[draw(count) for _ in range(d2)] for _ in range(d1)]
    # Keep every product lattice within 20 000 pairs (3x3 tables up to R = 15).
    top = max(
        r for r in range(2, 61) if composition_count(r, d1) * composition_count(r, d2) <= 20_000
    )
    resolution = draw(st.integers(2, top))
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    return ContingencyCounts(table), IdmConfig(s), GridSpec(resolution)


def _product_walk(tbl, cfg, grid):
    # The three-entropy objective on the rounded products v_i * w_j.
    kernel = EntropyKernel(tbl.total + cfg.s)
    return product_grid_extrema(lambda u: _three_entropies(u, kernel), tbl, cfg, grid)


def _product_tables_only(tbl, cfg, grid):
    def refuse(u):
        raise AssertionError("the product lattice must be reduced without the closure")

    refuse.tables = lattice_mi_objective(tbl, cfg, grid).tables
    return refuse


def _product_verdict(bounds, lattice) -> bool:
    # The verdict product_idm_check gives on a lattice interval.
    tol = 1e-9
    return (
        bounds.conservative_interval().contains_interval(lattice, tol)
        and lattice.upper >= bounds.inner_upper - tol
        and lattice.lower <= bounds.inner_lower + tol
    )


class TestProductGrid:
    TBL = ContingencyCounts([[3, 1], [1, 3]])
    # The table path rounds t_ij = k_i * l_j / R**2 once, the walk rounds
    # v_i * w_j from two rounded factors; their ends stay this close.  The
    # largest gap seen over 600 seeded tables was 1.8e-15.
    BUDGET = 1e-14

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(product_lattices())
    def test_tables_stay_within_budget_of_the_walk(self, case):
        tbl, cfg, grid = case
        walk = _product_walk(tbl, cfg, grid)
        iv = product_grid_extrema(_product_tables_only(tbl, cfg, grid), tbl, cfg, grid)
        assert abs(iv.lower - walk.lower) <= self.BUDGET
        assert abs(iv.upper - walk.upper) <= self.BUDGET
        bounds = mi_interval_bounds(tbl, cfg)
        verdict = _product_verdict(bounds, walk)
        assert _product_verdict(bounds, iv) == verdict
        assert product_idm_check(tbl, cfg, bounds, grid.resolution) == verdict

    def test_does_not_call_the_objective(self):
        tbl, grid = ContingencyCounts([[3, 0, 2], [1, 4, 0]]), GridSpec(20)
        iv = product_grid_extrema(_product_tables_only(tbl, CFG, grid), tbl, CFG, grid)
        walk = _product_walk(tbl, CFG, grid)
        assert abs(iv.lower - walk.lower) <= self.BUDGET
        assert abs(iv.upper - walk.upper) <= self.BUDGET

    @pytest.mark.parametrize(
        "table, s, resolution",
        [
            ([[3, 0, 2], [1, 4, 1]], 1.0, 12),  # other counts
            ([[3, 2], [0, 1], [4, 0]], 1.0, 12),  # the transpose: the same cells
            ([[3, 0, 2], [1, 4, 0]], 2.0, 12),  # another s
            ([[3, 0, 2], [1, 4, 0]], 1.0, 13),  # another grid
        ],
        ids=["counts", "transpose", "s", "grid"],
    )
    def test_mismatched_tables_are_rejected(self, table, s, resolution):
        built = ContingencyCounts([[3, 0, 2], [1, 4, 0]])
        objective = _product_tables_only(built, CFG, GridSpec(12))
        with pytest.raises(ValueError):
            product_grid_extrema(
                objective, ContingencyCounts(table), IdmConfig(s), GridSpec(resolution)
            )

    def test_tables_of_another_kind_of_lattice_are_rejected(self):
        # The entropy of the cells, and the MI of the 1x4 table of the same cells.
        grid, counts = GridSpec(12), self.TBL.joint_counts()
        for objective in (
            lattice_entropy_objective(counts, CFG, grid),
            lattice_mi_objective(ContingencyCounts([counts.counts]), CFG, grid),
        ):
            with pytest.raises(ValueError, match="other counts"):
                product_grid_extrema(objective, self.TBL, CFG, grid)

    def test_oversized_lattice_is_refused_before_anything_is_built(self, monkeypatch):
        bounds = mi_interval_bounds(self.TBL, CFG)
        grid = GridSpec(5000)  # 5001 x 5001 = 25 M pairs, above the 20 M cap
        objective = _product_tables_only(self.TBL, CFG, grid)

        def refuse(*args):
            raise AssertionError("nothing may be built for an oversized lattice")

        for name in ("compositions", "_build_compositions", "_product_extrema", "_walk"):
            monkeypatch.setattr(oracle, name, refuse)
        with pytest.raises(GridOverflowError):
            product_grid_extrema(objective, self.TBL, CFG, grid)
        with pytest.raises(GridOverflowError):
            product_idm_check(self.TBL, CFG, bounds, grid.resolution)

    @pytest.mark.parametrize(
        "shape, resolution, bound",
        # 888 030 pairs, whose column lattice alone is 14.2 MB of int16 (the
        # walk of the same lattice peaked at 81 MB); 142 884 pairs.
        [((1, 8), 20, 3 * 2 * 8 * 888_030), ((3, 3), 26, 1 << 22)],
        ids=["1x8-R20", "3x3-R26"],
    )
    def test_product_check_memory_stays_bounded(self, shape, resolution, bound):
        tbl = ContingencyCounts(np.arange(math.prod(shape)).reshape(shape) % 5 + 1.0)
        bounds = mi_interval_bounds(tbl, CFG)
        verdict, peak = peak_traced(lambda: product_idm_check(tbl, CFG, bounds, resolution))
        assert verdict
        assert peak < bound

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
