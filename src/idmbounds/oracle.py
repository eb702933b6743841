"""Brute-force verification back ends: lattice extremization and Monte Carlo.

The estimators in this package come with closed-form extrema or
conservative bounds; this module provides the independent machinery that
desk-scale tests check them against.  Lattice extremization covers
*every* composition of the grid resolution (no continuous optimizer, no
early exit): the separable entropy lattice is reduced by an exact
(min,+)/(max,+) convolution of its per-coordinate tables; the mutual
information lattice visits every point, with its row and column part
computed once per pair of margin compositions and gathered from a cached
index; every other objective, and every product lattice, is walked in
blocks of at most 2**16 cells, and a non-finite value it returns raises
``ValueError``.  The first two give the same bits as calling the objective
on every point.  Lattices are refused with :class:`GridOverflowError`
above :data:`MAX_GRID_POINTS` points, or when building their compositions
would write more than 2**30 entries.  The Dirichlet sampler builds its
variates from a seeded uniform stream so runs are bitwise reproducible
across platforms.
"""

from __future__ import annotations

import math
import numbers
import random
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval, _posterior_means
from .special_fn import EntropyKernel, h

if TYPE_CHECKING:  # pragma: no cover
    from .mutual_info import ContingencyCounts

__all__ = [
    "GridOverflowError", "GridSpec", "McSpec", "McStats", "composition_count", "compositions",
    "dirichlet_draws", "grid_extrema", "jackknife_variance_stderr",
    "lattice_entropy_objective", "lattice_mi_objective", "mc_functional_stats",
    "product_grid_extrema",
]

_CHUNK_ROWS = 1 << 16

#: Largest lattice, in points, that the grid oracles enumerate.
MAX_GRID_POINTS = 20_000_000

# Most int16 entries one composition build may write, summed over the levels
# it fills on its way to the requested number of parts.
_MAX_BUILD_ENTRIES = 1 << 30


class GridOverflowError(ValueError):
    """The requested lattice exceeds the enumeration safety cap."""


def _require_integer(name: str, value) -> None:
    # Python and numpy integers pass; bool, floats and everything else do not.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")


@dataclass(frozen=True)
class GridSpec:
    """Lattice denominator, an integer from 1 to 32000."""

    resolution: int

    def __post_init__(self):
        _require_integer("resolution", self.resolution)
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if self.resolution > 32000:
            raise ValueError("resolution above 32000 is not supported")


@dataclass(frozen=True)
class McSpec:
    """Draw count (>= 1) and unsigned 64-bit seed, both integers, for
    reproducible Monte Carlo."""

    draws: int
    seed: int

    def __post_init__(self):
        _require_integer("draws", self.draws)
        _require_integer("seed", self.seed)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def composition_count(total: int, parts: int) -> int:
    """Number of compositions of ``total`` into ``parts`` non-negative parts."""
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    return math.comb(total + parts - 1, parts - 1)


_COMP_CACHE: dict[tuple[int, int], np.ndarray] = {}
_CACHE_LIMIT = 3


def compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` parts, in colex order.

    Colexicographic order: rows are sorted by the last coordinate
    ascending, ties by the next-to-last, and so on.  The first row is
    ``(total, 0, ..., 0)`` and the last is ``(0, ..., 0, total)``; golden
    tests may reference rows by position.  The returned int16 array is
    cached and read-only.

    The build fills every level below ``parts`` for all totals up to
    ``total``; when that would write more than 2**30 entries,
    :class:`GridOverflowError` is raised before anything is built.
    """
    key = (total, parts)
    cached = _COMP_CACHE.get(key)
    if cached is not None:
        return cached
    out = _build_compositions(total, parts)
    out.flags.writeable = False
    _remember(_COMP_CACHE, key, out)
    return out


def _build_compositions(total: int, parts: int) -> np.ndarray:
    # Uncached body of :func:`compositions`.
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    if total > 32000:
        raise ValueError("total above 32000 is not supported")
    if _build_entries(total, parts) > _MAX_BUILD_ENTRIES:
        raise GridOverflowError(
            f"building the compositions of {total} into {parts} parts writes more than "
            f"{_MAX_BUILD_ENTRIES} entries"
        )
    level = {t: np.array([[t]], dtype=np.int16) for t in range(total + 1)}
    for p in range(2, parts + 1):
        targets = range(total + 1) if p < parts else (total,)
        nxt = {}
        for t in targets:
            blocks = []
            for last in range(t + 1):
                sub = level[t - last]
                blk = np.empty((sub.shape[0], p), dtype=np.int16)
                blk[:, :-1] = sub
                blk[:, -1] = last
                blocks.append(blk)
            nxt[t] = np.concatenate(blocks, axis=0)
        level = nxt
    return level[total]


def _build_entries(total: int, parts: int) -> int:
    """Entries :func:`_build_compositions` writes, summed only until they pass
    ``_MAX_BUILD_ENTRIES``.  Level ``p < parts`` holds every composition of
    ``0..total`` into ``p`` parts, ``C(total + p, p)`` rows of ``p`` entries;
    the last level holds those of ``total`` only."""
    entries = total + 1
    for p in range(2, parts + 1):
        entries += p * (math.comb(total + p, p) if p < parts else composition_count(total, p))
        if entries > _MAX_BUILD_ENTRIES:
            break
    return entries


def _remember(cache: dict, key, value) -> None:
    # Bounded first-in, first-out memo: the oldest key goes first.  A
    # concurrent caller may have evicted it already.
    if len(cache) >= _CACHE_LIMIT:
        cache.pop(next(iter(cache)), None)
    cache[key] = value


def grid_extrema(
    objective: Callable,
    counts: CountVector,
    cfg: IdmConfig,
    grid: GridSpec,
    on_lattice: bool = False,
) -> Interval:
    """Exhaustive ``[min, max]`` of an objective over the ``t``-lattice.

    Enumerates every composition ``k`` of ``grid.resolution`` into ``dim``
    parts (colex order), maps ``t = k / resolution`` to the posterior mean
    ``u``, and reduces the objective over all points.  ``objective`` must
    be vectorized: it receives an ``(N, dim)`` array of ``u`` rows, at most
    2**16 cells per call, and returns ``N`` finite values; a
    non-finite value raises ``ValueError``.

    A table-backed objective from :func:`lattice_entropy_objective` or
    :func:`lattice_mi_objective` is reduced through its ``objective.tables``
    instead, without calling it, to the same bits as calling it on every
    point: per-coordinate entropy tables by convolution, the row, column and
    cell tables through the margin-pair index.  Tables built on other counts,
    another ``s`` or another grid raise ``ValueError``.  ``on_lattice=True``
    only asserts that the objective carries tables: a callable without them
    raises ``ValueError`` there.

    Deterministic; refuses with :class:`GridOverflowError` lattices larger
    than :data:`MAX_GRID_POINTS` and lattices too costly to build (see
    :func:`compositions`).
    """
    d = counts.dim
    npoints = composition_count(grid.resolution, d)
    if npoints > MAX_GRID_POINTS:
        raise GridOverflowError(
            f"lattice has {npoints} points, above the cap of {MAX_GRID_POINTS}"
        )
    tables = getattr(objective, "tables", None)
    if tables is not None:
        if tables.s != cfg.s or not np.array_equal(tables.counts, counts.counts):
            raise ValueError("objective tables were built on other counts or another s")
        # One builder makes every table of an objective on the same grid.
        if tables.cells[0].shape != (grid.resolution + 1,):
            raise ValueError("objective tables do not match the lattice")
        if tables.rows is None:
            return _separable_extrema(tables.cells, grid.resolution)
        return _mi_extrema(tables, grid.resolution)
    if on_lattice:
        raise ValueError("on_lattice=True needs an objective that carries its tables")
    lattice = compositions(grid.resolution, d)

    def t_of(start: int, stop: int) -> np.ndarray:
        return lattice[start:stop].astype(float) / grid.resolution

    return _walk(objective, counts.counts, counts.total, cfg.s, npoints, t_of)


def _walk(
    objective: Callable, counts: np.ndarray, total: float, s: float, points: int, t_of
) -> Interval:
    """``[min, max]`` of ``objective`` over ``points`` lattice points, taken
    in blocks of at most ``_CHUNK_ROWS`` cells.

    ``t_of(start, stop)`` gives the ``t`` of points ``start..stop-1``, one
    per row, each shaped like ``counts``; the objective receives their
    posterior means.  A non-finite objective value raises ``ValueError``.
    """
    step = max(1, _CHUNK_ROWS // counts.size)
    vmin = math.inf
    vmax = -math.inf
    for start in range(0, points, step):
        stop = min(points, start + step)
        u = _posterior_means(counts, total, s, t_of(start, stop))
        vals = np.asarray(objective(u), dtype=float)
        if vals.shape != (stop - start,):
            raise ValueError("objective must return one value per lattice point")
        if not np.isfinite(vals).all():
            raise ValueError("objective values must be finite")
        vmin = min(vmin, float(vals.min()))
        vmax = max(vmax, float(vals.max()))
    return Interval(vmin, vmax)


def _window_reduce(prev: np.ndarray, table_rev: np.ndarray, pad: float, reduce) -> np.ndarray:
    # out[t] = reduce_k(prev[t - k] + table[k]) over 0 <= k <= t.  Row t of
    # the sliding window over the padded ``prev`` holds prev[t - R .. t], so
    # column j pairs with table[R - j]; padding entries never win.  Rows are
    # taken in blocks of at most _CHUNK_ROWS sums.
    size = prev.size
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.full(size - 1, pad), prev)), size
    )
    out = np.empty(size)
    block = max(1, _CHUNK_ROWS // size)
    for start in range(0, size, block):
        stop = min(size, start + block)
        # Rows below ``stop`` see padding in their first size - stop columns.
        skip = size - stop
        reduce(windows[start:stop, skip:] + table_rev[skip:], axis=1, out=out[start:stop])
    return out


def _separable_extrema(tables, resolution: int) -> Interval:
    """``[min, max]`` of ``sum_i tables[i][k_i]`` over compositions ``k`` of
    ``resolution``, by a (min,+)/(max,+) convolution in O(dim * R^2)."""
    # lo[t] / hi[t]: extrema of T0[k0] + ... + Ti[ki] over k0 + ... + ki = t.
    # Tables are added in the enumeration's order, and fl(a + b) is monotone
    # in a, so each extremum of the rounded partial sums is the rounded sum of
    # the previous extremum: the result equals enumeration bit for bit.
    lo = hi = tables[0]
    for table in tables[1:-1]:
        rev = table[::-1]
        lo = _window_reduce(lo, rev, math.inf, np.min)
        hi = _window_reduce(hi, rev, -math.inf, np.max)
    if len(tables) == 1:
        return Interval(float(lo[resolution]), float(hi[resolution]))
    # The last coordinate only needs the row t = R: k_{d-1} = k, prefix R - k.
    last = tables[-1]
    return Interval(float((lo[::-1] + last).min()), float((hi[::-1] + last).max()))


class _Tables(NamedTuple):
    """Summand tables with the counts (row-major for a contingency table) and
    the ``s`` they were built on; ``rows`` and ``cols`` only for the MI."""

    counts: np.ndarray
    s: float
    cells: list
    rows: Optional[list] = None
    cols: Optional[list] = None


def _summand_tables(counts, total: float, cfg: IdmConfig, grid: GridSpec) -> list:
    """Per-count tables of ``h`` at the ``resolution + 1`` lattice steps of
    ``t``, all on the kernel ``total + s``."""
    steps = np.arange(grid.resolution + 1) / grid.resolution
    u = _posterior_means(np.asarray(counts)[:, None], total, cfg.s, steps)
    return list(h(u, EntropyKernel(total + cfg.s)))


def lattice_entropy_objective(
    counts: CountVector, cfg: IdmConfig, grid: GridSpec
) -> Callable:
    """Table-backed expected-entropy objective for :func:`grid_extrema`.

    Each coordinate of a lattice point takes one of ``resolution + 1``
    values, so the entropy summand is precomputed per coordinate and the
    objective reduces to table gathers.  The tables ride on the callable as
    ``objective.tables``, so :func:`grid_extrema` reduces them without
    enumerating the lattice.
    """
    tables = _summand_tables(counts.counts, counts.total, cfg, grid)

    def objective(rows: np.ndarray) -> np.ndarray:
        vals = tables[0].take(rows[:, 0].astype(np.intp))
        for i in range(1, len(tables)):
            vals += tables[i].take(rows[:, i].astype(np.intp))
        return vals

    objective.tables = _Tables(counts.counts, cfg.s, tables)
    return objective


class _MiIndex(NamedTuple):
    cells: np.ndarray  # (d1*d2, N) cell values of every lattice point, narrow ints
    pairs: np.ndarray  # (N,) int32 margin-pair id: row-margin rank * nc + column-margin rank
    row_margins: np.ndarray  # (d1, nr) row-margin compositions in colex order
    col_margins: np.ndarray  # (d2, nc) column-margin compositions in colex order


_MI_INDEX_CACHE: dict[tuple[int, int, int], _MiIndex] = {}


def _columns(rows: np.ndarray, resolution: int) -> np.ndarray:
    # Column-major copy in the narrowest type that holds 0..resolution.
    return np.ascontiguousarray(rows.T, dtype=np.uint8 if resolution < 256 else np.int16)


def _colex_ranks(parts: list, resolution: int) -> np.ndarray:
    # Position of each composition in :func:`compositions` order, from its
    # parts as index columns.  With S_j the prefix sums, the compositions
    # before it that agree above part j are those of S_j into j + 1 parts
    # whose last part is below k_j: C(S_j + j, j) - C(S_{j-1} + j, j).
    prefix = parts[0]
    ranks = np.zeros(prefix.size, dtype=np.intp)
    for j in range(1, len(parts)):
        binom = np.array([math.comb(t + j, j) for t in range(resolution + 1)], dtype=np.intp)
        nxt = prefix + parts[j]
        ranks += binom.take(nxt)
        ranks -= binom.take(prefix)
        prefix = nxt
    return ranks


def _mi_index(resolution: int, d1: int, d2: int) -> _MiIndex:
    """Cached cell columns and margin-pair ids of the ``d1 x d2`` lattice.

    Every pair of row- and column-margin compositions of ``resolution`` is
    the margin pair of some table, so there are ``nr * nc`` pair ids, never
    more than the lattice has points.  A cached index holds about
    ``(d1*d2 + 4) * N`` bytes for ``N`` points (uint8 cells below
    ``resolution`` 256, int32 pair ids); the int16 lattice it is built from
    is not cached.
    """
    key = (resolution, d1, d2)
    cached = _MI_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    cells = _columns(_build_compositions(resolution, d1 * d2), resolution)
    nc = composition_count(resolution, d2)
    pairs = np.empty(cells.shape[1], dtype=np.int32)
    for start in range(0, pairs.size, _CHUNK_ROWS):
        block = cells[:, start : start + _CHUNK_ROWS]
        rows = [block[i * d2 : (i + 1) * d2].sum(axis=0, dtype=np.intp) for i in range(d1)]
        cols = [block[j::d2].sum(axis=0, dtype=np.intp) for j in range(d2)]
        pairs[start : start + block.shape[1]] = (
            _colex_ranks(rows, resolution) * nc + _colex_ranks(cols, resolution)
        )
    index = _MiIndex(
        cells,
        pairs,
        _columns(compositions(resolution, d1), resolution),
        _columns(compositions(resolution, d2), resolution),
    )
    _remember(_MI_INDEX_CACHE, key, index)
    return index


def _mi_extrema(tables: _Tables, resolution: int) -> Interval:
    """``[min, max]`` of the MI objective over every composition of
    ``resolution`` into its cells, bit for bit as the objective computes it.

    The objective adds the row summands, then the column summands, then
    subtracts the cell summands in row-major order.  Everything before the
    first cell depends only on the point's margin pair, so it is computed
    once per pair, with the same adds in the same order, and gathered.
    """
    d1, d2 = len(tables.rows), len(tables.cols)
    index = _mi_index(resolution, d1, d2)
    head = tables.rows[0].take(index.row_margins[0])
    for i in range(1, d1):
        head += tables.rows[i].take(index.row_margins[i])
    pair = head[:, None] + tables.cols[0].take(index.col_margins[0])
    for j in range(1, d2):
        pair += tables.cols[j].take(index.col_margins[j])
    pair = pair.ravel()
    vmin = math.inf
    vmax = -math.inf
    for start in range(0, index.pairs.size, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        vals = pair.take(index.pairs[start:stop])
        for c, table in enumerate(tables.cells):
            vals -= table.take(index.cells[c, start:stop])
        vmin = min(vmin, float(vals.min()))
        vmax = max(vmax, float(vals.max()))
    return Interval(vmin, vmax)


def lattice_mi_objective(
    tbl: ContingencyCounts, cfg: IdmConfig, grid: GridSpec
) -> Callable:
    """Table-backed expected-mutual-information objective over cell lattices.

    Lattice points are compositions over the ``d1*d2`` cells in row-major
    order; called on ``(N, d1*d2)`` integer rows, the closure gathers row,
    column and cell summands from precomputed tables.  Reduce it with
    :func:`grid_extrema` on the flattened joint counts.  The tables ride on
    the callable as ``objective.tables``, so :func:`grid_extrema` computes
    the row and column part once per pair of margins instead of once per
    point, and still visits every point, to the same bits as the closure.
    """
    d1, d2 = tbl.shape
    cell_tables = _summand_tables(tbl.table.ravel(), tbl.total, cfg, grid)
    row_tables = _summand_tables(tbl.row_sums, tbl.total, cfg, grid)
    col_tables = _summand_tables(tbl.col_sums, tbl.total, cfg, grid)

    def objective(rows: np.ndarray) -> np.ndarray:
        cells = rows.reshape(-1, d1, d2)
        row_ints = cells.sum(axis=2, dtype=np.intp)
        col_ints = cells.sum(axis=1, dtype=np.intp)
        vals = row_tables[0].take(row_ints[:, 0])
        for i in range(1, d1):
            vals += row_tables[i].take(row_ints[:, i])
        for j in range(d2):
            vals += col_tables[j].take(col_ints[:, j])
        for c in range(d1 * d2):
            vals -= cell_tables[c].take(rows[:, c])
        return vals

    objective.tables = _Tables(tbl.table.ravel(), cfg.s, cell_tables, row_tables, col_tables)
    return objective


def product_grid_extrema(
    objective: Callable,
    tbl: ContingencyCounts,
    cfg: IdmConfig,
    grid: GridSpec,
) -> Interval:
    """Exhaustive ``[min, max]`` over outer-product lattice hyperparameters.

    Enumerates lattice pairs ``(v, w)`` on the two factor simplices, forms
    ``t_ij = v_i * w_j``, and reduces the objective over the induced
    posterior means.  Pairs are taken in row-major ``(v, w)`` order, in
    blocks of at most 2**16 cells: ``objective`` receives
    ``(N, d1, d2)`` arrays of ``u`` tensors and returns ``N`` finite
    values; a non-finite value raises ``ValueError``.  Refuses product
    lattices larger than :data:`MAX_GRID_POINTS` pairs with
    :class:`GridOverflowError`.
    """
    d1, d2 = tbl.shape
    n1 = composition_count(grid.resolution, d1)
    n2 = composition_count(grid.resolution, d2)
    if n1 * n2 > MAX_GRID_POINTS:
        raise GridOverflowError(
            f"product lattice has {n1} x {n2} points, above the cap of {MAX_GRID_POINTS}"
        )
    v = compositions(grid.resolution, d1).astype(float) / grid.resolution
    w = compositions(grid.resolution, d2).astype(float) / grid.resolution

    def t_of(start: int, stop: int) -> np.ndarray:
        iv, iw = np.divmod(np.arange(start, stop), n2)
        return v[iv][:, :, None] * w[iw][:, None, :]

    return _walk(objective, tbl.table, tbl.total, cfg.s, n1 * n2, t_of)


def dirichlet_draws(u_params, mc: McSpec) -> np.ndarray:
    """Seeded Dirichlet samples as rows of an ``(draws, dim)`` array.

    Samples are normalized independent Gamma variates generated from a
    single seeded uniform stream, so fixed seeds give bitwise-identical
    output.  Every row is a valid simplex point; parameters so small that
    all of a draw's gamma variates underflow, or so large that they sum
    beyond the float range, raise ``ValueError``.
    """
    params = np.asarray(u_params, dtype=float)
    if params.ndim != 1 or params.size == 0:
        raise ValueError("u_params must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(params)) or np.any(params <= 0):
        raise ValueError("Dirichlet parameters must be positive")
    # Allocated first so that an impossible size fails before any sampling.
    out = np.empty((mc.draws, params.size))
    # Marsaglia-Tsang squeeze on Box-Muller normals, all from the raw
    # uniform stream, so seeded output never depends on stdlib internals.
    # Shapes below one are boosted: Gamma(shape + 1), then a uniform to the
    # power 1/shape.  Every operation keeps its order and form, down to
    # 1 - U inside the log and ``**`` for the cube and fourth power:
    # reordering any of them changes the seeded bits.
    columns = []
    for shape in params.tolist():
        boost = None
        if shape < 1.0:
            boost, shape = 1.0 / shape, shape + 1.0
        d = shape - 1.0 / 3.0
        columns.append((d, 1.0 / math.sqrt(9.0 * d), boost))
    uniform = random.Random(int(mc.seed)).random
    log, sqrt, cos = math.log, math.sqrt, math.cos
    two_pi = 2.0 * math.pi
    gammas = array("d")
    append = gammas.append
    for _ in range(mc.draws):
        for d, c, boost in columns:
            while True:
                x = sqrt(-2.0 * log(1.0 - uniform())) * cos(two_pi * uniform())
                v = (1.0 + c * x) ** 3
                if v <= 0.0:
                    continue
                u = uniform()
                if u < 1.0 - 0.0331 * x**4 or log(u) < 0.5 * x * x + d * (1.0 - v + log(v)):
                    break
            if boost is None:
                append(d * v)
            else:
                append(d * v * uniform() ** boost)
    gammas = np.frombuffer(gammas).reshape(out.shape)
    # Row totals add the columns in order, as a running sum over each row would.
    total = gammas[:, 0].copy()
    with np.errstate(over="ignore"):
        for j in range(1, out.shape[1]):
            total += gammas[:, j]
    if (total == 0.0).any():
        raise ValueError(
            "every gamma variate of a draw underflowed to 0: "
            "Dirichlet parameters too small to sample"
        )
    if (total == math.inf).any():
        raise ValueError(
            "the gamma variates of a draw sum beyond the float range: "
            "Dirichlet parameters too large to sample"
        )
    return np.divide(gammas, total[:, None], out=out)


class McStats(NamedTuple):
    mean: float
    variance: float
    stderr: float


def mc_functional_stats(samples: np.ndarray, functional: Callable) -> McStats:
    """Sample mean, unbiased variance, and standard error of a functional.

    ``functional`` must be vectorized: it receives the full ``(N, dim)``
    sample array and returns ``N`` values.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least two samples")
    values = np.asarray(functional(samples), dtype=float)
    if values.shape != (samples.shape[0],):
        raise ValueError("functional must return one value per sample")
    n = values.size
    mean = float(values.mean())
    variance = float(values.var(ddof=1))
    return McStats(mean, variance, math.sqrt(variance / n))


def jackknife_variance_stderr(values) -> float:
    """Jackknife standard error of the unbiased sample variance.

    Delete-one variances are recomputed from running sums in O(N); the
    spread of those leave-one-out estimates is the usual jackknife
    standard error.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need at least three values")
    n = values.size
    t1 = values.sum()
    t2 = (values * values).sum()
    loo_t1 = t1 - values
    loo_t2 = t2 - values * values
    loo_var = (loo_t2 - loo_t1 * loo_t1 / (n - 1)) / (n - 2)
    return float(np.sqrt((n - 1) / n * ((loo_var - loo_var.mean()) ** 2).sum()))
