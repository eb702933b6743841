"""Brute-force verification back ends: lattice extremization and Monte Carlo.

The estimators in this package come with closed-form extrema or
conservative bounds; this module provides the independent machinery that
desk-scale tests check them against.  Lattice extremization covers
*every* composition of the grid resolution (no continuous optimizer, no
early exit): the separable entropy lattice is reduced by an exact
(min,+)/(max,+) convolution of its per-coordinate tables, and every other
objective is enumerated point by point.  The Dirichlet sampler builds its
variates from a seeded uniform stream so runs are bitwise reproducible
across platforms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval
from .special_fn import EntropyKernel, h

if TYPE_CHECKING:  # pragma: no cover
    from .mutual_info import ContingencyCounts

_CHUNK_ROWS = 1 << 21

#: Largest lattice, in points, that the grid oracles enumerate.
MAX_GRID_POINTS = 20_000_000


class GridOverflowError(ValueError):
    """The requested lattice exceeds the enumeration safety cap."""


@dataclass(frozen=True)
class GridSpec:
    """Lattice denominator, from 1 to 32000."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if self.resolution > 32000:
            raise ValueError("resolution above 32000 is not supported")


@dataclass(frozen=True)
class McSpec:
    """Draw count and seed for reproducible Monte Carlo."""

    draws: int
    seed: int

    def __post_init__(self):
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
_COMP_CACHE_LIMIT = 3


def compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` parts, in colex order.

    Colexicographic order: rows are sorted by the last coordinate
    ascending, ties by the next-to-last, and so on.  The first row is
    ``(total, 0, ..., 0)`` and the last is ``(0, ..., 0, total)``; golden
    tests may reference rows by position.  The returned int16 array is
    cached and read-only.
    """
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    if total > 32000:
        raise ValueError("total above 32000 is not supported")
    key = (total, parts)
    cached = _COMP_CACHE.get(key)
    if cached is not None:
        return cached
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
    out = level[total]
    out.flags.writeable = False
    if len(_COMP_CACHE) >= _COMP_CACHE_LIMIT:
        _COMP_CACHE.pop(next(iter(_COMP_CACHE)))
    _COMP_CACHE[key] = out
    return out


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
    be vectorized: it receives an ``(N, dim)`` array of ``u`` rows and
    returns ``N`` values.  With ``on_lattice=True`` it instead receives the
    raw integer composition rows, which lets table-backed objectives (see
    :func:`lattice_entropy_objective`) skip the float mapping entirely; an
    objective that carries its per-coordinate ``tables`` is reduced over
    every composition without enumerating them, to the same bits.

    Deterministic; refuses lattices larger than :data:`MAX_GRID_POINTS`.
    """
    d = counts.dim
    npoints = composition_count(grid.resolution, d)
    if npoints > MAX_GRID_POINTS:
        raise GridOverflowError(
            f"lattice has {npoints} points, above the cap of {MAX_GRID_POINTS}"
        )
    tables = getattr(objective, "tables", None) if on_lattice else None
    if tables is not None:
        return _separable_extrema(tables, grid.resolution, d)
    lattice = compositions(grid.resolution, d)
    denom = counts.total + cfg.s
    vmin = math.inf
    vmax = -math.inf
    for start in range(0, npoints, _CHUNK_ROWS):
        rows = lattice[start : start + _CHUNK_ROWS]
        if on_lattice:
            vals = np.asarray(objective(rows), dtype=float)
        else:
            t = rows.astype(float) / grid.resolution
            u = (counts.counts + cfg.s * t) / denom
            vals = np.asarray(objective(u), dtype=float)
        if vals.shape != (rows.shape[0],):
            raise ValueError("objective must return one value per lattice point")
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


def _separable_extrema(tables, resolution: int, dim: int) -> Interval:
    """``[min, max]`` of ``sum_i tables[i][k_i]`` over compositions ``k`` of
    ``resolution``, by a (min,+)/(max,+) convolution in O(dim * R^2)."""
    if len(tables) != dim or any(t.shape != (resolution + 1,) for t in tables):
        raise ValueError("objective tables do not match the lattice")
    # lo[t] / hi[t]: extrema of T0[k0] + ... + Ti[ki] over k0 + ... + ki = t.
    # Tables are added in the enumeration's order, and fl(a + b) is monotone
    # in a, so each extremum of the rounded partial sums is the rounded sum of
    # the previous extremum: the result equals enumeration bit for bit.
    lo = hi = tables[0]
    for table in tables[1:-1]:
        rev = table[::-1]
        lo = _window_reduce(lo, rev, math.inf, np.min)
        hi = _window_reduce(hi, rev, -math.inf, np.max)
    if dim == 1:
        return Interval(float(lo[resolution]), float(hi[resolution]))
    # The last coordinate only needs the row t = R: k_{d-1} = k, prefix R - k.
    last = tables[-1]
    return Interval(float((lo[::-1] + last).min()), float((hi[::-1] + last).max()))


def _summand_tables(counts, total: float, cfg: IdmConfig, grid: GridSpec) -> list:
    """Per-count tables of ``h`` at the ``resolution + 1`` lattice steps of
    ``t``, all on the kernel ``total + s``."""
    denom = total + cfg.s
    kernel = EntropyKernel(denom)
    steps = np.arange(grid.resolution + 1) / grid.resolution
    return [np.ascontiguousarray(h((c + cfg.s * steps) / denom, kernel)) for c in counts]


def lattice_entropy_objective(
    counts: CountVector, cfg: IdmConfig, grid: GridSpec
) -> Callable:
    """Table-backed expected-entropy objective for :func:`grid_extrema`.

    Each coordinate of a lattice point takes one of ``resolution + 1``
    values, so the entropy summand is precomputed per coordinate and the
    objective reduces to table gathers.  Use with ``on_lattice=True``.
    The tables ride on the callable as ``objective.tables``, so
    :func:`grid_extrema` reduces them without enumerating the lattice.
    """
    tables = _summand_tables(counts.counts, counts.total, cfg, grid)

    def objective(rows: np.ndarray) -> np.ndarray:
        vals = tables[0].take(rows[:, 0].astype(np.intp))
        for i in range(1, len(tables)):
            vals += tables[i].take(rows[:, i].astype(np.intp))
        return vals

    objective.tables = tables
    return objective


def lattice_mi_objective(
    tbl: ContingencyCounts, cfg: IdmConfig, grid: GridSpec
) -> Callable:
    """Table-backed expected-mutual-information objective over cell lattices.

    Lattice points are compositions over the ``d1*d2`` cells in row-major
    order; marginal sums of lattice integers index precomputed row/column
    tables.  Use with ``on_lattice=True`` on the flattened joint counts.
    """
    d1, d2 = tbl.shape
    cell_tables = _summand_tables(tbl.table.ravel(), tbl.total, cfg, grid)
    row_tables = _summand_tables(tbl.row_sums, tbl.total, cfg, grid)
    col_tables = _summand_tables(tbl.col_sums, tbl.total, cfg, grid)

    def marginal(cols: np.ndarray, cells: range) -> np.ndarray:
        total = cols[cells[0]].copy()
        for c in cells[1:]:
            total += cols[c]
        return total

    def objective(rows: np.ndarray) -> np.ndarray:
        # One transpose to contiguous per-cell index columns; integer
        # marginals are exact, so only the float order below matters.
        cols = rows.T.astype(np.intp)
        vals = row_tables[0].take(marginal(cols, range(0, d2)))
        for i in range(1, d1):
            vals += row_tables[i].take(marginal(cols, range(i * d2, (i + 1) * d2)))
        for j in range(d2):
            vals += col_tables[j].take(marginal(cols, range(j, d1 * d2, d2)))
        for c in range(d1 * d2):
            vals -= cell_tables[c].take(cols[c])
        return vals

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
    posterior means.  ``objective`` receives ``(N, d1, d2)`` arrays of
    ``u`` tensors and returns ``N`` values.
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
    denom = tbl.total + cfg.s
    vmin = math.inf
    vmax = -math.inf
    chunk = max(1, _CHUNK_ROWS // max(1, n2 * d1 * d2))
    for start in range(0, n1, chunk):
        vc = v[start : start + chunk]
        t = vc[:, None, :, None] * w[None, :, None, :]
        u = (tbl.table + cfg.s * t) / denom
        vals = np.asarray(objective(u.reshape(-1, d1, d2)), dtype=float)
        if vals.shape != (vc.shape[0] * n2,):
            raise ValueError("objective must return one value per lattice pair")
        vmin = min(vmin, float(vals.min()))
        vmax = max(vmax, float(vals.max()))
    return Interval(vmin, vmax)


def _standard_normal(rng: random.Random) -> float:
    # Box-Muller from the raw uniform stream; implementation pinned here so
    # seeded output never depends on stdlib internals.
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _gamma_variate(rng: random.Random, shape: float) -> float:
    # Marsaglia-Tsang squeeze; shapes below one are boosted through
    # Gamma(shape + 1) and a uniform power.
    if shape < 1.0:
        return _gamma_variate(rng, shape + 1.0) * rng.random() ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _standard_normal(rng)
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.random()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def dirichlet_draws(u_params, mc: McSpec) -> np.ndarray:
    """Seeded Dirichlet samples as rows of an ``(draws, dim)`` array.

    Samples are normalized independent Gamma variates generated from a
    single seeded uniform stream, so fixed seeds give bitwise-identical
    output.  Every row is a valid simplex point; parameters so small that
    all of a draw's gamma variates underflow raise ``ValueError``.
    """
    params = np.asarray(u_params, dtype=float)
    if params.ndim != 1 or params.size == 0:
        raise ValueError("u_params must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(params)) or np.any(params <= 0):
        raise ValueError("Dirichlet parameters must be positive")
    rng = random.Random(int(mc.seed))
    d = params.size
    shapes = params.tolist()
    out = np.empty((mc.draws, d))
    gamma = _gamma_variate
    for row in out:
        total = 0.0
        for j in range(d):
            g = gamma(rng, shapes[j])
            row[j] = g
            total += g
        if total == 0.0:
            raise ValueError(
                "every gamma variate of a draw underflowed to 0: "
                "Dirichlet parameters too small to sample"
            )
        row /= total
    return out


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
