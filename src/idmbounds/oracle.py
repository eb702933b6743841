"""Brute-force verification back ends: lattice extremization and Monte Carlo.

The estimators in this package come with closed-form extrema or
conservative bounds; this module provides the independent machinery that
desk-scale tests check them against.  Lattice extremization covers
*every* composition of the grid resolution (no continuous optimizer, no
early exit), from one builder, for :func:`compositions` and the MI index
alike.  It keeps each level for every total, column-major in the narrowest
integer type, and copies each total's compositions from the level below
as one suffix: O(R) array steps a level.  The separable entropy lattice is
reduced by an exact (min,+)/(max,+) convolution of its per-coordinate
tables; the mutual information lattice visits every point, with its row
and column part computed once per pair of margin compositions and gathered
from a cached index, whose pair ids take one table lookup per running sum
of the margins.  On large lattices that index groups the points by the
total of their first cells: every colex run of points that share their
last cells goes through its group's one pattern of first cells, whose
summands are gathered once per group and subtracted from all its runs as
broadcast rows, and the last cells are subtracted once per run.  The MI
over the outer-product lattice is reduced from the same objective's row
and column tables per factor point, and cell summands once per distinct
``k * l`` in each block of at most 2**16 pairs.  Every other objective is
walked in blocks of at most 2**16 cells, and a non-finite value it returns
raises ``ValueError``.  The first two give the same bits as calling the
objective on every point; the product reduction differs from a walk of
the MI on the rounded products ``v_i * w_j`` by a few ulps.  Lattices are
refused with :class:`GridOverflowError` above :data:`MAX_GRID_POINTS`
points, or when building their compositions would write more than 2**30
entries.  The Dirichlet sampler builds its variates from a seeded uniform
stream so runs are bitwise reproducible across platforms.
"""

from __future__ import annotations

import math
import random
import threading
from array import array
from collections import OrderedDict
from functools import partial, update_wrapper
from operator import attrgetter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval, _posterior_means
from .special_fn import _BLOCK_ROWS, EntropyKernel, _require_integer, h

if TYPE_CHECKING:  # pragma: no cover
    from .mutual_info import ContingencyCounts

__all__ = [
    "GridOverflowError", "GridSpec", "McSpec", "McStats", "composition_count", "compositions",
    "dirichlet_draws", "grid_extrema", "jackknife_variance_stderr",
    "lattice_entropy_objective", "lattice_mi_objective", "mc_functional_stats",
    "product_grid_extrema",
]

_CHUNK_ROWS = _BLOCK_ROWS

#: Largest lattice, in points, that the grid oracles enumerate.
MAX_GRID_POINTS = 20_000_000

# Most entries one composition build may write, summed over the levels it
# fills on its way to the requested number of parts.
_MAX_BUILD_ENTRIES = 1 << 30

#: Bytes each lattice cache keeps between calls, composition arrays and MI
#: indices alike: the ``lattice`` benchmark's three MI indices (2x2 at
#: resolution 60, 2x3 and 3x2 at 40) take 6.5 MB, its three composition
#: arrays (2 and 3 parts at resolution 30, 2 at 150) 3.7 KB.
_CACHE_BYTES = 1 << 24


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxbytes: int
    currbytes: int
    currsize: int


class _BytesLru:
    """A thread-safe LRU cache of ``fn``'s results, bounded by the bytes
    ``nbytes`` counts for them.

    After a miss the least recently used results are evicted until the rest
    fit in ``maxbytes``, but the newest result is kept whatever its size: so
    the cache holds at most ``maxbytes`` plus the newest result.  As with
    ``lru_cache``, ``fn`` runs outside the lock, and two threads that miss
    on one key may both build it.
    """

    def __init__(self, fn: Callable, *, maxbytes: int, nbytes: Callable):
        update_wrapper(self, fn)
        self.maxbytes = maxbytes
        self._fn, self._nbytes = fn, nbytes
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> (result, bytes), oldest first
        self._held = self._hits = self._misses = 0

    def __call__(self, *key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry[0]
            self._misses += 1
        result = self._fn(*key)
        size = self._nbytes(result)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (result, size)
                self._held += size
                while self._held > self.maxbytes and len(self._entries) > 1:
                    self._held -= self._entries.popitem(last=False)[1][1]
        return result

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(
                self._hits, self._misses, self.maxbytes, self._held, len(self._entries)
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._held = self._hits = self._misses = 0


class GridOverflowError(ValueError):
    """The requested lattice exceeds the enumeration safety cap."""


@dataclass(frozen=True)
class GridSpec:
    """Lattice denominator, an integer from 1 to 32000."""

    resolution: int

    def __post_init__(self):
        _require_integer(resolution=self.resolution)
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
        _require_integer(draws=self.draws, seed=self.seed)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def composition_count(total: int, parts: int) -> int:
    """Number of compositions of the integer ``total`` into ``parts`` parts."""
    _require_integer(total=total, parts=parts)
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    return math.comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` parts, in colex order.

    Colexicographic order: rows are sorted by the last coordinate
    ascending, ties by the next-to-last, and so on.  The first row is
    ``(total, 0, ..., 0)`` and the last is ``(0, ..., 0, total)``; golden
    tests may reference rows by position.  The returned int16 array is
    read-only and C-contiguous, one row per composition.  Arrays are cached
    up to 16 MiB in all, the least recently used evicted first; the newest
    is kept whatever its size.

    The build fills every level below ``parts`` for all totals up to
    ``total``; when that would write more than 2**30 entries,
    :class:`GridOverflowError` is raised before anything is built.
    """
    # Checked before the cache, whose keys do not tell 2 from 2.0.
    _require_integer(total=total, parts=parts)
    return _compositions(total, parts)


@partial(_BytesLru, maxbytes=_CACHE_BYTES, nbytes=attrgetter("nbytes"))
def _compositions(total: int, parts: int) -> np.ndarray:
    out = np.ascontiguousarray(_build_compositions(total, parts).T, dtype=np.int16)
    out.flags.writeable = False
    return out


def _build_compositions(total: int, parts: int) -> np.ndarray:
    """Compositions of ``total`` into ``parts`` parts as the columns of one
    ``(parts, N)`` array in colex order, uint8 below 256 and int16 from 256.

    Each level below ``parts`` holds the compositions of every total from
    ``total`` down to 0, in that order.  Level ``p`` at total ``t`` is then
    the suffix of level ``p - 1`` from total ``t`` down, under a last row
    of ``t`` minus each column's total there: one slice copy and one
    repeat per total and level.  The last level is built at ``total``
    alone."""
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    if total > 32000:
        raise ValueError("total above 32000 is not supported")
    _check_build(total, parts)
    dtype = np.uint8 if total < 256 else np.int16
    if parts == 1:
        return np.full((1, 1), total, dtype=dtype)
    steps = np.arange(total + 1, dtype=dtype)
    level = steps[None, ::-1]
    # sizes[t]: the level's columns of total t; ends[t]: those of totals t..0.
    sizes = np.ones(total + 1, dtype=np.intp)
    for p in range(2, parts + 1):
        ends = sizes.cumsum()
        targets = range(total, -1, -1) if p < parts else (total,)
        out = np.empty((p, sum(int(ends[t]) for t in targets)), dtype=dtype)
        start, width = 0, level.shape[1]
        for t in targets:
            stop = start + int(ends[t])
            out[:-1, start:stop] = level[:, width - (stop - start) :]
            out[-1, start:stop] = steps[: t + 1].repeat(sizes[t::-1])
            start = stop
        level, sizes = out, ends
    return level


def _check_build(total: int, parts: int) -> None:
    """:class:`GridOverflowError` when building the compositions of ``total``
    into ``parts`` parts would write more than ``_MAX_BUILD_ENTRIES``."""
    if _build_entries(total, parts) > _MAX_BUILD_ENTRIES:
        raise GridOverflowError(
            f"building the compositions of {total} into {parts} parts writes more than "
            f"{_MAX_BUILD_ENTRIES} entries"
        )


def _build_entries(total: int, parts: int) -> int:
    """Entries :func:`_build_compositions` allocates, summed only until they
    pass ``_MAX_BUILD_ENTRIES``.  Level ``p < parts`` holds every composition
    of ``0..total`` into ``p`` parts, ``C(total + p, p)`` columns of ``p``
    entries; the last level holds those of ``total`` only."""
    entries = total + 1
    for p in range(2, parts + 1):
        entries += p * (math.comb(total + p, p) if p < parts else composition_count(total, p))
        if entries > _MAX_BUILD_ENTRIES:
            break
    return entries


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
    cell tables through the margin-pair index.  Indices are cached up to 16
    MiB in all.  With at most 2**16 margin pairs an index holds 2 to 3 bytes
    a point on lattices it splits into groups, and ``dim + 2`` bytes a point
    on those it keeps whole below resolution 256; with more pairs, 2 bytes a
    point more.  Tables built on other counts, another ``s`` or another grid
    raise ``ValueError``.
    ``on_lattice=True`` only asserts that the objective carries tables: a
    callable without them raises ``ValueError`` there.  Without the flag,
    the package objectives raise it themselves when walked.

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
        _check_tables(tables, counts.counts, cfg, grid)
        if tables.rows is None:
            return _separable_extrema(tables.cells, grid.resolution)
        return _mi_extrema(tables, grid.resolution)
    if on_lattice:
        raise ValueError("on_lattice=True needs an objective that carries its tables")
    lattice = compositions(grid.resolution, d)

    def t_of(start: int, stop: int) -> np.ndarray:
        return lattice[start:stop].astype(float) / grid.resolution

    return _walk(objective, counts.counts, counts.total, cfg.s, npoints, t_of)


def _check_tables(tables: _Tables, counts: np.ndarray, cfg: IdmConfig, grid: GridSpec) -> None:
    """``ValueError`` unless ``tables`` were built on ``counts`` and ``cfg.s``,
    and their first cell table on ``grid``."""
    if tables.s != cfg.s or not np.array_equal(tables.counts, counts):
        raise ValueError("objective tables were built on other counts or another s")
    # One builder makes every table of an objective on the same grid.
    if tables.cells[0].shape != (grid.resolution + 1,):
        raise ValueError("objective tables do not match the lattice")


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
    """Summand tables with the counts (row-major) and ``s`` they were built
    on: ``cells`` for the entropy and the MI, ``rows`` and ``cols`` for the
    MI only."""

    counts: np.ndarray
    s: float
    cells: list
    rows: Optional[list] = None
    cols: Optional[list] = None


def _table_sum(tables: list, lattice) -> np.ndarray:
    """``tables[0][lattice[0]] + tables[1][lattice[1]] + ...``, added in order."""
    vals = tables[0].take(lattice[0])
    for table, coords in zip(tables[1:], lattice[1:]):
        vals += table.take(coords)
    return vals


def _summand_tables(counts, total: float, cfg: IdmConfig, grid: GridSpec) -> list:
    """Per-count tables of ``h`` at the ``resolution + 1`` lattice steps of
    ``t``, all on the kernel ``total + s``."""
    steps = np.arange(grid.resolution + 1) / grid.resolution
    u = _posterior_means(np.asarray(counts)[:, None], total, cfg.s, steps)
    return list(h(u, EntropyKernel(total + cfg.s)))


def _lattice_rows(rows: np.ndarray) -> np.ndarray:
    # Posterior means would truncate to step 0 and give a wrong interval.
    if rows.dtype.kind not in "iu":
        raise ValueError("lattice objectives take integer lattice rows")
    return rows


def lattice_entropy_objective(
    counts: CountVector, cfg: IdmConfig, grid: GridSpec
) -> Callable:
    """Table-backed expected-entropy objective for :func:`grid_extrema`.

    Each coordinate of a lattice point takes one of ``resolution + 1``
    values, so the entropy summand is precomputed per coordinate and the
    objective reduces to table gathers.  The tables ride on the callable as
    ``objective.tables``, so :func:`grid_extrema` reduces them without
    enumerating the lattice.  The closure takes ``(N, dim)`` integer rows;
    others, such as a walk's posterior means, raise ``ValueError``.
    """
    tables = _summand_tables(counts.counts, counts.total, cfg, grid)

    def objective(rows: np.ndarray) -> np.ndarray:
        return _table_sum(tables, _lattice_rows(rows).T.astype(np.intp))

    objective.tables = _Tables(counts.counts, cfg.s, tables)
    return objective


class _MiGroup(NamedTuple):
    """The runs of the MI lattice whose first cells sum to one total: each
    run shares its last cells, and its first cells go through the same
    colex pattern."""

    pattern: np.ndarray  # (lead, P) compositions of the total into the first cells, colex
    starts: np.ndarray  # (S,) first column of each colex sub-run of the pattern's shared cells
    runs: slice  # the group's Q runs, as columns of the index's trailing cells
    # (Q, P) margin-pair id of the group's run q at pattern column p, uint16
    # when the lattice has at most 2**16 margin pairs and int32 above
    pairs: np.ndarray


class _MiIndex(NamedTuple):
    groups: tuple  # one _MiGroup per total of the first cells that has runs
    trailing: np.ndarray  # (t, runs) the last cells of every run, narrow ints
    shared: int  # the pattern's last cells, subtracted once per sub-run
    row_margins: np.ndarray  # (d1, nr) row-margin compositions in colex order
    col_margins: np.ndarray  # (d2, nc) column-margin compositions in colex order


def _mi_split(resolution: int, cells: int) -> tuple[int, int]:
    """The MI lattice's trailing cells ``t`` and shared cells ``a``.

    A lattice of ``N`` points split at ``t >= 1`` has ``resolution + 1``
    groups, and a group's pattern serves more than one run only from
    ``t = 2``.  So ``t`` is the most last cells whose colex runs average at
    least 128 points, when that is 2 or more and the groups average at least
    4096 points; otherwise the lattice is one group, ``t = 0``, and ``a`` is
    the most last cells whose colex sub-runs average at least 64 points.
    """
    npoints = composition_count(resolution, cells)

    def most_last_cells(run_points: int) -> int:
        k = 0
        while math.comb(resolution + k + 1, k + 1) * run_points <= npoints:
            k += 1
        return k

    trailing = most_last_cells(128)
    if trailing >= 2 and npoints >= (resolution + 1) * 4096:
        return trailing, 0
    return 0, most_last_cells(64)


def _sub_run_starts(pattern: np.ndarray, shared: int) -> np.ndarray:
    # First column of each colex run of the pattern's last ``shared`` rows,
    # compared in blocks of at most _CHUNK_ROWS columns.
    tail = pattern[pattern.shape[0] - shared :]
    found = [np.zeros(1, dtype=np.intp)]
    for c0 in range(1, pattern.shape[1], _CHUNK_ROWS):
        block = tail[:, c0 - 1 : c0 + _CHUNK_ROWS]
        found.append(np.flatnonzero((block[:, 1:] != block[:, :-1]).any(axis=0)) + c0)
    return np.concatenate(found)


def _index_nbytes(index: _MiIndex) -> int:
    """Bytes an MI index keeps alive: the arrays its views are cut from,
    each counted once."""
    arrays = [a for group in index.groups for a in (group.pattern, group.starts, group.pairs)]
    arrays += [index.trailing, index.row_margins, index.col_margins]
    bases = {}
    for a in arrays:
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


@partial(_BytesLru, maxbytes=_CACHE_BYTES, nbytes=_index_nbytes)
def _mi_index(resolution: int, d1: int, d2: int) -> _MiIndex:
    """Margin-pair ids of the ``d1 x d2`` lattice, grouped by the total of its
    first cells (see :func:`_mi_split` for ``t`` and ``a``).  Indices are
    cached up to ``_CACHE_BYTES`` (16 MiB), the least recently used evicted
    first; the newest is kept whatever its size.

    In colex order the points that share their last ``t`` cells form a run,
    and a run whose first ``lead = d1*d2 - t`` cells sum to ``r`` goes
    through the compositions of ``r`` into them in colex order: one pattern
    for every run of the group ``r``.  The patterns are column slices of one
    :func:`_build_compositions` array of ``lead + 1`` parts, the runs' last
    cells those of one array of ``t + 1`` parts, and each group keeps a
    ``(Q, P)`` matrix of pair ids for its ``Q`` runs by ``P`` pattern
    columns, computed in blocks of at most 2**16 of them: uint16 when there
    are at most 2**16 pair ids, int32 above.  A running sum of the margins
    is looked up once per pattern column when it covers first cells only,
    and per point otherwise.  With
    ``t = 0`` there is one group, one run, and the pattern is the lattice
    itself.  Every pair of row- and column-margin compositions is the margin
    pair of some table, so there are ``nr * nc`` pair ids, never more than
    the lattice has points.

    For ``N`` points a cached index holds ``2 * N`` bytes of pair ids
    (``4 * N`` above 2**16 pair ids), the ``(lead + 1) * C(R + lead, lead)``
    and ``(t + 1) * C(R + t, t)`` entries of its two builds (one byte each
    below ``resolution`` 256, two from 256) and 8 bytes per sub-run start:
    about ``2.6 * N`` bytes for the 2x3 lattice at ``R = 40``, and
    ``(d1*d2 + 2) * N`` with ``t = 0``, the lattice's own cells included.
    Refuses, before building anything, a lattice whose compositions cost
    more than ``_MAX_BUILD_ENTRIES`` to build.
    """
    cells = d1 * d2
    _check_build(resolution, cells)
    trailing, shared = _mi_split(resolution, cells)
    lead = cells - trailing
    if trailing:
        # The lead build's block with last part R - r holds the compositions
        # of r into the first cells; the trailing build's block with last
        # part r holds the last cells of every run whose first cells sum to r.
        heads = _build_compositions(resolution, lead + 1)
        tails = _build_compositions(resolution, trailing + 1)
        totals = np.arange(resolution + 2)
        head_cuts = np.searchsorted(heads[-1], totals)[::-1]
        tail_cuts = np.searchsorted(tails[-1], totals)
        runs = tails[:-1]
        parts = [
            (heads[:lead, head_cuts[r + 1] : head_cuts[r]], slice(tail_cuts[r], tail_cuts[r + 1]))
            for r in range(resolution + 1)
        ]
    else:
        lattice = _build_compositions(resolution, cells)
        runs = lattice[:0, :1]
        parts = [(lattice, slice(0, 1))]
    nr, nc = composition_count(resolution, d1), composition_count(resolution, d2)
    id_type = np.uint16 if nr * nc <= 1 << 16 else np.int32
    # The colex rank of a composition into n parts is C(R + n - 1, n - 1) - 1
    # plus H_j[S_j] over its running sums S_j, j < n - 1 (the last is R),
    # with H_j[x] = C(x + j, j) - C(x + j + 1, j + 1) = -C(x + j, j + 1):
    # H_0[x] = -x, and H_j is the running sum of H_{j-1}.  So a pair id, row
    # rank * nc + column rank, is nr * nc - 1 plus one lookup per running sum
    # of the row margins, in tables scaled by nc, and of the column margins.
    rank_terms = [-np.arange(resolution + 1)]
    for _ in range(2, max(d1, d2)):
        rank_terms.append(rank_terms[-1].cumsum())
    lookups = [(nc * rank_terms[k], range((k + 1) * d2)) for k in range(d1 - 1)]
    lookups += [(rank_terms[k], [c for c in range(cells) if c % d2 <= k]) for k in range(d2 - 1)]
    # A running sum over first cells only is looked up once per pattern
    # column; any other is gathered per point, from its first cells' and its
    # last cells' sums.
    by_col, by_point = [], []
    for table, cs in lookups:
        firsts = [c for c in cs if c < lead]
        lasts = [c - lead for c in cs if c >= lead]
        if lasts:
            by_point.append((table, firsts, lasts))
        else:
            by_col.append((table, firsts))
    run_sums = [runs[rows].sum(axis=0, dtype=np.intp) for _, _, rows in by_point]
    groups = []
    for pattern, group_runs in parts:
        per_run = [sums[group_runs, None] for sums in run_sums]
        width = pattern.shape[1]
        pairs = np.empty((group_runs.stop - group_runs.start, width), dtype=id_type)
        span = min(width, _CHUNK_ROWS)
        step = _CHUNK_ROWS // span
        for c0 in range(0, width, span):
            block = pattern[:, c0 : c0 + span]
            col_ids = np.full(block.shape[1], nr * nc - 1, dtype=np.intp)
            for tab, rows in by_col:
                col_ids += tab.take(block[rows].sum(axis=0, dtype=np.intp))
            per_col = [(tab, block[rows].sum(axis=0, dtype=np.intp)) for tab, rows, _ in by_point]
            for q in range(0, pairs.shape[0], step):
                out = pairs[q : q + step, c0 : c0 + span]
                ids = np.broadcast_to(col_ids, out.shape).copy()
                for (tab, col), run in zip(per_col, per_run):
                    ids += tab.take(run[q : q + step] + col)
                # _mi_extrema gathers with mode="clip", which would clamp an
                # id out of range instead of raising: refuse it here, where
                # the ids are made.  Read unsigned, a negative id is large.
                if ids.view(np.uintp).max() >= nr * nc:
                    raise RuntimeError("MI pair id out of range")
                out[...] = ids
        groups.append(_MiGroup(pattern, _sub_run_starts(pattern, shared), group_runs, pairs))
    return _MiIndex(
        tuple(groups),
        runs,
        shared,
        _build_compositions(resolution, d1),
        _build_compositions(resolution, d2),
    )


def _mi_extrema(tables: _Tables, resolution: int) -> Interval:
    """``[min, max]`` of the MI objective over every composition of
    ``resolution`` into its cells, bit for bit as the objective computes it.

    The objective adds the row summands, then the column summands, then
    subtracts the cell summands in row-major order.  Everything before the
    first cell depends only on the point's margin pair, so it is computed
    once per pair, with the same adds in the same order, and gathered.

    Each group of :func:`_mi_index` gathers its first cells' summands once
    per pattern column and subtracts them from every run as broadcast rows,
    in blocks of at most 2**16 points.  ``x -> fl(x - a)`` is monotone, so
    the pattern's shared cells are subtracted once per sub-run, from its
    extrema, and the last cells once per run, from the run's extrema over
    every block: each point keeps its order of subtractions, and the ends
    keep their bits.
    """
    d1, d2 = len(tables.rows), len(tables.cols)
    index = _mi_index(resolution, d1, d2)
    head = _table_sum(tables.rows, index.row_margins)
    pair = head[:, None] + tables.cols[0].take(index.col_margins[0])
    for j in range(1, d2):
        pair += tables.cols[j].take(index.col_margins[j])
    pair = pair.ravel()
    # Every run's extrema of the value before its last cells.
    nruns = index.trailing.shape[1]
    lows = np.full(nruns, math.inf)
    highs = np.full(nruns, -math.inf)
    # One buffer takes every block's gathered values: a fresh array per
    # block lets glibc trim and refault the heap's top pages in some heap
    # states.  numpy buffers ``take`` into ``out`` unless a ``mode`` is set;
    # _mi_index checks that every id is in range, so "clip" clips none.
    buffer = np.empty(min(_CHUNK_ROWS, max(group.pairs.size for group in index.groups)))
    for group in index.groups:
        lead, width = group.pattern.shape
        own = lead - index.shared
        span = min(width, _CHUNK_ROWS)
        step = _CHUNK_ROWS // span
        group_lows, group_highs = lows[group.runs], highs[group.runs]
        for c0 in range(0, width, span):
            pattern = group.pattern[:, c0 : c0 + span]
            # The first cells' summands of the block's columns, kept for its
            # runs when it has several, else gathered as each is used.
            heads = (tables.cells[c].take(pattern[c]) for c in range(own))
            if group.pairs.shape[0] > step:
                heads = list(heads)
            segments = group.starts
            if span < width:
                # A sub-run the block cuts starts again at its first column.
                first = group.starts.searchsorted(c0, side="right") - 1
                segments = group.starts[first : group.starts.searchsorted(c0 + span)] - c0
                segments[0] = 0
            shared = [tables.cells[c].take(pattern[c].take(segments)) for c in range(own, lead)]
            for q in range(0, group.pairs.shape[0], step):
                ids = group.pairs[q : q + step, c0 : c0 + span]
                vals = pair.take(ids, out=buffer[: ids.size].reshape(ids.shape), mode="clip")
                for cell in heads:
                    vals -= cell
                low = np.minimum.reduceat(vals, segments, axis=1)
                high = np.maximum.reduceat(vals, segments, axis=1)
                for cell in shared:
                    low -= cell
                    high -= cell
                low_runs, high_runs = group_lows[q : q + step], group_highs[q : q + step]
                np.minimum(low_runs, low.min(axis=1), out=low_runs)
                np.maximum(high_runs, high.max(axis=1), out=high_runs)
    for c, cells in enumerate(index.trailing, start=d1 * d2 - len(index.trailing)):
        at = tables.cells[c].take(cells)
        lows -= at
        highs -= at
    return Interval(float(lows.min()), float(highs.max()))


def lattice_mi_objective(
    tbl: ContingencyCounts, cfg: IdmConfig, grid: GridSpec
) -> Callable:
    """Table-backed expected-mutual-information objective over cell lattices.

    Lattice points are compositions over the ``d1*d2`` cells in row-major
    order; called on ``(N, d1*d2)`` integer rows, the closure gathers row,
    column and cell summands from tables built in one ``h`` call, and other
    rows, such as a walk's posterior means, raise ``ValueError``.  Reduce it
    with :func:`grid_extrema` on the flattened joint counts, or with
    :func:`product_grid_extrema` on the table.  The tables ride on the
    callable as ``objective.tables``, so :func:`grid_extrema` computes the
    row and column part once per pair of margins instead of once per point,
    and still visits every point, to the same bits as the closure.
    """
    d1, d2 = tbl.shape
    counts = tbl.table.ravel()
    tables = _summand_tables(
        np.concatenate([counts, tbl.row_sums, tbl.col_sums]), tbl.total, cfg, grid
    )
    cell_tables, row_tables, col_tables = tables[: d1 * d2], tables[d1 * d2 : -d2], tables[-d2:]

    def objective(rows: np.ndarray) -> np.ndarray:
        cells = _lattice_rows(rows).reshape(-1, d1, d2)
        margins = [*cells.sum(axis=2, dtype=np.intp).T, *cells.sum(axis=1, dtype=np.intp).T]
        vals = _table_sum(row_tables + col_tables, margins)
        for c in range(d1 * d2):
            vals -= cell_tables[c].take(rows[:, c])
        return vals

    objective.tables = _Tables(counts, cfg.s, cell_tables, row_tables, col_tables)
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
    values; a non-finite value raises ``ValueError``.

    An objective from :func:`lattice_mi_objective` on this table is reduced
    through its ``objective.tables`` instead, without calling it, in blocks
    of at most 2**16 pairs: the row part is looked up per ``v`` and the
    column part per ``w`` (the row and column sums of ``t`` are exactly
    ``v_i`` and ``w_j``), and each cell's summand is evaluated once per
    block at ``t_ij = (k_i * l_j) / R**2``, an exact integer product rounded
    once.  Its ends differ from walking the MI on the rounded products
    ``v_i * w_j`` by a few ulps.  Entropy tables, and tables built on
    another table (of another shape too), another ``s`` or another grid,
    raise ``ValueError``.

    Refuses product lattices larger than :data:`MAX_GRID_POINTS` pairs with
    :class:`GridOverflowError`, before building anything.
    """
    d1, d2 = tbl.shape
    n1 = composition_count(grid.resolution, d1)
    n2 = composition_count(grid.resolution, d2)
    if n1 * n2 > MAX_GRID_POINTS:
        raise GridOverflowError(
            f"product lattice has {n1} x {n2} points, above the cap of {MAX_GRID_POINTS}"
        )
    tables = getattr(objective, "tables", None)
    if tables is not None:
        # A table of another shape can have the same cells.
        if tables.rows is None or (len(tables.rows), len(tables.cols)) != tbl.shape:
            raise ValueError("objective tables were built on other counts or another s")
        _check_tables(tables, tbl.table.ravel(), cfg, grid)
        return _product_extrema(tables, tbl.total, grid.resolution)
    v = compositions(grid.resolution, d1).astype(float) / grid.resolution
    w = compositions(grid.resolution, d2).astype(float) / grid.resolution

    def t_of(start: int, stop: int) -> np.ndarray:
        iv, iw = np.divmod(np.arange(start, stop), n2)
        return v[iv][:, :, None] * w[iw][:, None, :]

    return _walk(objective, tbl.table, tbl.total, cfg.s, n1 * n2, t_of)


def _distinct_products(k_lo: int, k_span: int, l_lo: int, l_span: int):
    """Products ``k * l`` over a rectangle of lattice steps, flat with ``l``
    fastest, as the distinct values and each entry's position among them.
    When the products spread over more than twice the rectangle, they come
    back as they are, with ``None`` for the positions."""
    flat = np.multiply.outer(
        np.arange(k_lo, k_lo + k_span), np.arange(l_lo, l_lo + l_span)
    ).ravel()
    low, spread = flat[0], flat[-1] - flat[0] + 1
    if spread > 2 * flat.size:
        return flat, None
    seen = np.zeros(spread, dtype=bool)
    seen[flat - low] = True
    return np.flatnonzero(seen) + low, np.cumsum(seen).take(flat - low) - 1


def _product_extrema(tables: _Tables, total: float, resolution: int) -> Interval:
    """``[min, max]`` over the product lattice of the row part plus the
    column part minus the cell summands in row-major order, on the kernel
    ``total + s``.

    Blocks are whole rows of ``v`` by every ``w``, or one ``v`` by a slice
    of ``w`` when one row has more than 2**16 pairs.  Each block evaluates
    cell ``(i, j)`` on the ranges its ``k_i`` and ``l_j`` take there, all
    cells in one ``h`` call, so the tables stay within a block's ranges
    whatever the lattice's shape.
    """
    d1, d2 = len(tables.rows), len(tables.cols)
    v, w = compositions(resolution, d1), compositions(resolution, d2)
    n1, n2 = v.shape[0], w.shape[0]
    row_part = _table_sum(tables.rows, v.T)
    col_part = _table_sum(tables.cols, w.T)
    kernel = EntropyKernel(total + tables.s)
    scale = resolution * resolution
    nv, nw = max(1, _CHUNK_ROWS // n2), min(n2, _CHUNK_ROWS)
    vmin = math.inf
    vmax = -math.inf
    for va in range(0, n1, nv):
        ks = v[va : va + nv].T.astype(np.intp, order="C")
        k_lo, k_span = ks.min(axis=1), np.ptp(ks, axis=1) + 1
        for wa in range(0, n2, nw):
            ls = w[wa : wa + nw].T.astype(np.intp, order="C")
            l_lo, l_span = ls.min(axis=1), np.ptp(ls, axis=1) + 1
            # Each cell's summand over its k range by its l range, flat, at
            # t = (k * l) / R**2: an exact integer product, rounded once.
            keys = [(k_lo[i], k_span[i], l_lo[j], l_span[j]) for i in range(d1) for j in range(d2)]
            products = {key: _distinct_products(*key) for key in set(keys)}
            rects = [products[key] for key in keys]
            sizes = [distinct.size for distinct, _ in rects]
            t = np.concatenate([distinct for distinct, _ in rects]) / scale
            u = _posterior_means(np.repeat(tables.counts, sizes), total, tables.s, t)
            summands = np.split(h(u, kernel), np.cumsum(sizes[:-1]))
            vals = row_part[va : va + nv, None] + col_part[wa : wa + nw]
            for i in range(d1):
                rows = ks[i] - k_lo[i]
                for j in range(d2):
                    c = i * d2 + j
                    strip = summands[c] if rects[c][1] is None else summands[c].take(rects[c][1])
                    vals -= strip.take(rows[:, None] * l_span[j] + (ls[j] - l_lo[j]))
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
    return Interval(vmin, vmax)


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
