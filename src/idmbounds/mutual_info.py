"""Expected mutual information on contingency tables, with robust bounds.

The expected mutual information of a Dirichlet posterior over a two-way
table decomposes into three expected entropies,

    I(u) = H(u_rows) + H(u_cols) - H(u_cells),

each a sum of the concave summand ``h``.  This yields a crude interval
from the exact marginal entropy extrema, a conservative interval by
per-cell remainder propagation, the leading-order posterior variance, and
an exhaustive check that the bounds also cover the smaller outer-product
(row x column) family of hyperparameters.

The conservative interval overshoots the inner one by O(sigma^2) when
every cell count is positive.  A zero cell count makes its lower end
O(sigma): on ``[[1, 0], [0, 1]]`` at ``s = 1``, scaling the table from x64
to x256 shrinks that gap 4.0x, where O(sigma^2) would give about 16x.  An
empty row or column makes both ends O(sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact_extrema import _extreme_ends, _row_terms
from .oracle import GridSpec, lattice_mi_objective, product_grid_extrema
from .simplex_core import (
    CountVector, IdmConfig, Interval, SimplexPoint, _count_array, _posterior_means, sigma_of
)
from .special_fn import EntropyKernel, _entropy_terms
from .taylor_bounds import RobustEstimate, _remainder_parts

__all__ = [
    "ContingencyCounts", "MiBounds", "expected_mi", "mi_estimate", "mi_interval_bounds",
    "mi_interval_crude", "mi_variance_leading", "product_idm_check",
]


class _FloatRangeError(ValueError):
    """The leading variance exceeds the float range: ``n + s`` is too small."""


@dataclass(frozen=True, eq=False)
class ContingencyCounts:
    """Joint category counts ``n_ij`` with cached marginals; the total must be finite.

    :meth:`row_counts`, :meth:`col_counts` and :meth:`joint_counts` build
    their :class:`CountVector` on first call and return that same object on
    every later one.  So the entropy terms a part stores (see
    :class:`CountVector`) serve every later question on the table: an
    :func:`~idmbounds.exact_extrema.entropy_interval_exact` of the joint
    counts also serves the cell part of :func:`mi_interval_bounds` when the
    cells total the table's ``n``.  The table also keeps the MI primaries
    ``(f0, r_ub_per_i, r_lb_per_i, vertex_values, sigma)`` of its last
    strength ``s``, stored in one assignment after they are computed, so a
    later :func:`mi_estimate` at that strength builds its estimate from them
    alone.  The cached parts and primaries are not dataclass fields:
    ``repr``, equality and :func:`dataclasses.fields` do not see them.
    """

    table: np.ndarray

    def __post_init__(self):
        arr, total = _count_array(self.table, 2, "table")
        row_sums = arr.sum(axis=1)
        col_sums = arr.sum(axis=0)
        row_sums.flags.writeable = False
        col_sums.flags.writeable = False
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "row_sums", row_sums)
        object.__setattr__(self, "col_sums", col_sums)
        object.__setattr__(self, "total", total)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape

    @property
    def cells(self) -> int:
        return self.table.size

    def joint_counts(self) -> CountVector:
        """The cells flattened row-major, as a plain count vector."""
        return self._part("_joint", self.table.ravel())

    def row_counts(self) -> CountVector:
        return self._part("_rows", self.row_sums)

    def col_counts(self) -> CountVector:
        return self._part("_cols", self.col_sums)

    def _part(self, name: str, counts: np.ndarray) -> CountVector:
        # setdefault keeps the first part built, should two threads race.
        part = self.__dict__.get(name)
        return part if part is not None else self.__dict__.setdefault(name, CountVector(counts))


@dataclass(frozen=True, eq=False, kw_only=True)
class MiBounds(RobustEstimate):
    """Conservative, inner, and crude interval data for the expected MI.

    A :class:`RobustEstimate` over the ``d1*d2`` cells in row-major order,
    with the sandwich ``i0 + r_lb <= inner_lower <= inner_upper <= i0 +
    r_ub``.  The crude interval need not contain the conservative one (or
    vice versa), but both individually contain the true robust interval.
    """

    crude: Interval
    shape: tuple[int, int]

    @property
    def i0(self) -> float:
        return self.f0

    @property
    def cell1(self) -> tuple[int, int]:
        """The cell whose vertex gives the inner upper bound."""
        return divmod(self.i1, self.shape[1])

    @property
    def cell2(self) -> tuple[int, int]:
        """The cell whose vertex gives the inner lower bound."""
        return divmod(self.i2, self.shape[1])


def _cell_means(tbl: ContingencyCounts, cfg: IdmConfig, t: np.ndarray) -> np.ndarray:
    """The posterior means of the cells at the flattened prior means ``t``."""
    d1, d2 = tbl.shape
    if t.size != d1 * d2:
        raise ValueError(
            f"dimension mismatch: table has {d1 * d2} cells, t has {t.size} components"
        )
    return _posterior_means(tbl.table, tbl.total, cfg.s, t.reshape(d1, d2))


def _three_entropies(u: np.ndarray, kernel: EntropyKernel) -> np.ndarray:
    """Row plus column minus cell entropy of posterior means ``u[..., d1, d2]``.

    The row, column and cell groups take one special-function pass, with
    the bits of ``h`` on each.
    """
    parts = (u.sum(axis=-1), u.sum(axis=-2), u)
    terms = _entropy_terms([(kernel.total, part.ravel()) for part in parts], slopes=False)
    rows, cols, cells = (values.reshape(part.shape) for (values, _), part in zip(terms, parts))
    return rows.sum(axis=-1) + cols.sum(axis=-1) - cells.sum(axis=(-2, -1))


def expected_mi(tbl: ContingencyCounts, cfg: IdmConfig, t: SimplexPoint) -> float:
    """Expected mutual information at cell hyperparameter ``t``.

    ``t`` runs over the flattened cells in row-major order.  The value is
    the three-entropy combination of the row, column, and joint posterior
    means, all with kernel ``n + s``, in one special-function pass.
    """
    u = _cell_means(tbl, cfg, t.t)
    return float(_three_entropies(u, EntropyKernel(tbl.total + cfg.s)))


def mi_interval_crude(tbl: ContingencyCounts, cfg: IdmConfig) -> Interval:
    """Crude robust MI interval from exact marginal entropy extrema.

    Marginals of a Dirichlet are Dirichlet with the same strength, so the
    exact entropy machinery applies to rows, columns, and joint cells
    independently; the combination bounds the MI from both sides.  Valid
    but potentially very loose on unbalanced tables.  The three entropy
    intervals take at most one special-function pass, with the bits of
    three :func:`entropy_interval_exact` calls; none when the table has
    already answered at this strength (see :class:`ContingencyCounts`).
    """
    rows = _part_rows(tbl, _parts(tbl), cfg)
    return _crude(_row_terms(rows, extreme=True, remainder=False))


def mi_estimate(tbl: ContingencyCounts, cfg: IdmConfig) -> RobustEstimate:
    """Remainder bounds on the expected MI, per cell.

    The row, column, and cell entropies each get the concave-summand
    remainder bounds of :func:`concave_remainder_bounds`, all with kernel
    ``n + s``; the three take at most one special-function pass together,
    none when the table has already answered at this strength.  They
    combine per cell, over the ``d1*d2`` cells in row-major order, before
    any aggregation: the result has the bits of ``propagate_sum(
    propagate_sum(lift(rows, i), lift(cols, j)), negate(cells))``, with
    ``i`` and ``j`` each cell's row and column, and is the one
    :class:`RobustEstimate` the call builds.  The vertex values at the
    extremizing cells are the inner bounds.  The conservative interval is
    O(sigma^2)-tight when every cell count is positive; a zero cell count
    makes its lower end O(sigma) (see the module docstring).  A table that
    has already answered :func:`mi_estimate` or :func:`mi_interval_bounds`
    at this strength gives the primaries it kept, with the same bits.
    """
    entry = tbl.__dict__.get("_mi")
    if entry is not None and entry[0] == cfg.s:
        return RobustEstimate(*entry[1])
    parts = _parts(tbl)
    terms = _row_terms(_part_rows(tbl, parts, cfg), extreme=False, remainder=True)
    return RobustEstimate(*_estimate(tbl, parts, cfg, terms))


def mi_interval_bounds(tbl: ContingencyCounts, cfg: IdmConfig) -> MiBounds:
    """Conservative, inner, and crude bounds on the expected MI.

    The remainder and inner bounds are those of :func:`mi_estimate` and the
    crude interval that of :func:`mi_interval_crude`; every value both need
    takes at most one special-function pass, none when the table has
    already answered at this strength, and the result is the one estimate
    the call builds.  The upper witness ``cell1`` is the first row-major
    cell attaining the float maximum of the per-cell upper remainders, and
    ``cell2`` the first one attaining the float minimum of the lower
    remainders.
    """
    parts = _parts(tbl)
    terms = _row_terms(_part_rows(tbl, parts, cfg), extreme=True, remainder=True)
    return MiBounds(*_estimate(tbl, parts, cfg, terms), crude=_crude(terms), shape=tbl.shape)


def _parts(tbl: ContingencyCounts) -> tuple[CountVector, CountVector, CountVector]:
    return tbl.row_counts(), tbl.col_counts(), tbl.joint_counts()


# The kernel of the remainder bounds is the table's n + s for all three
# parts, while each part's posterior means and its exact interval's kernel
# use the part's own total: row and column sums of a fractional table can
# differ from the table's total by an ulp.
def _part_rows(tbl: ContingencyCounts, parts, cfg: IdmConfig) -> list:
    total = tbl.total + cfg.s
    return [(part, cfg, total) for part in parts]


def _estimate(tbl: ContingencyCounts, parts, cfg: IdmConfig, terms) -> tuple:
    """The primaries ``(f0, r_ub_per_i, r_lb_per_i, vertex_values, sigma)`` of the MI.

    The row vectors broadcast over the columns, the column vectors over the
    rows, and the cell vectors are subtracted, which has the bits of the
    lift, negate and sum composition (``x - y`` is ``x + (-y)`` in floating
    point) and builds no estimate on the way.  The table keeps them for
    ``cfg.s`` (see :class:`ContingencyCounts`).
    """
    sigmas = [sigma_of(part, cfg) for part in parts]
    (f_r, ub_r, lb_r, v_r), (f_c, ub_c, lb_c, v_c), (f_x, ub_x, lb_x, v_x) = (
        _remainder_parts(sigma, slopes, values)
        for sigma, (_, values, slopes) in zip(sigmas, terms)
    )
    d1, d2 = tbl.shape

    def per_cell(row, col, cell):
        # Cell (i, j): row i's entry plus column j's, minus the cell's own.
        return (row[:, None] + col - cell.reshape(d1, d2)).ravel()

    # Negating the cells swaps their upper and lower remainders.
    primaries = (
        f_r + f_c - f_x,
        per_cell(ub_r, ub_c, lb_x),
        per_cell(lb_r, lb_c, ub_x),
        per_cell(v_r, v_c, v_x),
        sigmas[0],
    )
    object.__setattr__(tbl, "_mi", (cfg.s, primaries))
    return primaries


def _crude(terms) -> Interval:
    rows, cols, joint = (Interval(*_extreme_ends(values)) for values, _, _ in terms)
    return Interval(
        rows.lower + cols.lower - joint.upper,
        rows.upper + cols.upper - joint.lower,
    )


def mi_variance_leading(tbl: ContingencyCounts, cfg: IdmConfig, t: SimplexPoint) -> float:
    """Leading-order posterior variance of the mutual information.

    ``Var[I] ~ (1/(n+s)) * Var_u[log(u_ij / (u_i+ u_+j))]`` where the inner
    variance is taken cellwise with weights ``u``.  Computed in centered
    form, so the result is non-negative down to the last bit, and as a
    difference of logs, since ``u_i+ u_+j`` can underflow.  Higher-order
    terms are omitted; at small ``n`` they are material.  Zero cells are
    rejected (the log diverges), and so is an ``n + s`` so small that the
    variance exceeds the float range.
    """
    return _leading_variance(tbl, cfg, t.t)


def _leading_variance(tbl: ContingencyCounts, cfg: IdmConfig, t: np.ndarray) -> float:
    """:func:`mi_variance_leading` at the prior means ``t``, a plain array."""
    u = _cell_means(tbl, cfg, t)
    if np.any(u <= 0):
        raise ValueError("zero cell in the posterior mean; variance needs positive logs")
    ratios = np.log(u) - np.log(u.sum(axis=1))[:, None] - np.log(u.sum(axis=0))
    center = float((u * ratios).sum())
    variance = float((u * (ratios - center) ** 2).sum()) / (tbl.total + cfg.s)
    if not math.isfinite(variance):
        raise _FloatRangeError("the variance exceeds the float range: n + s is too small")
    return variance


def product_idm_check(
    tbl: ContingencyCounts, cfg: IdmConfig, bounds: MiBounds, resolution: int
) -> bool:
    """Exhaustively verify the MI bounds over outer-product hyperparameters.

    Enumerates ``t = v (x) w`` for ``(v, w)`` on the factor-simplex
    lattices (``t_ij = v_i * w_j``, see :func:`product_grid_extrema`) and
    returns True iff every lattice MI value lies inside the conservative
    interval *and* the inner bounds are attained within lattice tolerance
    (1e-9).  The factor-simplex vertices map to the full-simplex vertices,
    so attainment holds exactly up to float noise.

    The lattice MI is :func:`lattice_mi_objective`'s, whose row, column
    and cell tables :func:`product_grid_extrema` reduces: row and column
    summands per factor point, and each cell's at ``(k_i * l_j) / R**2``,
    an exact integer product rounded once.  The lattice interval then
    differs by a few ulps from evaluating :func:`expected_mi` on the
    rounded products ``v_i * w_j``.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    grid = GridSpec(resolution)
    lattice = product_grid_extrema(lattice_mi_objective(tbl, cfg, grid), tbl, cfg, grid)
    tol = 1e-9
    contained = bounds.conservative_interval().contains_interval(lattice, tol)
    attained = (
        lattice.upper >= bounds.inner_upper - tol and lattice.lower <= bounds.inner_lower + tol
    )
    return contained and attained
