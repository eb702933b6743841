"""Expected mutual information on contingency tables, with robust bounds.

The expected mutual information of a Dirichlet posterior over a two-way
table decomposes into three expected entropies,

    I(u) = H(u_rows) + H(u_cols) - H(u_cells),

each a sum of the concave summand ``h``.  This yields a crude interval
from the exact marginal entropy extrema, an O(sigma^2)-tight conservative
interval by per-cell remainder propagation, the leading-order posterior
variance, and an exhaustive check that the bounds also cover the smaller
outer-product (row x column) family of hyperparameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact_extrema import entropy_interval_exact, entropy_summand
from .oracle import GridSpec, product_grid_extrema
from .simplex_core import (
    CountVector, IdmConfig, Interval, SimplexPoint, _count_array, _posterior_means
)
from .special_fn import EntropyKernel, h
from .taylor_bounds import RobustEstimate, concave_remainder_bounds, lift, negate, propagate_sum

__all__ = [
    "ContingencyCounts", "MiBounds", "expected_mi", "mi_estimate", "mi_interval_bounds",
    "mi_interval_crude", "mi_variance_leading", "product_idm_check",
]


class _FloatRangeError(ValueError):
    """The leading variance exceeds the float range: ``n + s`` is too small."""


@dataclass(frozen=True, eq=False)
class ContingencyCounts:
    """Joint category counts ``n_ij`` with cached marginals; the total must be finite."""

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
        return CountVector(self.table.ravel())

    def row_counts(self) -> CountVector:
        return CountVector(self.row_sums)

    def col_counts(self) -> CountVector:
        return CountVector(self.col_sums)


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


def _cell_means(tbl: ContingencyCounts, cfg: IdmConfig, t: SimplexPoint) -> np.ndarray:
    d1, d2 = tbl.shape
    if t.dim != d1 * d2:
        raise ValueError(
            f"dimension mismatch: table has {d1 * d2} cells, t has {t.dim} components"
        )
    return _posterior_means(tbl.table, tbl.total, cfg.s, t.t.reshape(d1, d2))


def _three_entropies(u: np.ndarray, kernel: EntropyKernel) -> np.ndarray:
    """Row plus column minus cell entropy of posterior means ``u[..., d1, d2]``."""
    return (
        h(u.sum(axis=-1), kernel).sum(axis=-1)
        + h(u.sum(axis=-2), kernel).sum(axis=-1)
        - h(u, kernel).sum(axis=(-2, -1))
    )


def expected_mi(tbl: ContingencyCounts, cfg: IdmConfig, t: SimplexPoint) -> float:
    """Expected mutual information at cell hyperparameter ``t``.

    ``t`` runs over the flattened cells in row-major order.  The value is
    the three-entropy combination of the row, column, and joint posterior
    means, all with kernel ``n + s``.
    """
    u = _cell_means(tbl, cfg, t)
    return float(_three_entropies(u, EntropyKernel(tbl.total + cfg.s)))


def mi_interval_crude(tbl: ContingencyCounts, cfg: IdmConfig) -> Interval:
    """Crude robust MI interval from exact marginal entropy extrema.

    Marginals of a Dirichlet are Dirichlet with the same strength, so the
    exact entropy machinery applies to rows, columns, and joint cells
    independently; the combination bounds the MI from both sides.  Valid
    but potentially very loose on unbalanced tables.
    """
    rows = entropy_interval_exact(tbl.row_counts(), cfg)
    cols = entropy_interval_exact(tbl.col_counts(), cfg)
    joint = entropy_interval_exact(tbl.joint_counts(), cfg)
    return Interval(
        rows.lower + cols.lower - joint.upper,
        rows.upper + cols.upper - joint.lower,
    )


def mi_estimate(tbl: ContingencyCounts, cfg: IdmConfig) -> RobustEstimate:
    """O(sigma^2)-tight remainder bounds on the expected MI, per cell.

    The row, column, and cell entropies each get the concave-summand
    remainder bounds.  The row and column estimates are lifted to the
    ``d1*d2`` cells in row-major order and the cell estimate enters through
    ``negate``, so the three combine per cell before any aggregation; the
    vertex values at the extremizing cells are the inner bounds.
    """
    d1, d2 = tbl.shape
    f = entropy_summand(EntropyKernel(tbl.total + cfg.s))
    rows = concave_remainder_bounds(tbl.row_counts(), cfg, f)
    cols = concave_remainder_bounds(tbl.col_counts(), cfg, f)
    cells = concave_remainder_bounds(tbl.joint_counts(), cfg, f)
    marginals = propagate_sum(
        lift(rows, np.repeat(np.arange(d1), d2)), lift(cols, np.tile(np.arange(d2), d1))
    )
    return propagate_sum(marginals, negate(cells))


def mi_interval_bounds(tbl: ContingencyCounts, cfg: IdmConfig) -> MiBounds:
    """Conservative, inner, and crude bounds on the expected MI.

    The remainder and inner bounds are those of :func:`mi_estimate`.  The
    upper witness ``cell1`` is the first row-major cell attaining the float
    maximum of the per-cell upper remainders, and ``cell2`` the first one
    attaining the float minimum of the lower remainders.
    """
    est = mi_estimate(tbl, cfg)
    primaries = (est.f0, est.r_ub_per_i, est.r_lb_per_i, est.vertex_values, est.sigma, est.nonneg)
    return MiBounds(*primaries, crude=mi_interval_crude(tbl, cfg), shape=tbl.shape)


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
    interval *and* the inner bounds are attained within lattice tolerance.
    The factor-simplex vertices map to the full-simplex vertices, so
    attainment holds exactly up to float noise.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    kernel = EntropyKernel(tbl.total + cfg.s)
    lattice = product_grid_extrema(
        lambda u: _three_entropies(u, kernel), tbl, cfg, GridSpec(resolution)
    )
    tol = 1e-9
    contained = bounds.conservative_interval().contains_interval(lattice, tol)
    attained = (
        lattice.upper >= bounds.inner_upper - tol and lattice.lower <= bounds.inner_lower + tol
    )
    return contained and attained
