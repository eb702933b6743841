"""Robust credible sets: intervals that cover under every posterior in a set.

A robust alpha-credible set must hold at least alpha posterior mass under
*every* member of a family of distributions at once.  Taking the union of
the per-member shortest intervals is always a valid (conservative)
construction, but it is not minimal.  The translated triangular family is
solvable in closed form and exposes the whole story: per-member shortest
intervals, their union, and the genuinely minimal robust interval, which
is strictly shorter.  One-sided sets reduce to a pointwise minimum.  For
the mutual information the interval is assembled from the conservative
mean bounds plus a Gaussian-multiplier term on the leading-order standard
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .mutual_info import ContingencyCounts, _leading_variance, mi_estimate
from .simplex_core import IdmConfig, Interval
from .special_fn import kappa_from_alpha
from .taylor_bounds import RobustEstimate

__all__ = [
    "CredibleSpec", "credible_mi_interval", "one_sided_robust_bound", "robust_credible_mi",
    "robust_credible_mi_parts", "triangular_mass", "triangular_minimal_robust",
    "triangular_robust_union", "triangular_shortest_interval",
]


@dataclass(frozen=True)
class CredibleSpec:
    """Coverage level ``alpha`` with its derived Gaussian multiplier."""

    alpha: float
    kappa: float = field(init=False)

    def __post_init__(self):
        # kappa_from_alpha refuses an alpha outside (0, 1).
        object.__setattr__(self, "kappa", kappa_from_alpha(self.alpha))


def _triangle_cdf_centered(z: float) -> float:
    # Integral of max(0, 1-|x|) from 0 to z, for z in [-1, 1].
    return z * (1.0 - 0.5 * abs(z))


def triangular_mass(t: float, a: float, b: float) -> float:
    """Mass of ``[a, b]`` under the triangular density centered at ``t``.

    The density is ``p_t(x) = max(0, 1 - |x - t|)``; endpoints are shifted
    by ``t`` and clamped to the support before the closed-form antiderivative
    ``z (1 - |z|/2)`` is differenced.
    """
    if a > b:
        raise ValueError("interval endpoints out of order")
    za = min(max(a - t, -1.0), 1.0)
    zb = min(max(b - t, -1.0), 1.0)
    return abs(_triangle_cdf_centered(zb) - _triangle_cdf_centered(za))


def triangular_shortest_interval(t: float, alpha: float) -> Interval:
    """Shortest alpha-credible interval of one triangular density.

    For ``alpha >= 1/2`` this is ``t -/+ (1 - sqrt(1 - alpha))``, symmetric
    around the mode; its mass is exactly ``alpha``.
    """
    _require_alpha_regime(alpha)
    c = 1.0 - math.sqrt(1.0 - alpha)
    return Interval(t - c, t + c)


def triangular_robust_union(gamma: float, alpha: float) -> Interval:
    """Union of the per-member shortest intervals over ``t in [-gamma, gamma]``.

    A valid robust credible interval (each member's own interval is
    inside), but not the shortest one; compare
    :func:`triangular_minimal_robust`.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    _require_alpha_regime(alpha)
    c = 1.0 - math.sqrt(1.0 - alpha)
    return Interval(-gamma - c, gamma + c)


def triangular_minimal_robust(gamma: float, alpha: float) -> Interval:
    """The minimal robust alpha-credible interval of the triangular family.

    Piecewise in ``gamma``: below the seam ``gamma^2 = (1 - alpha)/2`` the
    binding members are the extreme translates with partially truncated
    tails, above it the two extremes dominate outright.  Both branches
    agree at the seam, and the result is a proper subinterval of the union
    for every ``gamma > 0``.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    _require_alpha_regime(alpha)
    if gamma * gamma <= 0.5 * (1.0 - alpha):
        # 1 - alpha is exact for alpha in [0.5, 1) and so is halving it, so
        # the radicand is at least (1 - alpha) / 2 > 0.
        radius = 1.0 - math.sqrt(1.0 - alpha - gamma * gamma)
    else:
        radius = gamma + 1.0 - math.sqrt(2.0 * (1.0 - alpha))
    return Interval(-radius, radius)


def _require_alpha_regime(alpha: float) -> None:
    if not 0.5 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0.5, 1) for the triangular closed forms")


def one_sided_robust_bound(per_t_lower: Callable, t_grid: Sequence[float]) -> float:
    """Robust lower endpoint for one-sided sets ``[a, inf)``.

    For one-sided intervals the minimal robust set *is* the union of the
    per-member minimal sets, so the robust endpoint is the pointwise
    minimum of the per-member endpoints over the grid.  Refining the grid
    can only lower (never raise) the result, keeping it conservative.  It
    backs the README's one-sided reduction claim.
    """
    grid = list(t_grid)
    if not grid:
        raise ValueError("t_grid must be non-empty")
    values = [float(per_t_lower(t)) for t in grid]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("per-member endpoints must be finite on the grid")
    return min(values)


def credible_mi_interval(est: RobustEstimate, variance: float, spec: CredibleSpec) -> Interval:
    """Widen the conservative MI interval by ``kappa * sqrt(variance)`` on both sides."""
    spread = spec.kappa * math.sqrt(variance)
    return Interval(est.f0 + est.r_lb - spread, est.f0 + est.r_ub + spread)


def robust_credible_mi_parts(
    tbl: ContingencyCounts, cfg: IdmConfig, spec: CredibleSpec
) -> tuple[RobustEstimate, float, Interval]:
    """The robust credible MI policy, as ``(estimate, variance, interval)``.

    :func:`mi_estimate`, the leading-order variance at the uniform cell
    hyperparameter (it varies with ``t`` only at higher order; a zero cell
    there raises ``ValueError``), and :func:`credible_mi_interval` of both.
    The estimate takes at most one special-function pass, none when the
    table has already answered at this strength, and then no remainder
    assembly either (see
    :class:`~idmbounds.mutual_info.ContingencyCounts`); the variance takes
    none.
    """
    est = mi_estimate(tbl, cfg)
    # The uniform prior's array: the values SimplexPoint.uniform holds.
    variance = _leading_variance(tbl, cfg, np.full(tbl.cells, 1.0 / tbl.cells))
    return est, variance, credible_mi_interval(est, variance, spec)


def robust_credible_mi(tbl: ContingencyCounts, cfg: IdmConfig, spec: CredibleSpec) -> Interval:
    """Gaussian-approximation robust credible interval for the expected MI.

    The interval of :func:`robust_credible_mi_parts`.  Not strictly
    conservative: both the Gaussian shape and the leading-order variance
    ignore higher-order terms.
    """
    return robust_credible_mi_parts(tbl, cfg, spec)[2]
