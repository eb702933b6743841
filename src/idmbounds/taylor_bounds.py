"""Conservative first-order interval bounds with explicit remainder control.

For a differentiable estimator ``F`` on the posterior-mean region, a
first-order expansion around the baseline ``u0`` (the image of ``t = 0``)
bounds the robust extremes by

    F(u0) + sigma * min_i [min ∂_i F]  <=  min F,
    max F  <=  F(u0) + sigma * max_i [max ∂_i F],

where the inner extremizations run over the sum-relaxed region.  The
widening against the true extremes is O(sigma^2).  Evaluating ``F`` at the
remainder-extremizing vertices gives *inner* bounds that certify the
approximation quality from the other side.  Per-component remainder
vectors are kept so that sums and products of estimators propagate without
losing the O(sigma^2) tightness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval


class UnboundedDerivativeError(ValueError):
    """The summand's derivative is unbounded where a remainder bound needs it."""


@dataclass(frozen=True)
class DerivativeBoundProvider:
    """Per-coordinate derivative extremes of ``F`` over the expansion region.

    ``fn(u)`` evaluates ``F`` at a posterior-mean vector; ``upper_i(i)`` and
    ``lower_i(i)`` return max/min of ``∂_i F`` over the sum-relaxed region
    (the caller may legally enlarge it to the bounding box
    ``u0_i <= u_i <= u0_i + sigma``).  ``nonneg`` certifies ``F >= 0`` with
    ``∂_i F >= 0`` everywhere, the admission ticket for product propagation.

    The input of :func:`approx_interval_general`, which backs the README's
    claim that the remainder bounds cover general Lipschitz-differentiable
    estimators, not only sums of concave summands.
    """

    fn: Callable
    upper_i: Callable
    lower_i: Callable
    nonneg: bool = False


@dataclass(frozen=True, eq=False)
class RobustEstimate:
    """Baseline value, remainder bounds, and inner bounds for one estimator.

    The defining sandwich is ``f0 + r_lb <= inner_lower <= inner_upper <=
    f0 + r_ub``; the conservative interval ``[f0 + r_lb, f0 + r_ub]``
    contains the true robust interval, and the inner interval is contained
    in it.  ``vertex_values[k]`` stores ``F`` at the image of the ``k``-th
    vertex, which is what makes sum/product propagation exact for the inner
    bounds.
    """

    f0: float
    r_ub_per_i: np.ndarray
    r_lb_per_i: np.ndarray
    r_ub: float
    r_lb: float
    inner_upper: float
    inner_lower: float
    i1: int
    i2: int
    vertex_values: np.ndarray
    sigma: float
    nonneg: bool = False

    @property
    def dim(self) -> int:
        return self.r_ub_per_i.size

    def conservative_interval(self) -> Interval:
        return Interval(self.f0 + self.r_lb, self.f0 + self.r_ub)

    def inner_interval(self) -> Interval:
        # Both ends are values at feasible points, so their hull lies inside
        # the robust interval in whichever order rounding leaves them.
        return Interval(*sorted((self.inner_lower, self.inner_upper)))


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _assemble(
    f0: float,
    r_ub_per_i: np.ndarray,
    r_lb_per_i: np.ndarray,
    vertex_values: np.ndarray,
    sigma: float,
    nonneg: bool,
) -> RobustEstimate:
    i1 = int(np.argmax(r_ub_per_i))
    i2 = int(np.argmin(r_lb_per_i))
    return RobustEstimate(
        f0=float(f0),
        r_ub_per_i=_readonly(r_ub_per_i),
        r_lb_per_i=_readonly(r_lb_per_i),
        r_ub=float(r_ub_per_i[i1]),
        r_lb=float(r_lb_per_i[i2]),
        inner_upper=float(vertex_values[i1]),
        inner_lower=float(vertex_values[i2]),
        i1=i1,
        i2=i2,
        vertex_values=_readonly(vertex_values),
        sigma=float(sigma),
        nonneg=nonneg,
    )


def negate(est: RobustEstimate) -> RobustEstimate:
    """Remainder bounds for ``-F``: the bounds and witnesses swap sides."""
    return _assemble(
        -est.f0,
        -est.r_lb_per_i,
        -est.r_ub_per_i,
        -est.vertex_values,
        est.sigma,
        nonneg=False,
    )


def lift(est: RobustEstimate, index: np.ndarray) -> RobustEstimate:
    """Remainder bounds for ``F`` read on a finer simplex.

    Component ``k`` of the finer simplex feeds component ``index[k]`` of
    ``F``'s argument (a marginal sum), so moving prior weight onto ``k``
    moves ``F`` exactly as moving it onto ``index[k]`` does: the
    per-component remainders and vertex values are gathered, and the
    extremizing components re-chosen with the usual smallest-index rule.
    """
    return _assemble(
        est.f0,
        est.r_ub_per_i[index],
        est.r_lb_per_i[index],
        est.vertex_values[index],
        est.sigma,
        nonneg=est.nonneg,
    )


def concave_remainder_bounds(counts: CountVector, cfg: IdmConfig, f) -> RobustEstimate:
    """Remainder bounds for a separable estimator with concave summand.

    Monotonicity of ``f'`` collapses the per-coordinate extremizations to
    endpoint evaluations: the upper remainders are ``sigma * f'(u0_i)`` and
    the lower ones ``sigma * f'(u0_i + sigma)``.  Convex summands dispatch
    through negation.  A non-finite derivative at a baseline point (e.g. a
    plug-in entropy summand with a zero count) is refused rather than
    silently emitting an infinite bound.
    """
    if f.curvature == "convex":
        return negate(concave_remainder_bounds(counts, cfg, f.negated()))
    denom = counts.total + cfg.s
    sigma = cfg.s / denom
    u0 = counts.counts / denom

    deriv_low = np.asarray(f.deriv(u0), dtype=float)
    deriv_high = np.asarray(f.deriv(u0 + sigma), dtype=float)
    bad = ~(np.isfinite(deriv_low) & np.isfinite(deriv_high))
    if bad.any():
        raise UnboundedDerivativeError(
            f"summand derivative is non-finite at baseline component(s) "
            f"{np.flatnonzero(bad).tolist()}; the remainder bound would be infinite"
        )
    # f' is non-increasing; with huge counts and a tiny s, u0 + sigma is an
    # ulp from u0 and rounding alone can put f' there above f'(u0).
    deriv_high = np.minimum(deriv_high, deriv_low)
    f_low = np.asarray(f.fn(u0), dtype=float)
    f_high = np.asarray(f.fn(u0 + sigma), dtype=float)
    f0 = float(f_low.sum())
    # F at the k-th vertex differs from F(u0) only in coordinate k.
    vertex_values = f0 - f_low + f_high
    return _assemble(
        f0,
        sigma * deriv_low,
        sigma * deriv_high,
        vertex_values,
        sigma,
        nonneg=False,
    )


def approx_interval_general(
    counts: CountVector, cfg: IdmConfig, provider: DerivativeBoundProvider
) -> RobustEstimate:
    """Remainder bounds for an arbitrary Lipschitz-differentiable estimator.

    The caller supplies per-coordinate derivative extremes through a
    :class:`DerivativeBoundProvider`; this routine assembles the
    conservative and inner bounds.  Non-finite provider output is rejected.
    It backs the README's claim that the first-order bounds hold for general
    Lipschitz-differentiable estimators; the package's own estimators all
    go through :func:`concave_remainder_bounds`.
    """
    d = counts.dim
    denom = counts.total + cfg.s
    sigma = cfg.s / denom
    u0 = counts.counts / denom

    upper = np.array([provider.upper_i(i) for i in range(d)], dtype=float)
    lower = np.array([provider.lower_i(i) for i in range(d)], dtype=float)
    if not (np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
        raise ValueError("provider returned non-finite derivative bounds")
    if np.any(upper < lower):
        raise ValueError("provider upper_i must dominate lower_i")

    f0 = float(provider.fn(u0))
    vertex_values = np.empty(d)
    for k in range(d):
        u = u0.copy()
        u[k] += sigma
        vertex_values[k] = provider.fn(u)
    if not (np.isfinite(f0) and np.all(np.isfinite(vertex_values))):
        raise ValueError("provider returned non-finite values")
    return _assemble(
        f0,
        sigma * upper,
        sigma * lower,
        vertex_values,
        sigma,
        nonneg=provider.nonneg,
    )


def propagate_sum(
    g: RobustEstimate, h_est: RobustEstimate, alpha: float = 1.0, beta: float = 1.0
) -> RobustEstimate:
    """Remainder bounds for ``alpha*G + beta*H`` with ``alpha, beta >= 0``.

    Propagation happens on the per-component vectors; the aggregates are
    re-extremized afterwards.  Aggregating first loses O(sigma): a linear
    summand and its negation cancel per component but not per aggregate.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if g.dim != h_est.dim:
        raise ValueError("mismatched dimensions")
    return _assemble(
        alpha * g.f0 + beta * h_est.f0,
        alpha * g.r_ub_per_i + beta * h_est.r_ub_per_i,
        alpha * g.r_lb_per_i + beta * h_est.r_lb_per_i,
        alpha * g.vertex_values + beta * h_est.vertex_values,
        g.sigma,
        nonneg=g.nonneg and h_est.nonneg,
    )


def propagate_product(g: RobustEstimate, h_est: RobustEstimate) -> RobustEstimate:
    """Remainder bounds for the product ``G * H`` of certified estimators.

    Both operands must carry the non-negativity certification (``F >= 0``
    and ``∂_i F >= 0``); that analytic knowledge belongs to whoever built
    the estimate and is not re-derivable from the numbers here.  It backs
    the README's product-propagation claim; no estimator in the package
    multiplies estimates today.
    """
    if not (g.nonneg and h_est.nonneg):
        raise ValueError(
            "product propagation requires both operands certified non-negative "
            "with non-negative derivative bounds"
        )
    if g.dim != h_est.dim:
        raise ValueError("mismatched dimensions")
    r_ub = g.r_ub_per_i * (h_est.f0 + h_est.r_ub) + (g.f0 + g.r_ub) * h_est.r_ub_per_i
    r_lb = g.r_lb_per_i * (h_est.f0 + h_est.r_lb) + (g.f0 + g.r_lb) * h_est.r_lb_per_i
    return _assemble(
        g.f0 * h_est.f0,
        r_ub,
        r_lb,
        g.vertex_values * h_est.vertex_values,
        g.sigma,
        nonneg=True,
    )
