"""Conservative first-order interval bounds with explicit remainder control.

For a differentiable estimator ``F`` on the posterior-mean region, a
first-order expansion around the baseline ``u0`` (the image of ``t = 0``)
bounds the robust extremes by

    F(u0) + sigma * min_i [min ∂_i F]  <=  min F,
    max F  <=  F(u0) + sigma * max_i [max ∂_i F],

where the inner extremizations run over the sum-relaxed region.  The
widening against the true extremes is O(sigma^2) where the second
derivative stays bounded over the region; near ``u = 0`` the entropy
summand's slope moves by O(1) across it, so a zero count makes the
widening O(sigma).  Evaluating ``F`` at the remainder-extremizing vertices
gives *inner* bounds that certify the approximation quality from the other
side.  Per-component remainder vectors are kept so that sums and products
of estimators propagate without losing that tightness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exact_extrema import (
    _entropy_rows, _EntropySummand, _one_row, _remainder_parts, _remainder_points, _Rows,
    _summand_values,
)
from .simplex_core import CountVector, IdmConfig, Interval, _posterior_means, sigma_of

__all__ = [
    "DerivativeBoundProvider", "RobustEstimate", "UnboundedDerivativeError",
    "approx_interval_general", "concave_remainder_bounds", "lift", "negate",
    "propagate_product", "propagate_sum",
]


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

    Built from the baseline ``f0``, the per-component remainder vectors and
    ``vertex_values[k]``, ``F`` at the image of the ``k``-th vertex, which
    is what makes sum/product propagation exact for the inner bounds.  The
    aggregates are derived from them: ``i1`` is the first index of the
    largest upper remainder ``r_ub`` and ``i2`` the first index of the
    smallest lower remainder ``r_lb``; ``inner_upper`` and ``inner_lower``
    are the vertex values there.  The defining sandwich is ``f0 + r_lb <=
    inner_lower <= inner_upper <= f0 + r_ub``; the conservative interval
    ``[f0 + r_lb, f0 + r_ub]`` contains the true robust interval, and the
    inner interval is contained in it.
    """

    f0: float
    r_ub_per_i: np.ndarray
    r_lb_per_i: np.ndarray
    vertex_values: np.ndarray
    sigma: float
    nonneg: bool = False
    r_ub: float = field(init=False)
    r_lb: float = field(init=False)
    inner_upper: float = field(init=False)
    inner_lower: float = field(init=False)
    i1: int = field(init=False)
    i2: int = field(init=False)

    def __post_init__(self):
        r_ub, r_lb, vertex = map(_readonly, (self.r_ub_per_i, self.r_lb_per_i, self.vertex_values))
        i1, i2 = int(r_ub.argmax()), int(r_lb.argmin())
        values = {
            "f0": float(self.f0), "r_ub_per_i": r_ub, "r_lb_per_i": r_lb, "vertex_values": vertex,
            "sigma": float(self.sigma), "i1": i1, "i2": i2, "r_ub": float(r_ub[i1]),
            "r_lb": float(r_lb[i2]), "inner_upper": float(vertex[i1]),
            "inner_lower": float(vertex[i2]),
        }
        vars(self).update(values)

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


def negate(est: RobustEstimate) -> RobustEstimate:
    """Remainder bounds for ``-F``: the bounds and witnesses swap sides."""
    return RobustEstimate(
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
    return RobustEstimate(
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
    the lower ones ``sigma * f'(u0_i + sigma)``.  For a convex ``g``, pass
    the summand of ``-g`` and :func:`negate` the result.  A non-finite
    derivative at a baseline point (e.g. a plug-in entropy summand with a
    zero count) is refused rather than silently emitting an infinite bound,
    and a summand whose output does not match its argument's shape raises
    ``ValueError``.  The summand's values and derivatives are taken once,
    on the baseline and vertex points together.  For a
    :class:`~idmbounds.exact_extrema.ConcaveSummand`, or any other object
    with elementwise ``fn`` and ``deriv``, ``f.deriv`` and then ``f.fn`` are
    each called once.  The summand of
    :func:`~idmbounds.exact_extrema.entropy_summand` calls neither: it takes
    ``h`` and ``h'`` in at most one special-function pass, the one that
    :func:`~idmbounds.exact_extrema.entropy_interval_exact` takes, with the
    same bits; none, and no assembly, when ``counts`` has already answered
    at this strength and kernel (see :class:`~idmbounds.simplex_core.CountVector`).
    """
    if isinstance(f, _EntropySummand):
        item = _Rows(_one_row(counts, cfg), f.kernel.total, extreme=False, owner=counts)
        [record] = _entropy_rows([item])
        return RobustEstimate(*record.primaries())
    points = _remainder_points(_one_row(counts, cfg))[0]
    derivs = _summand_values(f.deriv, points, "deriv")
    values = _summand_values(f.fn, points, "fn")
    d = counts.dim
    bad = ~(np.isfinite(derivs[:d]) & np.isfinite(derivs[d:]))
    if bad.any():
        raise UnboundedDerivativeError(
            f"summand derivative is non-finite at baseline component(s) "
            f"{np.flatnonzero(bad).tolist()}; the remainder bound would be infinite"
        )
    sigma = sigma_of(counts, cfg)
    return RobustEstimate(*_remainder_parts(sigma, derivs, values), sigma)


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
    sigma = sigma_of(counts, cfg)
    u0 = _posterior_means(counts.counts, counts.total, cfg.s, 0.0)

    upper = np.array([provider.upper_i(i) for i in range(d)], dtype=float)
    lower = np.array([provider.lower_i(i) for i in range(d)], dtype=float)
    if not (np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
        raise ValueError("provider returned non-finite derivative bounds")
    if np.any(upper < lower):
        raise ValueError("provider upper_i must dominate lower_i")

    f0 = float(provider.fn(u0))
    # One vertex image (t = e_k) at a time: an identity matrix would take O(d^2).
    units = (np.arange(d) == k for k in range(d))
    images = (_posterior_means(counts.counts, counts.total, cfg.s, e) for e in units)
    vertex_values = np.array([float(provider.fn(u)) for u in images])
    if not (np.isfinite(f0) and np.all(np.isfinite(vertex_values))):
        raise ValueError("provider returned non-finite values")
    return RobustEstimate(
        f0,
        sigma * upper,
        sigma * lower,
        vertex_values,
        sigma,
        nonneg=provider.nonneg,
    )


def propagate_sum(g: RobustEstimate, h_est: RobustEstimate) -> RobustEstimate:
    """Remainder bounds for ``G + H``.

    Propagation happens on the per-component vectors; the aggregates are
    re-extremized afterwards.  Aggregating first loses O(sigma): a linear
    summand and its negation cancel per component but not per aggregate.
    """
    if g.dim != h_est.dim:
        raise ValueError("mismatched dimensions")
    return RobustEstimate(
        g.f0 + h_est.f0,
        g.r_ub_per_i + h_est.r_ub_per_i,
        g.r_lb_per_i + h_est.r_lb_per_i,
        g.vertex_values + h_est.vertex_values,
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
    # GH(u) - GH(u0) takes d_i(GH) = d_iG H + G d_iH at a point of the
    # segment from u0 to u, where the certified G and H lie between their
    # baselines and the baselines plus their largest upper remainders: so
    # the lower remainders take each factor at its baseline.
    r_ub = g.r_ub_per_i * (h_est.f0 + h_est.r_ub) + (g.f0 + g.r_ub) * h_est.r_ub_per_i
    r_lb = g.r_lb_per_i * h_est.f0 + g.f0 * h_est.r_lb_per_i
    return RobustEstimate(
        g.f0 * h_est.f0,
        r_ub,
        r_lb,
        g.vertex_values * h_est.vertex_values,
        g.sigma,
        nonneg=True,
    )
