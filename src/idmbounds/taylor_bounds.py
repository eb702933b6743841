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
from typing import Callable, NamedTuple

import numpy as np

from .exact_extrema import (
    ConcaveSummand, _EntropySummand, _extreme_ends, _one_row, _point_sets, _remainder_points,
    _row_terms, _Stack,
)
from .simplex_core import CountVector, IdmConfig, Interval, _posterior_means, sigma_of
from .special_fn import _BLOCK_ROWS, _entropy_terms

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
        for name, value in values.items():
            object.__setattr__(self, name, value)

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
    ``h`` and ``h'`` in at most one special-function pass, with the same
    bits; none when ``counts`` has already answered at this strength and
    kernel (see :class:`~idmbounds.simplex_core.CountVector`).
    """
    if isinstance(f, _EntropySummand):
        rows = [(counts, cfg, f.kernel.total)]
        [(_, values, derivs)] = _row_terms(rows, extreme=False, remainder=True)
    else:
        points = _remainder_points(_one_row(counts, cfg))[0]
        values, derivs = ConcaveSummand._values_and_derivs(f, points)
    return _remainder_estimate(sigma_of(counts, cfg), derivs, values)


def _remainder_estimate(sigma: float, derivs: np.ndarray, values: np.ndarray) -> RobustEstimate:
    """The remainder bounds from ``f'`` and ``f`` at :func:`_remainder_points`.

    The summand is elementwise, so values taken on both point sets at once
    are the ones separate calls would give.
    """
    return RobustEstimate(*_remainder_parts(sigma, derivs, values), sigma)


def _remainder_parts(sigma, derivs: np.ndarray, values: np.ndarray):
    """The primaries of :func:`_remainder_estimate` before any estimate is built.

    ``(f0, r_ub_per_i, r_lb_per_i, vertex_values)``, with ``f0`` a float
    and the vectors plain arrays, so that callers can combine several parts
    into one :class:`RobustEstimate`.  For a stack of rows, ``derivs`` and
    ``values`` are ``(rows, 2 d)`` and ``sigma`` a ``(rows, 1)`` column;
    each primary then has one entry or row per row.
    """
    d = derivs.shape[-1] // 2
    deriv_low, deriv_high = derivs[..., :d], derivs[..., d:]
    bad = ~(np.isfinite(deriv_low) & np.isfinite(deriv_high))
    if bad.any():
        # The first row with a bad component, as a row-by-row loop meets it.
        rows = bad.reshape(-1, d)
        raise UnboundedDerivativeError(
            f"summand derivative is non-finite at baseline component(s) "
            f"{np.flatnonzero(rows[rows.any(axis=1).argmax()]).tolist()}; "
            f"the remainder bound would be infinite"
        )
    # f' is non-increasing; with huge counts and a tiny s, the vertex is an
    # ulp from u0 and rounding alone can put f' there above f'(u0).
    deriv_high = np.minimum(deriv_high, deriv_low)
    f_low, f_high = values[..., :d], values[..., d:]
    f0 = f_low.sum(axis=-1)
    # F at the k-th vertex differs from F(u0) only in coordinate k.
    vertex_values = f0[..., None] - f_low + f_high
    return f0, sigma * deriv_low, sigma * deriv_high, vertex_values


class _EntropyColumns(NamedTuple):
    """The entropy answers of a stack of count rows, as columns.

    ``lower`` and ``upper`` are the exact interval's ends, and ``f0``,
    ``r_ub``, ``r_lb``, ``vertex`` and ``sigma`` the primaries of the
    remainder estimate, with one entry (or, for the per-component arrays,
    one row) per count row; ``sums`` holds one column per extra group, each
    row's ``h`` sum over that group.
    """

    lower: np.ndarray
    upper: np.ndarray
    f0: np.ndarray
    r_ub: np.ndarray
    r_lb: np.ndarray
    vertex: np.ndarray
    sigma: np.ndarray
    sums: tuple

    def conservative(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's conservative ends, ``f0 + r_lb`` and ``f0 + r_ub``: the
        floats :class:`RobustEstimate` gives, since its extremes are the
        components' minimum and maximum."""
        return self.f0 + self.r_lb.min(axis=-1), self.f0 + self.r_ub.max(axis=-1)

    def row(self, k: int) -> tuple[Interval, RobustEstimate, list]:
        """Row ``k``'s exact interval, remainder estimate and extra sums."""
        estimate = RobustEstimate(
            self.f0[k], self.r_ub[k], self.r_lb[k], self.vertex[k], self.sigma[k]
        )
        return Interval(self.lower[k], self.upper[k]), estimate, [float(s[k]) for s in self.sums]


def _entropy_rows(stacks):
    """The exact entropy interval and remainder estimate of every row, batched.

    Each item is ``(stack, extras)``: an :class:`~idmbounds.exact_extrema._Stack`
    of count rows of one dimension and a tuple of further stacked ``(totals,
    u)`` groups, ``totals`` one kernel total per row and ``u`` one row of
    points per count row (see :func:`~idmbounds.special_fn._entropy_terms`).
    Yields :class:`_EntropyColumns`: per row, the
    :func:`~idmbounds.exact_extrema.entropy_interval_exact` interval, the
    primaries of the :func:`concave_remainder_bounds` estimate with summand
    ``h`` on kernel ``n + s``, and the ``h`` sum of each extra group, all
    with the bits of those calls.  Rows join one special-function pass until
    the next would take it over ``_BLOCK_ROWS`` points, so memory stays
    bounded however many rows there are; a larger row takes a pass alone.
    A pass yields one record per item, or per part of an item, that it
    takes.
    """
    block, size = [], 0
    for stack, extras in stacks:
        rows = len(stack.counts)
        points = 4 * stack.counts.shape[-1] + sum(u.shape[-1] for _, u in extras)
        start = 0
        while start < rows:
            room = (_BLOCK_ROWS - size) // points
            if block and room <= 0:
                yield from _entropy_pass(block)
                block, size = [], 0
                continue
            stop = min(rows, start + max(room, 1))
            part = slice(start, stop)
            part_extras = tuple((total[part], u[part]) for total, u in extras)
            block.append((_Stack(*(column[part] for column in stack)), part_extras))
            size += (stop - start) * points
            start = stop
    if block:
        yield from _entropy_pass(block)


def _entropy_pass(block):
    """One special-function pass over a block of stacks, whose points, terms
    and sums are taken with array operations: a few groups a stack, not a
    few a row."""
    groups = []
    for stack, extras in block:
        kernel, points = (stack.total + stack.s).ravel(), _point_sets(stack)
        d = points.shape[-1] // 4
        groups += [(kernel, points[:, : 2 * d]), (kernel, points[:, 2 * d :]), *extras]
    terms = iter(_entropy_terms(groups))
    for stack, extras in block:
        (extreme, _), (values, slopes) = next(terms), next(terms)
        sums = tuple(next(terms)[0].sum(axis=-1) for _ in extras)
        sigma = _posterior_means(0.0, stack.total[:, 0], stack.s[:, 0], 1.0)
        f0, r_ub, r_lb, vertex = _remainder_parts(sigma, slopes, values)
        yield _EntropyColumns(*_extreme_ends(extreme), f0, r_ub, r_lb, vertex, sigma[:, 0], sums)


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
