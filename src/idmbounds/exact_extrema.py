"""Exact global extrema of concave separable estimators.

For an estimator of the form ``F(u) = sum_i f(u_i)`` with concave ``f``,
the global minimum over the feasible posterior-mean region is attained by
pushing all prior weight onto the best-observed category (a vertex of the
``t``-simplex), and the global maximum by a water-filling construction
that levels the smallest coordinates at a common value ``u_tilde``.  Both
extrema are closed-form; the expected entropy is the flagship instance.

A convex summand ``g`` takes the same path through ``-g``, which is
concave: ``min sum g = -max sum (-g)`` and ``max sum g = -min sum (-g)``,
with the same witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval, SimplexPoint, _posterior_means, u_from_t
from .special_fn import EntropyKernel, h, h_fraction, h_prime

__all__ = [
    "ConcaveSummand", "ExtremumResult", "entropy_interval_exact", "entropy_interval_rational",
    "entropy_summand", "max_concave_sum", "min_concave_sum",
]

#: Largest ``n + s`` for which exact rational entropy endpoints are computed.
RATIONAL_TOTAL_LIMIT = 1000


@dataclass(frozen=True)
class ConcaveSummand:
    """A concave scalar summand ``f`` with its derivative.

    ``fn`` and ``deriv`` must be vectorized over numpy arrays on [0, 1] and
    re-entrant.  Concavity is spot-checked at construction on a 10-point
    grid: the derivative must be finite and non-increasing there.  For a
    convex ``g``, build the summand of ``-g`` and negate the values it
    yields.
    """

    fn: Callable
    deriv: Callable

    def __post_init__(self):
        grid = np.linspace(0.05, 0.95, 10)
        d = np.asarray(self.deriv(grid), dtype=float)
        if d.shape != grid.shape or not np.all(np.isfinite(d)):
            raise ValueError("derivative must be finite and vectorized on [0, 1]")
        slack = 1e-9 * max(1.0, float(np.abs(d).max()))
        if np.any(np.diff(d) > slack):
            raise ValueError("declared concave but derivative increases on [0, 1]")


class _EntropySummand(ConcaveSummand):
    """``h`` is concave by theorem, so its concavity is not spot-checked."""

    def __post_init__(self):
        pass


@dataclass(frozen=True, eq=False)
class ExtremumResult:
    """An extremum value together with a canonical witness.

    The witness is the prior mean ``t_star`` and its posterior mean
    ``u_star = u_from_t(counts, cfg, t_star)``, a read-only float array, and
    ``value`` is ``sum_i f(u_star_i)``.  ``vertex_index`` is set when the
    extremum sits at a vertex of the ``t``-simplex; ``m_star`` records the
    leveling count of the water-filling maximum.  Ties are always broken
    toward the smallest index, so witnesses are deterministic.
    """

    value: float
    u_star: np.ndarray
    t_star: SimplexPoint
    vertex_index: Optional[int] = None
    m_star: Optional[int] = None


def entropy_summand(kernel: EntropyKernel) -> ConcaveSummand:
    """The expected-entropy summand ``h`` as a :class:`ConcaveSummand`.

    Built without the concavity spot-check: ``h`` is concave for every
    ``kernel.total > 0``.
    """
    return _EntropySummand(
        fn=lambda u: h(u, kernel),
        deriv=lambda u: h_prime(u, kernel),
    )


def min_concave_sum(counts: CountVector, cfg: IdmConfig, f: ConcaveSummand) -> ExtremumResult:
    """Global minimum of ``sum_i f(u_i)`` for concave ``f``.

    The minimizer puts all prior weight on the most-observed category:
    ``t* = e_i`` with ``i = argmax n_i`` (smallest index on ties).
    """
    i_star = int(np.argmax(counts.counts))
    t_star = SimplexPoint.vertex(counts.dim, i_star)
    u_star = u_from_t(counts, cfg, t_star)
    value = float(np.sum(f.fn(u_star)))
    return ExtremumResult(value=value, u_star=u_star, t_star=t_star, vertex_index=i_star)


def max_concave_sum(counts: CountVector, cfg: IdmConfig, f: ConcaveSummand) -> ExtremumResult:
    """Global maximum of ``sum_i f(u_i)`` for concave ``f``.

    Sorting counts ascending, the maximizer levels the ``m`` smallest
    posterior means at ``u_tilde = (s + sum of m smallest counts) /
    (m (n+s))``, with ``m`` chosen to minimize ``u_tilde`` (all ``m`` are
    enumerated; the running minimum is not trusted blindly).  The result is
    ``u*_i = max(u0_i, u_tilde)``; when ``m = 1`` the maximum sits at the
    vertex of the least-observed category.
    """
    d = counts.dim
    u0 = _posterior_means(counts.counts, counts.total, cfg.s, 0.0)
    denom = counts.total + cfg.s
    order = np.argsort(counts.counts, kind="stable")
    prefix = np.cumsum(counts.counts[order])
    m = np.arange(1, d + 1)
    # m (n+s) overflows when n + s is within a factor m of the float
    # maximum: divide in two steps there instead of by infinity.
    with np.errstate(over="ignore"):
        scale = m * denom
    candidates = (cfg.s + prefix) / scale
    big = np.isinf(scale)
    candidates[big] = (cfg.s + prefix[big]) / m[big] / denom
    m_star = int(np.argmin(candidates)) + 1
    u_tilde = float(candidates[m_star - 1])

    u_vec = np.maximum(u0, u_tilde)
    # t* = (u* (n+s) - n) / s loses digits when s << n: clip and renormalise
    # so the witness is on the simplex by construction.
    t = np.maximum(u_vec * denom - counts.counts, 0.0)
    if not t.any():
        # s too small to move u in floating point: u == u0 for every t; any
        # witness is valid.
        t_star = SimplexPoint.vertex(d, int(order[0]))
    else:
        t_star = SimplexPoint(t / t.sum())
    u_star = u_from_t(counts, cfg, t_star)
    value = float(np.sum(f.fn(u_star)))
    vertex_index = int(order[0]) if m_star == 1 else None
    return ExtremumResult(
        value=value, u_star=u_star, t_star=t_star, vertex_index=vertex_index, m_star=m_star
    )


def entropy_interval_exact(counts: CountVector, cfg: IdmConfig) -> Interval:
    """The exact robust interval of the expected entropy."""
    kernel = EntropyKernel(counts.total + cfg.s)
    f = entropy_summand(kernel)
    lower = min_concave_sum(counts, cfg, f).value
    upper = max_concave_sum(counts, cfg, f).value
    # The minimiser is feasible too, so the maximum is at least its value;
    # with huge counts and a tiny s, rounding alone can cross the two.
    return Interval(lower, max(lower, upper))


def _integral(x: float) -> Optional[int]:
    return int(x) if x.is_integer() else None


def entropy_interval_rational(
    counts: CountVector, cfg: IdmConfig
) -> Optional[tuple[Fraction, Fraction]]:
    """Exact rational endpoints of the entropy interval, when they exist.

    Requires exactly integral counts and ``s`` with ``n + s`` at most
    :data:`RATIONAL_TOTAL_LIMIT`, and an upper extremum whose leveled
    coordinates stay on the ``1/(n+s)`` grid.  Returns ``None`` whenever
    any of that fails; the float interval is always available instead.
    """
    s = _integral(cfg.s)
    if s is None:
        return None
    ints = [_integral(c) for c in counts.counts]
    if any(c is None for c in ints):
        return None
    total = sum(ints) + s
    if not 1 <= total <= RATIONAL_TOTAL_LIMIT:
        return None

    # Upper endpoint first: the leveling value over sorted counts must put
    # every coordinate on the grid before any Fraction is summed.
    ordered = sorted(ints)
    prefix = 0
    u_tilde = None
    for m, c in enumerate(ordered, start=1):
        prefix += c
        cand = Fraction(s + prefix, m * total)
        if u_tilde is None or cand < u_tilde:
            u_tilde = cand
    numers = []
    for c in ints:
        ui = max(Fraction(c, total), u_tilde)
        scaled = ui * total
        if scaled.denominator != 1:
            return None
        numers.append(int(scaled))

    # Lower endpoint: vertex at the most-observed category.
    i_star = int(np.argmax(counts.counts))
    lower = sum(
        (h_fraction(c + (s if i == i_star else 0), total) for i, c in enumerate(ints)),
        Fraction(0),
    )
    upper = sum((h_fraction(k, total) for k in numers), Fraction(0))
    return lower, upper
