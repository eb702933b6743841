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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval, SimplexPoint, _posterior_means, u_from_t
from .special_fn import _BLOCK_ROWS, EntropyKernel, _entropy_terms, _h_fractions, h, h_prime

__all__ = [
    "ConcaveSummand", "ExtremumResult", "entropy_interval_exact", "entropy_interval_rational",
    "entropy_summand", "max_concave_sum", "min_concave_sum",
]

#: Largest ``n + s`` for which exact rational entropy endpoints are computed.
RATIONAL_TOTAL_LIMIT = 1000


@dataclass(frozen=True)
class ConcaveSummand:
    """A concave scalar summand ``f`` with its derivative.

    ``fn`` and ``deriv`` must be re-entrant and elementwise over numpy
    arrays on [0, 1]: each returns an array of its argument's shape, and an
    element's value depends on that element alone, not on its neighbours or
    the array's length.  Callers rely on it to evaluate several point sets
    in one call (see :func:`~idmbounds.taylor_bounds.concave_remainder_bounds`).
    Both shapes and the concavity are spot-checked at construction on a
    10-point grid: the derivative must be finite and non-increasing there.
    For a convex ``g``, build the summand of ``-g`` and negate the values it
    yields.
    """

    fn: Callable
    deriv: Callable

    def __post_init__(self):
        grid = np.linspace(0.05, 0.95, 10)
        d = np.asarray(self.deriv(grid), dtype=float)
        if d.shape != grid.shape or not np.all(np.isfinite(d)):
            raise ValueError("derivative must be finite and vectorized on [0, 1]")
        if np.shape(self.fn(grid)) != grid.shape:
            raise ValueError("fn must be vectorized on [0, 1]: one value per element")
        slack = 1e-9 * max(1.0, float(np.abs(d).max()))
        if np.any(np.diff(d) > slack):
            raise ValueError("declared concave but derivative increases on [0, 1]")

    def _values_and_derivs(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(fn(points), deriv(points))``, each checked to have the points' shape.

        Calls ``deriv`` first, then ``fn``, once each.
        """
        derivs = _summand_values(self.deriv, points, "deriv")
        return _summand_values(self.fn, points, "fn"), derivs


@dataclass(frozen=True)
class _EntropySummand(ConcaveSummand):
    """``h`` on ``kernel``: concave by theorem, so not spot-checked.

    Its remainder terms come from :func:`_row_terms`, with the bits of
    ``fn`` and ``deriv``, which it does not call.
    """

    kernel: EntropyKernel

    def __post_init__(self):
        pass


@dataclass(frozen=True, eq=False)
class ExtremumResult:
    """An extremum value together with a canonical witness.

    The witness is the prior mean ``t_star`` and its posterior mean
    ``u_star = u_from_t(counts, cfg, t_star)``, a read-only float array, and
    ``value`` is ``sum_i f(u_star_i)``.  ``vertex_index`` is the index of
    ``t_star``'s one nonzero component when it has only one; else, at a
    maximum with ``m_star`` (the leveling count) 1, the least-observed
    category's.  Ties are always broken toward the smallest index, so
    witnesses are deterministic.
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
        kernel=kernel,
    )


def min_concave_sum(counts: CountVector, cfg: IdmConfig, f: ConcaveSummand) -> ExtremumResult:
    """Global minimum of ``sum_i f(u_i)`` for concave ``f``.

    The minimizer puts all prior weight on the most-observed category:
    ``t* = e_i`` with ``i = argmax n_i`` (smallest index on ties).  A
    summand whose output does not match its argument's shape raises
    ``ValueError``.
    """
    i_star = int(np.argmax(counts.counts))
    return _extremum(counts, cfg, f, np.arange(counts.dim) == i_star, i_star)


def max_concave_sum(counts: CountVector, cfg: IdmConfig, f: ConcaveSummand) -> ExtremumResult:
    """Global maximum of ``sum_i f(u_i)`` for concave ``f``.

    Sorting counts ascending, the maximizer levels the ``m`` smallest
    posterior means at ``u_tilde = (s + sum of m smallest counts) /
    (m (n+s))``, with ``m`` chosen to minimize ``u_tilde`` (all ``m`` are
    enumerated; the running minimum is not trusted blindly).  The result is
    ``u*_i = max(u0_i, u_tilde)``; when ``m = 1`` the maximum sits at the
    vertex of the least-observed category.  A summand whose output does not
    match its argument's shape raises ``ValueError``.
    """
    t, m_star, vertex_index = _leveled_prior(counts, cfg)
    return _extremum(counts, cfg, f, t, vertex_index, m_star)


def _extremum(counts, cfg, f, t, vertex_index, m_star=None) -> ExtremumResult:
    """The witness of the prior mean ``t``, a plain array, and the value there."""
    t_star = SimplexPoint(t)
    u_star = u_from_t(counts, cfg, t_star)
    value = float(np.sum(_summand_values(f.fn, u_star, "fn")))
    return ExtremumResult(value, u_star, t_star, vertex_index, m_star)


def _leveled_prior(counts: CountVector, cfg: IdmConfig) -> tuple[np.ndarray, int, Optional[int]]:
    """The water-filling maximum's prior mean ``t*``, a plain array, its
    leveling count ``m*`` and, when ``t*`` is a vertex, that vertex's index."""
    n = counts.counts
    u0 = _posterior_means(n, counts.total, cfg.s, 0.0)
    denom = counts.total + cfg.s
    order = n.argsort(kind="stable")
    prefix = n[order].cumsum()
    m = np.arange(1, counts.dim + 1)
    # m (n+s) overflows when n + s is within a factor m of the float
    # maximum: divide in two steps there instead of by infinity.
    with np.errstate(over="ignore"):
        scale = m * denom
    candidates = (cfg.s + prefix) / scale
    big = np.isinf(scale)
    candidates[big] = (cfg.s + prefix[big]) / m[big] / denom
    m_star = int(candidates.argmin()) + 1
    u_tilde = float(candidates[m_star - 1])

    u_vec = np.maximum(u0, u_tilde)
    # t* = (u* (n+s) - n) / s loses digits when s << n: clip and renormalise
    # so the witness is on the simplex by construction.
    t = np.maximum(u_vec * denom - n, 0.0)
    if not t.any():
        # s too small to move u in floating point: u == u0 for every t; any
        # witness is valid.
        t[order[0]] = 1.0
    with np.errstate(over="ignore"):
        mass = t.sum()
    # With s near the float maximum the mass can round past it, and t / inf
    # is all zeros; halving first is exact at that scale.
    t = t / mass if math.isfinite(mass) else t / 2.0 / (t / 2.0).sum()
    # Rounding can leave t* at a vertex whatever m* is.
    nonzero = t.nonzero()[0]
    if nonzero.size == 1:
        return t, m_star, int(nonzero[0])
    return t, m_star, int(order[0]) if m_star == 1 else None


def _summand_values(fn: Callable, points: np.ndarray, name: str) -> np.ndarray:
    """``fn(points)`` as floats, or ``ValueError`` unless it has their shape."""
    out = np.asarray(fn(points), dtype=float)
    if out.shape != points.shape:
        raise ValueError(
            f"summand {name} returned shape {out.shape} for points of shape "
            f"{points.shape}; it must be elementwise"
        )
    return out


def _point_set(counts: CountVector, cfg: IdmConfig, priors: np.ndarray) -> np.ndarray:
    """The posterior means of each row of the prior means ``priors``, in turn."""
    return _posterior_means(counts.counts, counts.total, cfg.s, priors).ravel()


def _extreme_points(counts: CountVector, cfg: IdmConfig) -> np.ndarray:
    """The minimum's and the maximum's posterior means, stacked: ``2 d`` points."""
    priors = np.zeros((2, counts.dim))
    priors[0, counts.counts.argmax()] = 1.0
    priors[1] = _leveled_prior(counts, cfg)[0]
    return _point_set(counts, cfg, priors)


def _remainder_points(counts: CountVector, cfg: IdmConfig) -> np.ndarray:
    """The baseline ``u0`` and the vertex coordinates, stacked: ``2 d`` points."""
    # t = 0 and t = 1 broadcast against the counts: the baseline u0 and every
    # vertex coordinate (n_k + s)/(n + s), in one map.
    return _point_set(counts, cfg, np.array([[0.0], [1.0]]))


def _row_terms(rows, *, extreme: bool, remainder: bool) -> list:
    """The entropy terms of each ``(counts, cfg, total)`` row, in at most one pass.

    Per row, ``(extreme_values, values, slopes)``: ``h`` at
    :func:`_extreme_points` on kernel ``counts.total + cfg.s``, and ``h`` and
    ``h'`` at :func:`_remainder_points` on kernel ``total``, with the bits of
    separate :func:`~idmbounds.special_fn._entropy_terms` calls.  A set not
    asked for may be ``None``.

    Each count vector keeps the terms of its last ``(s, total)`` in one
    entry, stored in a single assignment after the pass succeeds.  Rows whose
    entry holds what they need take no pass; the others share one.  A row
    asked for its extreme set takes its remainder set in the same pass (one
    broadcast map), but not the reverse, which would sort the counts.  A row
    whose two sets would exceed one ``_BLOCK_ROWS`` block, or whose
    ``total`` is not finite, takes only what it is asked for and stores
    nothing.
    """
    groups, plans = [], []
    for counts, cfg, total in rows:
        key = (cfg.s, total)
        entry = counts.__dict__.get("_terms")
        if entry is None or entry[0] != key:
            entry = (key, None, None, None)
        # A row that may not store never has an entry to read.
        keep = 4 * counts.counts.size <= _BLOCK_ROWS and math.isfinite(total)
        take_extreme = extreme and entry[1] is None
        take_remainder = (remainder or keep) and entry[2] is None
        if take_extreme:
            groups.append((counts.total + cfg.s, _extreme_points(counts, cfg)))
        if take_remainder:
            groups.append((total, _remainder_points(counts, cfg)))
        plans.append((counts, entry, take_extreme, take_remainder, keep))
    terms = iter(_entropy_terms(groups) if groups else ())
    out = []
    for counts, (key, extreme_values, values, slopes), take_extreme, take_remainder, keep in plans:
        if take_extreme:
            extreme_values = next(terms)[0]
        if take_remainder:
            values, slopes = next(terms)
        if keep and (take_extreme or take_remainder):
            object.__setattr__(counts, "_terms", (key, extreme_values, values, slopes))
        out.append((extreme_values, values, slopes))
    return out


def _extreme_interval(values: np.ndarray) -> Interval:
    """The interval from summand values at :func:`_extreme_points`."""
    lower, upper = (float(part.sum()) for part in values.reshape(2, -1))
    # The minimiser is feasible too, so the maximum is at least its value;
    # with huge counts and a tiny s, rounding alone can cross the two.
    return Interval(lower, max(lower, upper))


def entropy_interval_exact(counts: CountVector, cfg: IdmConfig) -> Interval:
    """The exact robust interval of the expected entropy.

    Both extrema's points and ``psi(n + s + 1)`` take at most one
    special-function pass; none when ``counts`` has already answered at this
    strength (see :class:`~idmbounds.simplex_core.CountVector`).  Every bit
    is that of :func:`min_concave_sum` and :func:`max_concave_sum` with
    :func:`entropy_summand`.
    """
    rows = [(counts, cfg, counts.total + cfg.s)]
    [(values, _, _)] = _row_terms(rows, extreme=True, remainder=False)
    return _extreme_interval(values)


def _integral(x: float) -> Optional[int]:
    return int(x) if x.is_integer() else None


def entropy_interval_rational(
    counts: CountVector, cfg: IdmConfig
) -> Optional[tuple[Fraction, Fraction]]:
    """Exact rational endpoints of the entropy interval, when they exist.

    Requires exactly integral counts and ``s`` with ``n + s`` at most
    :data:`RATIONAL_TOTAL_LIMIT`, and an upper extremum whose leveled
    coordinates stay on the ``1/(n+s)`` grid.  Returns ``None`` whenever
    any of that fails, before any ``Fraction`` is summed; the float interval
    is always available instead.  Both endpoints share one harmonic tail
    sum of at most ``n + s`` terms.
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

    # Lower endpoint: vertex at the most-observed category.  One harmonic
    # tail serves every coordinate of both endpoints.
    i_star = int(np.argmax(counts.counts))
    lower_numers = [c + (s if i == i_star else 0) for i, c in enumerate(ints)]
    hs = _h_fractions(lower_numers + numers, total)
    lower = sum((hs[k] for k in lower_numers), Fraction(0))
    upper = sum((hs[k] for k in numers), Fraction(0))
    return lower, upper
