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
from functools import cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

import numpy as np

from .simplex_core import CountVector, IdmConfig, Interval, SimplexPoint, _posterior_means, u_from_t
from .special_fn import _BLOCK_ROWS, EntropyKernel, _entropy_terms, h, h_prime

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
    t, m_star = _leveled_prior(_one_row(counts, cfg))
    t, m_star = t[0, 0], int(m_star[0])
    # Rounding can leave t* at a vertex whatever m* is.
    nonzero = t.nonzero()[0]
    if nonzero.size == 1:
        vertex_index = int(nonzero[0])
    else:
        vertex_index = int(counts.counts.argmin()) if m_star == 1 else None
    return _extremum(counts, cfg, f, t, vertex_index, m_star)


def _extremum(counts, cfg, f, t, vertex_index, m_star=None) -> ExtremumResult:
    """The witness of the prior mean ``t``, a plain array, and the value there."""
    t_star = SimplexPoint(t)
    u_star = u_from_t(counts, cfg, t_star)
    value = float(np.sum(_summand_values(f.fn, u_star, "fn")))
    return ExtremumResult(value, u_star, t_star, vertex_index, m_star)


class _Stack(NamedTuple):
    """Count rows of one dimension, questioned together.

    ``counts`` is a ``(rows, 1, d)`` array, and ``total`` (each row's ``n``)
    and ``s`` (each row's strength) are ``(rows, 1, 1)`` arrays, so that they
    broadcast against the counts and against ``(rows, k, d)`` prior means:
    ``k`` point sets a row.  One count vector is a one-row stack whose
    ``total`` and ``s`` are floats, which broadcast the same way.
    """

    counts: np.ndarray
    total: np.ndarray
    s: np.ndarray


def _stack(pairs) -> _Stack:
    """The stack of ``(counts, cfg)`` pairs whose count vectors share one dimension."""
    return _Stack(
        np.array([counts.counts for counts, _ in pairs])[:, None],
        np.array([counts.total for counts, _ in pairs])[:, None, None],
        np.array([cfg.s for _, cfg in pairs])[:, None, None],
    )


def _one_row(counts: CountVector, cfg: IdmConfig) -> _Stack:
    return _Stack(counts.counts[None, None], counts.total, cfg.s)


def _leveled_prior(stack: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """The water-filling maximum's prior means ``t*``, shaped like the
    stack's counts, and each row's leveling count ``m*``.

    Every edge case is a mask over the rows, so a row's bits do not depend
    on the rows stacked with it.
    """
    n, total, s = stack
    u0 = _posterior_means(n, total, s, 0.0)
    denom = total + s
    prefix = n.copy()
    prefix.sort(axis=-1)
    np.add.accumulate(prefix, axis=-1, out=prefix)
    m = np.arange(1, n.shape[-1] + 1)
    with np.errstate(over="ignore"):
        # m (n+s) overflows when n + s is within a factor m of the float
        # maximum: divide in two steps there instead of by infinity.
        scale = m * denom
        candidates = (s + prefix) / scale
        if scale.max() == np.inf:
            candidates = np.where(np.isinf(scale), (s + prefix) / m / denom, candidates)
        m_star = candidates.argmin(axis=-1)[:, 0] + 1
        u_vec = np.maximum(u0, candidates.min(axis=-1, keepdims=True))
        # t* = (u* (n+s) - n) / s loses digits when s << n: clip and
        # renormalise so the witness is on the simplex by construction.
        t = np.maximum(u_vec * denom - n, 0.0)
        mass = t.sum(axis=-1, keepdims=True)
    if not mass.all():
        # s too small to move u in floating point: u == u0 for every t; any
        # witness is valid.  The first least-observed category takes it.
        still = mass[:, 0, 0] == 0.0
        t[still, 0, n[still, 0].argmin(axis=-1)] = 1.0
        mass[still] = 1.0
    if mass.max() < np.inf:
        return t / mass, m_star
    # With s near the float maximum the mass can round past it, and t / inf
    # is all zeros; halving first is exact at that scale.
    half = t / 2.0
    finite = np.isfinite(mass)
    return np.where(finite, t / mass, half / half.sum(axis=-1, keepdims=True)), m_star


def _summand_values(fn: Callable, points: np.ndarray, name: str) -> np.ndarray:
    """``fn(points)`` as floats, or ``ValueError`` unless it has their shape."""
    out = np.asarray(fn(points), dtype=float)
    if out.shape != points.shape:
        raise ValueError(
            f"summand {name} returned shape {out.shape} for points of shape "
            f"{points.shape}; it must be elementwise"
        )
    return out


def _point_set(stack: _Stack, priors) -> np.ndarray:
    """Each row's posterior means at its prior means ``priors``, ``(rows, k, d)``
    or broadcast to it, in turn: ``k d`` points a row."""
    n, total, s = stack
    return _posterior_means(n, total, s, priors).reshape(n.shape[0], -1)


def _point_sets(stack: _Stack) -> np.ndarray:
    """Each row's extreme set, then its remainder set: ``4 d`` points a row.

    The extreme set is the minimum's and the maximum's posterior means, the
    remainder set the baseline ``u0`` and every vertex coordinate ``(n_k +
    s)/(n + s)`` (see :func:`_remainder_points`); one map of stacked prior
    means gives both.
    """
    rows, _, d = stack.counts.shape
    priors = np.zeros((rows, 4, d))
    priors[np.arange(rows), 0, stack.counts.argmax(axis=-1)[:, 0]] = 1.0
    priors[:, 1:2] = _leveled_prior(stack)[0]
    priors[:, 3] = 1.0
    return _point_set(stack, priors)


def _remainder_points(stack: _Stack) -> np.ndarray:
    """Each row's baseline ``u0`` and vertex coordinates: ``2 d`` points a row."""
    # t = 0 and t = 1 broadcast against the counts: the baseline u0 and every
    # vertex coordinate (n_k + s)/(n + s), in one map.
    return _point_set(stack, np.array([[0.0], [1.0]]))


def _row_terms(rows, *, extreme: bool, remainder: bool) -> list:
    """The entropy terms of each ``(counts, cfg, total)`` row, in at most one pass.

    Per row, ``(extreme_values, values, slopes)``: ``h`` at the extreme set
    of :func:`_point_sets` on kernel ``counts.total + cfg.s``, and ``h`` and
    ``h'`` at :func:`_remainder_points` on kernel ``total``, with the bits of
    separate :func:`~idmbounds.special_fn._entropy_terms` calls.  A set not
    asked for may be ``None``.

    Each count vector keeps the terms of its last ``(s, total)`` in one
    entry, stored in a single assignment after the pass succeeds.  Rows whose
    entry holds what they need take no pass; the others share one.  A row
    asked for its extreme set takes its remainder set in the same pass (one
    map), but not the reverse, which would sort the counts.  A row
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
            points = _point_sets(_one_row(counts, cfg))[0]
            groups.append((counts.total + cfg.s, points[: 2 * counts.dim]))
        if take_remainder:
            if not take_extreme:
                points = _remainder_points(_one_row(counts, cfg))[0]
            # The remainder set is the last 2 d points either way.
            groups.append((total, points[-2 * counts.dim :]))
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


def _extreme_ends(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's interval ends from summand values at the extreme set of
    :func:`_point_sets`.

    ``values`` has ``2 d`` values a row along its last axis; the ends have
    its other axes.
    """
    sums = values.reshape(*values.shape[:-1], 2, -1).sum(axis=-1)
    lower, upper = sums[..., 0], sums[..., 1]
    # The minimiser is feasible too, so the maximum is at least its value;
    # with huge counts and a tiny s, rounding alone can cross the two.
    return lower, np.where(upper > lower, upper, lower)


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
    return Interval(*_extreme_ends(values))


def _integral(x: float) -> Optional[int]:
    return int(x) if x.is_integer() else None


def entropy_interval_rational(
    counts: CountVector, cfg: IdmConfig
) -> Optional[tuple[Fraction, Fraction]]:
    """Exact rational endpoints of the entropy interval, when they exist.

    Requires exactly integral counts and ``s`` with ``n + s`` at most
    :data:`RATIONAL_TOTAL_LIMIT`, and an upper extremum whose leveled
    coordinates stay on the ``1/(n+s)`` grid.  Returns ``None`` whenever
    any of that fails, before the harmonic table is read; the float interval
    is always available instead.  With ``T = n + s``, each endpoint is
    ``sum_i k_i (N_T - N_k_i) / (L T)`` over its numerators ``k_i``, an
    integer sum over the table of :func:`_harmonic_table` and one
    ``Fraction``.
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

    # Upper endpoint first: the leveling value over sorted counts, the least
    # (s + prefix) / (m total) compared by cross-multiplication, is above the
    # smallest count, so it must be a whole multiple of 1/total.
    ordered = sorted(ints)
    level, least = s + ordered[0], 1
    prefix = ordered[0]
    for m, c in enumerate(ordered[1:], start=2):
        prefix += c
        if (s + prefix) * least < level * m:
            level, least = s + prefix, m
    level, off_grid = divmod(level, least)
    if off_grid:
        return None
    numers = [max(c, level) for c in ints]

    # Lower endpoint: vertex at the most-observed category.
    i_star = int(np.argmax(counts.counts))
    lower_numers = [c + (s if i == i_star else 0) for i, c in enumerate(ints)]
    lcm, harmonic = _harmonic_table()
    tail = harmonic[total]
    lower, upper = (
        Fraction(sum(k * (tail - harmonic[k]) for k in ks), lcm * total)
        for ks in (lower_numers, numers)
    )
    return lower, upper


@cache
def _harmonic_table() -> tuple[int, list[int]]:
    """``(L, N)`` with ``L = lcm(1, ..., RATIONAL_TOTAL_LIMIT)`` and
    ``N[k] = L H_k``, an integer for every ``k`` up to the limit.

    Built on first use (about 0.4 ms, 230 KB) and kept: the cache stores the
    finished table in one step, so a thread never sees it half built.
    """
    lcm = math.lcm(*range(1, RATIONAL_TOTAL_LIMIT + 1))
    return lcm, list(accumulate((lcm // k for k in range(1, RATIONAL_TOTAL_LIMIT + 1)), initial=0))
