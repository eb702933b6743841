"""Independent reference computations used to check the program's outputs.

Nothing here calls into ``idmbounds``: digamma comes from scipy, rationals
from ``fractions``, everything else is plain numpy.  The module imports
scipy at first use, after the timed phase has ended, so neither its import
time nor its memory shows in the measured figures.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_RNG_SALT = 0x5EED


def _digamma(x):
    from scipy.special import digamma

    return digamma(x)


def expected_entropy(u: np.ndarray, total: float) -> np.ndarray:
    """Expected Shannon entropy of Dirichlet posteriors with means ``u``.

    ``u`` has one posterior mean per row (last axis: categories) and
    ``total`` is ``n + s``.  ``sum_i u_i (psi(T+1) - psi(T u_i + 1))``.
    """
    u = np.asarray(u, dtype=float)
    terms = u * (_digamma(total + 1.0) - _digamma(total * u + 1.0))
    return terms.sum(axis=-1)


def expected_mi(u_cells: np.ndarray, total: float) -> np.ndarray:
    """Expected mutual information for rows of ``(..., d1, d2)`` cell means."""
    u = np.asarray(u_cells, dtype=float)
    return (
        expected_entropy(u.sum(axis=-1), total)
        + expected_entropy(u.sum(axis=-2), total)
        - expected_entropy(u.reshape(*u.shape[:-2], -1), total)
    )


def priors(dim: int, seed: int, random_count: int = 6) -> np.ndarray:
    """The vertices of the ``dim``-simplex followed by seeded random points."""
    rng = np.random.default_rng([_RNG_SALT, seed, dim])
    return np.vstack([np.eye(dim), rng.dirichlet(np.ones(dim), size=random_count)])


def posterior_means(counts: np.ndarray, s: float, t: np.ndarray) -> np.ndarray:
    """``u = (n + s t) / (n + s)`` for each prior row of ``t``."""
    counts = np.asarray(counts, dtype=float)
    return (counts.ravel() + s * t) / (counts.sum() + s)


def normal_quantile(p: float) -> float:
    from scipy.stats import norm

    return float(norm.ppf(p))


def mi_variance_leading(table: np.ndarray, s: float) -> float:
    """Leading-order posterior variance of the MI at the uniform prior."""
    table = np.asarray(table, dtype=float)
    total = table.sum() + s
    u = (table + s / table.size) / total
    log_ratio = np.log(u / np.outer(u.sum(axis=1), u.sum(axis=0)))
    mean = (u * log_ratio).sum()
    return float((u * (log_ratio - mean) ** 2).sum() / total)


class Harmonics:
    """Exact harmonic numbers ``H_k`` as Fractions, extended on demand."""

    def __init__(self):
        self._values = [Fraction(0)]

    def __call__(self, k: int) -> Fraction:
        while len(self._values) <= k:
            self._values.append(self._values[-1] + Fraction(1, len(self._values)))
        return self._values[k]


def rational_entropy_endpoints(counts: list[int], s: int, harmonic: Harmonics):
    """Exact entropy-interval endpoints for integral counts and ``s``.

    The lower endpoint puts all prior weight on a most-observed category;
    the upper one levels the smallest posterior means.  Returns
    ``(lower, upper)``, with ``upper`` ``None`` when the leveled means fall
    off the ``1/(n+s)`` grid.
    """
    total = sum(counts) + s

    def h(k: int) -> Fraction:
        return Fraction(k, total) * (harmonic(total) - harmonic(k))

    top = counts.index(max(counts))
    lower = sum(h(c + (s if i == top else 0)) for i, c in enumerate(counts))
    ordered = sorted(counts)
    level = min(
        Fraction(s + sum(ordered[:m]), m * total) for m in range(1, len(ordered) + 1)
    )
    numers = [max(Fraction(c, total), level) * total for c in counts]
    if any(k.denominator != 1 for k in numers):
        return lower, None
    return lower, sum(h(int(k)) for k in numers)


def entropy_errors(counts, s: float, exact, conservative, inner=None, seed: int = 0) -> list[str]:
    """Check entropy intervals against scipy at vertex and random priors.

    Every prior's expected entropy must lie in the exact and conservative
    intervals, the exact lower endpoint must be the minimum over the
    vertices, and the exact and inner intervals must sit inside the
    conservative one.
    """
    flat = np.asarray(counts, dtype=float).ravel()
    d = flat.size
    values = expected_entropy(posterior_means(flat, s, priors(d, seed)), flat.sum() + s)
    (lo, hi), (cons_lo, cons_hi) = exact, conservative
    errors = []
    if not inside(lo, hi, values):
        errors.append("a prior's expected entropy lies outside the exact interval")
    if not inside(cons_lo, cons_hi, values):
        errors.append("a prior's expected entropy lies outside the conservative interval")
    if not close(lo, values[:d].min()):
        errors.append(f"exact lower {lo!r} is not the vertex minimum {values[:d].min()!r}")
    if not inside(cons_lo, cons_hi, [lo, hi]):
        errors.append("exact interval not inside the conservative one")
    if inner is not None and (not inside(cons_lo, cons_hi, inner) or inner[0] > inner[1]):
        errors.append("inner interval not inside the conservative one")
    return errors


def shannon(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of chances (natural log)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def inside(lo: float, hi: float, values, tol: float = 1e-9) -> bool:
    values = np.asarray(values, dtype=float)
    slack = tol * max(1.0, abs(lo), abs(hi))
    return bool(np.all(values >= lo - slack) and np.all(values <= hi + slack))
