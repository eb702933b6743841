"""Domain types for categorical counts under the imprecise Dirichlet model.

The imprecise Dirichlet model (IDM) places a *set* of Dirichlet priors on the
chances of a categorical i.i.d. process: the total prior strength ``s`` is
fixed while the prior mean ``t`` ranges over the whole probability simplex.
Every estimator in this package sees the data and the prior only through

    u_i = (n_i + s * t_i) / (n + s),

and this module alone computes that map (``u``, ``u0`` at ``t = 0``, the
vertex images and ``sigma``) and alone checks what a count array is.  Its
types are counts, the strength ``s``, simplex points ``t`` and the
``[lower, upper]`` interval every robust estimator returns; a posterior mean
``u`` is a read-only float array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIMPLEX_TOL", "CountVector", "IdmConfig", "Interval", "SimplexPoint", "sigma_of",
    "u_from_t", "validate_simplex",
]

#: Tolerance for simplex-membership checks.  Boundary points are legal; the
#: open/closed distinction is numerically irrelevant at this scale.
SIMPLEX_TOL = 1e-9


def _count_array(values, ndim: int, name: str) -> tuple[np.ndarray, float]:
    """A read-only float copy of ``values`` and its total, or ``ValueError``
    (no warning) unless it is a non-empty ``ndim``-dimensional array of
    finite non-negative reals with a finite total."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-dimensional array")
    # A finite total implies finite entries: on valid input one sum checks both.
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(arr.sum())
    if not math.isfinite(total) and not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    if arr.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    if not math.isfinite(total):
        raise ValueError("the total of the counts must be finite")
    arr.flags.writeable = False
    return arr, total


def _posterior_means(counts, total, s, t) -> np.ndarray:
    """``(n_i + s * t_i) / (n + s)`` elementwise, with ``total = n`` and ``counts``
    and ``t`` broadcast.  ``total`` and ``s`` are floats, or, for a stack of
    count rows, arrays of one value per row that broadcast against them.  A
    non-finite ``n + s`` raises ``ValueError``, unwarned; one below the normal
    range is first scaled by the exact ``2**600``, row by row."""
    if isinstance(total, np.ndarray):
        with np.errstate(over="ignore"):
            denom = total + s
        finite = np.isfinite(denom).all()
        tiny = denom < 2.0**-1022
        rescale = tiny.any()
    else:
        denom = total + s
        finite = math.isfinite(denom)
        rescale = tiny = denom < 2.0**-1022
    if not finite:
        raise ValueError("total must be a positive finite real")
    if rescale:
        # Rows in the normal range are scaled by 1, which keeps their bits.
        scale = np.where(tiny, 2.0**600, 1.0)
        counts, s, denom = counts * scale, s * scale, denom * scale
    return (counts + s * t) / denom


@dataclass(frozen=True, eq=False)
class CountVector:
    """Observed category counts ``n_i``.

    Counts are non-negative reals; fractional values are legal (sweeps over
    continuously scaled samples use them).  Their finite total ``n`` is
    cached as ``total``; the dimension is implied by the length.

    The entropy estimators keep the special-function terms of their last
    pass on the vector: one entry, for one strength ``s`` and remainder
    kernel, so a later question at the same strength takes no pass.  A
    vector whose extreme and remainder points together exceed one block of
    ``2**16`` points stores nothing, so its memory stays that of one
    question.  The entry is not a dataclass field: ``repr``, equality and
    :func:`dataclasses.fields` do not see it.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr, total = _count_array(self.counts, 1, "counts")
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "total", total)

    @property
    def dim(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class IdmConfig:
    """Prior strength ``s`` (total virtual-observation count), finite and ``> 0``."""

    s: float

    def __post_init__(self):
        s = float(self.s)
        if not np.isfinite(s):
            raise ValueError("s must be finite")
        if s <= 0:
            raise ValueError("s must be strictly positive")
        object.__setattr__(self, "s", s)


def validate_simplex(t) -> bool:
    """True iff ``t`` lies on the closed probability simplex within :data:`SIMPLEX_TOL`.

    Components may undershoot zero by at most the tolerance (they are
    clamped on acceptance by :class:`SimplexPoint`) and the sum must be
    within it of one.  Pure predicate: never raises on bad candidate values.
    """
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    return bool(np.all(arr >= -SIMPLEX_TOL) and abs(float(arr.sum()) - 1.0) <= SIMPLEX_TOL)


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point ``t`` on the closed probability simplex.

    Membership is checked within :data:`SIMPLEX_TOL`; negative components
    within tolerance are clamped to exactly zero on construction.
    """

    t: np.ndarray

    def __post_init__(self):
        arr = np.array(self.t, dtype=float)
        if not validate_simplex(arr):
            raise ValueError(f"not a simplex point within {SIMPLEX_TOL}: {arr!r}")
        arr[arr < 0] = 0.0
        arr.flags.writeable = False
        object.__setattr__(self, "t", arr)

    @property
    def dim(self) -> int:
        return self.t.size

    @classmethod
    def vertex(cls, dim: int, index: int) -> "SimplexPoint":
        """The vertex ``t_i = delta_{i,index}``."""
        if not 0 <= index < dim:
            raise ValueError(f"vertex index {index} out of range for dimension {dim}")
        t = np.zeros(dim)
        t[index] = 1.0
        return cls(t)

    @classmethod
    def uniform(cls, dim: int) -> "SimplexPoint":
        """The barycenter ``t_i = 1/dim``."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        return cls(np.full(dim, 1.0 / dim))


@dataclass(frozen=True)
class Interval:
    """An ordered pair ``[lower, upper]`` of reals."""

    lower: float
    upper: float

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError("interval endpoints must be finite")
        if lower > upper:
            raise ValueError(f"interval endpoints out of order: [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= value <= self.upper + tol

    def contains_interval(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lower - tol <= other.lower and other.upper <= self.upper + tol


def sigma_of(counts: CountVector, cfg: IdmConfig) -> float:
    """The expansion parameter ``sigma = s / (n + s) = 1 - sum(u0)``."""
    return float(_posterior_means(0.0, counts.total, cfg.s, 1.0))


def u_from_t(counts: CountVector, cfg: IdmConfig, t: SimplexPoint) -> np.ndarray:
    """Map a prior mean ``t`` to the posterior mean ``u``, a read-only float array.

    Applies ``u_i = (n_i + s * t_i) / (n + s)`` componentwise.  The result
    dominates the baseline ``u0 = counts / (n + s)`` (the image of ``t = 0``),
    exceeds it by at most :func:`sigma_of` and sums to one; the map is affine
    in ``t``.
    """
    if t.dim != counts.dim:
        raise ValueError(f"dimension mismatch: counts has {counts.dim}, t has {t.dim}")
    u = _posterior_means(counts.counts, counts.total, cfg.s, t.t)
    u.flags.writeable = False
    return u
