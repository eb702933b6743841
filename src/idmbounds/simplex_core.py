"""Domain types for categorical counts under the imprecise Dirichlet model.

The imprecise Dirichlet model (IDM) places a *set* of Dirichlet priors on the
chances of a categorical i.i.d. process: the total prior strength ``s`` is
fixed while the prior mean ``t`` ranges over the whole probability simplex.
Every Bayesian estimator considered in this package depends on the data and
the prior only through the posterior-mean coordinates

    u_i = (n_i + s * t_i) / (n + s),

so the central objects here are counts, the strength ``s``, simplex points
``t``, the induced posterior means ``u``, and the ``[lower, upper]`` interval
type that every robust estimator returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Tolerance for simplex-membership checks.  Boundary points are legal; the
#: open/closed distinction is numerically irrelevant at this scale.
SIMPLEX_TOL = 1e-9


def _finite_total(arr: np.ndarray) -> float:
    """The sum of ``arr``; raises, without an overflow warning, if it is not finite."""
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not np.isfinite(total):
        raise ValueError("the total of the counts must be finite")
    return total


def _readonly_1d(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CountVector:
    """Observed category counts ``n_i``.

    Counts are non-negative reals; fractional values are legal (sweeps over
    continuously scaled samples use them).  Their total must be finite.  The
    dimension is implied by the length.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = _readonly_1d(self.counts, "counts")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        _finite_total(arr)
        object.__setattr__(self, "counts", arr)

    @property
    def dim(self) -> int:
        return self.counts.size

    @property
    def total(self) -> float:
        """Total sample size n."""
        return float(self.counts.sum())


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


def validate_simplex(t, tol: float = SIMPLEX_TOL) -> bool:
    """True iff ``t`` lies on the closed probability simplex within ``tol``.

    Components may undershoot zero by at most ``tol`` (they are clamped on
    acceptance by :class:`SimplexPoint`) and the sum must be within ``tol``
    of one.  Pure predicate: never raises on bad candidate values.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    return bool(np.all(arr >= -tol) and abs(float(arr.sum()) - 1.0) <= tol)


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point ``t`` on the closed probability simplex.

    Membership is checked within :data:`SIMPLEX_TOL`; negative components
    within tolerance are clamped to exactly zero on construction.
    """

    t: np.ndarray

    def __post_init__(self):
        arr = np.array(self.t, dtype=float)
        if not validate_simplex(arr, SIMPLEX_TOL):
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


@dataclass(frozen=True, eq=False)
class PosteriorMean:
    """Posterior mean ``u`` with its baseline ``u0`` and expansion scale.

    ``u0_i = n_i / (n + s)`` is the image of ``t = 0`` and ``sigma =
    s / (n + s)`` bounds every displacement: ``0 <= u_i - u0_i <= sigma``.
    Valid points satisfy ``u_i >= u0_i`` and ``sum(u) == 1`` within
    tolerance (the sum-relaxed extension used for remainder bounds admits
    ``sum(u) <= 1`` and is never materialized as a type).

    The type of the ``u_star`` witness of the exact extrema, which demo
    ``01`` prints; :func:`u_from_t` builds it.
    """

    u: np.ndarray
    u0: np.ndarray
    sigma: float

    def __post_init__(self):
        u = _readonly_1d(self.u, "u")
        u0 = _readonly_1d(self.u0, "u0")
        if u.size != u0.size:
            raise ValueError("u and u0 must have the same length")
        if not 0 <= self.sigma <= 1:
            raise ValueError("sigma must lie in [0, 1]")
        if np.any(u < u0 - SIMPLEX_TOL):
            raise ValueError("u must dominate the baseline u0 componentwise")
        if abs(float(u.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError("u must sum to one")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def dim(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class Interval:
    """An ordered pair ``[lower, upper]`` of reals."""

    lower: float
    upper: float

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if not (np.isfinite(lower) and np.isfinite(upper)):
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
    return cfg.s / (counts.total + cfg.s)


def u_from_t(counts: CountVector, cfg: IdmConfig, t: SimplexPoint) -> PosteriorMean:
    """Map a prior mean ``t`` to the posterior mean ``u``.

    Applies ``u_i = (n_i + s * t_i) / (n + s)`` componentwise.  The result
    dominates the baseline ``u0`` and sums to one; the map is affine in
    ``t``.
    """
    if t.dim != counts.dim:
        raise ValueError(f"dimension mismatch: counts has {counts.dim}, t has {t.dim}")
    denom = counts.total + cfg.s
    u = (counts.counts + cfg.s * t.t) / denom
    u0 = counts.counts / denom
    return PosteriorMean(u=u, u0=u0, sigma=cfg.s / denom)
