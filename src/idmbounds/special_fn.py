"""Digamma/trigamma kernel and the expected-entropy summand.

The expected Shannon entropy of a Dirichlet posterior decomposes into a sum
of the concave scalar function

    h(u) = u * (psi(T + 1) - psi(T * u + 1)),        T = n + s,

whose exact value at integer arguments reduces to rational harmonic sums.
This module provides ``psi`` (digamma) and ``psi'`` (trigamma) through one
shift-and-series routine, the summand ``h`` with its derivative, exact
``Fraction`` versions for golden values, and the Gaussian credible
multiplier ``kappa(alpha)``.

All float kernels accept scalars or numpy arrays and operate elementwise:
an element's value never depends on the other elements of its array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

import numpy as np

__all__ = [
    "EULER_GAMMA", "EntropyKernel", "digamma", "h", "h_fraction", "h_prime",
    "kappa_from_alpha", "trigamma",
]

#: Euler's constant, stored to full double precision.
EULER_GAMMA = 0.57721566490153286

# Arguments below _SHIFT are moved up by exactly _SHIFT recurrence steps, into
# [_SHIFT, 2 * _SHIFT), where seven Bernoulli terms of the asymptotic series
# leave a truncation error below 1e-16.  The (rows x _SHIFT) grid of shifted
# arguments is built _BLOCK_ROWS rows at a time, so its size stays bounded.
_SHIFT = 10
_STEPS = np.arange(_SHIFT, dtype=float)
_BLOCK_ROWS = 1 << 16

_STANDARD_NORMAL = NormalDist()


def _as_positive_array(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.any(arr <= 0):
        raise ValueError("x must be strictly positive")
    return np.atleast_1d(arr), scalar, arr.shape


def _digamma_series(z: np.ndarray) -> np.ndarray:
    # psi(z) ~ log z - 1/(2z) - sum_k B_2k / (2k z^2k), k = 1..7.
    iz = 1.0 / z
    iz2 = iz * iz
    poly = 1 / 132 - iz2 * (691 / 32760 - iz2 / 12)
    poly = 1 / 12 - iz2 * (1 / 120 - iz2 * (1 / 252 - iz2 * (1 / 240 - iz2 * poly)))
    return np.log(z) - 0.5 * iz - iz2 * poly


def _trigamma_series(z: np.ndarray) -> np.ndarray:
    # psi'(z) ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1), k = 1..7.
    iz = 1.0 / z
    iz2 = iz * iz
    poly = 5 / 66 - iz2 * (691 / 2730 - iz2 * 7 / 6)
    poly = 1 / 6 - iz2 * (1 / 30 - iz2 * (1 / 42 - iz2 * (1 / 30 - iz2 * poly)))
    return iz + 0.5 * iz2 + iz * iz2 * poly


def _shift_and_series(x, order: int):
    """``psi`` (order 0) or ``psi'`` (order 1) of every element of ``x > 0``.

    Uses ``psi^(m)(x) = psi^(m)(x + 10) - (-1)^m m! sum_{j<10} (x+j)^-(m+1)``
    for ``x < 10`` and the asymptotic series at ``x`` or ``x + 10``.  Every
    row of the shift grid sums the same ten terms in the same order, so an
    element's result does not depend on its neighbours.
    """
    arr, scalar, shape = _as_positive_array(x)
    small = arr < _SHIFT
    series = _digamma_series if order == 0 else _trigamma_series
    out = series(np.where(small, arr + _SHIFT, arr))
    if small.any():
        xs = arr[small]
        sums = np.empty_like(xs)
        for start in range(0, xs.size, _BLOCK_ROWS):
            grid = xs[start : start + _BLOCK_ROWS, None] + _STEPS
            np.reciprocal(grid, out=grid)
            if order == 1:
                np.square(grid, out=grid)
            np.sum(grid, axis=1, out=sums[start : start + _BLOCK_ROWS])
        out[small] += sums if order == 1 else -sums
    return float(out[0]) if scalar else out.reshape(shape)


def digamma(x):
    """Digamma ``psi(x)`` for ``x > 0``, elementwise on arrays.

    Arguments below 10 are moved up by the recurrence ``psi(x) = psi(x+1)
    - 1/x`` ten steps at once; the result is finished with a seven-term
    asymptotic series.  Integer and non-integer arguments take the same
    path.  The error against mpmath is below 1e-15 * max(1, |psi(x)|) from
    1e-10 to 1e300.

    Raises ``ValueError`` for arguments at or below zero (poles).
    """
    return _shift_and_series(x, 0)


def trigamma(x):
    """Trigamma ``psi'(x)`` for ``x > 0``, elementwise on arrays.

    Same path as :func:`digamma`: ten steps of ``psi'(x) = psi'(x+1) +
    1/x^2`` below 10, then a seven-term asymptotic series.  The error
    against mpmath is below 1e-15 * max(1, psi'(x)).
    """
    return _shift_and_series(x, 1)


@dataclass(frozen=True)
class EntropyKernel:
    """The posterior weight ``total = n + s`` parameterizing ``h``.

    ``psi_total`` is ``psi(total + 1)``, computed once and shared by every
    ``h`` and ``h_prime`` call on this kernel.
    """

    total: float
    psi_total: float = field(init=False)

    def __post_init__(self):
        total = float(self.total)
        if not (np.isfinite(total) and total > 0):
            raise ValueError("total must be a positive finite real")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "psi_total", digamma(total + 1.0))


def _as_unit_interval(u):
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise ValueError("u must be finite")
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("u must lie in [0, 1]")
    return np.clip(np.atleast_1d(arr), 0.0, 1.0), scalar, arr.shape


def h(u, kernel: EntropyKernel):
    """Expected-entropy summand ``h(u) = u * (psi(T+1) - psi(T*u + 1))``.

    ``T`` is ``kernel.total``.  ``h(0) = h(1) = 0`` exactly, and for
    integral ``T`` and ``T*u`` the value equals the rational
    ``u * sum_{k=T*u+1}^{T} 1/k`` (see :func:`h_fraction`).  Elementwise on
    arrays of any shape.
    """
    arr, scalar, shape = _as_unit_interval(u)
    out = arr * (kernel.psi_total - digamma(kernel.total * arr + 1.0))
    return float(out[0]) if scalar else out.reshape(shape)


def h_prime(u, kernel: EntropyKernel):
    """Derivative of the entropy summand.

    ``h'(u) = psi(T+1) - psi(T*u+1) - T*u * psi'(T*u+1)``; monotonically
    decreasing on [0, 1] (``h`` is strictly concave).
    """
    arr, scalar, shape = _as_unit_interval(u)
    tu = kernel.total * arr
    x = tu + 1.0
    out = kernel.psi_total - digamma(x) - tu * trigamma(x)
    return float(out[0]) if scalar else out.reshape(shape)


def h_fraction(numer: int, total: int) -> Fraction:
    """Exact rational ``h(numer/total)`` for integer arguments.

    Equals ``(numer/total) * sum_{k=numer+1}^{total} 1/k``.  Intended for
    golden values at desk scale; cost grows with ``total``.
    """
    if total < 1:
        raise ValueError("total must be a positive integer")
    if not 0 <= numer <= total:
        raise ValueError("numer must lie in [0, total]")
    tail = sum((Fraction(1, k) for k in range(numer + 1, total + 1)), Fraction(0))
    return Fraction(numer, total) * tail


def kappa_from_alpha(alpha: float) -> float:
    """Gaussian credible multiplier: the ``kappa`` with erf(kappa/sqrt 2) = alpha.

    Minus the standard normal quantile ``q`` at ``(1 - alpha) / 2``: the
    upper tail, whose argument is exact for ``alpha >= 1/2``, so ``alpha``
    up to the last double below 1 keeps every digit.  Taken as ``0.0 - q``
    so that ``kappa`` is never ``-0.0``.  Monotone in ``alpha``; ``alpha``
    near 0.9545 gives ``kappa`` near 2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return 0.0 - _STANDARD_NORMAL.inv_cdf((1.0 - alpha) / 2.0)
