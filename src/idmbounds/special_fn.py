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

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
# leave a truncation error below 1e-16.  An argument array is evaluated
# _GRID_ROWS elements at a time, so the (rows x _SHIFT) grid of shifted
# arguments (320 KiB) and the series temporaries stay in cache and bounded.
_SHIFT = 10
_STEPS = np.arange(_SHIFT, dtype=float)
_GRID_ROWS = 1 << 12
# Most points one pass over stacked rows takes, shared by the passes that
# batch rows, the CLI sweep feed and the rule for which terms are kept.
_BLOCK_ROWS = 1 << 16
# The smallest arguments whose grid terms 1/x (order 0) and 1/x^2 (order 1)
# are finite; below them psi ~ -1/x and psi' ~ 1/x^2 are beyond the float
# range.
_FLOORS = (float.fromhex("0x0.4000000000001p-1022"), float.fromhex("0x1.0000000000001p-512"))

_STANDARD_NORMAL = NormalDist()


def _as_positive_array(x, floor: float):
    # One min/max pass accepts the argument; the full checks run only to
    # choose which error to raise.
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    if not (flat.size and floor <= flat.min() and flat.max() < np.inf):
        if not np.all(np.isfinite(arr)):
            raise ValueError("x must be finite")
        if np.any(arr <= 0):
            raise ValueError("x must be strictly positive")
        if np.any(arr < floor):
            raise ValueError(
                f"x must be at least {floor!r}: below it the value is beyond the float range"
            )
    return flat, arr.ndim == 0, arr.shape


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


_SERIES = (_digamma_series, _trigamma_series)


def _shift_and_series(x, orders: tuple[int, ...]):
    """``psi`` (order 0) and/or ``psi'`` (order 1) of every element of ``x > 0``.

    Returns one result per entry of ``orders``, which is ``(0,)``, ``(1,)``
    or ``(0, 1)``.  Uses ``psi^(m)(x) = psi^(m)(x + 10) - (-1)^m m!
    sum_{j<10} (x+j)^-(m+1)`` for ``x < 10`` and the asymptotic series at
    ``x`` or ``x + 10``.  The argument is checked once and one grid of
    reciprocals ``1/(x+j)`` serves both orders: ``psi`` sums it, and
    ``psi'`` sums it squared in place.  Every row of the grid sums the same
    ten terms in the same order, so an element's result does not depend on
    its neighbours, and the elements are taken ``_GRID_ROWS`` at a time.
    """
    arr, scalar, shape = _as_positive_array(x, _FLOORS[orders[-1]])
    outs = [np.empty_like(arr) for _ in orders]
    for start in range(0, arr.size, _GRID_ROWS):
        block = slice(start, start + _GRID_ROWS)
        part = arr[block]
        small = part < _SHIFT
        z = np.where(small, part + _SHIFT, part)
        for m, out in zip(orders, outs):
            out[block] = _SERIES[m](z)
        xs = part[small]
        if xs.size:
            grid = xs[:, None] + _STEPS
            np.reciprocal(grid, out=grid)
            for m, out in zip(orders, outs):
                if m == 1:
                    np.square(grid, out=grid)
                acc = np.sum(grid, axis=1)
                out[block][small] += acc if m == 1 else -acc
    if scalar:
        return [float(out[0]) for out in outs]
    return [out.reshape(shape) for out in outs]


def digamma(x):
    """Digamma ``psi(x)`` for ``x > 0``, elementwise on arrays.

    Arguments below 10 are moved up by the recurrence ``psi(x) = psi(x+1)
    - 1/x`` ten steps at once; the result is finished with a seven-term
    asymptotic series.  Integer and non-integer arguments take the same
    path.  The error against mpmath is below 1e-15 * max(1, |psi(x)|) from
    1e-10 to 1e300.

    Raises ``ValueError`` for arguments at or below zero (poles), and below
    about 5.6e-309, where ``psi(x) ~ -1/x`` is beyond the float range.
    """
    return _shift_and_series(x, (0,))[0]


def trigamma(x):
    """Trigamma ``psi'(x)`` for ``x > 0``, elementwise on arrays.

    Same path as :func:`digamma`: ten steps of ``psi'(x) = psi'(x+1) +
    1/x^2`` below 10, then a seven-term asymptotic series.  The error
    against mpmath is below 1e-15 * max(1, psi'(x)).

    Raises ``ValueError`` for arguments at or below zero (poles), and below
    about 7.5e-155, where ``psi'(x) ~ 1/x^2`` is beyond the float range.
    """
    return _shift_and_series(x, (1,))[0]


@dataclass(frozen=True)
class EntropyKernel:
    """The posterior weight ``total = n + s`` parameterizing ``h``.

    Construction checks ``total`` and runs no special-function pass.
    ``psi_total`` is ``psi(total + 1)``, computed on first read and cached
    for every later ``h`` and ``h_prime`` call on this kernel.  It is a
    property, not a dataclass field, so equality, hashing and ``repr`` see
    ``total`` alone.  The fused paths (see :func:`_entropy_terms`) take
    ``psi(total + 1)`` in their own pass and never read it.
    """

    total: float

    def __post_init__(self):
        object.__setattr__(self, "total", _kernel_total(self.total))

    @cached_property
    def psi_total(self) -> float:
        return digamma(self.total + 1.0)


def _kernel_total(total) -> float:
    """``total`` as a float, or ``ValueError`` unless it is positive and finite."""
    total = float(total)
    if not (np.isfinite(total) and total > 0):
        raise ValueError("total must be a positive finite real")
    return total


def _as_unit_interval(u):
    # One min/max pass accepts [0, 1] as it is (a -0.0 stays -0.0); the
    # full checks run only for arguments outside it, to clip the 1e-12
    # slack or to choose which error to raise.
    arr = np.asarray(u, dtype=float)
    flat = np.atleast_1d(arr)
    if not (flat.size and 0.0 <= flat.min() and flat.max() <= 1.0):
        if not np.all(np.isfinite(arr)):
            raise ValueError("u must be finite")
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise ValueError("u must lie in [0, 1]")
        flat = np.clip(flat, 0.0, 1.0)
    return flat, arr.ndim == 0, arr.shape


def h(u, kernel: EntropyKernel):
    """Expected-entropy summand ``h(u) = u * (psi(T+1) - psi(T*u + 1))``.

    ``T`` is ``kernel.total``.  ``h(0) = h(1) = 0`` exactly, and for
    integral ``T`` and ``T*u`` the value equals the rational
    ``u * sum_{k=T*u+1}^{T} 1/k`` (see :func:`h_fraction`).  Elementwise on
    arrays of any shape.
    """
    arr, scalar, shape = _as_unit_interval(u)
    out = _summand(arr, kernel.psi_total, digamma(kernel.total * arr + 1.0))
    return float(out[0]) if scalar else out.reshape(shape)


def h_prime(u, kernel: EntropyKernel):
    """Derivative of the entropy summand.

    ``h'(u) = psi(T+1) - psi(T*u+1) - T*u * psi'(T*u+1)``; monotonically
    decreasing on [0, 1] (``h`` is strictly concave).
    """
    arr, scalar, shape = _as_unit_interval(u)
    tu = kernel.total * arr
    psi, psi1 = _shift_and_series(tu + 1.0, (0, 1))
    out = _summand_slope(tu, kernel.psi_total, psi, psi1)
    return float(out[0]) if scalar else out.reshape(shape)


def _summand(u, psi_total, psi):
    # h(u) = u (psi(T+1) - psi(T u + 1)), with psi = psi(T u + 1).
    return u * (psi_total - psi)


def _summand_slope(tu, psi_total, psi, psi1):
    # h'(u) = psi(T+1) - psi(T u + 1) - T u psi'(T u + 1), with tu = T u.
    return psi_total - psi - tu * psi1


def _entropy_terms(groups, *, slopes: bool = True) -> list[tuple[np.ndarray, np.ndarray]]:
    """``h`` and ``h'`` at every point of every ``(total, u)`` group, in one pass.

    ``u`` is an array of points on [0, 1] and ``total`` a kernel total ``T``
    for all of them, or, for a stack of rows, a 1-D array of one ``T`` per
    row of ``u``'s leading axis; every ``T`` must be positive and finite.
    A single :func:`_shift_and_series` call takes ``psi`` and ``psi'`` at
    each distinct ``T + 1`` and at every ``T u + 1``; each element is
    evaluated independently of its neighbours, so every value is the one
    ``h(u, EntropyKernel(T))`` and ``h_prime`` give.  Returns one
    ``(h, h')`` pair of read-only arrays of ``u``'s shape per group, in
    order, so that a caller may keep them (see
    :func:`~idmbounds.exact_extrema._row_terms`).  Without ``slopes`` the
    pass takes ``psi`` alone, which costs about half as much where ``T u``
    is small, and each ``h'`` is ``None``.
    """
    # One (total, points) run per group, or per row of a stacked group.
    totals, sizes = [], []
    for total, u in groups:
        if isinstance(total, np.ndarray):
            totals += total.tolist()
            sizes += [u.size // total.size] * total.size
        else:
            totals.append(total)
            sizes.append(u.size)
    # Each distinct total's position among the kernels, in order of first use.
    index = dict.fromkeys(totals)
    if not all(0.0 < total < np.inf for total in index):
        raise ValueError("total must be a positive finite real")
    for position, total in enumerate(index):
        index[total] = position
    arr = _as_unit_interval(np.concatenate([u.ravel() for _, u in groups]))[0]
    tu = np.repeat(totals, sizes) * arr
    x = np.concatenate([np.add(list(index), 1.0), tu + 1.0])
    psi, *psi1 = _shift_and_series(x, (0, 1) if slopes else (0,))
    k = len(index)
    psi_total = np.repeat(psi[[index[total] for total in totals]], sizes)
    values = _summand(arr, psi_total, psi[k:])
    values.flags.writeable = False
    derivs = None
    if slopes:
        derivs = _summand_slope(tu, psi_total, psi[k:], psi1[0][k:])
        derivs.flags.writeable = False
    out, end = [], 0
    for _, u in groups:
        part = slice(end, end + u.size)
        end += u.size
        slope = None if derivs is None else derivs[part].reshape(u.shape)
        out.append((values[part].reshape(u.shape), slope))
    return out


def _require_integer(**values) -> None:
    # Python and numpy integers pass; bool, floats and everything else do not.
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")


def _harmonic_pair(a: int, b: int) -> tuple[int, int]:
    """Integers ``(p, q)`` with ``p / q = sum_{j=a+1}^{b} 1/j``, for ``a < b``.

    Binary splitting: the two halves' pairs are combined with integer
    products only, so no gcd is taken and the operands stay balanced.
    """
    if b - a == 1:
        return 1, b
    mid = (a + b) // 2
    p1, q1 = _harmonic_pair(a, mid)
    p2, q2 = _harmonic_pair(mid, b)
    return p1 * q2 + p2 * q1, q1 * q2


def h_fraction(numer: int, total: int) -> Fraction:
    """Exact rational ``h(numer/total)`` for integer arguments.

    Equals ``(numer/total) * sum_{k=numer+1}^{total} 1/k``; the tail of at
    most ``total`` terms is summed once, by binary splitting.  Bool and
    float arguments raise ``ValueError``.
    """
    _require_integer(numer=numer, total=total)
    if total < 1:
        raise ValueError("total must be a positive integer")
    if not 0 <= numer <= total:
        raise ValueError("numer must lie in [0, total]")
    numer, total = int(numer), int(total)
    if numer == total:
        return Fraction(0)
    return Fraction(numer, total) * Fraction(*_harmonic_pair(numer, total))


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
