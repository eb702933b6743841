"""Shared independent oracles for the test suite.

Everything here deliberately avoids the package's own code paths: scipy
special functions, plain numpy formulas, and exact Fraction arithmetic act
as the second route that the package's closed forms are checked against.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import digamma as sp_digamma


def harmonic_exact(k: int) -> Fraction:
    """Exact harmonic number, summed with Fractions."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def inverse_squares_exact(k: int) -> Fraction:
    """Exact partial sum of 1/i^2."""
    return sum((Fraction(1, i * i) for i in range(1, k + 1)), Fraction(0))


def _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, fa, flm, fm, left, depth - 1) + _adaptive_simpson(
        f, m, b, tol / 2.0, fm, frm, fb, right, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11) -> float:
    """Adaptive Simpson quadrature of ``f`` on ``[a, b]``."""
    if b < a:
        raise ValueError("integration bounds out of order")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth=48)


def erf_by_quadrature(y: float) -> float:
    """Error function by adaptive Simpson integration of exp(-t^2), to ~1e-13."""
    if y == 0.0:
        return 0.0
    if y < 0.0:
        return -erf_by_quadrature(-y)
    if y >= 6.0:
        return 1.0
    return 2.0 / math.sqrt(math.pi) * adaptive_simpson(lambda t: math.exp(-t * t), 0.0, y, 1e-13)


def h_scipy(u, total):
    """Entropy summand via scipy digamma (independent implementation)."""
    u = np.asarray(u, dtype=float)
    return np.where(u > 0, u * (sp_digamma(total + 1.0) - sp_digamma(total * u + 1.0)), 0.0)


def expected_entropy_scipy(u, total) -> float:
    return float(h_scipy(u, total).sum())


def expected_mi_scipy(u_cells, total) -> float:
    """Three-entropy expected MI via scipy digamma."""
    u = np.asarray(u_cells, dtype=float)
    return float(
        h_scipy(u.sum(axis=1), total).sum()
        + h_scipy(u.sum(axis=0), total).sum()
        - h_scipy(u, total).sum()
    )


def shannon_entropy(chances: np.ndarray) -> np.ndarray:
    """Plain Shannon entropy of chance rows (natural log)."""
    p = np.asarray(chances, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def mutual_information_of_chances(chances: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Plain MI of chance rows over a d1 x d2 table (natural log)."""
    p = np.asarray(chances, dtype=float).reshape(-1, d1, d2)
    pr = p.sum(axis=2)
    pc = p.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / (pr[:, :, None] * pc[:, None, :])), 0.0)
    return terms.sum(axis=(1, 2))


def entropy_objective_direct(counts, cfg):
    """Vectorized expected-entropy objective over u rows, via scipy."""
    total = counts.total + cfg.s

    def objective(u_rows):
        return h_scipy(u_rows, total).sum(axis=1)

    return objective


def mi_objective_direct(tbl, cfg):
    """Vectorized expected-MI objective over (N, d1, d2) u tensors, via scipy."""
    total = tbl.total + cfg.s

    def objective(u_tensors):
        u = np.asarray(u_tensors, dtype=float)
        return (
            h_scipy(u.sum(axis=2), total).sum(axis=1)
            + h_scipy(u.sum(axis=1), total).sum(axis=1)
            - h_scipy(u, total).sum(axis=(1, 2))
        )

    return objective
