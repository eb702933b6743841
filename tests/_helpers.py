"""Shared independent oracles for the test suite.

Everything here deliberately avoids the package's own code paths: scipy
special functions, plain numpy formulas, exact Fraction arithmetic and
60-digit mpmath act as the second route that the package's closed forms are
checked against.  ``assert_same_bits`` compares two results field by field,
and ``peak_traced`` measures what a call allocates.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
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


def expected_entropy_mp(counts, s, t) -> mpmath.mpf:
    """60-digit ``E[H]`` of the Dirichlet posterior with prior mean ``t``.

    Taken from the counts, ``a_i = n_i + s t_i`` and ``A = n + s``, as
    ``sum_i (a_i / A) (psi(A + 1) - psi(a_i + 1))``; floats and ``Fraction``
    entries are converted exactly, never through a rounded posterior mean.
    A category holding all the mass gives exactly 0.
    """
    with mpmath.workdps(60):
        a = [_mp(n) + _mp(s) * _mp(ti) for n, ti in zip(counts, t)]
        total = mpmath.fsum(a)
        psi_total = mpmath.digamma(total + 1)
        return mpmath.fsum(ai / total * (psi_total - mpmath.digamma(ai + 1)) for ai in a)


def expected_mi_mp(table, s, t) -> mpmath.mpf:
    """60-digit ``E[I]`` of the Dirichlet posterior with prior mean ``t``.

    ``table`` is a list of rows and ``t`` its cells in row-major order.
    Taken from the counts, ``a_ij = n_ij + s t_ij`` and ``N = n + s``, per
    cell as ``sum_ij (a_ij / N) [(psi(a_ij + 1) - psi(a_i+ + 1)) -
    (psi(a_+j + 1) - psi(N + 1))]``.  On a 1 x d or d x 1 table the two
    differences of each cell are equal, so the result is exactly 0.
    """
    d2 = len(table[0])
    with mpmath.workdps(60):
        cells = iter(t)
        a = [[_mp(n) + _mp(s) * _mp(next(cells)) for n in row] for row in table]
        # Row-major sums in one order, so a lone row or column sums to N exactly.
        total = mpmath.fsum(x for row in a for x in row)
        rows = [mpmath.fsum(row) for row in a]
        cols = [mpmath.fsum(row[j] for row in a) for j in range(d2)]
        psi = mpmath.digamma
        return mpmath.fsum(
            a[i][j] / total
            * ((psi(a[i][j] + 1) - psi(rows[i] + 1)) - (psi(cols[j] + 1) - psi(total + 1)))
            for i in range(len(table))
            for j in range(d2)
        )


def sigma_at_least(floor):
    """A filter on ``(counts, s)`` cases, counts a vector or a table: keeps
    those with ``s / (n + s) >= floor``."""
    return lambda case: case[1] / (float(np.sum(case[0])) + case[1]) >= floor


def _mp(x) -> mpmath.mpf:
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def entropy_extrema_exact(counts, s) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The exact entropy interval recomputed from the counts at 60 digits.

    The minimum is at the vertex of the most-observed category (first on
    ties).  The maximum levels the ``m`` smallest counts at ``L = (s + sum of
    the m smallest) / m``, with ``m`` minimising ``L`` in exact ``Fraction``
    arithmetic: ``a_i = max(n_i, L)``, which is ``t_i = (a_i - n_i) / s``.
    """
    ns = [Fraction(float(n)) for n in counts]
    s = Fraction(float(s))
    vertex = [Fraction(int(i == ns.index(max(ns)))) for i in range(len(ns))]
    ordered = sorted(ns)
    level = min(
        (s + sum(ordered[:m], Fraction(0))) / m for m in range(1, len(ns) + 1)
    )
    leveled = [(max(n, level) - n) / s for n in ns]
    return expected_entropy_mp(ns, s, vertex), expected_entropy_mp(ns, s, leveled)


#: Every field of a ``RobustEstimate``, primaries and aggregates.
ESTIMATE_FIELDS = (
    "f0", "r_ub_per_i", "r_lb_per_i", "vertex_values", "sigma", "nonneg",
    "r_ub", "r_lb", "inner_upper", "inner_lower", "i1", "i2",
)


def assert_same_bits(got, want, names, context):
    """Every named field equal: arrays by dtype, shape and bytes, scalars by
    type, ``==`` and the sign of zero."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (
                name, context,
            )
        else:
            assert type(a) is type(b) and a == b, (name, context)
            if isinstance(b, float):
                assert math.copysign(1.0, a) == math.copysign(1.0, b), (name, context)


def peak_traced(fn):
    """``(fn(), peak)``: the result of ``fn()`` and the most bytes that
    ``tracemalloc`` saw allocated at once while it ran, the result included."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
