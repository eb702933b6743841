"""Seeded input generation shared by the workloads.

Sizes are drawn *stratified*: ``m`` values over a range take one uniform
draw in each of ``m`` equal strata, in a seeded random order.  Every seed
then covers the whole range evenly, so a run's latency quantiles depend on
the seed only through small jitter, while sizes still vary continuously.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np


class Op(NamedTuple):
    """One operation of a round: a label, the call to time, and its inputs.

    ``fails`` marks an operation that raises on every run because of a known
    fault; any other operation that raises fails the run's checks.
    """

    kind: str
    call: Callable[[], Any]
    data: Any
    fails: bool = False


def strata(rng: np.random.Generator, m: int, lo: float, hi: float, log: bool = False):
    """``m`` stratified draws over ``[lo, hi)``, uniform or log-uniform."""
    u = (rng.permutation(m) + rng.random(m)) / m
    if log:
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return lo + u * (hi - lo)


def int_strata(rng: np.random.Generator, m: int, lo: int, hi: int) -> list[int]:
    """``m`` stratified integers in ``[lo, hi]``."""
    return [int(v) for v in np.floor(strata(rng, m, lo, hi + 1))]


def split_total(
    rng: np.random.Generator, total: float, dim: int, zeros: int, integral: bool
) -> np.ndarray:
    """Random non-negative counts over ``dim`` cells summing to ``total``.

    ``zeros`` cells (never all of them) are forced to zero.  With
    ``integral`` the counts are whole numbers summing to ``round(total)``;
    otherwise they carry two decimals and sum to ``total`` up to rounding.
    """
    weights = rng.dirichlet(np.full(dim, 0.8))
    zeros = min(zeros, dim - 1)
    if zeros:
        weights[rng.choice(dim, size=zeros, replace=False)] = 0.0
        weights /= weights.sum()
    if not integral:
        return np.round(weights * total, 2)
    # Largest remainders: the floors plus one for the cells that lost most.
    total = max(1, round(total))
    exact = weights * total
    counts = np.floor(exact)
    short = total - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1.0
    return counts
