"""Workload ``montecarlo``: seeded Dirichlet posterior sampling per operation.

Each op draws ``DRAWS`` samples at the posterior parameters ``n + s/d``
(uniform prior mean, s = 1) of a count vector or table with exactly one
zero cell, so one shape is below 1.  It then computes the Monte-Carlo
moments of the entropy of the chances (and, for tables, of their mutual
information) and the jackknife standard error of the variance.

A round is 8 ops on each of the 13 shapes of ``SHAPES``, 104 in all, in
seeded order; the seed draws the counts and the sampler seeds.
"""

from __future__ import annotations

import hashlib
import math
from functools import partial

import numpy as np

import idmbounds as idm
import reference as ref
from inputs import Op

SHAPES = ((2,), (3,), (4,), (5,), (6,), (8,), (9,), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3))
PER_SHAPE = 8
DRAWS = 10_000
SIGMAS = 5.0


class Functional:
    """A vectorized functional of chance rows that keeps its last values."""

    def __init__(self, shape):
        self.shape = shape
        self.last = None

    def __call__(self, chances: np.ndarray) -> np.ndarray:
        if len(self.shape) == 1:
            values = ref.shannon(chances)
        else:
            p = chances.reshape(-1, *self.shape)
            values = ref.shannon(p.sum(axis=2)) + ref.shannon(p.sum(axis=1)) - ref.shannon(chances)
        self.last = values
        return values


def sample(alpha: np.ndarray, shape: tuple, draws: int, seed: int):
    chances = idm.dirichlet_draws(alpha, idm.McSpec(draws, seed))
    entropy_of = Functional((alpha.size,))
    entropy = idm.mc_functional_stats(chances, entropy_of)
    values, mi = entropy_of.last, None
    if len(shape) == 2:
        mi_of = Functional(shape)
        mi = idm.mc_functional_stats(chances, mi_of)
        values = mi_of.last
    return chances, entropy, mi, idm.jackknife_variance_stderr(values)


def _params(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    counts = rng.integers(1, 31, size=math.prod(shape)).astype(float)
    counts[rng.integers(counts.size)] = 0.0
    return counts + 1.0 / counts.size


def warm_up() -> None:
    alpha = _params(np.random.default_rng(0), (2, 2))
    sample(alpha, (2, 2), 1000, 1)


def make_round(rng: np.random.Generator, context: None) -> list[Op]:
    ops = []
    for shape in (shape for shape in SHAPES for _ in range(PER_SHAPE)):
        alpha = _params(rng, shape)
        seed = int(rng.integers(0, 2**63))
        kind = "x".join(map(str, shape))
        ops.append(Op(kind, partial(sample, alpha, shape, DRAWS, seed), (alpha, shape)))
    return [ops[j] for j in rng.permutation(len(ops))]


def record(op: Op, output) -> tuple:
    """Reduce the draws to what the checks need, between operations."""
    chances, entropy, mi, jackknife = output
    n = chances.shape[0]
    return (
        bool(np.isfinite(chances).all()),
        float(chances.min()),
        float(np.abs(chances.sum(axis=1) - 1.0).max()),
        tuple(chances.mean(axis=0)),
        tuple(chances.std(axis=0, ddof=1) / math.sqrt(n)),
        hashlib.sha256(chances.tobytes()).hexdigest(),
        tuple(entropy),
        None if mi is None else tuple(mi),
        jackknife,
    )


def _expected_entropy(alpha: np.ndarray) -> float:
    return float(ref.expected_entropy(alpha / alpha.sum(), alpha.sum()))


def _check(alpha, shape, rec) -> list[str]:
    finite, low, sum_err, means, ses, _, entropy, mi, jackknife = rec
    errors = []
    if not finite or low < 0.0 or sum_err > 1e-12:
        errors.append("draws are not finite, non-negative rows summing to 1")
    u = alpha / alpha.sum()
    if np.any(np.abs(np.array(means) - u) > SIGMAS * np.array(ses)):
        errors.append("a coordinate's sample mean is more than 5 standard errors from u")
    if abs(entropy[0] - _expected_entropy(alpha)) > SIGMAS * entropy[2]:
        errors.append("entropy-of-chances mean is more than 5 standard errors from sum h(u)")
    if mi is not None:
        cells = alpha.reshape(shape)
        expected = (
            _expected_entropy(cells.sum(axis=1))
            + _expected_entropy(cells.sum(axis=0))
            - _expected_entropy(alpha)
        )
        if abs(mi[0] - expected) > SIGMAS * mi[2]:
            errors.append("MI-of-chances mean is more than 5 standard errors from the expected MI")
    if not (math.isfinite(jackknife) and jackknife > 0.0):
        errors.append(f"jackknife standard error {jackknife!r} is not positive")
    return errors


def verify(ops: list[Op], records: list, context: None) -> list[str]:
    errors = []
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec[0] == "failed":
            continue
        alpha, shape = op.data
        errors += [f"montecarlo {op.kind} #{i}: {e}" for e in _check(alpha, shape, rec)]
    if record(ops[0], ops[0].call()) != records[0]:
        errors.append("montecarlo: a same-seed redraw is not bitwise identical")
    return errors
