"""Workload ``report``: one dataset's full robust summary per operation.

A vector op computes the exact and the conservative/inner entropy
intervals.  A table op does the same for the joint cells, then the MI
conservative/inner/crude bounds and the robust credible MI interval, with
one ``CredibleSpec`` per coverage level built during set-up.

A round holds 88 vectors (2-30 categories), 36 tables (2x2 to 6x6) and the
4 fixed inputs of ``FAILING``; sizes are stratified, totals log-uniform up
to ``TOTAL_CAP``.  Set-up computes one summary at the cap, which grows the
package's harmonic tables as far as any op of the round will need.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import idmbounds as idm
import reference as ref
from inputs import Op, int_strata, split_total, strata

COVERAGE = (0.9, 0.95, 0.99)
TOTAL_CAP = 1_000_000
VECTORS = 88
TABLES = 36
# Inputs at s = 1e-6 on which max_concave_sum rebuilds a prior mean that
# SimplexPoint rejects, so every call raises ValueError.
FAILING_S = 1e-6
FAILING = (
    ("vector", [21.2, 29.1, 21.4]),
    ("vector", [105.7, 88.1]),
    ("table", [[21.2, 29.1], [21.4, 3.3]]),
    ("table", [[10.5, 3.25, 7.75], [2.5, 6.1, 8.8]]),
)


def _entropy(counts, cfg) -> tuple:
    exact = idm.entropy_interval_exact(counts, cfg)
    kernel = idm.EntropyKernel(counts.total + cfg.s)
    est = idm.concave_remainder_bounds(counts, cfg, idm.entropy_summand(kernel))
    cons, inner = est.conservative_interval(), est.inner_interval()
    return (exact.lower, exact.upper, cons.lower, cons.upper, inner.lower, inner.upper)


def summarize_vector(counts, s: float) -> tuple:
    return _entropy(idm.CountVector(counts), idm.IdmConfig(s))


def summarize_table(table, s: float, spec) -> tuple:
    cfg = idm.IdmConfig(s)
    tbl = idm.ContingencyCounts(table)
    entropy = _entropy(tbl.joint_counts(), cfg)
    bounds = idm.mi_interval_bounds(tbl, cfg)
    cons, inner = bounds.conservative_interval(), bounds.inner_interval()
    credible = idm.robust_credible_mi(tbl, cfg, spec)
    return entropy + (
        cons.lower,
        cons.upper,
        inner.lower,
        inner.upper,
        bounds.crude.lower,
        bounds.crude.upper,
        credible.lower,
        credible.upper,
        bounds.cell1,
        bounds.cell2,
    )


def warm_up() -> dict:
    specs = {alpha: idm.CredibleSpec(alpha) for alpha in COVERAGE}
    summarize_vector([TOTAL_CAP / 2, TOTAL_CAP / 2], 2.0)
    summarize_vector([2.5, 0.0, 7.25], 1.0)
    summarize_table([[3.0, 0.0], [1.0, 4.5]], 1.0, specs[0.95])
    return specs


def make_round(rng: np.random.Generator, specs: dict) -> list[Op]:
    ops = []
    dims = int_strata(rng, VECTORS, 2, 30)
    totals = strata(rng, VECTORS, 5.0, TOTAL_CAP, log=True)
    for i in range(VECTORS):
        s = 1.0 if i % 4 < 2 else 2.0
        zeros = int(rng.integers(0, dims[i] // 3 + 1))
        counts = split_total(rng, totals[i], dims[i], zeros, integral=i % 2 == 0)
        ops.append(Op("vector", partial(summarize_vector, counts, s), (counts, s, None)))
    rows = int_strata(rng, TABLES, 2, 6)
    cols = [rows[j] for j in rng.permutation(TABLES)]
    totals = strata(rng, TABLES, 5.0, TOTAL_CAP, log=True)
    for i in range(TABLES):
        s = 1.0 if i % 4 < 2 else 2.0
        alpha = COVERAGE[i % len(COVERAGE)]
        cells = rows[i] * cols[i]
        zeros = int(rng.integers(0, cells // 4 + 1))
        flat = split_total(rng, totals[i], cells, zeros, integral=i % 2 == 0)
        table = flat.reshape(rows[i], cols[i])
        call = partial(summarize_table, table, s, specs[alpha])
        ops.append(Op("table", call, (table, s, alpha)))
    for kind, values in FAILING:
        values = np.array(values)
        if kind == "vector":
            call, alpha = partial(summarize_vector, values, FAILING_S), None
        else:
            alpha = 0.95
            call = partial(summarize_table, values, FAILING_S, specs[alpha])
        ops.append(Op(kind, call, (values, FAILING_S, alpha), fails=True))
    return [ops[j] for j in rng.permutation(len(ops))]


def record(op: Op, output) -> tuple:
    return output


def check_table(table, s: float, alpha: float, rec: tuple, seed: int) -> list[str]:
    cons_lo, cons_hi, inner_lo, inner_hi, crude_lo, crude_hi, cred_lo, cred_hi, c1, c2 = rec[6:]
    table = np.asarray(table, dtype=float)
    d1, d2 = table.shape
    t = ref.priors(d1 * d2, seed)
    u = ref.posterior_means(table, s, t).reshape(-1, d1, d2)
    mi = ref.expected_mi(u, table.sum() + s)
    errors = []
    if not ref.inside(crude_lo, crude_hi, mi):
        errors.append("a prior's expected MI lies outside the crude interval")
    if not ref.inside(cons_lo, cons_hi, mi):
        errors.append("a prior's expected MI lies outside the conservative interval")
    if not ref.inside(cons_lo, cons_hi, [inner_lo, inner_hi]) or inner_lo > inner_hi:
        errors.append("inner MI interval not inside the conservative one")
    if not (ref.close(inner_hi, mi[c1[0] * d2 + c1[1]]) and ref.close(inner_lo, mi[c2[0] * d2 + c2[1]])):
        errors.append("inner MI bounds are not the MI at their extremizing cells")
    kappa = ref.normal_quantile((1.0 + alpha) / 2.0)
    spread = kappa * np.sqrt(ref.mi_variance_leading(table, s))
    if not (ref.close(cred_lo, cons_lo - spread) and ref.close(cred_hi, cons_hi + spread)):
        errors.append("credible MI interval is not conservative +- kappa * sd")
    return errors


def verify(ops: list[Op], records: list, specs: dict) -> list[str]:
    errors = [
        f"report: kappa({alpha}) differs from the normal quantile"
        for alpha, spec in specs.items()
        if not ref.close(spec.kappa, ref.normal_quantile((1.0 + alpha) / 2.0))
    ]
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec[0] == "failed":
            continue
        counts, s, alpha = op.data
        found = ref.entropy_errors(counts, s, rec[0:2], rec[2:4], rec[4:6], seed=i)
        if op.kind == "table":
            found += check_table(counts, s, alpha, rec, i)
        errors += [f"report {op.kind} #{i}: {e}" for e in found]
    return errors
