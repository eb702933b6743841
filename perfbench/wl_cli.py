"""Workload ``cli``: one in-process ``idmbounds.cli.main`` request per operation.

Standard output and error are captured.  No recorded use of the command
line exists to draw a request mix from, so a round gives each of the four
subcommands the same share: 128 requests in seeded order, alternating JSON
and CSV output, no ``--grid-check``:

- 32 ``entropy`` requests: 24 on integral counts, 2-20 categories, with
  n + s drawn stratified over 5-1000 (exact rational endpoints are
  attempted), and 8 on 2-decimal counts;
- 32 ``mutinfo --mode both`` and 32 ``credible --alpha`` requests on 2x2 to
  4x4 tables;
- 32 short ``sweep n:1:K`` requests (K = 3..8).

Whether a rational attempt returns endpoints depends on the counts; the
traced run reports the share (``exact_extrema.rational_useful`` over
``exact_extrema.rational_calls``).  Set-up imports the command-line module
and answers one first request.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

import numpy as np

import idmbounds.cli as cli
import reference as ref
from inputs import Op, int_strata, split_total, strata

FIRST_REQUEST = ["entropy", "--inline", "3,6", "--s", "1"]
# Requests per round and subcommand.
PER_COMMAND = 32
ENTROPY_INTEGRAL = 24
MAX_TOTAL = 1000
TABLE_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4))


def request(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def warm_up() -> None:
    request(FIRST_REQUEST)


def _counts_text(counts) -> str:
    return ",".join(repr(float(c)) for c in np.ravel(counts))


def _table_text(table) -> str:
    return "\n".join(_counts_text(row) for row in table)


def _op(kind: str, argv: list[str], fmt: str, data: dict) -> Op:
    argv = argv + ["--format", fmt]
    return Op(kind, partial(request, argv), {"format": fmt, **data})


def make_round(rng: np.random.Generator, context: None) -> list[Op]:
    ops = []
    fmts = ("json", "csv")

    # Integral counts: n + s <= MAX_TOTAL, s = 1 or 2, 0-2 zero cells.  The
    # rational endpoints cost about d * (n + s) Fraction additions; pairing
    # sorted dimensions with sorted totals spreads that cost evenly over its
    # range for every seed, and gives each size the same s and zero cells.
    dims = sorted(int_strata(rng, ENTROPY_INTEGRAL, 2, 20))
    totals = sorted(int_strata(rng, ENTROPY_INTEGRAL, 5, MAX_TOTAL))
    for i in range(ENTROPY_INTEGRAL):
        s = 1 + i % 2
        counts = split_total(rng, totals[i] - s, dims[i], i % 3, integral=True)
        argv = ["entropy", "--inline", _counts_text(counts), "--s", str(s)]
        ops.append(_op("entropy", argv, fmts[i % 2], {"counts": counts, "s": float(s)}))
    fractional = PER_COMMAND - ENTROPY_INTEGRAL
    dims = int_strata(rng, fractional, 2, 20)
    totals = strata(rng, fractional, 5.0, 1e4, log=True)
    for i in range(fractional):
        counts = split_total(rng, totals[i], dims[i], i % 3, integral=False)
        argv = ["entropy", "--inline", _counts_text(counts), "--s", "1"]
        ops.append(_op("entropy", argv, fmts[i % 2], {"counts": counts, "s": 1.0}))

    for kind in ("mutinfo", "credible"):
        totals = strata(rng, PER_COMMAND, 5.0, 1e4, log=True)
        # The kappa bisection takes 3-11 ms, growing with alpha: sorted, the
        # levels meet the cycle of table shapes in the same order every seed.
        alphas = np.sort(strata(rng, PER_COMMAND, 0.5, 0.995))
        for i in range(PER_COMMAND):
            rows, cols = TABLE_SHAPES[i % len(TABLE_SHAPES)]
            flat = split_total(rng, totals[i], rows * cols, i % 3 // 2, integral=i % 2 == 0)
            table = flat.reshape(rows, cols)
            s = 1.0 + i % 2
            argv = [kind, "--inline", _table_text(table), "--s", repr(s)]
            data = {"table": table, "s": s}
            if kind == "mutinfo":
                argv += ["--mode", "both"]
            else:
                alpha = round(float(alphas[i]), 4)
                argv += ["--alpha", repr(alpha)]
                data["alpha"] = alpha
            ops.append(_op(kind, argv, fmts[i % 2], data))

    for i in range(PER_COMMAND):
        length = 3 + i % 6
        counts = rng.integers(1, 21, size=2 + i % 4).astype(float)
        argv = ["sweep", "--inline", _counts_text(counts), "--sweep", f"n:1:{length}"]
        argv += ["--s", "1"]
        ops.append(_op("sweep", argv, fmts[i % 2], {"counts": counts, "s": 1.0, "k": length}))
    return [ops[j] for j in rng.permutation(len(ops))]


def record(op: Op, output) -> tuple:
    return output


def _intervals(text: str, fmt: str) -> tuple[dict, dict]:
    """``(intervals, diagnostics)`` from a JSON or CSV result."""
    if fmt == "json":
        result = json.loads(text)
        return result["intervals"], result.get("diagnostics", {})
    lines = text.strip().splitlines()
    if lines[0] != "kind,lower,upper":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    intervals = {}
    for line in lines[1:]:
        kind, lo, hi = line.split(",")
        intervals[kind] = {"lower": float(lo), "upper": float(hi)}
    return intervals, {}


def _pair(interval: dict) -> tuple[float, float]:
    return interval["lower"], interval["upper"]


def _check_entropy(data, intervals, harmonic) -> list[str]:
    counts, s = data["counts"], data["s"]
    exact = intervals["exact"]
    errors = ref.entropy_errors(
        counts,
        s,
        _pair(exact),
        _pair(intervals["conservative"]),
        _pair(intervals["inner"]),
        seed=len(counts),
    )
    if "lower_rational" in exact:
        lower, upper = ref.rational_entropy_endpoints([int(c) for c in counts], int(s), harmonic)
        if Fraction(exact["lower_rational"]) != lower or not ref.close(exact["lower"], float(lower)):
            errors.append("lower rational endpoint differs from the Fraction recomputation")
        if upper is None:
            errors.append("rational endpoints emitted where the upper one is off the grid")
        elif Fraction(exact["upper_rational"]) != upper or not ref.close(exact["upper"], float(upper)):
            errors.append("upper rational endpoint differs from the Fraction recomputation")
    return errors


def _check_mutinfo(data, intervals) -> list[str]:
    table, s = data["table"], data["s"]
    d1, d2 = table.shape
    u = ref.posterior_means(table, s, ref.priors(d1 * d2, d1 * d2)).reshape(-1, d1, d2)
    mi = ref.expected_mi(u, table.sum() + s)
    crude, cons, inner = (intervals[k] for k in ("crude", "conservative", "inner"))
    errors = []
    if not ref.inside(crude["lower"], crude["upper"], mi):
        errors.append("a prior's expected MI lies outside the crude interval")
    if not ref.inside(cons["lower"], cons["upper"], mi):
        errors.append("a prior's expected MI lies outside the conservative interval")
    if not ref.inside(cons["lower"], cons["upper"], [inner["lower"], inner["upper"]]):
        errors.append("inner MI interval not inside the conservative one")
    return errors


def _check_credible(data, intervals, diagnostics) -> list[str]:
    table, s, alpha = data["table"], data["s"], data["alpha"]
    kappa = ref.normal_quantile((1.0 + alpha) / 2.0)
    cons, cred = intervals["conservative"], intervals["credible"]
    spread = kappa * np.sqrt(ref.mi_variance_leading(table, s))
    errors = []
    if "kappa" in diagnostics and not ref.close(diagnostics["kappa"], kappa):
        errors.append(f"kappa {diagnostics['kappa']!r} differs from the normal quantile {kappa!r}")
    if not (
        ref.close(cred["lower"], cons["lower"] - spread)
        and ref.close(cred["upper"], cons["upper"] + spread)
    ):
        errors.append("credible interval is not conservative +- kappa * sd")
    return errors


def _check_sweep(data, text: str, fmt: str) -> list[str]:
    counts, s, k = data["counts"], data["s"], data["k"]
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]
    if len(rows) != k:
        return [f"sweep emitted {len(rows)} rows, expected {k}"]
    ratios = counts / counts.sum()
    errors = []
    for x, lo, hi, cons_lo, cons_hi, ml, half, plugin in rows:
        scaled = ratios * x
        errors += ref.entropy_errors(scaled, s, (lo, hi), (cons_lo, cons_hi), seed=len(scaled))
        points = (
            ref.expected_entropy(ratios, x),
            ref.expected_entropy((scaled + 0.5) / (x + 1.0), x + 1.0),
            ref.shannon(ratios),
        )
        if not all(ref.close(a, float(b)) for a, b in zip((ml, half, plugin), points)):
            errors.append(f"sweep point estimates at n={x} differ from the reference")
    return errors


def verify(ops: list[Op], records: list, context: None) -> list[str]:
    harmonic = ref.Harmonics()
    errors = []
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec[0] == "failed":
            continue
        code, text = rec
        if code != 0:
            errors.append(f"cli {op.kind} #{i}: exit status {code}: {text.strip()[:200]}")
            continue
        fmt = op.data["format"]
        if op.kind == "sweep":
            found = _check_sweep(op.data, text, fmt)
        else:
            intervals, diagnostics = _intervals(text, fmt)
            if op.kind == "entropy":
                found = _check_entropy(op.data, intervals, harmonic)
            elif op.kind == "mutinfo":
                found = _check_mutinfo(op.data, intervals)
            else:
                found = _check_credible(op.data, intervals, diagnostics)
        errors += [f"cli {op.kind} #{i}: {e}" for e in found]
    return errors
