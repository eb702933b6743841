"""Command-line front end: count/table ingestion, estimators, JSON/CSV output.

Subcommands: ``entropy`` (robust expected-entropy intervals), ``mutinfo``
(robust expected-mutual-information intervals), ``credible`` (robust
credible interval for the MI), and ``sweep`` (plot-data series over a
sample-size or ratio axis).  Results go to stdout, human diagnostics to
stderr; every failure carries a stable machine-readable error code and a
nonzero exit status.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from .credible import CredibleSpec, credible_mi_interval
from .exact_extrema import (
    entropy_interval_exact,
    entropy_interval_rational,
    entropy_summand,
)
from .mutual_info import (
    ContingencyCounts,
    mi_estimate,
    mi_interval_bounds,
    mi_interval_crude,
    mi_variance_leading,
    product_idm_check,
)
from .oracle import (
    GridOverflowError,
    GridSpec,
    grid_extrema,
    lattice_entropy_objective,
    lattice_mi_objective,
)
from .simplex_core import CountVector, IdmConfig, Interval, SimplexPoint, sigma_of
from .special_fn import EntropyKernel, h
from .taylor_bounds import concave_remainder_bounds

SCHEMA = "idmbounds.result/1"

#: Stable machine-readable error codes (see README for the catalogue).
ERROR_CODES = (
    "EMPTY_INPUT",
    "PARSE_FAILURE",
    "NEGATIVE_COUNTS",
    "RAGGED_TABLE",
    "INPUT_CONFLICT",
    "FILE_NOT_FOUND",
    "BAD_STRENGTH",
    "ALPHA_REQUIRED",
    "ALPHA_OUT_OF_RANGE",
    "BAD_SWEEP_SPEC",
    "GRID_OVERFLOW",
    "BAD_GRID_SPEC",
    "ZERO_CELL",
)

#: Most rows an ``n:<min>:<max>`` sweep may ask for.
MAX_SWEEP_ROWS = 10_000

SWEEP_COLUMNS = (
    "x",
    "H_exact_lo",
    "H_exact_hi",
    "H_cons_lo",
    "H_cons_hi",
    "H_point_ml",
    "H_point_half",
    "H_point_plugin",
)


class CliError(Exception):
    """A user-facing failure with a stable error code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise AssertionError(f"undocumented error code {code}")
        super().__init__(message)
        self.code = code
        self.message = message


def _round12(x: float) -> float:
    """Round to 12 significant digits (the emission precision)."""
    return float(f"{float(x):.12g}")


def _interval_payload(iv: Interval, rational=None) -> dict:
    payload = {"lower": _round12(iv.lower), "upper": _round12(iv.upper)}
    if rational is not None:
        lo, hi = rational
        den = math.lcm(lo.denominator, hi.denominator)
        payload["lower_rational"] = f"{lo.numerator * (den // lo.denominator)}/{den}"
        payload["upper_rational"] = f"{hi.numerator * (den // hi.denominator)}/{den}"
    return payload


def _read_input(args) -> str:
    if args.inline is not None and args.input is not None:
        raise CliError("INPUT_CONFLICT", "give either an input path or --inline, not both")
    if args.inline is not None:
        return args.inline
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise CliError("FILE_NOT_FOUND", f"cannot read input file: {exc}") from exc
    raise CliError("EMPTY_INPUT", "no input given (use a path argument or --inline)")


def _parse_reals(tokens, what: str) -> list[float]:
    values = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            raise CliError("PARSE_FAILURE", f"empty component in {what}")
        try:
            v = float(tok)
        except ValueError as exc:
            raise CliError("PARSE_FAILURE", f"cannot parse {tok!r} as a real") from exc
        if not math.isfinite(v):
            raise CliError("PARSE_FAILURE", f"non-finite value {tok!r} in {what}")
        values.append(v)
    return values


def parse_counts(text: str) -> CountVector:
    """Counts from comma-separated reals or ``{"counts": [...]}`` JSON."""
    text = text.strip()
    if not text:
        raise CliError("EMPTY_INPUT", "input is empty")
    if text.startswith("{"):
        try:
            payload = json.loads(text)
            raw = payload["counts"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CliError("PARSE_FAILURE", f"bad JSON counts input: {exc}") from exc
        if not isinstance(raw, list) or not raw:
            raise CliError("PARSE_FAILURE", '"counts" must be a non-empty list')
        values = _parse_reals([str(v) for v in raw], "counts")
    else:
        values = _parse_reals(text.replace("\r\n", "\n").strip().split(","), "counts")
    if any(v < 0 for v in values):
        raise CliError("NEGATIVE_COUNTS", "counts must be non-negative")
    try:
        return CountVector(values)
    except ValueError as exc:
        raise CliError("PARSE_FAILURE", str(exc)) from exc


def parse_table(text: str) -> ContingencyCounts:
    """A table from CSV rows or ``{"table": [[...]]}`` JSON."""
    text = text.strip()
    if not text:
        raise CliError("EMPTY_INPUT", "input is empty")
    if text.startswith("{"):
        try:
            payload = json.loads(text)
            raw = payload["table"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CliError("PARSE_FAILURE", f"bad JSON table input: {exc}") from exc
        if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
            raise CliError("PARSE_FAILURE", '"table" must be a non-empty list of rows')
        rows = [_parse_reals([str(v) for v in row], "table row") for row in raw]
    else:
        lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
        rows = [_parse_reals(ln.split(","), "table row") for ln in lines]
    if not all(rows):
        raise CliError("PARSE_FAILURE", "table rows must be non-empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CliError("RAGGED_TABLE", f"rows have differing lengths {sorted(widths)}")
    if any(v < 0 for row in rows for v in row):
        raise CliError("NEGATIVE_COUNTS", "table entries must be non-negative")
    try:
        return ContingencyCounts(rows)
    except ValueError as exc:
        raise CliError("PARSE_FAILURE", str(exc)) from exc


def _config(args) -> IdmConfig:
    try:
        return IdmConfig(args.s)
    except ValueError as exc:
        raise CliError("BAD_STRENGTH", str(exc)) from exc


def _check_total(total: float, cfg: IdmConfig) -> None:
    """Refuse an ``s`` whose posterior weight ``n + s`` overflows."""
    if not math.isfinite(total + cfg.s):
        raise CliError("BAD_STRENGTH", f"n + s overflows (n = {total:g}, s = {cfg.s:g})")


def _grid_spec(args, minimum: int = 1) -> Optional[GridSpec]:
    """The ``--grid-check`` lattice, validated before any estimator runs."""
    if args.grid_check is None:
        return None
    if args.grid_check < minimum:
        raise CliError("BAD_GRID_SPEC", f"--grid-check must be >= {minimum}")
    try:
        return GridSpec(args.grid_check)
    except ValueError as exc:
        raise CliError("BAD_GRID_SPEC", f"--grid-check: {exc}") from exc


def _base_result(command: str, args, inputs: dict) -> dict:
    inputs = dict(inputs)
    inputs["s"] = _round12(args.s)
    if getattr(args, "grid_check", None) is not None:
        inputs["grid_check"] = args.grid_check
    return {"schema": SCHEMA, "command": command, "inputs": inputs}


def run_entropy(args) -> dict:
    counts = parse_counts(_read_input(args))
    cfg = _config(args)
    _check_total(counts.total, cfg)
    grid = _grid_spec(args)
    result = _base_result("entropy", args, {"counts": counts.counts.tolist(), "mode": args.mode})
    intervals: dict = {}
    diagnostics = {
        "n": _round12(counts.total),
        "d": counts.dim,
        "sigma": _round12(sigma_of(counts, cfg)),
    }

    exact_iv = None
    if args.mode in ("exact", "both"):
        exact_iv = entropy_interval_exact(counts, cfg)
        intervals["exact"] = _interval_payload(
            exact_iv, entropy_interval_rational(counts, cfg)
        )
    est = None
    if args.mode in ("approx", "both"):
        kernel = EntropyKernel(counts.total + cfg.s)
        est = concave_remainder_bounds(counts, cfg, entropy_summand(kernel))
        intervals["conservative"] = _interval_payload(est.conservative_interval())
        intervals["inner"] = _interval_payload(est.inner_interval())
        diagnostics["vertex_upper"] = est.i1
        diagnostics["vertex_lower"] = est.i2

    if grid is not None:
        try:
            oracle_iv = grid_extrema(
                lattice_entropy_objective(counts, cfg, grid),
                counts,
                cfg,
                grid,
                on_lattice=True,
            )
        except GridOverflowError as exc:
            raise CliError("GRID_OVERFLOW", str(exc)) from exc
        intervals["oracle"] = _interval_payload(oracle_iv)
        if exact_iv is not None:
            diagnostics["oracle_within_exact"] = exact_iv.contains_interval(oracle_iv, 1e-9)
        if est is not None:
            diagnostics["oracle_within_conservative"] = est.conservative_interval().contains_interval(
                oracle_iv, 1e-9
            )

    result["diagnostics"] = diagnostics
    result["intervals"] = intervals
    return result


def run_mutinfo(args) -> dict:
    tbl = parse_table(_read_input(args))
    cfg = _config(args)
    _check_total(tbl.total, cfg)
    # The outer-product check needs at least two steps per factor simplex.
    grid = _grid_spec(args, minimum=2)
    result = _base_result("mutinfo", args, {"table": tbl.table.tolist(), "mode": args.mode})
    counts = tbl.joint_counts()
    intervals: dict = {}
    diagnostics = {
        "n": _round12(tbl.total),
        "shape": list(tbl.shape),
        "sigma": _round12(sigma_of(counts, cfg)),
    }

    bounds = mi_interval_bounds(tbl, cfg) if args.mode != "exact" else None
    if args.mode in ("exact", "both"):
        crude_iv = bounds.crude if bounds is not None else mi_interval_crude(tbl, cfg)
        intervals["crude"] = _interval_payload(crude_iv)
    if bounds is not None:
        intervals["conservative"] = _interval_payload(bounds.conservative_interval())
        intervals["inner"] = _interval_payload(bounds.inner_interval())
        diagnostics["cell_upper"] = list(bounds.cell1)
        diagnostics["cell_lower"] = list(bounds.cell2)

    if grid is not None:
        try:
            oracle_iv = grid_extrema(
                lattice_mi_objective(tbl, cfg, grid), counts, cfg, grid, on_lattice=True
            )
        except GridOverflowError as exc:
            raise CliError("GRID_OVERFLOW", str(exc)) from exc
        intervals["oracle"] = _interval_payload(oracle_iv)
        if "crude" in intervals:
            diagnostics["oracle_within_crude"] = crude_iv.contains_interval(oracle_iv, 1e-9)
        if bounds is not None:
            diagnostics["oracle_within_conservative"] = (
                bounds.conservative_interval().contains_interval(oracle_iv, 1e-9)
            )
            diagnostics["product_idm_ok"] = product_idm_check(
                tbl, cfg, bounds, args.grid_check
            )

    result["diagnostics"] = diagnostics
    result["intervals"] = intervals
    return result


def run_credible(args) -> dict:
    tbl = parse_table(_read_input(args))
    cfg = _config(args)
    _check_total(tbl.total, cfg)
    if args.alpha is None:
        raise CliError("ALPHA_REQUIRED", "the credible command requires --alpha")
    if not 0.0 < args.alpha < 1.0:
        raise CliError("ALPHA_OUT_OF_RANGE", "alpha must lie strictly between 0 and 1")
    spec = CredibleSpec(args.alpha)
    est = mi_estimate(tbl, cfg)
    try:
        variance = mi_variance_leading(tbl, cfg, SimplexPoint.uniform(tbl.cells))
    except ValueError as exc:
        raise CliError("ZERO_CELL", str(exc)) from exc

    result = _base_result("credible", args, {"table": tbl.table.tolist(), "alpha": args.alpha})
    result["diagnostics"] = {
        "n": _round12(tbl.total),
        "shape": list(tbl.shape),
        "sigma": _round12(est.sigma),
        "kappa": _round12(spec.kappa),
        "mi_variance": _round12(variance),
    }
    result["intervals"] = {
        "conservative": _interval_payload(est.conservative_interval()),
        "credible": _interval_payload(credible_mi_interval(est, variance, spec)),
    }
    return result


def _entropy_points(counts: CountVector) -> tuple[float, float, float]:
    n = counts.total
    if n <= 0:
        raise CliError("BAD_SWEEP_SPEC", "point estimates need a positive sample size")
    freq = counts.counts / n
    ml = float(np.sum(h(freq, EntropyKernel(n))))
    half = float(np.sum(h((counts.counts + 0.5) / (n + 1.0), EntropyKernel(n + 1.0))))
    pos = freq[freq > 0]
    plugin = float(-(pos * np.log(pos)).sum())
    return ml, half, plugin


def _sweep_rows(args, cfg: IdmConfig) -> tuple[list[list[float]], dict]:
    spec = args.sweep
    parts = spec.split(":")
    if parts[0] == "n" and len(parts) == 3:
        try:
            lo, hi = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliError("BAD_SWEEP_SPEC", f"bad n-sweep bounds in {spec!r}") from exc
        if lo < 1 or hi < lo:
            raise CliError("BAD_SWEEP_SPEC", "need 1 <= n_min <= n_max")
        if hi - lo + 1 > MAX_SWEEP_ROWS:
            raise CliError(
                "BAD_SWEEP_SPEC",
                f"n-sweep spans {hi - lo + 1} rows, above the cap of {MAX_SWEEP_ROWS}",
            )
        counts = parse_counts(_read_input(args))
        if counts.total <= 0:
            raise CliError("BAD_SWEEP_SPEC", "n-sweep needs counts with a positive total")
        ratios = counts.counts / counts.total
        axis = [(float(nv), ratios * nv) for nv in range(lo, hi + 1)]
        inputs = {"sweep": spec, "ratios": [_round12(r) for r in ratios]}
    elif parts[0] == "ratio" and len(parts) == 2:
        try:
            n_fixed = float(parts[1])
        except ValueError as exc:
            raise CliError("BAD_SWEEP_SPEC", f"bad fixed n in {spec!r}") from exc
        if not math.isfinite(n_fixed) or n_fixed < 1:
            raise CliError("BAD_SWEEP_SPEC", "ratio sweep needs fixed n >= 1")
        # Step 1/60 keeps simple rational ratios (1/3, 1/4, ...) on the grid.
        axis = []
        for i in range(31):
            x = i / 60.0
            axis.append((x, np.array([x * n_fixed, (1.0 - x) * n_fixed])))
        inputs = {"sweep": spec, "n": _round12(n_fixed)}
    else:
        raise CliError(
            "BAD_SWEEP_SPEC", f"sweep spec must be n:<min>:<max> or ratio:<n>, got {spec!r}"
        )

    rows = []
    for x, raw in axis:
        counts = CountVector(raw)
        _check_total(counts.total, cfg)
        exact_iv = entropy_interval_exact(counts, cfg)
        kernel = EntropyKernel(counts.total + cfg.s)
        est = concave_remainder_bounds(counts, cfg, entropy_summand(kernel))
        cons = est.conservative_interval()
        ml, half, plugin = _entropy_points(counts)
        rows.append(
            [
                _round12(x),
                _round12(exact_iv.lower),
                _round12(exact_iv.upper),
                _round12(cons.lower),
                _round12(cons.upper),
                _round12(ml),
                _round12(half),
                _round12(plugin),
            ]
        )
    return rows, inputs


def run_sweep(args) -> dict:
    cfg = _config(args)
    rows, inputs = _sweep_rows(args, cfg)
    result = _base_result("sweep", args, inputs)
    result["columns"] = list(SWEEP_COLUMNS)
    result["rows"] = rows
    return result


def _emit_csv(result: dict, out: io.TextIOBase) -> None:
    if result["command"] == "sweep":
        out.write(",".join(result["columns"]) + "\n")
        for row in result["rows"]:
            out.write(",".join(f"{v:.12g}" for v in row) + "\n")
        return
    out.write("kind,lower,upper\n")
    for kind, payload in result["intervals"].items():
        out.write(f"{kind},{payload['lower']:.12g},{payload['upper']:.12g}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idmbounds",
        description="Robust interval estimators under the imprecise Dirichlet model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("input", nargs="?", help="input file (counts or CSV table)")
        p.add_argument("--inline", help="inline input data instead of a file")
        p.add_argument("--s", type=float, default=1.0, help="prior strength (default 1)")
        p.add_argument(
            "--format", choices=("json", "csv"), default=default_format, help="output format"
        )

    def grid_check(p):
        p.add_argument(
            "--grid-check",
            type=int,
            default=None,
            metavar="RESOLUTION",
            help="append a brute-force lattice interval and containment verdicts",
        )

    p_entropy = sub.add_parser("entropy", help="robust expected-entropy intervals")
    common(p_entropy, "json")
    grid_check(p_entropy)
    p_entropy.add_argument("--mode", choices=("exact", "approx", "both"), default="both")
    p_entropy.set_defaults(handler=run_entropy)

    p_mi = sub.add_parser("mutinfo", help="robust expected-mutual-information intervals")
    common(p_mi, "json")
    grid_check(p_mi)
    p_mi.add_argument("--mode", choices=("exact", "approx", "both"), default="both")
    p_mi.set_defaults(handler=run_mutinfo)

    p_cred = sub.add_parser("credible", help="robust credible interval for the MI")
    common(p_cred, "json")
    p_cred.add_argument("--alpha", type=float, default=None, help="coverage level in (0, 1)")
    p_cred.set_defaults(handler=run_credible)

    p_sweep = sub.add_parser("sweep", help="entropy-interval series for plotting")
    common(p_sweep, "csv")
    p_sweep.add_argument(
        "--sweep",
        required=True,
        metavar="SPEC",
        help="axis spec: n:<min>:<max> (fixed ratios) or ratio:<n> (fixed n)",
    )
    p_sweep.set_defaults(handler=run_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except CliError as exc:
        json.dump(
            {"schema": SCHEMA, "error": {"code": exc.code, "message": exc.message}},
            sys.stdout,
        )
        sys.stdout.write("\n")
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    if args.format == "csv":
        _emit_csv(result, sys.stdout)
    else:
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    print(f"ok: {result['command']} completed", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
