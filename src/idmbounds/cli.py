"""Command-line front end: count/table ingestion, estimators, JSON/CSV output.

Subcommands: ``entropy`` (robust expected-entropy intervals), ``mutinfo``
(robust expected-mutual-information intervals), ``credible`` (robust
credible interval for the MI), and ``sweep`` (plot-data series over a
sample-size or ratio axis).  Results go to stdout, human diagnostics to
stderr; every failure carries a stable machine-readable error code and a
nonzero exit status.

Every request takes one path.  ``main`` parses the arguments with a parser
built once at import from one table of subcommands; ``_read_input`` reads
and strips the input; the subcommand's handler builds the config, computes
and returns ``(inputs, body)``; and ``main`` alone adds the schema, the
command, ``s`` and ``grid_check`` to the result and writes it.

``entropy`` and ``sweep`` take every ``h``, ``h'`` and ``psi(T + 1)`` they
need from one special-function pass per request (per 2^16 points: a long
sweep takes one pass per block of rows, so its memory stays bounded),
through the pass driver the library's estimators use.  A sweep's axis is
one ``(rows, d)`` count array: its rows are checked, leveled, mapped and
summed as a stack, every column (the plug-in entropy too) is taken from it
with array operations, and only the rounded output rows are built row by
row; no row builds a count vector, an estimate or an interval.  Exact
rational endpoints are integer sums over one harmonic table, built on the
first integral request.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .credible import CredibleSpec, robust_credible_mi_parts
from .exact_extrema import _entropy_rows, _one_row, _Rows, _Stack, entropy_interval_rational
from .mutual_info import (
    ContingencyCounts,
    _FloatRangeError,
    mi_interval_bounds,
    mi_interval_crude,
    product_idm_check,
)
from .oracle import (
    GridOverflowError,
    GridSpec,
    grid_extrema,
    lattice_entropy_objective,
    lattice_mi_objective,
)
from .simplex_core import CountVector, IdmConfig, Interval, sigma_of
from .special_fn import _BLOCK_ROWS
from .taylor_bounds import RobustEstimate

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
    """The request's input, stripped; refuses a conflict and empty input."""
    if args.inline is not None and args.input is not None:
        raise CliError("INPUT_CONFLICT", "give either an input path or --inline, not both")
    if args.inline is not None:
        text = args.inline
    elif args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError("FILE_NOT_FOUND", f"cannot read input file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CliError("PARSE_FAILURE", f"input file is not UTF-8: {exc}") from exc
    else:
        raise CliError("EMPTY_INPUT", "no input given (use a path argument or --inline)")
    text = text.strip()
    if not text:
        raise CliError("EMPTY_INPUT", "input is empty")
    return text


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


def _json_field(text: str, field: str):
    try:
        return json.loads(text)[field]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError("PARSE_FAILURE", f"bad JSON {field} input: {exc}") from exc


def _construct(cls, values):
    """``cls(values)``, its ``ValueError`` reported as ``PARSE_FAILURE``."""
    try:
        return cls(values)
    except ValueError as exc:
        raise CliError("PARSE_FAILURE", str(exc)) from exc


def parse_counts(text: str) -> CountVector:
    """Counts from stripped, non-empty text: comma-separated reals or ``{"counts": [...]}`` JSON."""
    if text.startswith("{"):
        raw = _json_field(text, "counts")
        if not isinstance(raw, list) or not raw:
            raise CliError("PARSE_FAILURE", '"counts" must be a non-empty list')
        tokens = [str(v) for v in raw]
    else:
        tokens = text.replace("\r\n", "\n").split(",")
    values = _parse_reals(tokens, "counts")
    if any(v < 0 for v in values):
        raise CliError("NEGATIVE_COUNTS", "counts must be non-negative")
    return _construct(CountVector, values)


def parse_table(text: str) -> ContingencyCounts:
    """A table from stripped, non-empty text: CSV rows or ``{"table": [[...]]}`` JSON."""
    if text.startswith("{"):
        raw = _json_field(text, "table")
        if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
            raise CliError("PARSE_FAILURE", '"table" must be a non-empty list of rows')
        rows = [[str(v) for v in row] for row in raw]
    else:
        rows = [ln.split(",") for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    rows = [_parse_reals(row, "table row") for row in rows]
    if not all(rows):
        raise CliError("PARSE_FAILURE", "table rows must be non-empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CliError("RAGGED_TABLE", f"rows have differing lengths {sorted(widths)}")
    if any(v < 0 for row in rows for v in row):
        raise CliError("NEGATIVE_COUNTS", "table entries must be non-negative")
    return _construct(ContingencyCounts, rows)


def _config(args, total: float = 0.0) -> IdmConfig:
    """``--s`` as a config; refuses an ``n + s`` that overflows for ``n = total``."""
    try:
        cfg = IdmConfig(args.s)
    except ValueError as exc:
        raise CliError("BAD_STRENGTH", str(exc)) from exc
    _check_total(cfg, total)
    return cfg


def _check_total(cfg: IdmConfig, total: float) -> None:
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


def _grid_check(objective, counts, cfg, grid, checked: dict, body: dict) -> None:
    """Add the lattice interval to ``body`` and, for every interval in
    ``checked``, an ``oracle_within_<kind>`` containment verdict."""
    try:
        oracle_iv = grid_extrema(objective, counts, cfg, grid, on_lattice=True)
    except GridOverflowError as exc:
        raise CliError("GRID_OVERFLOW", str(exc)) from exc
    body["intervals"]["oracle"] = _interval_payload(oracle_iv)
    for kind, iv in checked.items():
        body["diagnostics"][f"oracle_within_{kind}"] = iv.contains_interval(oracle_iv, 1e-9)


def run_entropy(args) -> tuple[dict, dict]:
    counts = parse_counts(_read_input(args))
    cfg = _config(args, counts.total)
    grid = _grid_spec(args)
    diagnostics = {
        "n": _round12(counts.total),
        "d": counts.dim,
        "sigma": _round12(sigma_of(counts, cfg)),
    }
    body = {"diagnostics": diagnostics, "intervals": {}}
    checked = {}
    [record] = _entropy_rows([_Rows(_one_row(counts, cfg), counts.total + cfg.s)])
    exact, est = record.interval(), RobustEstimate(*record.primaries())
    if args.mode in ("exact", "both"):
        checked["exact"] = exact
        body["intervals"]["exact"] = _interval_payload(
            exact, entropy_interval_rational(counts, cfg)
        )
    if args.mode in ("approx", "both"):
        checked["conservative"] = est.conservative_interval()
        body["intervals"]["conservative"] = _interval_payload(checked["conservative"])
        body["intervals"]["inner"] = _interval_payload(est.inner_interval())
        diagnostics["vertex_upper"] = est.i1
        diagnostics["vertex_lower"] = est.i2
    if grid is not None:
        _grid_check(lattice_entropy_objective(counts, cfg, grid), counts, cfg, grid, checked, body)
    return {"counts": counts.counts.tolist(), "mode": args.mode}, body


def run_mutinfo(args) -> tuple[dict, dict]:
    tbl = parse_table(_read_input(args))
    cfg = _config(args, tbl.total)
    # The outer-product check needs at least two steps per factor simplex.
    grid = _grid_spec(args, minimum=2)
    counts = tbl.joint_counts()
    diagnostics = {
        "n": _round12(tbl.total),
        "shape": list(tbl.shape),
        "sigma": _round12(sigma_of(counts, cfg)),
    }
    body = {"diagnostics": diagnostics, "intervals": {}}
    checked = {}
    bounds = mi_interval_bounds(tbl, cfg) if args.mode != "exact" else None
    if args.mode in ("exact", "both"):
        checked["crude"] = bounds.crude if bounds is not None else mi_interval_crude(tbl, cfg)
        body["intervals"]["crude"] = _interval_payload(checked["crude"])
    if bounds is not None:
        checked["conservative"] = bounds.conservative_interval()
        body["intervals"]["conservative"] = _interval_payload(checked["conservative"])
        body["intervals"]["inner"] = _interval_payload(bounds.inner_interval())
        diagnostics["cell_upper"] = list(bounds.cell1)
        diagnostics["cell_lower"] = list(bounds.cell2)
    if grid is not None:
        _grid_check(lattice_mi_objective(tbl, cfg, grid), counts, cfg, grid, checked, body)
        if bounds is not None:
            diagnostics["product_idm_ok"] = product_idm_check(tbl, cfg, bounds, args.grid_check)
    return {"table": tbl.table.tolist(), "mode": args.mode}, body


def run_credible(args) -> tuple[dict, dict]:
    tbl = parse_table(_read_input(args))
    cfg = _config(args, tbl.total)
    if args.alpha is None:
        raise CliError("ALPHA_REQUIRED", "the credible command requires --alpha")
    if not 0.0 < args.alpha < 1.0:
        raise CliError("ALPHA_OUT_OF_RANGE", "alpha must lie strictly between 0 and 1")
    spec = CredibleSpec(args.alpha)
    try:
        est, variance, credible = robust_credible_mi_parts(tbl, cfg, spec)
    except ValueError as exc:
        code = "BAD_STRENGTH" if isinstance(exc, _FloatRangeError) else "ZERO_CELL"
        raise CliError(code, str(exc)) from exc
    diagnostics = {
        "n": _round12(tbl.total),
        "shape": list(tbl.shape),
        "sigma": _round12(est.sigma),
        "kappa": _round12(spec.kappa),
        "mi_variance": _round12(variance),
    }
    intervals = {
        "conservative": _interval_payload(est.conservative_interval()),
        "credible": _interval_payload(credible),
    }
    inputs = {"table": tbl.table.tolist(), "alpha": args.alpha}
    return inputs, {"diagnostics": diagnostics, "intervals": intervals}


def _sweep_axis(args) -> tuple[dict, np.ndarray, np.ndarray]:
    """The ``--sweep`` spec's inputs record, its ``x`` column and its ``(rows,
    d)`` count axis; a bad spec is reported before the input is read."""
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
        if hi > sys.float_info.max:
            raise CliError("BAD_SWEEP_SPEC", "n_max lies beyond the float range")
        counts = parse_counts(_read_input(args))
        if counts.total <= 0:
            raise CliError("BAD_SWEEP_SPEC", "n-sweep needs counts with a positive total")
        ratios = counts.counts / counts.total
        xs = np.array([float(nv) for nv in range(lo, hi + 1)])
        inputs = {"sweep": spec, "ratios": [_round12(r) for r in ratios]}
        return inputs, xs, xs[:, None] * ratios
    if parts[0] == "ratio" and len(parts) == 2:
        try:
            n_fixed = float(parts[1])
        except ValueError as exc:
            raise CliError("BAD_SWEEP_SPEC", f"bad fixed n in {spec!r}") from exc
        if not math.isfinite(n_fixed) or n_fixed < 1:
            raise CliError("BAD_SWEEP_SPEC", "ratio sweep needs fixed n >= 1")
        if args.inline is not None or args.input is not None:
            raise CliError("INPUT_CONFLICT", "a ratio sweep fixes its counts; give no input")
        # Step 1/60 keeps simple rational ratios (1/3, 1/4, ...) on the grid.
        xs = np.arange(31) / 60.0
        inputs = {"sweep": spec, "n": _round12(n_fixed)}
        return inputs, xs, np.stack([xs * n_fixed, (1.0 - xs) * n_fixed], axis=1)
    raise CliError(
        "BAD_SWEEP_SPEC", f"sweep spec must be n:<min>:<max> or ratio:<n>, got {spec!r}"
    )


def _checked_totals(xs: np.ndarray, axis: np.ndarray, cfg: IdmConfig) -> np.ndarray:
    """Each axis row's total ``n``, checked row by row, in order.

    A row whose counts total past the float range is a bad spec, and one
    whose ``n + s`` does is a bad strength; the first bad row reports its
    first error, the one a row-by-row loop would raise.
    """
    with np.errstate(over="ignore"):
        totals = axis.sum(axis=1)
        bad_total = ~np.isfinite(totals)
        bad = bad_total | ~np.isfinite(totals + cfg.s)
    if bad.any():
        k = int(bad.argmax())
        if bad_total[k]:
            raise CliError(
                "BAD_SWEEP_SPEC", f"the counts at x = {xs[k]:g} total beyond the float range"
            )
        _check_total(cfg, float(totals[k]))
    return totals


def _point_groups(axis: np.ndarray, n: np.ndarray) -> tuple:
    """The stacked ``(totals, u)`` groups whose ``h`` sums are ``H_point_ml``
    (kernel ``n``, the frequencies) and ``H_point_half`` (kernel ``n + 1``,
    the points ``(n_i + 1/2)/(n + 1)``) of count rows ``axis`` with totals ``n``."""
    half = n + 1.0
    return (n, axis / n[:, None]), (half, (axis + 0.5) / half[:, None])


def _plugin_entropies(freq: np.ndarray) -> np.ndarray:
    """Each row's plug-in Shannon entropy of its frequencies ``freq``.

    Consecutive rows with one pattern of positive frequencies are taken
    together, so each row sums the same entries, in the same order, as it
    would alone: numpy's pairwise summation depends on the length.
    """
    positive = freq > 0
    bounds = [0, *(np.flatnonzero((positive[1:] != positive[:-1]).any(axis=1)) + 1).tolist()]
    out = []
    for a, b in zip(bounds, bounds[1:] + [len(freq)]):
        # compress copies in row-major order: each row's sum then runs along
        # contiguous memory, in the pairwise order of the row alone.
        pos = freq[a:b].compress(positive[a], axis=1)
        terms = np.log(pos)
        terms *= pos
        # 0 - sum, not -sum: a single category gives +0.0, not -0.0.
        out.append(0.0 - terms.sum(axis=1))
    return np.concatenate(out)


def _sweep_stacks(axis: np.ndarray, totals: np.ndarray, cfg: IdmConfig):
    """The axis as :func:`~idmbounds.exact_extrema._entropy_rows` items, a
    block of rows at a time.

    A row has ``4 d`` entropy points and ``2 d`` extra points, so an item
    fills at most one special-function block, and only the extra groups of
    the items in hand are held.
    """
    step = max(1, _BLOCK_ROWS // (6 * axis.shape[1]))
    for k in range(0, len(axis), step):
        counts, n = axis[k : k + step], totals[k : k + step]
        stack = _Stack(counts[:, None], n[:, None, None], np.full((len(n), 1, 1), cfg.s))
        yield _Rows(stack, n + cfg.s, extras=_point_groups(counts, n))


def _sweep_table(xs: np.ndarray, axis: np.ndarray, cfg: IdmConfig) -> np.ndarray:
    """The sweep's columns, one row per axis row, before rounding.

    The axis is checked, then leveled, mapped and summed as a stack, and
    every column is taken with array operations from the records of
    :func:`~idmbounds.exact_extrema._entropy_rows`.  Checked rows cannot
    raise there: ``n + s`` is finite and positive, ``n`` is positive (each
    axis row totals at least about 1) and every point lies on [0, 1].
    """
    totals = _checked_totals(xs, axis, cfg)
    parts = [
        (record.lower, record.upper, *record.conservative(), *record.sums)
        for item in _sweep_stacks(axis, totals, cfg)
        for record in _entropy_rows([item])
    ]
    columns = [np.concatenate(column) for column in zip(*parts)]
    return np.column_stack([xs, *columns, _plugin_entropies(axis / totals[:, None])])


def run_sweep(args) -> tuple[dict, dict]:
    cfg = _config(args)  # a bad --s is reported before a bad --sweep
    inputs, xs, axis = _sweep_axis(args)
    rows = [[_round12(v) for v in row] for row in _sweep_table(xs, axis, cfg).tolist()]
    return inputs, {"columns": list(SWEEP_COLUMNS), "rows": rows}


def _csv_text(result: dict) -> str:
    if result["command"] == "sweep":
        lines = [",".join(result["columns"])]
        lines += [",".join(f"{v:.12g}" for v in row) for row in result["rows"]]
    else:
        lines = ["kind,lower,upper"]
        for kind, iv in result["intervals"].items():
            lines.append(f"{kind},{iv['lower']:.12g},{iv['upper']:.12g}")
    return "\n".join(lines)


#: The arguments that only some subcommands take.
_OWN_ARGUMENTS = {
    "--grid-check": {
        "type": int,
        "metavar": "RESOLUTION",
        "help": "append a brute-force lattice interval and containment verdicts",
    },
    "--mode": {"choices": ("exact", "approx", "both"), "default": "both"},
    "--alpha": {"type": float, "help": "coverage level in (0, 1)"},
    "--sweep": {
        "required": True,
        "metavar": "SPEC",
        "help": "axis spec: n:<min>:<max> (fixed ratios) or ratio:<n> (fixed n)",
    },
}
#: entropy and mutinfo take the lattice check and the estimator mode.
_GRID_FLAGS = ("--grid-check", "--mode")

#: Subcommand: help, default format, handler and its own arguments.
_SUBCOMMANDS = {
    "entropy": ("robust expected-entropy intervals", "json", run_entropy, _GRID_FLAGS),
    "mutinfo": ("robust expected-mutual-information intervals", "json", run_mutinfo, _GRID_FLAGS),
    "credible": ("robust credible interval for the MI", "json", run_credible, ("--alpha",)),
    "sweep": ("entropy-interval series for plotting", "csv", run_sweep, ("--sweep",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idmbounds",
        description="Robust interval estimators under the imprecise Dirichlet model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, default_format, handler, own_flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", help="input file (counts or CSV table)")
        p.add_argument("--inline", help="inline input data instead of a file")
        p.add_argument("--s", type=float, default=1.0, help="prior strength (default 1)")
        p.add_argument(
            "--format", choices=("json", "csv"), default=default_format, help="output format"
        )
        for flag in own_flags:
            p.add_argument(flag, **_OWN_ARGUMENTS[flag])
        p.set_defaults(handler=handler)
    return parser


# Built once; parse_args only reads it, so main is safe to call from threads.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        inputs, body = args.handler(args)
    except CliError as exc:
        error = {"schema": SCHEMA, "error": {"code": exc.code, "message": exc.message}}
        return _respond(json.dumps(error), f"error [{exc.code}]: {exc.message}", 1)
    inputs["s"] = _round12(args.s)
    if getattr(args, "grid_check", None) is not None:
        inputs["grid_check"] = args.grid_check
    result = {"schema": SCHEMA, "command": args.command, "inputs": inputs, **body}
    csv = args.format == "csv"
    text = _csv_text(result) if csv else json.dumps(result, indent=2, sort_keys=True)
    return _respond(text, f"ok: {args.command} completed", 0)


def _respond(text: str, note: str, status: int) -> int:
    """Print ``text`` to stdout, then ``note`` to stderr, and return ``status``."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): stop quietly, and keep
        # the interpreter's flush at exit from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    print(note, file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
