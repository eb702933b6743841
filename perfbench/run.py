#!/usr/bin/env python3
"""idmbounds benchmark: one workload per run, in its own fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

One client runs a closed loop on one thread: each operation starts when the
previous one has returned.  A run times whole rounds of the same seeded
operations until ``--seconds`` have passed, then checks every output
against computations made apart from the program, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end figures;
with ``--trace 1`` wrappers around the package's public functions give
per-layer figures instead (see ``tracer.py``).  Details of each run go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("report", "cli", "lattice", "montecarlo")
# Set-up is timed in this process and in SETUP_SAMPLES - 1 fresh ones
# started after the timed phase.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60

_perf = time.perf_counter


def _prepare_imports() -> None:
    if not (SRC / "idmbounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no idmbounds package under {SRC}; run from a checkout")
    # Byte-compile the package and the benchmark first, so that no timed
    # import pays for compilation, whether or not Python writes bytecode.
    for directory in (SRC / "idmbounds", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def timed_setup(workload: str, tracer=None):
    """Import the package and warm the workload's caches; return the time.

    numpy, the package's one dependency, is imported before the clock
    starts: its import time is not the program's set-up.
    """
    importlib.import_module("numpy")
    t0 = _perf()
    package = importlib.import_module("idmbounds")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported idmbounds from {package.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
    module = importlib.import_module(f"wl_{workload}")
    context = module.warm_up()
    return module, context, _perf() - t0


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rounds(module, ops, seconds: float) -> dict:
    """Time whole rounds of ``ops`` until ``seconds`` of wall time have passed.

    Each output is reduced to a record between operations, outside the
    timing; the first round's records are kept for verification and every
    later round must reproduce them.
    """
    durations = [[] for _ in ops]
    failed = [False] * len(ops)
    first = [None] * len(ops)
    mismatches = []
    rounds = 0
    start = _perf()
    while rounds == 0 or _perf() - start < seconds:
        for i, op in enumerate(ops):
            t0 = _perf()
            try:
                output = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                durations[i].append(_perf() - t0)
                record = ("failed", type(exc).__name__, str(exc))
            else:
                durations[i].append(_perf() - t0)
                record = module.record(op, output)
            if rounds == 0:
                first[i] = record
                failed[i] = record[0] == "failed"
            elif record != first[i] and len(mismatches) < 20:
                mismatches.append(f"{op.kind} #{i}: round {rounds + 1} differs from round 1")
        rounds += 1
    return {
        "durations": durations,
        "failed": failed,
        "first": first,
        "mismatches": mismatches,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unexpected_failures(ops, timed: dict) -> list[str]:
    """An error for every failed operation not marked as failing by a known fault."""
    return [
        f"{op.kind} #{i} raised {rec[1]}: {rec[2]}"
        for i, (op, rec, bad) in enumerate(zip(ops, timed["first"], timed["failed"]))
        if bad and not op.fails
    ]


def end_to_end(timed: dict, setup_s: float) -> dict:
    """End-to-end figures of the timed phase.

    ``ops_per_s`` is the completed operations per second of operation time
    over the whole phase.  Host contention here comes in phases of seconds
    that slow everything by up to half, so each operation's latency is its
    fastest repeat in the run: its cost outside those phases.  A failed
    operation misses every latency limit: it ranks as infinitely slow.
    """
    floors = [min(d) for d in timed["durations"]]
    latency = sorted(math.inf if bad else f for f, bad in zip(floors, timed["failed"]))
    busy = sum(sum(d) for d in timed["durations"])
    return {
        "ops_per_s": (timed["failed"].count(False) * timed["rounds"] / busy, "1/s"),
        "op_p50_ms": (_percentile(latency, 0.50) * 1e3, "ms"),
        "op_p90_ms": (_percentile(latency, 0.90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }


def raw_latency(timed: dict) -> dict:
    """Latency percentiles over every repeat, host contention included."""
    pooled = sorted(
        math.inf if bad else v
        for values, bad in zip(timed["durations"], timed["failed"])
        for v in values
    )
    return {
        "op_p50_ms": _percentile(pooled, 0.50) * 1e3,
        "op_p90_ms": _percentile(pooled, 0.90) * 1e3,
    }


def probe_setup(workload: str) -> float:
    """Time set-up once in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def kind_floors(ops, durations) -> dict:
    by_kind: dict = {}
    for op, values in zip(ops, durations):
        by_kind.setdefault(op.kind, []).append(min(values))
    return {
        kind: {"ops": len(v), "median_floor_ms": statistics.median(v) * 1e3}
        for kind, v in sorted(by_kind.items())
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one idmbounds benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="only time set-up and print the seconds"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _prepare_imports()
    if args.setup_probe:
        print(repr(timed_setup(args.workload)[2]))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    module, context, setup_s = timed_setup(args.workload, tracer)
    setup_trace = tracer.setup_metrics() if tracer is not None else {}
    if tracer is not None:
        tracer.reset()

    import numpy as np

    ops = module.make_round(np.random.default_rng(args.seed), context)
    timed = run_rounds(module, ops, args.seconds)
    attempted = len(ops) * timed["rounds"]
    failed = timed["failed"].count(True) * timed["rounds"]
    setup_samples = [setup_s]
    if tracer is None:
        setup_samples += [probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    e2e = end_to_end(timed, statistics.median(setup_samples))

    if tracer is not None:
        # Taken before the checks, which call the program again.
        metrics = {**tracer.timed_metrics(attempted), **setup_trace}
        span_table = tracer.span_table()
    else:
        metrics = e2e
    errors = unexpected_failures(ops, timed) + timed["mismatches"]
    try:
        errors += module.verify(ops, timed["first"], context)
    except Exception as exc:  # output the checks cannot even read is a failed check
        errors.append(f"checks raised {type(exc).__name__}: {exc}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        # A percentile that lands on a failed operation: JSON has no infinity.
        errors.append("a metric is not a finite number")
        metrics = {k: (v if math.isfinite(v) else -1.0, u) for k, (v, u) in metrics.items()}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": timed["rounds"],
        "ops_per_round": len(ops),
        "setup_samples_s": setup_samples,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "raw": raw_latency(timed),
        "kinds": kind_floors(ops, timed["durations"]),
        "errors": errors[:50],
        "failures": [
            f"{op.kind} #{i}: {rec[1]}: {rec[2]}"
            for i, (op, rec) in enumerate(zip(ops, timed["first"]))
            if timed["failed"][i]
        ],
        "result": result,
    }
    if tracer is not None:
        details["spans"] = span_table
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1) + "\n")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
