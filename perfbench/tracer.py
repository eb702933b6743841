"""Per-layer tracing from outside the program, used only with ``--trace 1``.

``Tracer.install`` replaces each public function of the ``idmbounds``
layer modules, in its own module and under every name another module (or
the package) imported it as, with a wrapper that records a span.  Two
construction hooks are wrapped as well: ``CredibleSpec.__post_init__``
(the ``kappa`` solve) and ``ConcaveSummand.__post_init__`` (the curvature
spot-check).  ``simplex_core`` is not wrapped: its types are built inside
every other layer and their cost stays in the callers' self time.

A span's self time is its duration minus the spans of *other* layers it
encloses.  Calls within one layer stay in the caller's time, so within a
layer the per-function figures can overlap (``special_fn.h`` contains the
``digamma`` calls it makes); the per-layer totals count each layer's
outermost spans only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "cli",
    "credible",
    "mutual_info",
    "taylor_bounds",
    "exact_extrema",
    "special_fn",
    "oracle",
)

_perf = time.perf_counter

# Metric name -> wrapped span key.  ``_ms`` metrics are self milliseconds per
# attempted operation, ``_calls`` metrics calls per operation.
SPAN_MS = {
    "credible.spec_ms": "credible.CredibleSpec",
    "credible.robust_mi_ms": "credible.robust_credible_mi",
    "special_fn.kappa_ms": "special_fn.kappa_from_alpha",
    "special_fn.digamma_ms": "special_fn.digamma",
    "special_fn.trigamma_ms": "special_fn.trigamma",
    "special_fn.h_ms": "special_fn.h",
    "mutual_info.bounds_ms": "mutual_info.mi_interval_bounds",
    "mutual_info.crude_ms": "mutual_info.mi_interval_crude",
    "mutual_info.variance_ms": "mutual_info.mi_variance_leading",
    "mutual_info.product_check_ms": "mutual_info.product_idm_check",
    "exact_extrema.summand_ms": "exact_extrema.ConcaveSummand",
    "exact_extrema.interval_ms": "exact_extrema.entropy_interval_exact",
    "exact_extrema.rational_ms": "exact_extrema.entropy_interval_rational",
    # The Fraction sums behind the rational endpoints run in special_fn.
    "special_fn.h_fraction_ms": "special_fn.h_fraction",
    "taylor_bounds.remainder_ms": "taylor_bounds.concave_remainder_bounds",
    "oracle.compositions_ms": "oracle.compositions",
    "oracle.objective_build_ms": (
        "oracle.lattice_entropy_objective",
        "oracle.lattice_mi_objective",
    ),
    "oracle.objective_ms": "oracle.objective",
    "oracle.grid_ms": ("oracle.grid_extrema", "oracle.product_grid_extrema"),
    "oracle.draws_ms": "oracle.dirichlet_draws",
    "oracle.mc_stats_ms": "oracle.mc_functional_stats",
    "oracle.jackknife_ms": "oracle.jackknife_variance_stderr",
}
SPAN_CALLS = {
    "credible.spec_calls": "credible.CredibleSpec",
    "mutual_info.bounds_calls": "mutual_info.mi_interval_bounds",
    "mutual_info.variance_calls": "mutual_info.mi_variance_leading",
    "exact_extrema.summand_calls": "exact_extrema.ConcaveSummand",
    "exact_extrema.rational_calls": "exact_extrema.entropy_interval_rational",
}
# Counts recorded by argument/result hooks, per operation.
COUNTS = (
    "special_fn.digamma_values",
    "special_fn.trigamma_values",
    "exact_extrema.rational_useful",
    "oracle.compositions_builds",
    "oracle.lattice_points",
    "oracle.draws_values",
)
CLI_COMMANDS = ("entropy", "mutinfo", "credible", "sweep")
# Set-up phase totals (not per operation): where warm-up work shows.
SETUP_MS = {
    "setup.credible.spec_ms": "credible.CredibleSpec",
    "setup.special_fn.kappa_ms": "special_fn.kappa_from_alpha",
    "setup.special_fn.digamma_ms": "special_fn.digamma",
    "setup.special_fn.trigamma_ms": "special_fn.trigamma",
    "setup.oracle.compositions_ms": "oracle.compositions",
}
SETUP_COUNTS = ("oracle.compositions_builds",)


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_int_arg = 0
        self.requests: list = []
        self._last_composition: dict = {}

    def reset(self) -> None:
        """Forget spans and counts so far (``max_int_arg`` is process-wide)."""
        self.calls.clear()
        self.self_s.clear()
        self.layer_self.clear()
        self.counts.clear()
        self.requests.clear()

    def span(self, layer: str, key: str, fn, after=None, on_self=None):
        """Wrap ``fn`` so each call records a span.

        ``after`` sees the result; ``on_self`` gets the call's arguments and
        its self seconds.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - t0
                stack.pop()
                own = elapsed - frame[1]
                self.calls[key] += 1
                self.self_s[key] += own
                parent = stack[-1] if stack else None
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    self.layer_self[layer] += own
                    if parent is not None:
                        parent[1] += elapsed
                if on_self is not None:
                    on_self(args, kwargs, own)
            if after is not None:
                t1 = _perf()
                result = after(args, kwargs, result)
                if stack:
                    # The hook is tracing cost: keep it out of the caller's self time.
                    stack[-1][1] += _perf() - t1
            return result

        return wrapper

    # Hooks -----------------------------------------------------------------

    def _special_values(self, name):
        def after(args, kwargs, result):
            x = np.asarray(args[0] if args else kwargs["x"], dtype=float)
            self.counts[f"special_fn.{name}_values"] += x.size
            nearest = np.rint(x)
            ints = nearest[(np.abs(x - nearest) <= 1e-9) & (nearest >= 1.0)]
            if ints.size:
                self.max_int_arg = max(self.max_int_arg, int(ints.max()))
            return result

        return after

    def _rational(self, args, kwargs, result):
        if result is not None:
            self.counts["exact_extrema.rational_useful"] += 1
        return result

    def _compositions(self, args, kwargs, result):
        # A build is a call whose array is not the one the same key returned
        # last time; weak references keep evicted arrays collectable.
        key = (args + tuple(kwargs.values()))[:2]
        last = self._last_composition.get(key)
        if last is None or last() is not result:
            self.counts["oracle.compositions_builds"] += 1
            self._last_composition[key] = weakref.ref(result)
        return result

    def _lattice_points(self, oracle, product: bool):
        # Built before the functions are wrapped: these are the originals.
        signature = inspect.signature(
            oracle.product_grid_extrema if product else oracle.grid_extrema
        )
        count = oracle.composition_count

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            resolution = bound["grid"].resolution
            if product:
                d1, d2 = bound["tbl"].shape
                points = count(resolution, d1) * count(resolution, d2)
            else:
                points = count(resolution, bound["counts"].dim)
            self.counts["oracle.lattice_points"] += points
            return result

        return after

    def _request(self, args, kwargs, own):
        # cli.main is the outermost cli span, so its self time is the cli
        # layer's self time in the request.
        argv = args[0] if args else kwargs["argv"]
        self.requests.append((argv[0], own))

    def _objective(self, args, kwargs, result):
        return self.span("oracle", "oracle.objective", result)

    def _draws(self, args, kwargs, result):
        self.counts["oracle.draws_values"] += result.size
        return result

    # Installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever bound."""
        package = importlib.import_module("idmbounds")
        modules = {layer: importlib.import_module(f"idmbounds.{layer}") for layer in LAYERS}
        oracle = modules["oracle"]
        hooks = {
            "special_fn.digamma": self._special_values("digamma"),
            "special_fn.trigamma": self._special_values("trigamma"),
            "exact_extrema.entropy_interval_rational": self._rational,
            "oracle.compositions": self._compositions,
            "oracle.grid_extrema": self._lattice_points(oracle, product=False),
            "oracle.product_grid_extrema": self._lattice_points(oracle, product=True),
            "oracle.lattice_entropy_objective": self._objective,
            "oracle.lattice_mi_objective": self._objective,
            "oracle.dirichlet_draws": self._draws,
        }
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                key = f"{layer}.{name}"
                on_self = self._request if key == "cli.main" else None
                wrappers[obj] = self.span(layer, key, obj, hooks.get(key), on_self)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
        for layer, cls in (
            ("credible", modules["credible"].CredibleSpec),
            ("exact_extrema", modules["exact_extrema"].ConcaveSummand),
        ):
            cls.__post_init__ = self.span(layer, f"{layer}.{cls.__name__}", cls.__post_init__)

    # Reporting -------------------------------------------------------------

    def _ms(self, keys) -> float:
        keys = (keys,) if isinstance(keys, str) else keys
        return sum(self.self_s[k] for k in keys) * 1e3

    def setup_metrics(self) -> dict:
        out = {name: (self._ms(key), "ms") for name, key in SETUP_MS.items()}
        for key in SETUP_COUNTS:
            out[f"setup.{key}"] = (self.counts[key], "count")
        return out

    def timed_metrics(self, attempted: int) -> dict:
        """Per-operation figures of the timed phase."""
        out = {}
        out["cli.self_ms"] = (_median_ms([s for _, s in self.requests]), "ms")
        for command in CLI_COMMANDS:
            values = [s for c, s in self.requests if c == command]
            out[f"cli.{command}_ms"] = (_median_ms(values), "ms")
        for name, key in SPAN_MS.items():
            out[name] = (self._ms(key) / attempted, "ms")
        for name, key in SPAN_CALLS.items():
            out[name] = (self.calls[key] / attempted, "count")
        for key in COUNTS:
            out[key] = (self.counts[key] / attempted, "count")
        out["special_fn.max_int_arg"] = (self.max_int_arg, "count")
        return out

    def span_table(self) -> dict:
        """Calls and self milliseconds of every wrapped function."""
        return {
            key: {"calls": self.calls[key], "self_ms": self.self_s[key] * 1e3}
            for key in sorted(self.calls)
        }


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0
