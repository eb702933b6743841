"""Entropy intervals, MI bounds and CLI requests take one special-function pass.

Each fused call is compared with a reference built here from separate
public calls: the bits of every field, the sign of every zero, and the
type and message of every error must agree.  The CLI's entropy and sweep
requests batch their rows into one pass per block of points.  The cost
guards count work, never time it: passes, summand calls and estimates built.
"""

import dataclasses
import io
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from idmbounds import (
    ContingencyCounts,
    CountVector,
    CredibleSpec,
    EntropyKernel,
    GridSpec,
    IdmConfig,
    Interval,
    RobustEstimate,
    SimplexPoint,
    concave_remainder_bounds,
    credible_mi_interval,
    digamma,
    entropy_interval_exact,
    entropy_summand,
    h,
    lattice_mi_objective,
    lift,
    max_concave_sum,
    mi_estimate,
    mi_interval_bounds,
    mi_interval_crude,
    mi_variance_leading,
    min_concave_sum,
    negate,
    propagate_sum,
    robust_credible_mi_parts,
)
from idmbounds import exact_extrema, special_fn, taylor_bounds
from idmbounds.cli import _point_groups, main


def _parts(tbl):
    return tbl.row_counts(), tbl.col_counts(), tbl.joint_counts()


def _exact_reference(counts, cfg):
    f = entropy_summand(EntropyKernel(counts.total + cfg.s))
    lower = min_concave_sum(counts, cfg, f).value
    upper = max_concave_sum(counts, cfg, f).value
    return Interval(lower, max(lower, upper))


def _crude_reference(tbl, cfg):
    rows, cols, joint = (_exact_reference(part, cfg) for part in _parts(tbl))
    return Interval(
        rows.lower + cols.lower - joint.upper, rows.upper + cols.upper - joint.lower
    )


def _estimate_reference(tbl, cfg):
    d1, d2 = tbl.shape
    f = entropy_summand(EntropyKernel(tbl.total + cfg.s))
    rows, cols, cells = (concave_remainder_bounds(part, cfg, f) for part in _parts(tbl))
    marginals = propagate_sum(
        lift(rows, np.repeat(np.arange(d1), d2)), lift(cols, np.tile(np.arange(d2), d1))
    )
    return propagate_sum(marginals, negate(cells))


def _bounds_fused(tbl, cfg):
    bounds = mi_interval_bounds(tbl, cfg)
    return bounds, bounds.crude


def _bounds_reference(tbl, cfg):
    return _estimate_reference(tbl, cfg), _crude_reference(tbl, cfg)


def _credible_reference(tbl, cfg, spec):
    est = _estimate_reference(tbl, cfg)
    variance = mi_variance_leading(tbl, cfg, SimplexPoint.uniform(tbl.cells))
    return est, variance, credible_mi_interval(est, variance, spec)


_ESTIMATE_FIELDS = (
    "f0", "r_ub_per_i", "r_lb_per_i", "vertex_values", "sigma", "nonneg",
    "r_ub", "r_lb", "inner_upper", "inner_lower", "i1", "i2",
)


def _fields(result):
    """Every value of a result, as ``(name, value)`` pairs."""
    if isinstance(result, Interval):
        return [("lower", result.lower), ("upper", result.upper)]
    if isinstance(result, tuple):
        return [
            (f"{k}.{name}", value) for k, item in enumerate(result) for name, value in _fields(item)
        ]
    if isinstance(result, float):
        return [("value", result)]
    return [(name, getattr(result, name)) for name in _ESTIMATE_FIELDS]


def _assert_same(got, want, context):
    got_fields, want_fields = _fields(got), _fields(want)
    assert [name for name, _ in got_fields] == [name for name, _ in want_fields]
    for (name, a), (_, b) in zip(got_fields, want_fields):
        assert np.array_equal(a, b), (name, context)
        assert np.array_equal(np.signbit(a), np.signbit(b)), (name, context)


SPEC = CredibleSpec(0.95)

# Each public call, fused, and its reference from separate public calls.
CALLS = {
    "entropy_interval_exact": (entropy_interval_exact, _exact_reference),
    "mi_interval_crude": (mi_interval_crude, _crude_reference),
    "mi_estimate": (mi_estimate, _estimate_reference),
    "mi_interval_bounds": (_bounds_fused, _bounds_reference),
    "robust_credible_mi_parts": (
        lambda tbl, cfg: robust_credible_mi_parts(tbl, cfg, SPEC),
        lambda tbl, cfg: _credible_reference(tbl, cfg, SPEC),
    ),
}


def _strengths(rng):
    fixed = [5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1.0, 2.0, 1e3]
    return fixed + [float(10.0 ** rng.uniform(-323, 3)) for _ in range(32)]


def _vector_corpus():
    rng = np.random.default_rng(41)
    for s in _strengths(rng):
        d = int(rng.integers(1, 30))
        if rng.uniform() < 0.5:
            counts = rng.integers(0, 10 ** int(rng.integers(0, 13)), d, endpoint=True)
        else:
            counts = np.round(rng.uniform(0.0, 10 ** rng.uniform(0, 6), d), 2)
        counts = counts * (rng.uniform(size=d) > 0.3)
        yield CountVector(counts.astype(float)), IdmConfig(s)


def _table_corpus():
    rng = np.random.default_rng(43)
    for s in _strengths(rng) + _strengths(rng):
        shape = tuple(int(k) for k in rng.integers(1, 6, 2))
        if rng.uniform() < 0.4:
            table = rng.integers(0, 10 ** int(rng.integers(0, 13)), shape, endpoint=True)
        else:
            table = np.round(rng.uniform(0.0, 10 ** rng.uniform(0, 6), shape), 2)
        table = table * (rng.uniform(size=shape) > 0.3)
        yield ContingencyCounts(table.astype(float)), IdmConfig(s)


def _run(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except ValueError as exc:
            return exc


@pytest.mark.parametrize("name", list(CALLS))
def test_fused_call_is_bit_identical_to_separate_calls(name):
    fused, reference = CALLS[name]
    vector = name == "entropy_interval_exact"
    cases = list(_vector_corpus() if vector else _table_corpus())
    values = [c.counts if vector else c.table for c, _ in cases]
    assert any(v.max() > 1e11 for v in values)
    assert any((v == 0).any() for v in values)
    if not vector:
        # The trap: one total for every part would change these bits.
        assert any(
            tbl.row_sums.sum() != tbl.total or tbl.col_sums.sum() != tbl.total
            for tbl, _ in cases
        )
    compared = 0
    for data, cfg in cases:
        got, want = _run(lambda: fused(data, cfg)), _run(lambda: reference(data, cfg))
        if isinstance(want, ValueError):
            assert (type(got), str(got)) == (type(want), str(want)), (data, cfg.s)
            continue
        _assert_same(got, want, (data, cfg.s))
        compared += 1
    assert compared >= len(cases) // 2


# The library property's range: zeros, the smallest subnormal and totals
# near the float maximum, where n + s or a witness can leave the range.
_EXTREME = [0.0, 5e-324, 1e-300, 1.0, 3.5, 6e307, 8.9e307, 1e308, 1.7e308]


def _extreme_cases():
    rng = np.random.default_rng(47)
    for s in [5e-324, 1.0, 1e307, 8.9e307, 1.7e308] * 8:
        shape = tuple(int(k) for k in rng.integers(1, 4, 2))
        yield rng.choice(_EXTREME, shape), IdmConfig(s)


@pytest.mark.parametrize("name", list(CALLS))
def test_errors_keep_their_type_and_message(name):
    fused, reference = CALLS[name]
    seen = set()
    for table, cfg in _extreme_cases():
        if name == "entropy_interval_exact":
            data = _run(lambda: CountVector(table.ravel()))
        else:
            data = _run(lambda: ContingencyCounts(table))
        if isinstance(data, ValueError):
            continue
        got, want = _run(lambda: fused(data, cfg)), _run(lambda: reference(data, cfg))
        if isinstance(want, ValueError):
            assert (type(got), str(got)) == (type(want), str(want)), (table, cfg.s)
            seen.add(str(want))
        else:
            _assert_same(got, want, (table, cfg.s))
    assert "total must be a positive finite real" in seen


@pytest.fixture
def passes(monkeypatch):
    """The arguments of every ``_shift_and_series`` call, as float arrays."""
    calls = []
    original = special_fn._shift_and_series

    def counting(x, orders):
        calls.append(np.atleast_1d(np.asarray(x, dtype=float)).copy())
        return original(x, orders)

    monkeypatch.setattr(special_fn, "_shift_and_series", counting)
    return calls


def test_entropy_interval_takes_one_pass(passes):
    counts, cfg = CountVector([3, 6, 1, 0, 12.5]), IdmConfig(1.0)
    entropy_interval_exact(counts, cfg)
    assert len(passes) == 1
    assert counts.total + cfg.s + 1.0 in passes[0]


@pytest.mark.parametrize("call", [mi_interval_crude, mi_estimate, mi_interval_bounds])
def test_mi_call_takes_one_pass(call, passes):
    tbl, cfg = ContingencyCounts([[3.25, 1.0, 2.5], [1.0, 4.1, 0.0]]), IdmConfig(1.0)
    call(tbl, cfg)
    assert len(passes) == 1
    # The remainder bounds' kernel is the table's n + s; each exact interval's
    # is its own part's.
    kernels = set()
    if call is not mi_interval_crude:
        kernels.add(tbl.total + cfg.s)
    if call is not mi_estimate:
        kernels |= {part.total + cfg.s for part in _parts(tbl)}
    assert all(kernel + 1.0 in passes[0] for kernel in kernels)


def test_mi_lattice_objective_takes_two_passes(passes):
    tbl, cfg = ContingencyCounts([[3.25, 1.0, 2.5], [1.0, 4.1, 0.0]]), IdmConfig(1.0)
    grid = GridSpec(12)
    lattice_mi_objective(tbl, cfg, grid)
    # The kernel's psi(T + 1), then every cell, row and column table at once.
    assert len(passes) == 2
    assert passes[0].tolist() == [tbl.total + cfg.s + 1.0]
    assert passes[1].size == (tbl.cells + sum(tbl.shape)) * (grid.resolution + 1)


def test_kernel_takes_its_pass_on_first_read_only(passes):
    want = digamma(8.5)
    passes.clear()
    kernel = EntropyKernel(7.5)
    assert passes == []
    assert kernel.psi_total == want
    assert [p.tolist() for p in passes] == [[8.5]]
    # Cached: a second read makes no pass.
    assert kernel.psi_total == want
    assert len(passes) == 1
    assert [f.name for f in dataclasses.fields(EntropyKernel)] == ["total"]
    assert repr(kernel) == "EntropyKernel(total=7.5)"


def test_entropy_summand_remainder_bounds_take_one_pass(passes, monkeypatch):
    def refuse(*args):
        raise AssertionError("the summand's fn or deriv was called")

    kernel = EntropyKernel(11.5)
    f = entropy_summand(kernel)
    monkeypatch.setattr(exact_extrema, "h", refuse)
    monkeypatch.setattr(exact_extrema, "h_prime", refuse)
    counts, cfg = CountVector([3, 6, 1, 0, 0.5]), IdmConfig(1.0)
    concave_remainder_bounds(counts, cfg, f)
    # psi(T + 1), then the baseline and vertex points: 1 + 2 d arguments.
    assert len(passes) == 1
    assert passes[0].size == 1 + 2 * counts.dim
    assert passes[0][0] == kernel.total + 1.0


@pytest.mark.parametrize("call", [mi_estimate, mi_interval_bounds])
def test_mi_call_builds_one_estimate(call, monkeypatch):
    built = []
    original = RobustEstimate.__post_init__

    def counting(self):
        built.append(type(self))
        original(self)

    monkeypatch.setattr(RobustEstimate, "__post_init__", counting)
    tbl, cfg = ContingencyCounts([[3.25, 1.0, 2.5], [1.0, 4.1, 0.0]]), IdmConfig(1.0)
    result = call(tbl, cfg)
    assert built == [type(result)]


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--inline", "3,6,1,0,12.5", "--mode", "exact"],
        ["entropy", "--inline", "3,6,1,0,12.5", "--mode", "approx"],
        ["entropy", "--inline", "3,6,1,0,12.5", "--mode", "both"],
        ["sweep", "--inline", "3,6,1", "--sweep", "n:1:8"],
        ["sweep", "--sweep", "ratio:9"],
    ],
)
def test_cli_request_takes_one_pass(argv, passes, capsys):
    assert main(argv) == 0
    assert len(passes) == 1


def test_internal_paths_build_no_witness(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(SimplexPoint, "__post_init__", refuse)
    monkeypatch.setattr(exact_extrema, "u_from_t", refuse)
    counts, cfg = CountVector([3, 6, 1, 0, 12.5]), IdmConfig(1.0)
    tbl = ContingencyCounts([[3.25, 1.0, 2.5], [1.0, 4.1, 0.0]])
    entropy_interval_exact(counts, cfg)
    mi_interval_crude(tbl, cfg)
    mi_interval_bounds(tbl, cfg)
    assert main(["entropy", "--inline", "3,6,1,0,12.5", "--mode", "both"]) == 0
    assert main(["sweep", "--inline", "3,6,1", "--sweep", "n:1:8"]) == 0
    assert main(["sweep", "--sweep", "ratio:9"]) == 0
    # The public extrema still build theirs.
    with pytest.raises(AssertionError, match="a witness was built"):
        max_concave_sum(counts, cfg, entropy_summand(EntropyKernel(counts.total + cfg.s)))


def _row_reference(counts, cfg):
    est = concave_remainder_bounds(
        counts, cfg, entropy_summand(EntropyKernel(counts.total + cfg.s))
    )
    n = counts.total
    if n == 0:
        return entropy_interval_exact(counts, cfg), est
    # The sweep's H_point_ml and H_point_half, each on its own kernel.
    ml = float(np.sum(h(counts.counts / n, EntropyKernel(n))))
    half = float(np.sum(h((counts.counts + 0.5) / (n + 1.0), EntropyKernel(n + 1.0))))
    return entropy_interval_exact(counts, cfg), est, ml, half


def _extras(counts):
    # A zero total has no frequencies: such a row takes no extra groups.
    return _point_groups(counts) if counts.total > 0 else []


def _row_corpus():
    rng = np.random.default_rng(53)
    for s in _strengths(rng) + _strengths(rng):
        d = int(rng.integers(1, 30, endpoint=True))
        if rng.uniform() < 0.5:
            counts = rng.integers(0, 10 ** int(rng.integers(0, 13)), d, endpoint=True)
        else:
            counts = np.round(rng.uniform(0.0, 10 ** rng.uniform(0, 6), d), int(rng.integers(3)))
        counts = counts * (rng.uniform(size=d) > 0.3)
        yield CountVector(counts.astype(float)), IdmConfig(s)


@pytest.mark.parametrize("block", [special_fn._BLOCK_ROWS, 100])
def test_batched_rows_are_bit_identical_to_separate_calls(block, monkeypatch):
    monkeypatch.setattr(taylor_bounds, "_BLOCK_ROWS", block)
    cases = list(_row_corpus())
    values = [counts.counts for counts, _ in cases]
    assert {v.size for v in values} >= {1, 30}
    assert any(v.max() > 1e11 for v in values)
    assert any((v == 0).any() for v in values)
    assert any(not v.any() for v in values)
    # Above 100 points a row takes a pass of its own.
    assert any(6 * v.size > 100 for v in values)
    rows = [(counts, cfg, _extras(counts)) for counts, cfg in cases]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = list(taylor_bounds._entropy_rows(rows))
        want = [_row_reference(counts, cfg) for counts, cfg in cases]
    assert len(got) == len(want)
    for (exact, est, sums), reference, (counts, cfg) in zip(got, want, cases):
        _assert_same((exact, est, *sums), reference, (counts.counts, cfg.s))


def test_rows_join_a_pass_until_the_next_would_overflow_it(passes, monkeypatch):
    monkeypatch.setattr(taylor_bounds, "_BLOCK_ROWS", 40)
    cfg = IdmConfig(0.5)
    small, wide = CountVector([3.0, 6.0, 1.0]), CountVector(np.arange(12.0))
    # Points per row: 18, 18, 12, 72 and 18, so the passes take 36, 12, 72 and 18.
    rows = [
        (small, cfg, _point_groups(small)),
        (small, cfg, _point_groups(small)),
        (small, cfg, []),
        (wide, cfg, _point_groups(wide)),
        (small, cfg, _point_groups(small)),
    ]
    list(taylor_bounds._entropy_rows(rows))
    kernels = [3, 1, 3, 3]  # distinct n + s + 1, n + 1 and n + 2 in each pass
    assert [p.size for p in passes] == [k + size for k, size in zip(kernels, [36, 12, 72, 18])]


def test_wide_sweep_memory_stays_bounded():
    # 200 rows of 2000 categories are 2.4M points: one unblocked pass peaks
    # above 200 MB, blocks of 2^16 points under 20 MB.
    counts = ",".join(str(k % 50) for k in range(2000))
    argv = ["sweep", "--inline", counts, "--sweep", "n:1:200"]
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert len(out.getvalue().splitlines()) == 201
    assert peak < 20 * 2**20
