"""Entropy intervals, MI bounds and CLI requests take at most one special-function pass.

Each fused call is compared with a reference built here from separate
public calls: the bits of every field, the sign of every zero, and the
type and message of every error must agree.  A count vector keeps the
answers of its last pass, so a later question at the same strength takes
none; its answers are compared with those of fresh objects.  The CLI's
entropy and sweep requests batch their rows into one pass per block of
points.  The cost guards count work, never time it: passes, summand calls
and estimates built.
"""

import dataclasses
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    expected_mi,
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
    robust_credible_mi,
    robust_credible_mi_parts,
)
from idmbounds import cli, exact_extrema, mutual_info, special_fn
from idmbounds.cli import _point_groups, main
from _helpers import peak_traced


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


def _count_driver_calls(monkeypatch):
    """Record every call of the pass driver from ``mutual_info``."""
    calls = []
    original = mutual_info._entropy_rows
    monkeypatch.setattr(
        mutual_info, "_entropy_rows", lambda items: calls.append(items) or original(items)
    )
    return calls


def test_a_tables_second_mi_question_reuses_its_first(passes, monkeypatch):
    tbl, cfg = ContingencyCounts([[3.25, 1.0, 2.5], [1.0, 4.1, 0.0]]), IdmConfig(1.0)
    calls = _count_driver_calls(monkeypatch)
    mi_interval_bounds(tbl, cfg)
    # A renamed or bypassed driver would leave these at zero.
    assert len(calls) == 1
    assert len(passes) == 1
    calls.clear()
    passes.clear()

    def refuse(*args):
        raise AssertionError("a simplex point was built")

    with monkeypatch.context() as patch:
        patch.setattr(SimplexPoint, "__post_init__", refuse)
        est, variance, interval = robust_credible_mi_parts(tbl, cfg, SPEC)
    assert len(calls) == 1
    assert passes == []
    fresh = ContingencyCounts(tbl.table)
    _assert_same((est, variance, interval), _credible_reference(fresh, cfg, SPEC), tbl.table)
    # Another strength computes afresh, and is kept in turn.
    calls.clear()
    passes.clear()
    for _ in range(2):
        mi_estimate(tbl, IdmConfig(2.0))
    assert len(calls) == 2
    assert len(passes) == 1


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


def _groups(counts):
    """The sweep's extra groups of one count vector, stacked as one row."""
    return _point_groups(counts.counts[None], np.array([counts.total]))


def _extras(counts):
    # A zero total has no frequencies: such a row takes no extra groups.
    return _groups(counts) if counts.total > 0 else ()


def _stack(pairs):
    """The stack of ``(counts, cfg)`` pairs whose count vectors share one dimension."""
    return exact_extrema._Stack(
        np.array([counts.counts for counts, _ in pairs])[:, None],
        np.array([counts.total for counts, _ in pairs])[:, None, None],
        np.array([cfg.s for _, cfg in pairs])[:, None, None],
    )


def _stacks(rows):
    """``(counts, cfg, extras)`` rows as ``_entropy_rows`` items: consecutive
    rows of one dimension and one shape of extra groups form one stack, whose
    remainder kernel is each row's ``n + s``."""

    def shape(row):
        counts, _, extras = row
        return counts.dim, tuple(u.shape for _, u in extras)

    for _, run in groupby(rows, key=shape):
        run = list(run)
        extras = tuple(
            (np.concatenate([total for total, _ in parts]), np.concatenate([u for _, u in parts]))
            for parts in zip(*(extras for _, _, extras in run))
        )
        stack = _stack([(counts, cfg) for counts, cfg, _ in run])
        yield exact_extrema._Rows(stack, (stack.total + stack.s).ravel(), extras=extras)


def _rows(records):
    """Each row of ``_entropy_rows`` records: its interval, estimate and sums."""
    return [
        (
            record.interval(k),
            RobustEstimate(*record.primaries(k)),
            [float(s[k]) for s in record.sums],
        )
        for record in records
        for k in range(len(record.lower))
    ]


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
    monkeypatch.setattr(exact_extrema, "_BLOCK_ROWS", block)
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
        got = _rows(exact_extrema._entropy_rows(_stacks(rows)))
        want = [_row_reference(counts, cfg) for counts, cfg in cases]
    assert len(got) == len(want)
    for (exact, est, sums), reference, (counts, cfg) in zip(got, want, cases):
        _assert_same((exact, est, *sums), reference, (counts.counts, cfg.s))


def test_rows_join_a_pass_until_the_next_would_overflow_it(passes, monkeypatch):
    monkeypatch.setattr(exact_extrema, "_BLOCK_ROWS", 40)
    cfg = IdmConfig(0.5)
    small, wide = CountVector([3.0, 6.0, 1.0]), CountVector(np.arange(12.0))
    # Points per row: 18, 18, 12, 72 and 18, so the passes take 36, 12, 72 and 18.
    rows = [
        (small, cfg, _groups(small)),
        (small, cfg, _groups(small)),
        (small, cfg, ()),
        (wide, cfg, _groups(wide)),
        (small, cfg, _groups(small)),
    ]
    list(exact_extrema._entropy_rows(_stacks(rows)))
    kernels = [3, 1, 3, 3]  # distinct n + s + 1, n + 1 and n + 2 in each pass
    assert [p.size for p in passes] == [k + size for k, size in zip(kernels, [36, 12, 72, 18])]


def test_wide_sweep_memory_stays_bounded():
    # 200 rows of 2000 categories are 2.4M points: one unblocked pass peaks
    # above 200 MB, blocks of 2^16 points under 20 MB.
    counts = ",".join(str(k % 50) for k in range(2000))
    argv = ["sweep", "--inline", counts, "--sweep", "n:1:200"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status, peak = peak_traced(lambda: main(argv))
    assert status == 0
    assert len(out.getvalue().splitlines()) == 201
    assert peak < 20 * 2**20


@pytest.mark.parametrize("rows", [1, 60])
def test_a_sweep_builds_no_result_objects_per_row(rows, monkeypatch):
    built = []
    for cls in (CountVector, RobustEstimate, Interval):
        original = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, _f=original: built.append(type(self)) or _f(self)
        )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["sweep", "--inline", "3,6,1", "--sweep", f"n:1:{rows}"]) == 0
        assert main(["sweep", "--sweep", "ratio:9"]) == 0
    # The parsed input is the one count vector either request builds.
    assert built == [CountVector]


def _plugin_reference(counts):
    freq = counts.counts / counts.total
    pos = freq[freq > 0]
    return float(0.0 - (pos * np.log(pos)).sum())


_SWEEP_STRENGTHS = ("1e-17", "1e-9", "0.5", "1", "2.5", "1000", "1e300")


@st.composite
def _sweep_argvs(draw):
    """An ``n:`` sweep of up to 41 rows of d = 1-40 counts with zero cells,
    or a ``ratio:`` sweep, at a strength from 1e-17 to 1e300."""
    s = draw(st.sampled_from(_SWEEP_STRENGTHS))
    if draw(st.booleans()):
        return ["sweep", "--sweep", f"ratio:{draw(st.sampled_from(('1', '2.5', '9', '1000.125', '123456.78')))}", "--s", s]
    d = draw(st.integers(1, 40))
    counts = draw(st.lists(st.integers(0, 20), min_size=d, max_size=d).filter(any))
    lo = draw(st.integers(1, 200))
    span = f"n:{lo}:{lo + draw(st.integers(0, 40))}"
    return ["sweep", "--inline", ",".join(map(str, counts)), "--sweep", span, "--s", s]


_BLOCKS = st.sampled_from([special_fn._BLOCK_ROWS, 100, 30])


# The CLI feeds the axis a block of rows at a time and the pass driver
# splits what it is fed; each takes its own block size here.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(_sweep_argvs(), _BLOCKS, _BLOCKS)
@example(["sweep", "--sweep", "ratio:9", "--s", "1e-17"], 30, 100)
@example(["sweep", "--inline", ",".join(["0", "3"] * 20), "--sweep", "n:1:41", "--s", "1e300"], 100, 30)
def test_sweep_columns_are_bit_identical_to_per_row_calls(argv, block, feed):
    args = cli._PARSER.parse_args(argv)
    cfg = IdmConfig(args.s)
    _, xs, axis = cli._sweep_axis(args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_extrema, "_BLOCK_ROWS", block)
        patch.setattr(cli, "_BLOCK_ROWS", feed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            totals = cli._checked_totals(xs, axis, cfg)
            table = cli._sweep_table(xs, axis, cfg)
    assert table.shape == (len(xs), len(cli.SWEEP_COLUMNS))
    for x, row, total, got in zip(xs, axis, totals, table):
        counts = CountVector(row)
        exact, est, ml, half = _row_reference(counts, cfg)
        cons = est.conservative_interval()
        want = [x, exact.lower, exact.upper, cons.lower, cons.upper, ml, half]
        want += [_plugin_reference(counts)]
        for name, a, b in zip(("total", *cli.SWEEP_COLUMNS), [total, *got], [counts.total, *want]):
            assert a == b and np.signbit(a) == np.signbit(b), (name, argv, x)


# Dimensions at which the float maximum as s rounds a small row's prior
# mass past the float range.
_MASS_DIMS = (3, 9, 11, 12)
_FLOAT_MAX = float(np.finfo(float).max)


def _edge_rows(rng, d):
    """One row for each masked edge of the leveled prior, at dimension ``d``.

    Each row takes its mask by construction; every total is positive, so
    every row has the sweep's extra groups.
    """
    # m (n+s) overflows for every m >= 2.
    total = rng.uniform(0.9, 1.5) * 1e308
    weights = rng.uniform(1.0, 10.0, d)
    overflow = (weights / weights.sum() * total, float(10.0 ** rng.uniform(-3, 300)))
    # n + s below the normal range: the posterior means are rescaled.
    tiny = rng.integers(0, 50, d) * 5e-324
    tiny[0] += 5e-324
    subnormal = (tiny, 5e-324 * int(rng.integers(1, 1000)))
    # Powers of two that sum to one, scaled: every u0_k (n+s) is n_k exactly,
    # and s is below half an ulp of the smallest count, so s moves no t.
    parts = [1.0]
    for _ in range(d - 1):
        half = parts.pop(int(rng.integers(len(parts)))) / 2.0
        parts += [half, half]
    dyadic = np.array(parts) * 2.0 ** int(rng.integers(60, 900))
    still = (rng.permutation(dyadic), float(dyadic.min() * 2.0**-60 * rng.uniform(0.5, 1.0)))
    # s at the float maximum: the prior mass rounds past it at these d.
    small = rng.integers(0, 50, d).astype(float)
    small[0] += 1.0
    mass = (small, _FLOAT_MAX)
    rows = [overflow, subnormal, still, mass]
    assert math.isinf(2.0 * (float(overflow[0].sum()) + overflow[1]))
    assert subnormal[0].sum() + subnormal[1] < 2.0**-1022
    assert dyadic.min() + still[1] == dyadic.min()
    return [(CountVector(counts), IdmConfig(s)) for counts, s in rows]


@st.composite
def _edge_stacks(draw):
    """A stack of one dimension: every edge row among 1-4 ordinary rows, in
    a drawn order, each row with its own s."""
    d = draw(st.sampled_from(_MASS_DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _edge_rows(rng, d)
    for _ in range(draw(st.integers(1, 4))):
        counts = np.round(rng.uniform(0.0, 10 ** rng.uniform(0, 6), d), 2)
        counts = counts * (rng.uniform(size=d) > 0.3)
        counts[int(rng.integers(d))] += 1.0
        rows.append((CountVector(counts), IdmConfig(float(10.0 ** rng.uniform(-3, 3)))))
    return draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_edge_stacks())
def test_stacked_edge_rows_are_bit_identical_to_separate_calls(rows):
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        original = exact_extrema._leveled_prior
        patch.setattr(exact_extrema, "_leveled_prior", lambda *a: calls.append(a) or original(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            items = _stacks((c, cfg, _groups(c)) for c, cfg in rows)
            got = _rows(exact_extrema._entropy_rows(items))
    # One stack: every row's prior means were leveled together.
    assert len(calls) == 1
    for (exact, est, sums), (counts, cfg) in zip(got, rows):
        _assert_same((exact, est, *sums), _row_reference(counts, cfg), (counts.counts, cfg.s))
    # The entropy of a total below the normal range rounds to 0 however its
    # points round, so the points themselves are compared too.
    stacked = exact_extrema._point_sets(_stack(rows), True)
    for points, (counts, cfg) in zip(stacked, rows):
        alone = exact_extrema._point_sets(exact_extrema._one_row(counts, cfg), True)[0]
        assert np.array_equal(points, alone), (counts.counts, cfg.s)


def test_a_sweep_levels_once_per_stack_and_passes_once_per_block(passes, monkeypatch):
    calls = []
    original = exact_extrema._leveled_prior
    monkeypatch.setattr(exact_extrema, "_leveled_prior", lambda *a: calls.append(a) or original(*a))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["sweep", "--inline", "3,6,1", "--sweep", "n:1:60"]) == 0
        assert main(["sweep", "--sweep", "ratio:9"]) == 0
    assert [len(stack.counts) for stack, in calls] == [60, 31]
    assert len(passes) == 2
    # 18 points a row (12 entropy points and 6 extra): 5 rows a block of 100.
    calls.clear()
    passes.clear()
    monkeypatch.setattr(exact_extrema, "_BLOCK_ROWS", 100)
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["sweep", "--inline", "3,6,1", "--sweep", "n:1:60"]) == 0
    assert [len(stack.counts) for stack, in calls] == [5] * 12
    assert len(passes) == 12
    # Rows of another shape start a stack of their own within the pass.
    calls.clear()
    passes.clear()
    cfg = IdmConfig(0.5)
    three, four = CountVector([3.0, 6.0, 1.0]), CountVector([3.0, 6.0, 1.0, 2.0])
    rows = [(three, cfg, ()), (three, cfg, ()), (four, cfg, ()), (three, cfg, ())]
    list(exact_extrema._entropy_rows(_stacks(rows)))
    assert [len(stack.counts) for stack, in calls] == [2, 1, 1]
    assert len(passes) == 1


# The six public questions, each asked of a table: the vector questions of
# one of its parts, the remainder bounds on the part's own kernel or on the
# table's, which the MI bounds use.
def _remainder(part, cfg, total):
    return concave_remainder_bounds(part, cfg, entropy_summand(EntropyKernel(total)))


QUESTIONS = {
    "entropy_interval_exact": lambda tbl, cfg, k, own: entropy_interval_exact(_parts(tbl)[k], cfg),
    "concave_remainder_bounds": lambda tbl, cfg, k, own: _remainder(
        _parts(tbl)[k], cfg, (_parts(tbl)[k].total if own else tbl.total) + cfg.s
    ),
    "mi_estimate": lambda tbl, cfg, k, own: mi_estimate(tbl, cfg),
    "mi_interval_bounds": lambda tbl, cfg, k, own: _bounds_fused(tbl, cfg),
    "mi_interval_crude": lambda tbl, cfg, k, own: mi_interval_crude(tbl, cfg),
    "robust_credible_mi": lambda tbl, cfg, k, own: robust_credible_mi_parts(tbl, cfg, SPEC),
}

_cells = st.sampled_from([0.0, 1.0, 2.0, 3.25, 0.1, 7.7, 1e6, 123456.78])


@st.composite
def _small_tables(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return np.array([[draw(_cells) for _ in range(d2)] for _ in range(d1)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _small_tables(),
    st.sampled_from([(1.0, 2.0), (0.5, 1e3), (1e-12, 1.0), (1e-12, 2e-12), (2.0, 2.0)]),
    st.lists(
        st.tuples(st.sampled_from(list(QUESTIONS)), st.integers(0, 2), st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
# The row and column sums of this table total an ulp above its n: a part's
# own kernel and the table's are two entries.
@example(
    np.array([[0.1, 123456.78, 2.0], [1e6, 7.7, 0.0]]),
    (1.0, 2.0),
    [
        ("mi_estimate", 0, True),
        ("entropy_interval_exact", 2, True),
        ("concave_remainder_bounds", 0, True),
        ("concave_remainder_bounds", 1, False),
        ("concave_remainder_bounds", 1, True),
    ],
)
# n + s rounds to n at both strengths: the strength is part of the entry's key.
@example(
    np.array([[1e6, 0.0], [1.0, 7.7]]),
    (1e-12, 2e-12),
    [("mi_interval_bounds", 0, True), ("mi_interval_bounds", 0, True)],
)
def test_questions_on_one_object_match_fresh_objects(table, strengths, questions):
    tbl = ContingencyCounts(table)
    for i, (name, k, own) in enumerate(questions):
        cfg = IdmConfig(strengths[i % 2])
        ask = QUESTIONS[name]
        got = _run(lambda: ask(tbl, cfg, k, own))
        want = _run(lambda: ask(ContingencyCounts(table), cfg, k, own))
        if isinstance(want, ValueError):
            assert (type(got), str(got)) == (type(want), str(want)), (name, table, cfg.s)
        else:
            _assert_same(got, want, (name, table, cfg.s))


_TABLE = [[3.25, 1.0, 2.5], [1.0, 4.1, 0.5]]


@pytest.mark.parametrize("name", list(QUESTIONS))
def test_second_question_takes_no_pass(name, passes):
    tbl, cfg = ContingencyCounts(_TABLE), IdmConfig(1.0)
    first = QUESTIONS[name](tbl, cfg, 2, True)
    assert len(passes) == 1
    passes.clear()
    _assert_same(QUESTIONS[name](tbl, cfg, 2, True), first, name)
    assert passes == []
    # Another strength is another entry: it takes a pass again.
    QUESTIONS[name](tbl, IdmConfig(2.0), 2, True)
    assert len(passes) == 1


def test_mi_bounds_after_the_joint_entropy_take_the_margins_only(passes):
    # Integral cells: every part totals the table's n, so one kernel serves all.
    tbl, cfg = ContingencyCounts([[3.0, 1.0, 2.0], [1.0, 4.0, 5.0]]), IdmConfig(1.0)
    joint = tbl.joint_counts()
    entropy_interval_exact(joint, cfg)
    _remainder(joint, cfg, joint.total + cfg.s)
    assert len(passes) == 1
    passes.clear()
    mi_interval_bounds(tbl, cfg)
    # psi(n + s + 1), then both point sets of the rows and the columns.
    assert len(passes) == 1
    assert passes[0].size == 1 + 4 * sum(tbl.shape)
    assert passes[0][0] == tbl.total + cfg.s + 1.0
    passes.clear()
    robust_credible_mi(tbl, cfg, SPEC)
    assert passes == []


def test_a_row_wider_than_one_block_stores_nothing(passes):
    d = special_fn._BLOCK_ROWS // 4 + 1
    counts, cfg = CountVector(np.arange(d) % 7.0), IdmConfig(1.0)
    for _ in range(2):
        entropy_interval_exact(counts, cfg)
        _remainder(counts, cfg, counts.total + cfg.s)
    # Each call takes its own set alone: psi(n + s + 1) and 2 d points.
    assert [p.size for p in passes] == [1 + 2 * d] * 4
    # One block holds both sets of a row one category narrower.
    passes.clear()
    narrow = CountVector(np.arange(d - 1) % 7.0)
    entropy_interval_exact(narrow, cfg)
    _remainder(narrow, cfg, narrow.total + cfg.s)
    assert [p.size for p in passes] == [1 + 4 * (d - 1)]


def test_a_table_keeps_nothing_beyond_its_parts(passes):
    # The joint part's 16,512 cells exceed a quarter block: it stores nothing.
    tbl, cfg = ContingencyCounts(np.arange(129 * 128).reshape(129, 128) % 5.0), IdmConfig(1.0)
    assert tbl.cells > special_fn._BLOCK_ROWS // 4
    mi_interval_bounds(tbl, cfg)
    passes.clear()
    mi_estimate(tbl, cfg)
    # psi(n + s + 1) and the joint part's remainder set; the margins are stored.
    assert [p.size for p in passes] == [1 + 2 * tbl.cells]


def test_a_stored_hit_assembles_nothing(monkeypatch):
    assembled = []
    original = exact_extrema._remainder_parts

    def counting(*args):
        assembled.append(args)
        return original(*args)

    monkeypatch.setattr(exact_extrema, "_remainder_parts", counting)
    counts, cfg = CountVector([3, 6, 1, 0, 0.5]), IdmConfig(1.0)
    f = entropy_summand(EntropyKernel(counts.total + cfg.s))
    first = concave_remainder_bounds(counts, cfg, f)
    assert len(assembled) >= 1
    assembled.clear()
    _assert_same(concave_remainder_bounds(counts, cfg, f), first, counts.counts)
    assert assembled == []


def test_a_row_too_wide_to_store_maps_only_the_set_asked_for(monkeypatch):
    sizes = []
    original = exact_extrema._posterior_means

    def counting(*args):
        out = original(*args)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(exact_extrema, "_posterior_means", counting)
    d = special_fn._BLOCK_ROWS // 4 + 1
    counts, cfg = CountVector(np.arange(d) % 7.0), IdmConfig(1.0)
    entropy_interval_exact(counts, cfg)
    # The baseline the leveling reads, then the extreme set alone.
    assert sizes == [d, 2 * d]
    sizes.clear()
    _remainder(counts, cfg, counts.total + cfg.s)
    assert max(sizes) == 2 * d


def test_a_failed_pass_stores_nothing(passes, monkeypatch):
    attempts = []

    def fail(x, orders):
        attempts.append(x)
        raise RuntimeError("the pass failed")

    tbl, cfg = ContingencyCounts(_TABLE), IdmConfig(1.0)
    with monkeypatch.context() as patch:
        patch.setattr(special_fn, "_shift_and_series", fail)
        for name, ask in QUESTIONS.items():
            attempts.clear()
            with pytest.raises(RuntimeError, match="the pass failed"):
                ask(tbl, cfg, 2, True)
            # Every question reached the pass.
            assert len(attempts) == 1, name
    assert passes == []
    taken = []
    for name, ask in QUESTIONS.items():
        passes.clear()
        got = ask(tbl, cfg, 2, True)
        taken.append(len(passes))
        _assert_same(got, ask(ContingencyCounts(_TABLE), cfg, 2, True), name)
    # Nothing was stored: the first question takes a pass of its own.
    assert taken[0] == 1


def test_expected_mi_takes_one_pass(passes):
    tbl, cfg = ContingencyCounts(_TABLE), IdmConfig(1.0)
    expected_mi(tbl, cfg, SimplexPoint.uniform(tbl.cells))
    # psi(n + s + 1), then the rows, the columns and the cells.
    assert len(passes) == 1
    assert passes[0].size == 1 + sum(tbl.shape) + tbl.cells
