"""Command-line interface: golden runs, formats, and error codes."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idmbounds import (
    ContingencyCounts,
    CredibleSpec,
    GridSpec,
    IdmConfig,
    compositions,
    lattice_mi_objective,
    robust_credible_mi,
)
import idmbounds.cli as cli
from idmbounds.cli import SWEEP_COLUMNS, main


#: A 401-digit integer, far beyond the float range.
BIG = "1" + "0" * 400
#: The float maximum as an integer: a sweep bound inside the float range.
FLOAT_MAX = str(int(sys.float_info.max))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestEntropyCommand:
    def test_golden_worked_example(self, capsys):
        code, result = run_json(
            capsys, "entropy", "--inline", "3,6", "--s", "1", "--mode", "both",
            "--format", "json",
        )
        assert code == 0
        exact = result["intervals"]["exact"]
        assert exact["lower_rational"] == "7106/12600"
        assert exact["upper_rational"] == "7883/12600"
        assert exact["lower"] == pytest.approx(float(Fraction(7106, 12600)), abs=1e-11)
        assert exact["upper"] == pytest.approx(float(Fraction(7883, 12600)), abs=1e-11)
        cons = result["intervals"]["conservative"]
        assert cons["lower"] == pytest.approx(0.5564, abs=2e-4)
        assert cons["upper"] == pytest.approx(0.6404, abs=2e-4)

    def test_exact_inside_conservative_for_mode_both(self, capsys):
        for inline in ("3,6", "1,2,3", "0,4,4,9"):
            _, result = run_json(capsys, "entropy", "--inline", inline)
            exact = result["intervals"]["exact"]
            cons = result["intervals"]["conservative"]
            assert cons["lower"] <= exact["lower"] + 1e-12
            assert exact["upper"] <= cons["upper"] + 1e-12

    def test_single_category_collapses(self, capsys):
        _, result = run_json(capsys, "entropy", "--inline", "5", "--s", "1")
        exact = result["intervals"]["exact"]
        assert exact["lower"] == 0.0
        assert exact["upper"] == 0.0

    def test_huge_count(self, capsys):
        code, result = run_json(capsys, "entropy", "--inline", "1000000000000,1", "--s", "1")
        assert code == 0
        exact = result["intervals"]["exact"]
        assert 0.0 < exact["lower"] < exact["upper"] < 1e-10

    def test_total_near_the_float_maximum(self, capsys):
        # The maximiser's m (n+s) overflows here; the suite turns the
        # overflow warning into an error.
        code, result = run_json(capsys, "entropy", "--inline", "1e308,1")
        assert code == 0
        exact = result["intervals"]["exact"]
        assert 0.0 < exact["lower"] < exact["upper"] < 1e-300

    def test_mode_exact_omits_conservative(self, capsys):
        _, result = run_json(capsys, "entropy", "--inline", "3,6", "--mode", "exact")
        assert "conservative" not in result["intervals"]
        assert "exact" in result["intervals"]

    def test_grid_check_verdicts(self, capsys):
        _, result = run_json(
            capsys, "entropy", "--inline", "2,5", "--grid-check", "200"
        )
        assert result["diagnostics"]["oracle_within_exact"] is True
        assert result["diagnostics"]["oracle_within_conservative"] is True
        oracle = result["intervals"]["oracle"]
        exact = result["intervals"]["exact"]
        assert oracle["lower"] >= exact["lower"] - 1e-9

    def test_json_round_trip(self, capsys):
        _, out1 = run_cli(capsys, "entropy", "--inline", "3,6")
        reparsed = json.dumps(json.loads(out1), indent=2, sort_keys=True) + "\n"
        assert reparsed == out1

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "entropy", "--inline", "3,6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,lower,upper"
        kinds = {ln.split(",")[0] for ln in lines[1:]}
        assert {"exact", "conservative", "inner"} <= kinds

    def test_near_integer_counts_get_no_rational_endpoints(self, capsys):
        _, result = run_json(
            capsys, "entropy", "--inline", "3.0000000005,6", "--mode", "exact"
        )
        assert "lower_rational" not in result["intervals"]["exact"]
        assert "upper_rational" not in result["intervals"]["exact"]

    def test_file_input_with_crlf(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"3,6\r\n")
        _, result = run_json(capsys, "entropy", str(path))
        assert result["intervals"]["exact"]["lower_rational"] == "7106/12600"

    def test_file_with_utf8_bom(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"\xef\xbb\xbf3,6\r\n")
        code, result = run_json(capsys, "entropy", str(path))
        assert code == 0
        assert result["inputs"]["counts"] == [3.0, 6.0]

    def test_undecodable_file_is_a_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"\xff\xfe3,6")
        code, result = run_json(capsys, "entropy", str(path))
        assert code == 1
        assert result["error"]["code"] == "PARSE_FAILURE"


class TestErrorCodes:
    CASES = (
        (("entropy", "--inline", ""), "EMPTY_INPUT"),
        (("entropy",), "EMPTY_INPUT"),
        (("entropy", "--inline", "1,x"), "PARSE_FAILURE"),
        (("entropy", "--inline=-1,2"), "NEGATIVE_COUNTS"),
        (("entropy", "--inline", "1,2", "--s", "0"), "BAD_STRENGTH"),
        (("entropy", "/nonexistent/path.txt",), "FILE_NOT_FOUND"),
        (("mutinfo", "--inline", "1,2\n3"), "RAGGED_TABLE"),
        (("mutinfo", "--inline", "1,2\n3,-4"), "NEGATIVE_COUNTS"),
        (("credible", "--inline", "1,2\n3,4"), "ALPHA_REQUIRED"),
        (("credible", "--inline", "1,2\n3,4", "--alpha", "1.5"), "ALPHA_OUT_OF_RANGE"),
        (("sweep", "--inline", "3,6", "--sweep", "bogus"), "BAD_SWEEP_SPEC"),
        (("sweep", "--inline", "3,6", "--sweep", "n:5:2"), "BAD_SWEEP_SPEC"),
        (("entropy", "--inline", "1,2,1,2,1,2", "--grid-check", "3000"), "GRID_OVERFLOW"),
        (("mutinfo", "--inline", "1,2\n3,4", "--grid-check", "1"), "BAD_GRID_SPEC"),
        (("entropy", "--inline", "1,2", "--grid-check", "0"), "BAD_GRID_SPEC"),
        (("entropy", "--inline", "1,2", "--grid-check", "40000"), "BAD_GRID_SPEC"),
        # s * t underflows to 0, so the posterior mean of the empty cell is 0.
        (("credible", "--inline", "0,1\n1,1", "--alpha", "0.9", "--s", "5e-324"), "ZERO_CELL"),
        # No cell is zero: the leading variance divided by n + s leaves the float range.
        (
            ("credible", "--inline", "1e-320,5e-321\n5e-321,1e-320", "--s", "1e-320", "--alpha", "0.5"),
            "BAD_STRENGTH",
            "credible-variance-beyond-float-range",
        ),
        # Rows with a third element take it as their test id.
        (("mutinfo", "--inline", '{"table": [[], []]}'), "PARSE_FAILURE", "mutinfo-empty-rows"),
        (
            ("credible", "--inline", '{"table": [[], []]}', "--alpha", "0.9"),
            "PARSE_FAILURE",
            "credible-empty-rows",
        ),
        (("entropy", "--inline", "1e308,1e308"), "PARSE_FAILURE", "entropy-total-overflow"),
        (("mutinfo", "--inline", "1e308,1\n1e308,1"), "PARSE_FAILURE", "mutinfo-total-overflow"),
        (("entropy", "--inline", "1e308,1", "--s", "1e308"), "BAD_STRENGTH", "entropy-n+s-overflow"),
        (("mutinfo", "--inline", "1e308,1\n1,1", "--s", "1e308"), "BAD_STRENGTH", "mutinfo-n+s-overflow"),
        (
            ("credible", "--inline", "1e308,1\n1,1", "--alpha", "0.9", "--s", "1e308"),
            "BAD_STRENGTH",
            "credible-n+s-overflow",
        ),
        (("sweep", "--sweep", "ratio:1e308", "--s", "1e308"), "BAD_STRENGTH", "sweep-n+s-overflow"),
        (("sweep", "--inline", "1,2", "--sweep", "n:1:100000"), "BAD_SWEEP_SPEC", "sweep-row-cap"),
        # The cap is checked before the input is read: the missing file is never opened.
        (
            ("sweep", "/nonexistent/path.txt", "--sweep", "n:1:100000"),
            "BAD_SWEEP_SPEC",
            "sweep-row-cap-before-input",
        ),
        (
            ("sweep", "--inline", "1,2", "--sweep", f"n:{BIG}:{BIG}"),
            "BAD_SWEEP_SPEC",
            "sweep-n-overflow",
        ),
        # A ratio sweep fixes its counts, so any input conflicts with it.
        (("sweep", "--inline", "garbage", "--sweep", "ratio:3"), "INPUT_CONFLICT", "ratio-inline"),
        (("sweep", "--inline", "", "--sweep", "ratio:3"), "INPUT_CONFLICT", "ratio-empty-inline"),
        (("sweep", "/nonexistent/path.txt", "--sweep", "ratio:3"), "INPUT_CONFLICT", "ratio-file"),
        (("entropy", "--inline", "1,,2"), "PARSE_FAILURE", "empty-component"),
        (("entropy", "--inline", '{"counts": []}'), "PARSE_FAILURE", "json-empty-counts"),
        (("mutinfo", "--inline", '{"table": []}'), "PARSE_FAILURE", "json-empty-table"),
        (("sweep", "--inline", "0,0", "--sweep", "n:1:3"), "BAD_SWEEP_SPEC", "n-sweep-zero-total"),
        (("sweep", "--sweep", "ratio:abc"), "BAD_SWEEP_SPEC", "ratio-not-a-number"),
    )

    @pytest.mark.parametrize("argv,code", [c[:2] for c in CASES], ids=[c[-1] for c in CASES])
    def test_documented_code_and_nonzero_exit(self, capsys, argv, code):
        status, result = run_json(capsys, *argv)
        assert status == 1
        assert result["error"]["code"] == code

    @pytest.mark.parametrize("command", ["credible", "sweep"])
    def test_grid_check_only_where_an_oracle_runs(self, capsys, command):
        extra = ("--alpha", "0.9") if command == "credible" else ("--sweep", "n:9:9")
        with pytest.raises(SystemExit) as exc:
            main([command, "--inline", "1,2\n3,4", *extra, "--grid-check", "20"])
        assert exc.value.code == 2
        assert "--grid-check" in capsys.readouterr().err

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["entropy", "--inline", "3,6", "--seed", "1"])
        capsys.readouterr()

    def test_data_starting_with_a_minus_needs_the_equals_form(self, capsys):
        # argparse reads a separate "-1,2" as an option, so only the
        # attached form reaches the count parser; the README says so.
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--inline", "-1,2"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        status, result = run_json(capsys, "entropy", "--inline=-1,2")
        assert status == 1
        assert result["error"]["code"] == "NEGATIVE_COUNTS"

    def test_input_conflict(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1,2")
        status, result = run_json(capsys, "entropy", str(path), "--inline", "1,2")
        assert status == 1
        assert result["error"]["code"] == "INPUT_CONFLICT"


class TestMutinfoCommand:
    def test_sandwich_in_output(self, capsys):
        code, result = run_json(capsys, "mutinfo", "--inline", "5,1\n1,5", "--s", "1")
        assert code == 0
        cons = result["intervals"]["conservative"]
        inner = result["intervals"]["inner"]
        assert cons["lower"] <= inner["lower"] <= inner["upper"] <= cons["upper"]

    def test_single_row_crude_contains_zero(self, capsys):
        _, result = run_json(capsys, "mutinfo", "--inline", "3,6")
        crude = result["intervals"]["crude"]
        assert crude["lower"] <= 0.0 <= crude["upper"]

    def test_grid_check_includes_product_verdict(self, capsys):
        _, result = run_json(
            capsys, "mutinfo", "--inline", "3,1\n1,3", "--grid-check", "30"
        )
        diag = result["diagnostics"]
        assert diag["oracle_within_conservative"] is True
        assert diag["oracle_within_crude"] is True
        assert diag["product_idm_ok"] is True

    def test_grid_check_prints_the_lattice_interval(self, capsys):
        _, result = run_json(
            capsys, "mutinfo", "--inline", "3,1,2\n0,4,1", "--grid-check", "40"
        )
        tbl, grid = ContingencyCounts([[3, 1, 2], [0, 4, 1]]), GridSpec(40)
        vals = lattice_mi_objective(tbl, IdmConfig(1.0), grid)(compositions(40, 6))
        emitted = [float(f"{x:.12g}") for x in (vals.min(), vals.max())]
        oracle = result["intervals"]["oracle"]
        assert [oracle["lower"], oracle["upper"]] == emitted

    def test_json_table_input(self, capsys):
        _, result = run_json(
            capsys, "mutinfo", "--inline", '{"table": [[5, 1], [1, 5]]}'
        )
        assert result["inputs"]["table"] == [[5.0, 1.0], [1.0, 5.0]]


class TestCredibleCommand:
    def test_interval_widens_conservative(self, capsys):
        code, result = run_json(
            capsys, "credible", "--inline", "5,1\n1,5", "--alpha", "0.95"
        )
        assert code == 0
        cons = result["intervals"]["conservative"]
        cred = result["intervals"]["credible"]
        assert cred["lower"] <= cons["lower"]
        assert cred["upper"] >= cons["upper"]
        assert result["diagnostics"]["kappa"] == pytest.approx(1.96, abs=1e-2)

    def test_alpha_at_the_last_double_below_one(self, capsys):
        code, result = run_json(
            capsys, "credible", "--inline", "1,2\n3,4", "--alpha", "0.9999999999999999"
        )
        assert code == 0
        assert result["diagnostics"]["kappa"] == pytest.approx(8.29236107581, abs=1e-11)

    def test_underflowing_margin_product(self, capsys):
        code, result = run_json(
            capsys, "credible", "--inline", "0,0\n0,1e200", "--alpha", "0.9"
        )
        assert code == 0
        assert result["diagnostics"]["mi_variance"] >= 0.0

    def test_matches_library_interval(self, capsys):
        _, result = run_json(
            capsys, "credible", "--inline", "5,1\n1,5", "--alpha", "0.9", "--s", "2"
        )
        tbl = ContingencyCounts([[5, 1], [1, 5]])
        iv = robust_credible_mi(tbl, IdmConfig(2.0), CredibleSpec(0.9))
        assert result["intervals"]["credible"]["lower"] == pytest.approx(iv.lower, abs=1e-11)
        assert result["intervals"]["credible"]["upper"] == pytest.approx(iv.upper, abs=1e-11)


class TestSweepCommand:
    def test_ratio_sweep_recovers_worked_example_row(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--sweep", "ratio:9", "--s", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        row = rows[f"{1/3:.12g}"]
        assert float(row[1]) == pytest.approx(0.563968253968, abs=1e-9)
        assert float(row[2]) == pytest.approx(0.625634920635, abs=1e-9)
        assert float(row[3]) == pytest.approx(0.556486629397, abs=1e-9)
        assert float(row[4]) == pytest.approx(0.640488033914, abs=1e-9)

    def test_single_point_sweep(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--inline", "3,6", "--sweep", "n:9:9", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(0.563968253968, abs=1e-9)

    @pytest.mark.parametrize("s", ["1", "1e308"])
    def test_row_total_past_the_float_range_is_a_bad_spec(self, capsys, s):
        # At the float maximum these ratios scale to counts whose total rounds
        # past it.  The row's bad total is reported before its bad n + s.
        argv = ("--inline", "6,5,3,3,1,1,1", "--sweep", f"n:{FLOAT_MAX}:{FLOAT_MAX}", "--s", s)
        status, result = run_json(capsys, "sweep", *argv)
        assert status == 1
        assert result["error"]["code"] == "BAD_SWEEP_SPEC"
        assert f"x = {sys.float_info.max:g}" in result["error"]["message"]

    def test_conservative_band_shrinks_with_n(self, capsys):
        _, out = run_cli(
            capsys, "sweep", "--inline", "1,2", "--sweep", "n:8:64", "--format", "csv"
        )
        widths = []
        for ln in out.strip().splitlines()[1:]:
            parts = [float(v) for v in ln.split(",")]
            widths.append(parts[4] - parts[3])
        assert all(b < a for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize(
        "argv",
        [("--sweep", "ratio:9"), ("--inline", "0,5", "--sweep", "n:1:1", "--format", "json")],
    )
    def test_single_category_plugin_entropy_is_positive_zero(self, capsys, argv):
        code, out = run_cli(capsys, "sweep", *argv)
        assert code == 0
        if argv[-1] == "json":
            first = json.loads(out)["rows"][0]
        else:
            first = [float(v) for v in out.splitlines()[1].split(",")]
        assert first[-1] == 0.0
        assert math.copysign(1.0, first[-1]) == 1.0

    def test_json_format_carries_columns(self, capsys):
        _, result = run_json(
            capsys, "sweep", "--inline", "3,6", "--sweep", "n:9:10", "--format", "json"
        )
        assert result["columns"] == list(SWEEP_COLUMNS)
        assert len(result["rows"]) == 2


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["entropy", "--inline", "3,6"]) == 0
        assert main(["sweep", "--inline", "3,6", "--sweep", "n:9:9"]) == 0
        capsys.readouterr()
        assert built == []

    def test_shared_parser_under_threads(self):
        argvs = [
            ["entropy", "--inline", "3,6", "--mode", "exact", "--grid-check", "5"],
            ["mutinfo", "--inline", "1,2\n3,4", "--format", "csv"],
            ["credible", "--inline", "1,2\n3,4", "--alpha", "0.9", "--s", "2"],
            ["sweep", "--sweep", "ratio:9"],
        ]
        expected = [vars(cli._PARSER.parse_args(argv)) for argv in argvs]
        matches = []

        def worker(offset):
            for i in range(200):
                k = (i + offset) % len(argvs)
                matches.append(vars(cli._PARSER.parse_args(argvs[k])) == expected[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(matches) == 8 * 200 and all(matches)


class TestBrokenPipe:
    def test_closed_reader_gives_no_traceback(self):
        # The read end is closed before the child starts, so its first write
        # or flush fails with EPIPE on every run.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "idmbounds", "sweep", "--sweep", "ratio:9"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


# Valid and hostile pieces of a command line.
_NUMBERS = ("3", "6", "0", "2.5", "1e-3", "40")
_HOSTILE_NUMBERS = ("-1", "1e308", "5e-324", "nan", "inf", "-inf", "1_000", BIG, "x", "")
_TEXTS = (
    '{"counts": [1, 2]}',
    '{"table": [[1, 2], [3, 4]]}',
    '{"counts": ',
    '{"table": [[], []]}',
    '{"counts": "12"}',
    "[1, 2]",
    "\ufeff1,2",
    "1,\x002",
    "\x00",
    "1,2\r\n3,4",
    "1,2\n3",
    "   ",
    "garbage",
)
_SWEEPS = (
    "n:1:3",
    "n:9990:10000",
    "ratio:9",
    "ratio:2.5",
    "n:0:2",
    "n:3:1",
    "n:1:100000",
    f"n:{BIG}:{BIG}",
    f"n:5:{BIG}",
    f"n:{FLOAT_MAX}:{FLOAT_MAX}",
    "n:a:b",
    "n:1",
    "ratio:0",
    "ratio:nan",
    "ratio:inf",
    "ratio:1e308",
    f"ratio:{BIG}",
    "bogus",
)
_OPTIONS = {
    "--s": st.sampled_from(_NUMBERS[:5] + _HOSTILE_NUMBERS),
    "--alpha": st.sampled_from(("0.9", "0.5", "0.999", "0", "1", "nan", "1e-300", "x")),
    "--mode": st.sampled_from(("exact", "approx", "both", "all")),
    "--grid-check": st.sampled_from(("2", "4", "1_0", "0", "1", "-3", "40000", "x")),
    "--sweep": st.sampled_from(_SWEEPS),
    "--format": st.sampled_from(("json", "csv", "xml")),
}
_OWN_FLAGS = {
    "entropy": ("--s", "--mode", "--grid-check", "--format"),
    "mutinfo": ("--s", "--mode", "--grid-check", "--format"),
    "credible": ("--s", "--alpha", "--format"),
    "sweep": ("--s", "--format"),
}


@st.composite
def _argvs(draw):
    """An argv, mostly well-formed, and the bytes of a file it may name."""
    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    valid = st.sampled_from(_NUMBERS)
    number = st.one_of(valid, valid, valid, st.sampled_from(_HOSTILE_NUMBERS))
    row = st.lists(number, min_size=1, max_size=3).map(",".join)
    rows = st.lists(row, min_size=1, max_size=3).map("\n".join)
    text = st.one_of(rows, rows, st.sampled_from(_TEXTS))
    argv = [command]
    source = draw(st.sampled_from(("inline",) * 4 + ("file", "missing", "none", "both")))
    if source in ("inline", "both"):
        argv += ["--inline", draw(text)]
    if source in ("file", "both"):
        argv += ["{file}"]
    if source == "missing":
        argv += ["/nonexistent/input.txt"]
    # Hypothesis favours small integers: 0-6 keep the usual shape, 7 breaks it.
    if command == "credible" and draw(st.integers(0, 7)) < 7:
        argv += ["--alpha", draw(_OPTIONS["--alpha"])]
    if command == "sweep" and draw(st.integers(0, 7)) < 7:
        argv += ["--sweep", draw(_OPTIONS["--sweep"])]
    flags = st.sampled_from(_OWN_FLAGS[command])
    if draw(st.integers(0, 7)) == 7:
        flags = st.sampled_from(sorted(_OPTIONS))
    for flag in draw(st.lists(flags, unique=True, max_size=3)):
        argv += [flag, draw(_OPTIONS[flag])]
    file_text = st.one_of(text.map(str.encode), st.binary(max_size=8))
    return argv, draw(file_text)


class TestHostileArgv:
    """Every request gives a result, one JSON error or a usage exit; never a traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_argvs())
    @example((["sweep", "--inline", "1,2", "--sweep", f"n:{BIG}:{BIG}"], b""))
    @example((["sweep", "--inline", "6,5,3,3,1,1,1", "--sweep", f"n:{FLOAT_MAX}:{FLOAT_MAX}"], b""))
    @example((["sweep", "--inline", "garbage", "--sweep", "ratio:3"], b""))
    @example((["entropy", "{file}"], b"\xff\xfe"))
    def test_result_or_documented_error(self, case):
        argv, file_bytes = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(file_bytes)
            argv = [str(path) if a == "{file}" else a for a in argv]
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    assert exc.code in (0, 2)
                    return
        assert status in (0, 1)
        if status == 1:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1
            code = json.loads(lines[0])["error"]["code"]
            assert code in cli.ERROR_CODES
            assert err.getvalue().startswith(f"error [{code}]: ")
        else:
            assert err.getvalue().startswith("ok: ")


def _seeded_requests():
    """About 300 seeded ``entropy`` and ``sweep`` argvs, JSON and CSV alike.

    Integral counts with ``n + s`` up to 1000 (rational endpoints are
    attempted), fractional counts over ten decades, ``n:`` sweeps of up to 60
    rows and ``ratio:`` sweeps, d from 1 to 40, and strengths from 1e-17 to
    the float maximum, where the leveled prior takes its edge branches, and
    a few totals below the normal range.
    """
    rng = np.random.default_rng(2028)
    fmts, modes = ("json", "csv"), ("both", "exact", "approx")
    strengths = ("1e-17", "1e-9", "0.5", "1", "2.5", "1000", "1e300", "1.7976931348623157e308")

    def text(counts):
        return ",".join(repr(float(c)) for c in counts)

    def split(total, d, integral):
        weights = rng.dirichlet(np.ones(d)) * (rng.uniform(size=d) > 0.3)
        if not weights.any():
            weights[rng.integers(d)] = 1.0
        weights /= weights.sum()
        if integral:
            return rng.multinomial(total, weights)
        return np.round(weights * total, 2)

    for i in range(120):
        d, s = int(rng.integers(1, 41)), int(rng.integers(1, 4))
        if i % 2:
            total = int(rng.integers(s, 1001))
            counts = split(total - s, d, integral=True)
            fmt, mode = fmts[i // 2 % 2], modes[i % 3]
        else:
            # Gaps of at least s level only the smallest count: on the grid.
            d = int(rng.integers(1, 13))
            counts = np.cumsum(rng.integers(3, 1990 // (d * (d + 1)) + 1, size=d)) - 3
            rng.shuffle(counts)
            fmt, mode = "json", modes[i % 4 // 2]
        yield ["entropy", "--inline", text(counts), "--s", str(s), "--mode", mode,
               "--format", fmt]
    # n + s below the normal range: the posterior means are rescaled.
    for counts, s in (("0,0,0", "5e-324"), ("0", "1e-310"), ("5e-324,0", "5e-324"),
                      ("1e-310,3e-310,0", "2e-310")):
        yield ["entropy", "--inline", counts, "--s", s]
    for i in range(66):
        d = int(rng.integers(1, 41))
        counts = split(10 ** rng.uniform(-2, 8), d, integral=False)
        s = strengths[i % len(strengths)] if i % 2 else repr(float(10 ** rng.uniform(-3, 3)))
        yield ["entropy", "--inline", text(counts), "--s", s, "--mode", modes[i % 3],
               "--format", fmts[i % 2]]
    for i in range(80):
        d = int(rng.integers(1, 41))
        counts = rng.integers(0, 21, size=d)
        counts[rng.integers(d)] += 1
        lo = int(rng.integers(1, 200))
        hi = lo + int(rng.integers(0, 60))
        s = strengths[i % len(strengths)]
        yield ["sweep", "--inline", text(counts), "--sweep", f"n:{lo}:{hi}", "--s", s,
               "--format", fmts[i % 2]]
    for i in range(30):
        n = repr(float(np.round(10 ** rng.uniform(0, 6), 3)))
        yield ["sweep", "--sweep", f"ratio:{n}", "--s", strengths[i % len(strengths)],
               "--format", fmts[i % 2]]


#: sha256 of every seeded request's status and stdout, in order.
SEEDED_DIGEST = "052a15d7b8bc5b8621341eb429774f911e23ad8e1bc960e061ad9f4fd8eb1781"


def test_seeded_requests_keep_their_bytes():
    digest = hashlib.sha256()
    statuses = []
    for argv in _seeded_requests():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        statuses.append(status)
        digest.update(f"{status}\n{out.getvalue()}".encode())
    assert len(statuses) == 300
    assert digest.hexdigest() == SEEDED_DIGEST
