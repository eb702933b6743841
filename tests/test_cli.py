"""Command-line interface: golden runs, formats, and error codes."""

import json
from fractions import Fraction

import pytest

from idmbounds import (
    ContingencyCounts,
    CredibleSpec,
    GridSpec,
    IdmConfig,
    compositions,
    lattice_mi_objective,
    robust_credible_mi,
)
from idmbounds.cli import SWEEP_COLUMNS, main


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

    def test_conservative_band_shrinks_with_n(self, capsys):
        _, out = run_cli(
            capsys, "sweep", "--inline", "1,2", "--sweep", "n:8:64", "--format", "csv"
        )
        widths = []
        for ln in out.strip().splitlines()[1:]:
            parts = [float(v) for v in ln.split(",")]
            widths.append(parts[4] - parts[3])
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_json_format_carries_columns(self, capsys):
        _, result = run_json(
            capsys, "sweep", "--inline", "3,6", "--sweep", "n:9:10", "--format", "json"
        )
        assert result["columns"] == list(SWEEP_COLUMNS)
        assert len(result["rows"]) == 2
