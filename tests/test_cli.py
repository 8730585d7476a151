"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import re
import time

import pytest

import goldens
from oscbath import thermo
from oscbath.cli import _build_parser, main, parse_model

GOOD_BATH = """\
M 1.0
omega0 1.0
1.0 2.0 1.0
"""

DEGENERATE_BATH = """\
M 1.0
omega0 1.0
1.0 1.0 1.0
1.0 1.00000000000001 1.0
"""

# bath files that must end in one error line: non-finite values, a weight
# c^2/(m w^2) or a gamma(0) = sum weight/M that overflows, and a valid bath
# whose potential matrix the eigen-decomposition oracle finds not positive
# definite
BAD_BATHS = {
    "DEGENERATE_BATH": DEGENERATE_BATH,
    "M_INF_BATH": "M inf\nomega0 1\n1 2 1\n",
    "OMEGA0_NAN_BATH": "M 1\nomega0 nan\n1 2 1\n",
    "MASS_INF_BATH": "M 1\nomega0 1\ninf 2 1\n",
    "FREQ_INF_BATH": "M 1\nomega0 1\n1 inf 1\n",
    "COUPLING_NAN_BATH": "M 1\nomega0 1\n1 2 nan\n",
    "COUPLING_INF_BATH": "M 1\nomega0 1\n1 2 inf\n",
    "WEIGHT_INF_BATH": "M 1\nomega0 1\n1e-300 1e-5 1e100\n",
    "TINY_MASS_BATH": "M 1\nomega0 1\n1e-30 2 1\n",
    "GAMMA0_INF_BATH": "M 1e-300\nomega0 1\n1 2 1e10\n",
}


class TestReport:
    def test_drude_report(self, capsys):
        rc = main(["report", "--model", "drude g=1 wd=5", "--omega0", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
        assert lines["model"] == "drude g=1 wd=5"
        assert lines["status"] == "Valid"
        assert lines["method"] == "closed-form"
        assert float(lines["K"]) > 0.0
        assert float(lines["F(0)"]) > float(lines["E_s(0)"]) > 0.5
        # both fields are printed at 9 significant digits
        assert float(lines["K/E_g"]) == pytest.approx(
            float(lines["K"]) / 0.5, rel=1e-8
        )

    @pytest.mark.parametrize("model, omega0", [
        ("exp g=1 we=5", "0.4"), ("xdrude g=1 wd=5 n=1", "1"), ("drude g=1 wd=5", "1"),
        ("xohmic g=1 p=2", "1"),
    ])
    def test_error_estimate_three_digits(self, model, omega0, capsys):
        # only the leading digits of an error estimate are stable
        rc = main(["report", "--model", model, "--omega0", omega0])
        out = capsys.readouterr().out
        assert rc == 0
        line = dict(l.split(": ", 1) for l in out.strip().splitlines())["error_estimate"]
        assert re.fullmatch(r"0|[1-9](\.\d{1,2})?e-\d\d", line), line
        want = thermo.thermo_report(parse_model(model), 1.0, float(omega0)).error_estimate
        assert float(line) == pytest.approx(want, rel=5e-3)
        assert (line == "0") == (want == 0.0)

    def test_divergent_report(self, capsys):
        rc = main(["report", "--model", "xohmic g=1 p=2", "--omega0", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K: LogDivergent(-)" in out
        assert "E_s(0): LogDivergent(+)" in out
        assert "K/E_g" not in out
        assert "method: divergence-classification" in out

    def test_ohmic_zero_deficit(self, capsys):
        rc = main(["report", "--model", "ohmic g=1", "--omega0", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K: 0\n" in out

    def test_invalid_kernel_exits_1(self, capsys):
        rc = main(["report", "--model", "xohmic g=1 p=3", "--omega0", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize("model", ["drude g=1 wd=5", "exp g=1 we=5"])
    def test_nonpositive_omega0_exits_1(self, model, capsys):
        rc = main(["report", "--model", model, "--omega0", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "omega_0" in captured.err

    def test_unreachable_tol_exits_1_within_budget(self, capsys):
        args = ["report", "--model", "exp g=1 we=5", "--omega0", "1", "--tol", "1e-15"]
        rc = main(args + ["--max-evals", "100000"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert main(args[:-2] + ["--max-evals", "100000"]) == 0
        capsys.readouterr()

    def test_parse_error_reports_position(self, capsys):
        rc = main(["report", "--model", "drude g=abc wd=1", "--omega0", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "position 1" in err

    def test_missing_args_exit_1(self, capsys):
        assert main(["report", "--model", "ohmic g=1"]) == 1
        capsys.readouterr()

    def test_out_file_lf_endings(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        rc = main(["report", "--model", "drude g=1 wd=5", "--omega0", "1",
                   "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode().startswith("model: drude g=1 wd=5\n")


class TestGrids:
    def test_table1_shape(self, capsys):
        assert main(["table1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega_e,g0.5,g1,g2,g5"
        assert len(lines) == 8  # header + 6 cutoffs + infinite-cutoff row
        assert lines[-1].startswith("inf,")
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert float(first[1]) == pytest.approx(0.0426854283, abs=1e-9)

    def test_table1_infinite_row(self, capsys):
        assert main(["table1"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        import math
        for g, cell in zip((0.5, 1.0, 2.0, 5.0), last[1:]):
            assert float(cell) == pytest.approx(g / math.pi, rel=1e-9)

    def test_table2_shape(self, capsys):
        assert main(["table2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega0,omega_d,Kd_norm,Kd1_norm"
        assert len(lines) == 17  # header + 4x4 grid
        row = lines[1].split(",")
        assert (row[0], row[1]) == ("0.5", "0.5")
        assert float(row[2]) > 0.0 and float(row[3]) > 0.0

    def test_fig1_shape_and_signs(self, capsys):
        assert main(["fig1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,Omega_over_w0,K_over_Eg"
        assert len(lines) == 1 + 3 * 59
        for line in lines[1:]:
            assert float(line.split(",")[2]) < 0.0

    @pytest.mark.parametrize("hbar", ["0.4", "2.5"])
    def test_tables_match_the_goldens_at_any_hbar(self, hbar, capsys):
        # both tables are normalized by E_g, so hbar cancels
        assert main(["table1", "--hbar", hbar]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
        for row, want in zip(rows, goldens.EXACT_TABLE1, strict=True):
            for cell, value in zip(row[1:], want, strict=True):
                assert abs(float(cell) - value) < 5e-8, (row[0], cell, value)
        assert main(["table2", "--hbar", hbar]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        for line, (key, want) in zip(lines, goldens.EXACT_TABLE2.items(), strict=True):
            w0, wd, kd, kd1 = map(float, line.split(","))
            assert (w0, wd) == key
            assert abs(kd - want[0]) < 5e-8 and abs(kd1 - want[1]) < 5e-8, key

    def test_table_format(self, capsys):
        assert main(["table2", "--format", "table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["omega0", "omega_d", "Kd_norm", "Kd1_norm"]
        assert "," not in lines[1]

    def test_deterministic(self, capsys):
        main(["table1"])
        a = capsys.readouterr().out
        main(["table1"])
        b = capsys.readouterr().out
        assert a == b

    @pytest.mark.parametrize("command", [["table1"], ["table2"], ["check", "--baths", "1"]])
    def test_budget_exhausted_exits_1(self, command, capsys):
        rc = main(command + ["--tol", "1e-15", "--max-evals", "1000"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        main(["fig1"])
        via_stdout = capsys.readouterr().out
        path = tmp_path / "fig1.csv"
        main(["fig1", "--out", str(path)])
        capsys.readouterr()
        assert path.read_text() == via_stdout


class TestDiscrete:
    def test_bath_file_report(self, tmp_path, capsys):
        path = tmp_path / "bath.txt"
        path.write_text(GOOD_BATH)
        rc = main(["discrete", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
        assert lines["N"] == "1"
        assert float(lines["K"]) == pytest.approx(0.0069436, abs=1e-6)
        assert float(lines["F(0)"]) == pytest.approx(0.5206905, abs=1e-6)
        assert float(lines["oracle_mode_residual"]) < 1e-12

    def test_malformed_bath_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("M 1\nomega0 1\n1 two 1\n")
        rc = main(["discrete", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "line 3" in err

    @pytest.mark.parametrize("text, where", [
        # the third oscillator breaks the frequency order
        ("# a bath\nM 1\nomega0 1\n# oscillators\n1 1 0.1\n1 2 0.1\n\n# out of order\n1 1.5 0.1\n",
         "line 9: oscillator 3: bath frequencies must be strictly increasing"),
        ("# a bath\nM 1\nomega0 1\n# one oscillator\n1 2 0\n",
         "line 5: oscillator 1: coupling must be nonzero"),
    ], ids=["frequency-order", "zero-coupling"])
    def test_invalid_oscillator_names_its_line(self, text, where, tmp_path, capsys):
        path = tmp_path / "bath.txt"
        path.write_text(text)
        rc = main(["discrete", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {where}")
        assert captured.err.count("\n") == 1

    def test_missing_file(self, capsys):
        rc = main(["discrete", "/nonexistent/bath.txt"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_random_suite(self, capsys):
        rc = main(["discrete", "--random", "8", "--seed", "42", "--count", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "random suite: 10/10 baths pass" in out

    def test_random_seed1_suite_passes(self, capsys):
        # baths 10 and 46 of this stream have a mode within 1e-8 of a bath pole
        rc = main(["discrete", "--random", "12", "--seed", "1", "--count", "200"])
        assert rc == 0
        assert "random suite: 200/200 baths pass" in capsys.readouterr().out

    def test_random_beyond_the_sampler_exits_1(self, capsys):
        # a draw of n >= 45 frequencies almost never keeps 2% gaps, so the
        # sampler gives up after a bounded number of draws
        start = time.perf_counter()
        rc = main(["discrete", "--random", "100", "--seed", "1", "--count", "3"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 5.0
        assert rc == 1
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("extra", [["--seed", "3"], ["--count", "5"]])
    def test_random_options_need_random(self, extra, tmp_path, capsys):
        path = tmp_path / "bath.txt"
        path.write_text(GOOD_BATH)
        rc = main(["discrete", str(path), *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--random" in captured.err

    def test_random_requires_seed(self, capsys):
        rc = main(["discrete", "--random", "8"])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err

    def test_no_input_is_usage_error(self, capsys):
        rc = main(["discrete"])
        assert rc == 1
        capsys.readouterr()


class TestCheck:
    def test_small_suite_passes(self, capsys):
        rc = main(["check", "--baths", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all checks passed" in out
        assert out.count("[ok]") == 6
        assert "[FAIL]" not in out


class TestParserReuse:
    """main builds its parser once per process; no call may see another's values."""

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_format_does_not_carry_over(self, capsys):
        assert main(["table1", "--format", "table"]) == 0
        assert not capsys.readouterr().out.startswith("omega_e,")
        assert main(["table1"]) == 0
        assert capsys.readouterr().out.startswith("omega_e,g0.5,g1,g2,g5\n")

    def test_rejected_value_leaves_no_trace(self, capsys):
        _build_parser.cache_clear()
        assert main(["table1"]) == 0
        first = capsys.readouterr().out
        assert main(["table1", "--tol", "-1"]) == 1
        capsys.readouterr()
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == first

    def test_random_options_do_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "bath.txt"
        path.write_text(GOOD_BATH)
        assert main(["discrete", "--random", "3", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["discrete", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("N: 1\n")


class TestOptionSurface:
    def test_options_of_each_subcommand(self):
        # every settable value of every subcommand: a new option changes this test
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: sorted(s for a in p._actions for s in (a.option_strings or [a.dest])
                         if s not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        grid = sorted(["--hbar", "--tol", "--max-evals", "--format", "--out"])
        assert surface == {
            "report": sorted(["--hbar", "--tol", "--max-evals", "--out", "--model", "--omega0"]),
            "table1": grid,
            "table2": grid,
            "fig1": sorted(["--hbar", "--format", "--out"]),
            "discrete": sorted(["--hbar", "--out", "--seed", "bathfile", "--random", "--count"]),
            "check": sorted(["--hbar", "--tol", "--max-evals", "--seed", "--baths"]),
        }


class TestBadValues:
    @pytest.mark.parametrize("argv", [
        ["table1", "--tol", "-1"],
        ["table2", "--tol", "0"],
        ["check", "--tol", "-1"],
        ["table1", "--max-evals", "0"],
        ["fig1", "--hbar", "-1"],
        ["report", "--model", "ohmic g=1", "--omega0", "1", "--hbar", "inf"],
        ["discrete", "--random", "0", "--seed", "1"],
        ["discrete", "--random", "4", "--seed", "1", "--count", "-1"],
        ["check", "--baths", "-1"],
        ["discrete", "DEGENERATE_BATH"],
        # options a subcommand does not read are rejected
        ["check", "--baths", "1", "--out", "check.txt"],
        ["fig1", "--tol", "1e-3"],
        *(["discrete", name] for name in BAD_BATHS if name != "DEGENERATE_BATH"),
        ["report", "--model", "drude g=1 wd=5 wd=7", "--omega0", "1"],
    ])
    def test_exits_1_without_traceback(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_BATHS.items():
            (tmp_path / name).write_text(text)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "check.txt").exists()

    @pytest.mark.xfail(strict=True, reason=(
        "defect 13 (ROADMAP direction 6): a weight c^2/(m w^2) = 2.5e299 "
        "overflows in the secular step at (t - f) ** 2"))
    def test_huge_weight_bath_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bath.txt"
        path.write_text("M 1\nomega0 1\n1e-300 2 1\n")
        rc = main(["discrete", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("error:") == 1
