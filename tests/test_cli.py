"""Command-line interface: output formats, exit codes, determinism."""

import pytest

from oscbath.cli import main

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

    def test_missing_file(self, capsys):
        rc = main(["discrete", "/nonexistent/bath.txt"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_random_suite(self, capsys):
        rc = main(["discrete", "--random", "8", "--seed", "42", "--count", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "random suite: 10/10 baths pass" in out

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
    ])
    def test_exits_1_without_traceback(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "DEGENERATE_BATH").write_text(DEGENERATE_BATH)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "check.txt").exists()
