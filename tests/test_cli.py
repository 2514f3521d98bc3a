import json
import math

import pytest

from xygap.cli import UsageError, parse_gamma, parse_grid, parse_sizes


class TestParsing:
    def test_grid(self):
        assert parse_grid("0:2:5") == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert parse_grid("1:9:1") == [1.0]
        assert parse_grid("-1:1:3") == [-1.0, 0.0, 1.0]

    def test_grid_endpoints_exact(self):
        grid = parse_grid("0:0.99:20")
        assert grid[0] == 0.0 and grid[-1] == 0.99 and len(grid) == 20

    @pytest.mark.parametrize("bad", ["0:1", "0:1:0", "a:b:c", "1,2,3"])
    def test_grid_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_grid(bad)

    def test_sizes(self):
        assert parse_sizes("2:8:even") == [2, 4, 6, 8]
        assert parse_sizes("3:9:odd") == [3, 5, 7, 9]
        assert parse_sizes("1:4:all") == [1, 2, 3, 4]
        assert parse_sizes("16,64,256") == [16, 64, 256]
        assert parse_sizes("10") == [10]

    @pytest.mark.parametrize("bad", ["2:64", "2:64:prime", "0:4:all", "-3"])
    def test_sizes_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_sizes(bad)

    def test_gamma(self):
        from fractions import Fraction

        from xygap.exactnum import format_rational

        assert parse_gamma("1/3") == Fraction(1, 3)
        assert parse_gamma("0.25") == Fraction(1, 4)
        # past the interpreter's int<->str digit limit
        tiny = Fraction(1, 2**65536)
        assert parse_gamma(format_rational(tiny)) == tiny
        with pytest.raises(UsageError):
            parse_gamma("x")


class TestPhaseDiagram:
    def test_row_count_and_header(self, cli, tmp_path):
        out = tmp_path / "pd.csv"
        res = cli("phase-diagram", "--gamma", "0:2:9", "--h=-1:1:9", "-o", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "gamma,h,theta0,m_x,gap"
        assert len(lines) == 1 + 81

    def test_negative_grid_without_equals_sign(self, cli, tmp_path):
        out = tmp_path / "pd.csv"
        res = cli("phase-diagram", "--gamma", "0:1:2", "--h", "-1:1:3", "-o", str(out))
        assert res.returncode == 0, res.stderr

    def test_deterministic_output(self, cli, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            res = cli("phase-diagram", "--gamma", "0:1.5:7", "--h=-0.5:0.5:7",
                      "-o", str(path))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_gamma_column(self, cli, tmp_path):
        out = tmp_path / "pd.csv"
        res = cli("phase-diagram", "--gamma", "0:0:1", "--h", "0:0.5:3", "-o", str(out))
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        for row in rows:
            h, gap = float(row[1]), float(row[4])
            assert gap == pytest.approx(math.sqrt(h + h * h), abs=1e-14)

    def test_json_format(self, cli, tmp_path):
        out = tmp_path / "pd.json"
        res = cli("phase-diagram", "--gamma", "0:1:2", "--h", "0:1:2",
                  "--format", "json", "-o", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 4

    def test_invalid_grid_is_usage_error(self, cli):
        res = cli("phase-diagram", "--gamma", "0:1", "--h", "0:1:3")
        assert res.returncode == 2

    @pytest.mark.parametrize("gamma", ["nan:1:3", "0:inf:3", "0:nan:1"])
    def test_non_finite_grid_endpoint_is_usage_error(self, cli, gamma):
        res = cli("phase-diagram", "--gamma", gamma, "--h", "0:1:3")
        assert res.returncode == 2, res.stderr


class TestFiniteGap:
    def test_exact_line_with_cross_check(self, cli, tmp_path):
        out = tmp_path / "fg.csv"
        res = cli("finite-gap", "--gamma", "1/3", "--N", "2:16:even", "-o", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,gamma,delta,branch,gap,gap_decimal,gap_numeric"
        from fractions import Fraction

        from xygap.exactnum import parse_rational

        products = set()
        for line in lines[1:]:
            cols = line.split(",")
            gap = parse_rational(cols[4])
            numeric = float(cols[6])
            assert abs(float(gap) - numeric) < 1e-12
            products.add(int(cols[0]) * gap)
        assert products == {Fraction(1, 3), Fraction(1)}

    def test_degenerate_row_kept_and_marked(self, cli, tmp_path):
        out = tmp_path / "fg.csv"
        res = cli("finite-gap", "--gamma", "1/2", "--N", "10", "-o", str(out))
        assert res.returncode == 0
        row = out.read_text().strip().split("\n")[1]
        assert ",degenerate," in row

    def test_numeric_route(self, cli, tmp_path):
        out = tmp_path / "fg.csv"
        res = cli("finite-gap", "--gamma", "0", "--h", "0.5",
                  "--N", "16,64,256", "-o", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,gamma,h,gap_numeric"
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        target = math.sqrt(0.75)
        assert abs(gaps[-1] - target) < abs(gaps[0] - target)

    def test_series_field(self, cli, tmp_path):
        out = tmp_path / "fg.csv"
        res = cli("finite-gap", "--gamma-series", "double-exp", "--terms", "5",
                  "--N", "16", "-o", str(out))
        assert res.returncode == 0
        cols = out.read_text().strip().split("\n")[1].split(",")
        from fractions import Fraction

        from xygap.exactnum import parse_rational

        assert parse_rational(cols[4]) == Fraction(1, 65536) + Fraction(1, 2**65536)

    def test_gamma_required(self, cli):
        res = cli("finite-gap", "--N", "4")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("--gamma", "0", "--h", "nan", "--N", "4"),
            ("--gamma", "0", "--h", "inf", "--N", "4"),
            ("--gamma-series", "double-exp", "--terms", "0", "--N", "4"),
        ],
    )
    def test_usage_errors(self, cli, args):
        res = cli("finite-gap", *args)
        assert res.returncode == 2, res.stderr


class TestScaling:
    @pytest.mark.parametrize(
        "seq,rule,expected",
        [
            ("double-exp", "a_n", "Exponential"),
            ("double-exp", "2a_n", "Polynomial"),
            ("factorial", "a_n", "Factorial"),
        ],
    )
    def test_classifications(self, cli, tmp_path, seq, rule, expected):
        out = tmp_path / "report.json"
        res = cli("scaling", "--seq", seq, "--rule", rule, "-o", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["classification"] == expected
        assert payload["schema_version"] == 1

    def test_csv_summary(self, cli, tmp_path):
        out, summary = tmp_path / "report.json", tmp_path / "summary.csv"
        res = cli("scaling", "--seq", "factorial", "-o", str(out), "--csv", str(summary))
        assert res.returncode == 0
        lines = summary.read_text().strip().split("\n")
        assert lines[0] == "n,N,delta_minus_half,gap,gap_decimal"
        assert len(lines) == 3

    def test_budget_exhaustion_exit_code(self, cli, tmp_path):
        res = cli("scaling", "--seq", "double-exp", "--terms", "6",
                  "-o", str(tmp_path / "r.json"))
        assert res.returncode == 3

    @pytest.mark.parametrize("terms", ["0", "3"])
    def test_short_truncation_is_usage_error(self, cli, tmp_path, terms):
        # two classification rows n = 1..K-2 need K >= 4
        res = cli("scaling", "--seq", "factorial", "--K", terms, "-o", str(tmp_path / "r.json"))
        assert res.returncode == 2, res.stderr

    def test_env_var_budget_override(self, tmp_path):
        import os
        import subprocess
        import sys

        from conftest import SRC_DIR

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["XYGAP_BIT_BUDGET"] = "1024"
        res = subprocess.run(
            [sys.executable, "-m", "xygap", "scaling", "--seq", "double-exp",
             "--terms", "5", "-o", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 3

    def test_malformed_env_budget_is_usage_error(self, cli, tmp_path, monkeypatch):
        monkeypatch.setenv("XYGAP_BIT_BUDGET", "abc")
        res = cli("scaling", "--seq", "factorial", "-o", str(tmp_path / "r.json"))
        assert res.returncode == 2, res.stderr


class TestVerify:
    def test_default_run_passes(self, cli):
        res = cli("verify", "--max-N", "32")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout
        assert res.stdout.count("PASS") == 6
