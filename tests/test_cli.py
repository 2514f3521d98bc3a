import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    SRC_DIR, parse_rational, phase_diagram_scan, phase_record, scan_csv_lines, scan_payload,
)
from xygap import classical, exactnum
from xygap.cli import UsageError, main
from xygap.cli_finite_gap import parse_gamma, parse_sizes
from xygap.cli_phase_diagram import parse_grid
from xygap.errors import BitBudgetError
from xygap.exactnum import decimal_str, format_rational, gamma_value
from xygap.field import FieldPoint
from xygap.gaplaw import gap_record
from xygap.scaling import RULE_PLAIN, SizeSequence
from xygap.sequences import SequenceKind
from xygap.sequences import terms as sequence_terms


# Grid ends for the scan's text: zeros of either sign, subnormal and huge
# fields, and fields at SAFE_REACH.
_TEXT_END = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 5e-324, 1e-300, 5e307, 1e308]),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=-300.0, max_value=308.0).map(lambda e: 10.0 ** e),
)
_GRID_END = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 1e154]),
    st.floats(min_value=-3.0, max_value=3.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-300.0, max_value=300.0)).map(
        lambda t: t[0] * 10.0 ** t[1]),
)


class TestParsing:
    def test_grid(self):
        assert list(parse_grid("0:2:5")) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert list(parse_grid("1:9:1")) == [1.0]
        assert list(parse_grid("-1:1:3")) == [-1.0, 0.0, 1.0]

    def test_grid_endpoints_exact(self):
        grid = parse_grid("0:0.99:20")
        assert grid[0] == 0.0 and grid[-1] == 0.99 and len(grid) == 20

    @pytest.mark.parametrize("bad", ["0:1", "0:1:0", "a:b:c", "1,2,3", "-1e308:1e308:3"])
    def test_grid_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_grid(bad)

    @given(lo=_GRID_END, hi=_GRID_END, count=st.integers(1, 3000))
    @settings(max_examples=300, deadline=None)
    @example(lo=1.0, hi=0.0, count=2999)
    def test_grid_is_the_list_it_stands_for(self, lo, hi, count):
        grid = parse_grid(f"{lo!r}:{hi!r}:{count}")
        step = (hi - lo) / max(count - 1, 1)  # the list the grid was before it was lazy
        points = [lo] if count == 1 else [lo + i * step for i in range(count - 1)] + [hi]
        assert [x.hex() for x in grid] == [x.hex() for x in points]
        assert len(grid) == count
        assert grid[-1].hex() == points[-1].hex() and grid[count // 2].hex() == points[count // 2].hex()
        assert grid.extremes() == (min(points), max(points))

    def test_huge_grid_is_not_materialised(self):
        grid = parse_grid("0:2:100000000000")
        assert grid[0] == 0.0 and grid[1] == 2 / 99999999999 and grid[-1] == 2.0
        assert grid.extremes() == (0.0, 2.0)
        tracemalloc.start()
        try:
            assert next(iter(parse_grid("0:1:99999999999999999999999"))) == 0.0
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()

    def test_count_past_the_largest_double_is_usage_error(self, capsys):
        count = 10**400  # (hi - lo)/(count - 1) cannot convert the count
        with pytest.raises(UsageError, match="overflows a double"):
            parse_grid(f"0:1:{count}")
        assert main(["phase-diagram", "--gamma", f"0:1:{count}", "--h", "0:1:2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: grid count of '0:1:{count}' overflows a double\n"

    def test_sizes(self):
        assert list(parse_sizes("2:8:even")) == [2, 4, 6, 8]
        assert list(parse_sizes("3:9:odd")) == [3, 5, 7, 9]
        assert list(parse_sizes("1:4:all")) == [1, 2, 3, 4]
        assert parse_sizes("16,64,256") == [16, 64, 256]
        assert parse_sizes("10") == [10]

    @pytest.mark.parametrize("bad", ["2:64", "2:64:prime", "0:4:all", "-3", "3,,4", "4,"])
    def test_sizes_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_sizes(bad)

    @pytest.mark.parametrize("h", ["0", "0.5"])
    @pytest.mark.parametrize("sizes", ["3,,4", "4,", ",4", ""])
    def test_empty_size_token_is_usage_error(self, capsys, sizes, h):
        assert main(["finite-gap", "--gamma", "1/3", "--h", h, "--N", sizes]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: bad size list {sizes!r}: "
                       "invalid literal for int() with base 10: ''\n")

    def test_size_range_is_a_range(self):
        # a long range costs no memory
        assert parse_sizes("1:200000:all") == range(1, 200001)
        assert parse_sizes("1:10:even") == range(2, 11, 2)
        assert parse_sizes("2:10:odd") == range(3, 11, 2)

    @pytest.mark.parametrize("h", ["0", "0.5"])
    @pytest.mark.parametrize("sizes", ["1:1:even", "4:4:odd"])
    def test_size_range_selecting_no_size_is_usage_error(self, capsys, sizes, h):
        # the exact route used to exit 1 with "min() arg is an empty sequence",
        # the eigensolver route to print a header-only file
        assert main(["finite-gap", "--gamma", "1/3", "--h", h, "--N", sizes]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: size range {sizes!r} selects no size\n"

    def test_gamma(self):
        assert parse_gamma("1/3") == (1, 3)
        assert parse_gamma("0.25") == (1, 4)
        assert parse_gamma("-6/4") == (-3, 2)
        # past the interpreter's int<->str digit limit
        assert parse_gamma(format_rational(Fraction(1, 2**65536))) == (1, 2**65536)
        with pytest.raises(UsageError):
            parse_gamma("x")

    @pytest.mark.parametrize("text,budget,expected", [
        ("1e-15", 64, Fraction(1, 10**15)),                      # 50 bits
        ("0.0000000000000000001", 64, Fraction(1, 10**19)),      # 64 bits exactly
        ("1_000.5e-3_0", 128, Fraction(2001, 2 * 10**30)),
        ("1" + "0" * 300 + "/" + "1" + "0" * 299, 1024, Fraction(10)),
        (format_rational(Fraction(3, 2**65536)), 65537, Fraction(3, 2**65536)),
    ])
    def test_gamma_within_budget(self, text, budget, expected):
        assert parse_gamma(text, budget) == (expected.numerator, expected.denominator)

    @pytest.mark.parametrize("text,budget", [
        ("1e-30", 64),                    # 10**30 has 100 bits
        ("99999999999999999999", 64),     # 67 bits, caught after parsing
        ("1/" + "7" * 21, 64),
        ("1e-2000000", 10**6),
        ("1e-999999999", 10**6),          # refused before 10**999999999 is built
        ("0e999999999", 10**6),
        ("12345e+999_999_999", 10**8),
        (format_rational(Fraction(3, 2**65536)), 65536),
    ])
    def test_gamma_over_budget(self, text, budget):
        with pytest.raises(BitBudgetError):
            parse_gamma(text, budget)

    @pytest.mark.parametrize("args", [
        ("finite-gap", "--gamma", "1e-2000000", "--N", "2"),
        ("finite-gap", "--gamma", "1e-999999999", "--N", "2"),
        ("--bit-budget", "64", "finite-gap", "--gamma", "1e-30", "--N", "2"),
    ])
    def test_over_budget_field_exits_3_promptly(self, cli, args):
        res = cli(*args, timeout=30)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("bit budget exhausted: ")


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

    def test_json_is_the_payload_text_streamed(self, tmp_path):
        out = tmp_path / "pd.json"
        argv = ["phase-diagram", "--gamma", "0:2:21", "--h", "-1:1:41", "--format", "json"]
        assert main([*argv, "-o", str(out)]) == 0
        records = list(phase_diagram_scan(parse_grid("0:2:21"), parse_grid("-1:1:41")))
        assert out.read_text() == json.dumps(scan_payload(records), indent=2) + "\n"

    @given(gamma=st.tuples(_TEXT_END, _TEXT_END, st.integers(1, 5)),
           h=st.tuples(_TEXT_END, _TEXT_END, st.integers(1, 5), st.booleans(), st.booleans()))
    @settings(max_examples=200, deadline=None)
    @example(gamma=(0.0, 2.0, 5), h=(0.0, 0.0, 1, False, False))  # an h = 0 row
    @example(gamma=(-0.0, 1.5, 4), h=(-0.0, 1.0, 3, False, True))  # -0.0 endpoints
    @example(gamma=(1e308, 1e308, 1), h=(0.0, 0.0, 1, False, False))  # gamma at SAFE_REACH
    @example(gamma=(5e307, 5e307, 1), h=(5e307, 5e307, 2, True, False))
    @example(gamma=(1.0, 3.0, 3), h=(5e-324, 1e-300, 3, True, False))  # gamma >= 1
    def test_text_is_the_record_route(self, gamma, h):
        # the kernel's rows through the templates, against the records one
        # point at a time through the per-value CSV format and json.dumps
        try:
            gammas = parse_grid("%r:%r:%d" % gamma)
            hs = parse_grid("%r:%r:%d" % (h[0] * (-1) ** h[3], h[1] * (-1) ** h[4], h[2]))
        except UsageError:
            assume(False)
        h_low, h_high = hs.extremes()
        assume(gammas.extremes()[1] + max(-h_low, h_high) <= classical.SAFE_REACH)
        records = list(phase_diagram_scan(gammas, hs))
        csv = "".join(line + "\n" for line in scan_csv_lines(records))
        assert "".join(classical.scan_csv(classical.scan_rows(gammas, hs))) == csv
        text = "".join(classical.scan_json(classical.scan_rows(gammas, hs)))
        assert text == json.dumps(scan_payload(records), indent=2) + "\n"

    def test_invalid_grid_is_usage_error(self, cli):
        res = cli("phase-diagram", "--gamma", "0:1", "--h", "0:1:3")
        assert res.returncode == 2

    @pytest.mark.parametrize("gamma", ["nan:1:3", "0:inf:3", "0:nan:1"])
    def test_non_finite_grid_endpoint_is_usage_error(self, cli, gamma):
        res = cli("phase-diagram", "--gamma", gamma, "--h", "0:1:3")
        assert res.returncode == 2, res.stderr

    @pytest.mark.parametrize("gamma,h,gap", [
        ("0:1e308:3", "0:1e308:2", None),  # gamma + |h| reaches 2e308, past SAFE_REACH
        # these two overflowed the gap radicand; the identity gives their gap
        ("1e200:1e200:1", "0:0:1", "9.9999999999999997e+199"),
        ("0:0:1", "1e160:1e160:1", "1e+160"),
    ], ids=["0:1e308:3-0:1e308:2", "1e200:1e200:1-0:0:1", "0:0:1-1e160:1e160:1"])
    def test_overflowing_field_is_usage_error(self, cli, gamma, h, gap):
        res = cli("phase-diagram", "--gamma", gamma, "--h", h)
        if gap is None:
            assert res.returncode == 2, res.stderr
            assert res.stdout == ""
            assert res.stderr == "error: grid reaches gamma + |h| = inf, past 1e+308\n"
        else:
            assert res.returncode == 0, res.stderr
            assert res.stderr == ""
            rows = res.stdout.splitlines()
            assert len(rows) == 2 and rows[1].split(",")[4] == gap

    def test_overflowing_start_leaves_the_radicand_error(self, capsys):
        # the second point starts from the first one's theta0 = 0.0, whose
        # first Newton step overflows to inf, where math.sin raises; the
        # minimizer bisects all of [0, pi/2], and the gap, whose radicand
        # overflowed a double, is |h| as for the lone point
        argv = ["phase-diagram", "--gamma", "1.148199642116987:1.148199642116987:1",
                "--h", "0:1e308:2"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == ("gamma,h,theta0,m_x,gap\n"
                       "1.1481996421169871,0,0,0,0.14819964211698711\n"
                       "1.1481996421169871,1e+308,1.5707963267948963,1,1e+308\n")
        assert phase_record(FieldPoint(1.148199642116987, 1e308)).gap == 1e308

    def test_overflowing_grid_step_is_usage_error(self, cli):
        # the step 2e308 is infinite, so the first grid point is -1e308 + 0*inf = nan
        res = cli("phase-diagram", "--gamma", "0:1:2", "--h=-1e308:1e308:3")
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: grid step of '-1e308:1e308:3' overflows a double\n"

    @pytest.mark.parametrize("gamma", ["1e200", "1e400"])  # 1e400 is no double at all
    def test_cross_cell_empty_where_the_eigensolver_rejects_the_field(self, capsys, gamma):
        # the exact rows exist for every gamma >= 0; the optional cross
        # column is left empty, the same bytes as with no cross column
        runs = []
        for extra in ((), ("--cross-max", "0")):
            assert main(["finite-gap", "--gamma", gamma, "--N", "4", *extra]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]
        assert runs[0].err == ""
        lines = runs[0].out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("4,1000") and lines[1].endswith(",")
        assert lines[1].split(",")[3] == "edge"

    def test_cross_cell_per_size(self, capsys):
        # gamma*N/2 past about 1.3e154 squares past the largest double at
        # N = 300, not at N = 200
        assert main(["finite-gap", "--gamma", "1e152", "--N", "200,300", "--cross-max", "300"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[-1] for row in rows] == ["1.0000000000000166e+152", ""]

    @pytest.mark.parametrize("args,message", [
        (("--gamma", "1/3", "--N", "4", "--terms", "9"),
         "--terms applies only with --gamma-series"),
        (("--gamma", "1/3", "--h", "0", "--N", "4", "--terms", "5"),
         "--terms applies only with --gamma-series"),
        (("--gamma", "1/3", "--h", "0.5", "--N", "4", "--cross-max", "9"),
         "--cross-max applies only at h = 0"),
        (("--gamma-series", "double-exp", "--h", "0.5", "--N", "4", "--cross-max", "64"),
         "--cross-max applies only at h = 0"),
    ])
    def test_flag_its_mode_does_not_read_is_usage_error(self, capsys, args, message):
        assert main(["finite-gap", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args,flag", [
        (("--gamma-series", "double-exp", "--N", "1:16:all"), ("--terms", "5")),
        (("--gamma", "1/3", "--N", "60:70:all"), ("--cross-max", "64")),
    ])
    def test_defaults_where_the_flag_is_read(self, capsys, args, flag):
        runs = []
        for extra in ((), flag):
            assert main(["finite-gap", *args, *extra]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]

    def test_large_field_below_overflow(self, capsys):
        # gamma + |h| reaches SAFE_REACH = 1e308 at the last point
        assert main(["phase-diagram", "--gamma", "0:5e307:2", "--h", "0:5e307:2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        gaps = [float(row.split(",")[4]) for row in out.strip().split("\n")[1:]]
        assert gaps == [0.0, 5e307, 5e307, 7.0710678118654747e+307]

    @pytest.mark.parametrize("gamma,h,code,out,err", [
        # the gap radicand overflowed here; the identity gives the gap
        ("1e154:1e154:1", "1e154:1e154:1", 0,
         "gamma,h,theta0,m_x,gap\n1e+154,1e+154,0.78539816339744828,0.70710678118654746,"
         "1.4142135623730953e+154\n", ""),
        ("0:1e308:3", "0:1:2", 0, "\n".join([
            "gamma,h,theta0,m_x,gap",
            "0,0,1.5707963267948963,1,0",
            "0,1,1.5707963267948963,1,1.4142135623730951",
            "5.0000000000000001e+307,0,0,0,5.0000000000000001e+307",
            "5.0000000000000001e+307,1,2.0000000000000003e-308,2.0000000000000003e-308,"
            "5.0000000000000001e+307",
            "1e+308,0,0,0,1e+308",
            "1e+308,1,9.9999999999999991e-309,9.9999999999999991e-309,1e+308",
        ]) + "\n", ""),
        ("1.2e154:1.2e154:1", "0:0:1", 0,
         "gamma,h,theta0,m_x,gap\n1.2000000000000001e+154,0,0,0,1.2000000000000001e+154\n", ""),
        ("0:1.2e154:3", "-1:1:3", 0, "\n".join([
            "gamma,h,theta0,m_x,gap",
            "0,-1,1.5707963267948963,-1,1.4142135623730951",
            "0,0,1.5707963267948963,1,0",
            "0,1,1.5707963267948963,1,1.4142135623730951",
            "6.0000000000000004e+153,-1,1.6666666666666663e-154,-1.6666666666666663e-154,"
            "6.0000000000000004e+153",
            "6.0000000000000004e+153,0,0,0,6.0000000000000004e+153",
            "6.0000000000000004e+153,1,1.6666666666666663e-154,1.6666666666666663e-154,"
            "6.0000000000000004e+153",
            "1.2000000000000001e+154,-1,8.3333333333333315e-155,-8.3333333333333315e-155,"
            "1.2000000000000001e+154",
            "1.2000000000000001e+154,0,0,0,1.2000000000000001e+154",
            "1.2000000000000001e+154,1,8.3333333333333315e-155,8.3333333333333315e-155,"
            "1.2000000000000001e+154",
        ]) + "\n", ""),
        ("0:0:1", "1.3e154:1.3e154:1", 0,
         "gamma,h,theta0,m_x,gap\n0,1.2999999999999999e+154,1.5707963267948963,1,"
         "1.2999999999999999e+154\n", ""),
        # past SAFE_REACH: decided from the grid's extremes, nothing computed
        ("0:1e308:3", "0:1e300:2", 2, "",
         "error: grid reaches gamma + |h| = 1.00000001e+308, past 1e+308\n"),
        ("1e308:1e308:1", "-1e300:0:2", 2, "",
         "error: grid reaches gamma + |h| = 1.00000001e+308, past 1e+308\n"),
        ("0:1e308:2", "-1e308:0:2", 2, "", "error: grid reaches gamma + |h| = inf, past 1e+308\n"),
    ], ids=["both-1e154", "gamma-to-1e308", "gamma-1.2e154", "gamma-to-1.2e154", "h-1.3e154",
            "past-1e308", "past-1e308-negative-h", "past-to-inf"])
    def test_overflow_verdict_before_output(self, capsys, gamma, h, code, out, err):
        assert main(["phase-diagram", "--gamma", gamma, "--h", h]) == code
        assert capsys.readouterr() == (out, err)


class TestFiniteGap:
    def test_exact_line_with_cross_check(self, cli, tmp_path):
        out = tmp_path / "fg.csv"
        res = cli("finite-gap", "--gamma", "1/3", "--N", "2:16:even", "-o", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,gamma,delta,branch,gap,gap_decimal,gap_numeric"
        from fractions import Fraction


        products = set()
        for line in lines[1:]:
            cols = line.split(",")
            gap = parse_rational(cols[4])
            numeric = float(cols[6])
            assert abs(float(gap) - numeric) < 1e-12
            products.add(int(cols[0]) * gap)
        assert products == {Fraction(1, 3), Fraction(1)}

    @pytest.mark.parametrize("gamma", ["1", "3/2"])
    def test_edge_rows_at_and_past_the_critical_point(self, cli, tmp_path, gamma):
        out = tmp_path / "fg.csv"
        res = cli("finite-gap", "--gamma", gamma, "--N", "1:64:all", "-o", str(out))
        assert res.returncode == 0, res.stderr
        from fractions import Fraction


        for size, line in enumerate(out.read_text().strip().split("\n")[1:], 1):
            cols = line.split(",")
            assert cols[3] == "edge"
            gap = parse_rational(cols[4])
            assert gap == Fraction(gamma) - 1 + Fraction(1, size)
            assert abs(float(gap) - float(cols[6])) < 1e-12

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


        assert parse_rational(cols[4]) == Fraction(1, 65536) + Fraction(1, 2**65536)

    def test_negative_exponent_form_after_its_option(self, cli):
        # argparse takes "-1e-3" for an option unless it is glued on with "="
        spaced = cli("finite-gap", "--gamma", "1/3", "--h", "-1e-3", "--N", "4")
        glued = cli("finite-gap", "--gamma", "1/3", "--h=-1e-3", "--N", "4")
        assert spaced.returncode == 0, spaced.stderr
        assert (spaced.stdout, spaced.stderr) == (glued.stdout, glued.stderr)
        assert spaced.stdout.startswith("N,gamma,h,gap_numeric\n4,1/3,-0.001,")

    def test_negative_gamma_after_its_option(self, capsys):
        assert main(["finite-gap", "--gamma", "-1/3", "--h", "0.5", "--N", "4"]) == 2
        assert capsys.readouterr().err == "error: --gamma must be >= 0, got -1/3\n"

    def test_gamma_required(self, cli):
        res = cli("finite-gap", "--N", "4")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("--gamma", "0", "--h", "nan", "--N", "4"),
            ("--gamma", "0", "--h", "inf", "--N", "4"),
            ("--gamma-series", "double-exp", "--terms", "0", "--N", "4"),
            ("--gamma", "1__0", "--N", "4"),
            ("--gamma", "1.d", "--N", "4"),
            ("--gamma", "-0.5", "--h", "0.5", "--N", "4"),
            ("--gamma=-1/3", "--h", "0.5", "--N", "4"),
            ("--gamma=-1/3", "--N", "4"),
            ("--gamma", "1/3", "--gamma-series", "double-exp", "--N", "4"),
        ],
    )
    def test_usage_errors(self, cli, args):
        res = cli("finite-gap", *args)
        assert res.returncode == 2, res.stderr

    @pytest.mark.parametrize("args", [
        ("--gamma", "0.5", "--h", "1e200", "--N", "4"),  # the squared couplings overflow
        ("--gamma", "0.5", "--h", "1e308", "--N", "4"),
        ("--gamma", "1e308", "--h", "0.5", "--N", "4"),  # gamma*m overflows
        ("--gamma", "1e400", "--h", "0.5", "--N", "4"),  # gamma itself is no double
    ])
    def test_overflowing_field_is_usage_error(self, capsys, args):
        assert main(["finite-gap", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_large_field_below_overflow(self, capsys):
        assert main(["finite-gap", "--gamma", "0.5", "--h", "1e150", "--N", "4"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.split("\n")[1] == "4,1/2,9.9999999999999998e+149,9.9999999999999907e+149"

    def test_decimal_literal_past_int_digit_limit(self, cli, monkeypatch):
        # 5000 digits, past the interpreter's int<->str limit even at its floor
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
        ones = "1" * 5000
        runs = [cli("finite-gap", "--gamma", text, "--N", "2,3")
                for text in (f"0.{ones}", f"{ones}/1{'0' * 5000}")]
        assert [res.returncode for res in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert len(runs[0].stdout.split("\n")) == 4

    def test_size_past_the_row_index_cap_is_usage_error(self, capsys):
        size = sys.maxsize + 1
        assert main(["finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", str(size)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: size N={size} is too large: the sector matrix's row "
                       f"indices exceed {sys.maxsize}\n")

    def test_size_past_the_window_budget_is_usage_error(self, capsys, tmp_path):
        # a first window of about 2.5e9 rows, refused before any row is built
        from xygap import sector

        size = 10**17
        window = 2 * sector._half_width(size) + 1
        out = tmp_path / "gaps.csv"
        start = time.perf_counter()
        code = main(["finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", str(size),
                     "-o", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 2 and not out.exists()
        assert elapsed < 1.0, elapsed
        assert capsys.readouterr() == ("", (
            f"error: size N={size} is too large: the eigensolver's first window of {window} "
            f"rows exceeds {sector.WINDOW_ROW_BUDGET}\n"))
        # at h = 0 the exact row stands and the cross cell stays empty
        assert main(["finite-gap", "--gamma", "0.6", "--N", str(size),
                     "--cross-max", str(size)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1] == (f"{size},3/5,0/1,delta<1/2,1/{size},"
                                       "1.0000000000000000e-17,")

    def test_out_of_memory_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        from xygap import sector

        def rows(*args):
            raise MemoryError

        monkeypatch.setattr(sector, "_rows", rows)
        out = tmp_path / "gaps.csv"
        argv = ["finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", "64"]
        assert main([*argv, "-o", str(out)]) == 1
        assert not out.exists()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n" * 2)


def fraction_route_rows(gamma: Fraction, sizes) -> str:
    """The exact rows through gap_record, format_rational and decimal_str,
    with no cross-check column: the oracle for the CLI's integer rows."""
    gamma_text = format_rational(gamma)
    lines = ["N,gamma,delta,branch,gap,gap_decimal,gap_numeric"]
    for size in sizes:
        rec = gap_record(size, gamma)
        gap = "," if rec.gap is None else f"{format_rational(rec.gap)},{decimal_str(rec.gap, 17)}"
        lines.append(f"{size},{gamma_text},{format_rational(rec.delta)},{rec.branch},{gap},")
    return "\n".join(lines) + "\n"


def cli_rows(*args: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["finite-gap", *args, "--cross-max", "0", "-o", "-"]) == 0
    return out.getvalue()


class TestIntegerRowsAgainstFractionRoute:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 70).flatmap(lambda bits: st.integers(1, 2**bits)), st.data())
    @example(2, None)
    @example(2**70, None)
    def test_rational_fields(self, q, data):
        p = 0 if data is None else data.draw(st.integers(0, q - 1))
        gamma = Fraction(p, q)
        q = gamma.denominator
        # N = q and 2q put gamma*N/2 on a crossing (r = q) or a tie (r = 0)
        sizes = [1, 2, 3, q, q + 1, 2 * q, 2 * q + 1, 3 * q]
        if data is not None:
            sizes += data.draw(st.lists(st.integers(1, 2**72), max_size=20))
        want = fraction_route_rows(gamma, sizes)
        assert cli_rows("--gamma", format_rational(gamma), "--N", ",".join(map(str, sizes))) == want

    @pytest.mark.parametrize("gamma,sizes", [
        ("0", "1:9:all"),      # odd N crosses, even N ties
        ("1/2", "1:12:all"),   # crossings at N = 2 mod 4
        ("3/5", "1:2000:all"),
        ("9/11", "2:2000:even"),
        ("1", "1:200:all"),     # the edge branch: the critical point
        ("7/4", "1:200:all"),
    ])
    def test_small_fields(self, gamma, sizes):
        assert cli_rows("--gamma", gamma, "--N", sizes) == fraction_route_rows(
            Fraction(gamma), parse_sizes(sizes))

    @pytest.mark.parametrize("kind,terms", [
        (SequenceKind.DOUBLE_EXP, 5), (SequenceKind.FACTORIAL, 4),
    ])
    def test_series_fields(self, kind, terms):
        # N = 1..64 and every size a scaling row of either rule takes
        sizes = sorted(set(range(1, 65)).union(*(
            [scale * a for a in sequence_terms(kind, terms - 1)] for scale in (1, 2))))
        got = cli_rows("--gamma-series", kind.value, "--terms", str(terms),
                       "--N", ",".join(map(str, sizes)))
        assert got == fraction_route_rows(gamma_value(kind, terms), sizes)

    def test_series_rows_convert_only_the_field(self, tmp_path):
        # each row is built from Decimal(p) and Decimal(q), the two integers
        # that gamma's own text converts (the per-integer route made 135)
        exactnum._big_decimal.cache_clear()
        argv = ["finite-gap", "--gamma-series", "double-exp", "--terms", "5", "--N", "1:64:all"]
        assert main([*argv, "-o", str(tmp_path / "rows.csv")]) == 0
        misses = exactnum._big_decimal.cache_info().misses
        gamma = gamma_value(SequenceKind.DOUBLE_EXP, 5)
        exactnum._big_decimal(gamma.numerator), exactnum._big_decimal(gamma.denominator)
        assert misses == exactnum._big_decimal.cache_info().misses == 2


class TestNothingWrittenOnFailure:
    """Rows stream to the output only once every value that can fail is
    computed, so a command that fails leaves no file, leaves an existing file
    as it was, and prints nothing to standard output."""

    COMMANDS = [
        # N = 4 solves; at N = 10**9 the sector matrix's squared norm overflows
        ("finite-gap", "--gamma", "1/3", "--h", "1e152", "--N", "4,1000000000"),
        # the grid's last point, gamma + |h| = 1e308 + 1e300, is past SAFE_REACH
        ("phase-diagram", "--gamma", "0:1e308:2", "--h", "0:1e300:2"),
        ("phase-diagram", "--gamma", "0:1e308:2", "--h", "0:1e300:2", "--format", "json"),
    ]
    COMMAND_IDS = ["finite-gap", "phase-diagram-csv", "phase-diagram-json"]

    @pytest.mark.parametrize("args", COMMANDS, ids=COMMAND_IDS)
    def test_no_file(self, capsys, tmp_path, args):
        out = tmp_path / "f"
        assert main([*args, "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args", COMMANDS, ids=COMMAND_IDS)
    def test_existing_file_unchanged(self, capsys, tmp_path, args):
        out = tmp_path / "f"
        out.write_bytes(b"earlier output\n")
        assert main([*args, "-o", str(out)]) == 2
        assert out.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("args", COMMANDS, ids=COMMAND_IDS)
    def test_nothing_on_stdout(self, capsys, args):
        assert main([*args, "-o", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestBoundedMemory:
    def test_exact_rows_peak_does_not_grow_with_row_count(self, tmp_path):
        # The rows stream to the file as they are formatted.  Measured under
        # tracemalloc: 0.074 MB at N = 1:4000 and 0.077 MB at 1:40000; before
        # streaming, when the text was held whole, 1.07 MB and 10.6 MB.  The
        # bound allows a factor 2 between the two, against 10 before.
        path = tmp_path / "fg.csv"
        out = str(path)
        assert main(["finite-gap", "--gamma", "3/5", "--N", "1:40:all", "-o", out]) == 0  # warm

        def peak(sizes: str) -> int:
            tracemalloc.start()
            try:
                assert main(["finite-gap", "--gamma", "3/5", "--N", sizes, "-o", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak("1:4000:all"), peak("1:40000:all")
        assert large < 2 * small, (small, large)
        assert path.read_text().count("\n") == 40001


    def test_scan_peak_does_not_grow_with_grid_size(self, tmp_path):
        # The records stream to the file as they are computed.  Measured
        # under tracemalloc: 0.062 MB at 10**4 points and 0.065 MB at 10**5;
        # with one record kept per point, 2.2 MB and 21.7 MB.
        out = str(tmp_path / "pd.csv")
        assert main(["phase-diagram", "--gamma", "0:2:3", "--h", "-1:1:3", "-o", out]) == 0

        def peak(gamma: str, h: str, *fmt: str) -> int:
            tracemalloc.start()
            try:
                assert main(["phase-diagram", "--gamma", gamma, "--h", h, *fmt, "-o", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak("0:2:100", "-1:1:100"), peak("0:2:1000", "-1:1:100")
        assert large < 2 * small, (small, large)
        assert (tmp_path / "pd.csv").read_text().count("\n") == 100001
        # a long h axis, in JSON: no list of h values or texts is built
        small, large = (peak("0.5:1.5:3", h, "--format", "json") for h in ("-1:1:1000", "-1:1:10000"))
        assert large < 2 * small, (small, large)
        assert (tmp_path / "pd.csv").read_text().count('"gamma"') == 30000

    def test_huge_grid_streams_until_the_reader_leaves(self):
        # 3*10**11 points: the grid is never built and the rows stream as
        # they are computed, so a reader that stops after a few rows ends
        # the run at once.  The address-space limit turns a regression that
        # holds the grid or the records into a prompt failure, not a host
        # out of memory.
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        argv = ["phase-diagram", "--gamma", "0:2:100000000000", "--h", "0:1:3"]
        proc = subprocess.Popen([sys.executable, "-m", "xygap", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                preexec_fn=limit_memory)
        rows = [proc.stdout.readline() for _ in range(4)]
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert rows == [b"gamma,h,theta0,m_x,gap\n", b"0,0,1.5707963267948963,1,0\n",
                        b"0,0.5,1.5707963267948963,1,0.8660254037844386\n",
                        b"0,1,1.5707963267948963,1,1.4142135623730951\n"]
        assert (proc.returncode, stderr) == (1, b"")


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

    @pytest.mark.parametrize("kind,rule,terms", [
        (SequenceKind.DOUBLE_EXP, RULE_PLAIN, 5), (SequenceKind.FACTORIAL, RULE_PLAIN, 4),
    ])
    def test_json_is_the_report_text_streamed(self, tmp_path, kind, rule, terms):
        from xygap.scaling import build_scaling_report, report_to_json_dict

        out = tmp_path / "report.json"
        argv = ["scaling", "--seq", kind.value, "--rule", rule, "--K", str(terms), "-o", str(out)]
        assert main(argv) == 0
        report = build_scaling_report(SizeSequence(kind, rule), terms)
        assert out.read_text() == json.dumps(report_to_json_dict(report), indent=2) + "\n"

    def test_csv_summary(self, cli, tmp_path):
        out, summary = tmp_path / "report.json", tmp_path / "summary.csv"
        res = cli("scaling", "--seq", "factorial", "-o", str(out), "--csv", str(summary))
        assert res.returncode == 0
        lines = summary.read_text().strip().split("\n")
        assert lines[0] == "n,N,delta_minus_half,gap,gap_decimal"
        assert len(lines) == 3

    def test_default_truncation_is_largest_in_budget(self, cli, tmp_path):
        # at 64 bits the double-exp terms stop at a_4 = 65536, so K = 4
        out = tmp_path / "r.json"
        res = cli("--bit-budget", "64", "scaling", "--seq", "double-exp", "-o", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["field"]["terms"] == 4
        assert [row["N"] for row in payload["rows"]] == [2, 4]
        # the factorial terms stop at a_3 = 720, short of two rows: out of budget
        res = cli("--bit-budget", "64", "scaling", "--seq", "factorial", "-o", str(out))
        assert res.returncode == 3, res.stderr

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


class TestGoldenOutput:
    """sha256 of the README's scaling reports and of the series-field rows,
    recorded before their exact integers were printed through the split
    Decimal conversion, of long small-rational h = 0 runs (with degenerate
    and tied rows at gamma = 0), recorded before the rows were computed from
    one integer residue, and of eigensolver runs (h != 0, and an h = 0 run
    with the numeric cross column), recorded while the sector layer still
    built its rows in numpy, the h != 0 runs at (0.5, 0.001) and (0.6,
    0.6) again when the start bracket came from closed forms; any change
    to the output bytes shows here."""

    @pytest.mark.parametrize("args,digests", [
        (("scaling", "--seq", "double-exp", "--rule", "a_n", "--K", "5"), {
            "out.json": "d7249e7c1c268be8eb3860ab19a088c91ff880d9de64c84b0722c9f0bd30cb96",
            "out.csv": "cff31a111b509d51a426e9433e59064c7bf34402fcf1bfd5f61526529fa29354",
        }),
        (("scaling", "--seq", "double-exp", "--rule", "2a_n", "--K", "5"), {
            "out.json": "210eef6468efdc6b7ec2ed96bcc7833c59262e8387957d134abff805621b644a",
            "out.csv": "2647df9759ab13bd7fae30236b6926f4a2fc562320dada21900fc9ba4ed614e5",
        }),
        (("scaling", "--seq", "factorial", "--rule", "a_n", "--K", "4"), {
            "out.json": "172e1e58f0c3f09a2f7dd84221c47e3d3762768e83de760bf0c19144262a457c",
            "out.csv": "abb9768be26715b34727fa8127d72af8e5cbabacc1aa00b5fac31bfb32f9684b",
        }),
        (("finite-gap", "--gamma-series", "double-exp", "--terms", "5", "--N", "1:16:all"), {
            "out.csv": "f36d318b09fdbc8d4f10c559a3d01c6a6c25052516cdf3cbb1a836a3346991d2",
        }),
        (("finite-gap", "--gamma-series", "factorial", "--terms", "4", "--N", "1:64:all"), {
            "out.csv": "671cfe0155e5b5667fbec09224c8a6882e9436162dec50cb6ea07c428aaebb98",
        }),
        (("finite-gap", "--gamma", "3/5", "--N", "1:8192:all"), {
            "out.csv": "aa969d9031a15e26746fda00cecf8e4e8b152bb1c456460e5b560c97416e3790",
        }),
        (("finite-gap", "--gamma", "9/11", "--N", "2:16384:even"), {
            "out.csv": "616e482286635aaa1be7c2b383f9671a397e3b5a2b3e1db7e72f918dcfaeef8e",
        }),
        (("finite-gap", "--gamma", "0", "--N", "1:64:all"), {
            "out.csv": "08e1f85e204a6743be3284d11d966fc740afbf5d1c7874dc3033dff3589dcda3",
        }),
        (("finite-gap", "--gamma", "0", "--h", "0.5", "--N", "16,64,256,1024,4096"), {
            "out.csv": "55eec501a1bf6eecea2db0cd0a21f42612f278fbac06e83ca03462cd9ee73735",
        }),
        (("finite-gap", "--gamma", "0.5", "--h", "0.001", "--N", "64,1024,4096,16384"), {
            "out.csv": "38a1a179c5fe842599fa440c528809666e51d4f7b0063016ac949fbaa75204bb",
        }),
        (("finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", "1024,4096,16384"), {
            "out.csv": "de4799ae4a09d25e2f78cbe5da59328f1336356947c199579f7db10e46004bb1",
        }),
        (("finite-gap", "--gamma", "1/3", "--N", "1:80:all", "--cross-max", "80"), {
            "out.csv": "7d08edd7bc4633c6296665d70b6c73dfdc529dbfb1fa2ad04124d932810784e0",
        }),
    ])
    def test_output_digests(self, tmp_path, args, digests):
        paths = {name: tmp_path / name for name in digests}
        argv = [*args, "-o", str(paths.get("out.json", paths["out.csv"]))]
        if args[0] == "scaling":
            argv += ["--csv", str(paths["out.csv"])]
        assert main(argv) == 0
        got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert got == digests


class TestVerify:
    def test_default_run_passes(self, cli):
        res = cli("verify", "--max-N", "32")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout
        assert res.stdout.count("PASS") == 6

    @pytest.mark.parametrize("max_n", ["1", "0", "-4"])
    def test_max_n_below_two_is_usage_error(self, cli, max_n):
        # the numeric oracle's smallest size is 2; below it the suite checked nothing
        res = cli("verify", "--max-N", max_n)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout == ""


class TestClosedStdout:
    """A reader that stops early, as `xygap ... | head -1` does, ends the run
    with the runtime-failure code and nothing on stderr."""

    @pytest.mark.parametrize("args, header", [
        # far larger than a pipe's buffer: still writing when the reader leaves
        (("finite-gap", "--gamma", "1/3", "--N", "1:20000:all"), b"N,gamma,delta,"),
        (("phase-diagram", "--gamma", "0:2:81", "--h", "-1:1:81"), b"gamma,h,theta0,"),
        # small: the reader is gone before the first write, and a buffered
        # stdout still holds the text when the process exits
        (("finite-gap", "--gamma", "1/3", "--N", "1:8:all"), b""),
    ])
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_reader_closes_pipe_early(self, args, header, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "xygap", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline() if header else b""
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert first.startswith(header)
        assert (proc.returncode, stderr) == (1, b"")


def _mostly(valid, invalid):
    """``valid``, and about one time in ten ``invalid`` (drawn at 5: the
    generator favours the ends of a range)."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 5 else valid)


_CONTRACT_GRID_END = _mostly(
    st.one_of(st.floats(min_value=0.0, max_value=3.0).map(repr),
              st.sampled_from(["0", "1", "2", "0.5", "5e-324", "1e-300", "1e154", "1.2e154"])),
    st.sampled_from(["-0", "-1", "1e200", "1e308", "-1e308", "nan", "inf", "x"]))
_CONTRACT_GRID = _mostly(
    st.tuples(_CONTRACT_GRID_END, _CONTRACT_GRID_END, st.integers(1, 50)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"),
    st.sampled_from(["0:1", "a:b:c", "0:1:1e3", "0:1:0", "0:1:-1", f"0:1:{10**400}", ""]))
_CONTRACT_FIELD = _mostly(
    st.tuples(st.integers(0, 20), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["1/3", "0.25", "0", "1", "3/2", "-1/3", "1e-5", "1e200", "1e400", "1/0",
                     "2/4", "abc", "", "1e-2000000", "0.6"]))
_CONTRACT_H = _mostly(
    st.one_of(st.just("0"), st.floats(min_value=-2.0, max_value=2.0).map(repr)),
    st.sampled_from(["-0.0", "-1e-3", "5e-324", "1e152", "1e200", "nan", "inf", "x"]))
_CONTRACT_SIZE = _mostly(st.one_of(st.integers(1, 80), st.integers(81, 4096)),
                         st.integers(-2, 0))
_CONTRACT_SIZES = _mostly(
    st.one_of(
        st.lists(_CONTRACT_SIZE, min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
        st.tuples(_CONTRACT_SIZE, st.integers(-1, 16),
                  st.sampled_from(["even", "odd", "all"])).map(
            lambda t: f"{t[0]}:{t[0] + t[1]}:{t[2]}")),
    st.sampled_from(["", "3,,4", "4,", "a", "1:2", "2:1:x", str(sys.maxsize + 1)]))


def _count(low, high):
    return _mostly(st.integers(low, high), st.sampled_from(["-1", "x", "99999999999999999999"]))


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _contract_groups(command):
    """The option groups of one command line, each a list of tokens."""
    if command == "phase-diagram":
        return st.tuples(
            _CONTRACT_GRID.map(lambda g: ["--gamma", g]), _CONTRACT_GRID.map(lambda g: ["--h", g]),
            _optional("--format", _mostly(st.sampled_from(["csv", "json"]), st.just("xml"))))
    if command == "finite-gap":
        return st.tuples(
            _mostly(_CONTRACT_FIELD.map(lambda f: ["--gamma", f]),
                    st.sampled_from(["double-exp", "factorial", "x"]).map(
                        lambda k: ["--gamma-series", k])),
            _optional("--h", _CONTRACT_H), _CONTRACT_SIZES.map(lambda n: ["--N", n]),
            _mostly(st.just([]), st.tuples(st.sampled_from(["--terms", "--cross-max"]),
                                          _count(0, 128)).map(lambda t: [t[0], str(t[1])])))
    if command == "scaling":
        return st.tuples(
            _mostly(st.sampled_from(["double-exp", "factorial"]), st.just("x")).map(
                lambda k: ["--seq", k]),
            _optional("--rule", _mostly(st.sampled_from(["a_n", "2a_n"]), st.just("x"))),
            _optional("--K", _count(2, 7)), _optional("--csv", st.just("CSV")))
    # no huge --max-N: verify checks every even size up to it
    return st.tuples(_optional("--max-N", _mostly(st.integers(0, 64), st.sampled_from(["-1", "x"]))),
                     _optional("--seed", st.integers(0, 9)))


@st.composite
def _contract_argv(draw):
    command = draw(st.sampled_from(["phase-diagram", "finite-gap", "scaling", "verify"]))
    groups = list(draw(_contract_groups(command)))
    if command != "verify":
        groups.append(["-o", draw(st.sampled_from(["OUT", "OUT", "-"]))])
    if groups and draw(st.integers(0, 9)) == 5:  # a missing flag, required or not
        del groups[draw(st.integers(0, len(groups) - 1))]
    if draw(st.integers(0, 9)) == 5:  # an extra flag, unknown or another mode's
        groups.append(draw(st.sampled_from(
            [["--bogus"], ["extra"], ["--terms", "3"], ["--cross-max", "8"], ["--format", "json"],
             ["--h", "0.5"], ["--gamma", "1/3"], ["--seed", "1"]])))
    budget = draw(_mostly(st.just([]), st.sampled_from(
        [["--bit-budget", "32"], ["--bit-budget", "100"], ["--bit-budget", "4096"],
         ["--bit-budget", "x"]])))
    env = draw(_mostly(st.none(), st.sampled_from(["100", "x"])))
    return [*budget, command, *(tok for group in groups for tok in group)], env


class TestExitCodeContract:
    """Generated command lines for every command, run in-process: the exit
    code is a documented one, no exception escapes, and a nonzero exit
    leaves no output file."""

    @given(case=_contract_argv())
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # tracebacks before the grid count and the sector size were checked
    @example(case=(["phase-diagram", "--gamma", f"0:1:{10**400}", "--h", "0:1:2", "-o", "OUT"], None))
    @example(case=(["finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", str(sys.maxsize + 1),
                    "-o", "OUT"], None))
    def test_generated_argv(self, tmp_path, case):
        argv, env = case
        out, csv = tmp_path / "out", tmp_path / "out.csv"
        argv = [str(out) if tok == "OUT" else str(csv) if tok == "CSV" else tok for tok in argv]
        environ = {k: v for k, v in os.environ.items() if k != "XYGAP_BIT_BUDGET"}
        if env is not None:
            environ["XYGAP_BIT_BUDGET"] = env
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, environ, clear=True), \
                redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        written = [path for path in (out, csv) if path.exists()]
        for path in written:
            path.unlink()
        event(f"exit {code}")
        assert code in (0, 1, 2, 3), (argv, code)
        if code != 0:
            assert written == [], (argv, code, stderr.getvalue())
