"""Package-wide invariants: checks that survive ``python -O``, CLI output that
``-O`` leaves unchanged, and an import that leaves the interpreter's global
settings alone."""

import ast
import json
import os
import subprocess
import sys

import pytest

from conftest import SRC_DIR, run_cli


def test_no_assert_statements_in_package():
    # invariants must be raised errors: python -O strips assert statements
    found = [
        f"{path.relative_to(SRC_DIR)}:{node.lineno}"
        for path in sorted((SRC_DIR / "xygap").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_import_keeps_int_str_digit_limit():
    script = (
        "import sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import xygap.cli, xygap.classical, xygap.sector, xygap.verify\n"
        "from fractions import Fraction\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
        "for r in (Fraction(2**65536), Fraction(-1, 2**65536), Fraction(3**40000, 2**65536 + 1)):\n"
        "    assert xygap.exactnum.parse_rational(xygap.exactnum.format_rational(r)) == r\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_import_and_formatting_keep_decimal_context():
    # the exact conversions run in private contexts, never the caller's
    script = (
        "import decimal\n"
        "def state():\n"
        "    ctx = decimal.getcontext()\n"
        "    return (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin,\n"
        "            {sig: on for sig, on in ctx.traps.items()})\n"
        "before = state()\n"
        "import xygap.cli, xygap.classical, xygap.sector, xygap.verify\n"
        "from fractions import Fraction\n"
        "r = Fraction(3**41000 - 2**65536, 2**65536 + 1)\n"
        "num = xygap.exactnum\n"
        "num.format_rational(r), num.decimal_str(r, 17), num.decimal_str(-r, 3)\n"
        "assert state() == before, (state(), before)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_cli_import_loads_no_scipy(tmp_path):
    # importing scipy.linalg roughly doubles a CLI process's peak RSS, and
    # numpy alone costs a process about 0.2 s; every command, phase-diagram,
    # the eigensolver's and verify's included, runs without either
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    script = (
        "import sys\n"
        "import xygap.cli, xygap.sector, xygap.verify\n"
        "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    run_as_main = (
        "import runpy, sys\n"
        "sys.argv[0] = 'xygap'\n"
        "try:\n"
        "    runpy.run_module('xygap', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    for argv in (["--help"],
                 ["scaling", "--seq", "double-exp", "--K", "5", "-o", str(tmp_path / "r.json")],
                 ["finite-gap", "--gamma", "1/3", "--N", "2:64:even", "--cross-max", "0",
                  "-o", str(tmp_path / "fg.csv")],
                 ["finite-gap", "--gamma", "1/3", "--N", "2:64:even",
                  "-o", str(tmp_path / "cross.csv")],
                 ["finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", "64,1024",
                  "-o", str(tmp_path / "sector.csv")],
                 ["phase-diagram", "--gamma", "0:2:81", "--h", "-1:1:81",
                  "-o", str(tmp_path / "pd.csv")],
                 ["phase-diagram", "--gamma", "0:2:21", "--h", "-1:1:41", "--format", "json",
                  "-o", str(tmp_path / "pd.json")],
                 ["verify", "--max-N", "8"]):
        res = subprocess.run([sys.executable, "-c", run_as_main, *argv],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, (argv, res.stderr)
    assert (tmp_path / "r.json").stat().st_size > 0
    assert len((tmp_path / "fg.csv").read_text().split("\n")) == 1 + 32 + 1
    assert all(row.split(",")[6] for row in (tmp_path / "cross.csv").read_text().split("\n")[1:-1])
    assert len((tmp_path / "sector.csv").read_text().split("\n")) == 1 + 2 + 1
    assert len((tmp_path / "pd.csv").read_text().split("\n")) == 1 + 81 * 81 + 1
    assert len(json.loads((tmp_path / "pd.json").read_text())["records"]) == 21 * 41


def test_no_module_imports_numpy():
    # the package runs on the standard library; numpy serves only the tests
    importers = set()
    for path in sorted((SRC_DIR / "xygap").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.add(path.relative_to(SRC_DIR).as_posix())
    assert importers == set()


@pytest.mark.parametrize("args", [
    ("finite-gap", "--gamma", "1/3", "--N", "2:40:even"),  # exact rows, numeric cross column
    ("finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", "64,1024"),  # sector route
    ("scaling", "--seq", "double-exp", "--rule", "a_n", "--K", "5"),  # 65k-bit rationals
])
def test_output_unchanged_under_optimize(args):
    plain = run_cli(*args)
    optimized = run_cli(*args, python_flags=("-O",))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)
