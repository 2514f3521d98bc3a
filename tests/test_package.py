"""Package-wide invariants: checks that survive ``python -O``, CLI output that
``-O`` leaves unchanged, and an import that leaves the interpreter's global
settings alone."""

import ast
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
        "import xygap\n"
        "from fractions import Fraction\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
        "for r in (Fraction(2**65536), Fraction(-1, 2**65536), Fraction(3**40000, 2**65536 + 1)):\n"
        "    assert xygap.parse_rational(xygap.format_rational(r)) == r\n"
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
        "import xygap\n"
        "from fractions import Fraction\n"
        "r = Fraction(3**41000 - 2**65536, 2**65536 + 1)\n"
        "xygap.format_rational(r), xygap.decimal_str(r, 17), xygap.decimal_str(-r, 3)\n"
        "assert state() == before, (state(), before)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_cli_import_loads_no_scipy():
    # importing scipy.linalg roughly doubles a CLI process's peak RSS
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    script = "import sys\nimport xygap.cli\nassert 'scipy' not in sys.modules\n"
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


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
