"""Package-wide invariants: checks that survive ``python -O``, CLI output that
``-O`` leaves unchanged, an import that leaves the interpreter's global
settings alone, CLI processes that load only what their command runs, and
immutable result records that validate their fields."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import SRC_DIR, run_cli
from xygap import exactnum, gaplaw, scaling, sector, verify
from xygap.field import FieldPoint
from xygap.sequences import SequenceKind


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
        "import xygap.cli, xygap.classical, xygap.sector, xygap.verify, xygap.exactnum\n"
        "from fractions import Fraction\n"
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()\n"
        "for r in (Fraction(2**65536), Fraction(-1, 2**65536), Fraction(3**40000, 2**65536 + 1)):\n"
        "    text = xygap.exactnum.format_rational(r)\n"
        "    assert Fraction(*xygap.literal.parse_ratio(text)) == r\n"
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


# What each command may load.  Without a bytecode cache every module a
# process imports is also compiled, so a CLI process imports only the layers
# its command runs: --help needs the parser alone, phase-diagram none of the
# exact layers and no json, finite-gap at h != 0 no exact layer either,
# unless its field needs exactnum (a series, or integers past 2048 bits).
NEVER_LOADED = {"numpy", "scipy", "mpmath", "dataclasses"}
HELP_PACKAGE_MODULES = {"xygap", "xygap.cli", "xygap.errors", "xygap.sequences"}
HELP_NOT_LOADED = {"fractions", "decimal", "json"}
# the commands that have a module of their own beside the CLI's core
COMMAND_MODULES = {"phase-diagram": "xygap.cli_phase_diagram", "finite-gap": "xygap.cli_finite_gap"}
NO_DECIMAL_STACK = {"fractions", "decimal", "xygap.exactnum"}
EXACT_LAYERS = {"xygap.gaplaw", "xygap.exactnum", "xygap.scaling", "fractions", "decimal"}


def test_cli_import_loads_no_scipy(tmp_path):
    # importing scipy.linalg roughly doubles a CLI process's peak RSS, and
    # numpy alone costs a process about 0.2 s; every command, phase-diagram,
    # the eigensolver's and verify's included, runs without either, and
    # without mpmath, the tests' high-precision oracle
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    script = (
        "import sys\n"
        "import xygap.cli, xygap.classical, xygap.sector, xygap.verify\n"
        "loaded = {'numpy', 'scipy', 'mpmath'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    # the last line of stderr names the modules the command loaded
    run_as_main = (
        "import runpy, sys\n"
        "sys.argv[0] = 'xygap'\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    runpy.run_module('xygap', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "sys.stderr.write('\\n' + ' '.join(sorted(set(sys.modules) - before)))\n"
    )
    for argv, not_loaded in (
            (["--help"], HELP_NOT_LOADED),
            (["scaling", "--seq", "double-exp", "--K", "5", "-o", str(tmp_path / "r.json")],
             set()),
            (["finite-gap", "--gamma", "1/3", "--N", "2:64:even", "--cross-max", "0",
              "-o", str(tmp_path / "fg.csv")],
             {"xygap.sector", "xygap.scaling", "json"} | NO_DECIMAL_STACK),
            (["finite-gap", "--gamma", "1/3", "--N", "2:64:even",
              "-o", str(tmp_path / "cross.csv")], {"xygap.scaling", "json"} | NO_DECIMAL_STACK),
            (["finite-gap", "--gamma-series", "double-exp", "--terms", "5", "--N", "2:64:even",
              "-o", str(tmp_path / "series.csv")], {"xygap.scaling", "json"}),
            (["finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", "64,1024",
              "-o", str(tmp_path / "sector.csv")], EXACT_LAYERS | {"json"}),
            (["finite-gap", "--gamma", "3/5", "--h", "-0.6", "--N", "64",
              "-o", str(tmp_path / "ratio.csv")], EXACT_LAYERS | {"json"}),
            (["finite-gap", "--gamma", f"1/{2**2100}", "--h", "0.5", "--N", "4",
              "-o", str(tmp_path / "big.csv")], {"xygap.gaplaw", "xygap.scaling", "json"}),
            (["phase-diagram", "--gamma", "0:2:81", "--h", "-1:1:81",
              "-o", str(tmp_path / "pd.csv")], EXACT_LAYERS | {"xygap.sector", "json"}),
            (["phase-diagram", "--gamma", "0:2:21", "--h", "-1:1:41", "--format", "json",
              "-o", str(tmp_path / "pd.json")], EXACT_LAYERS | {"xygap.sector", "json"}),
            (["verify", "--max-N", "8"], {"json"})):
        res = subprocess.run([sys.executable, "-c", run_as_main, *argv],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, (argv, res.stderr)
        loaded = set(res.stderr.split("\n")[-1].split())
        # each process compiles the CLI's core and its own command's module alone
        cli_modules = {"xygap.cli", COMMAND_MODULES.get(argv[0], "xygap.cli")}
        assert {m for m in loaded if m.startswith("xygap.cli")} == cli_modules, (argv, res.stderr)
        assert loaded & (NEVER_LOADED | not_loaded) == set(), argv
        if argv == ["--help"]:
            assert {m for m in loaded if m.split(".")[0] == "xygap"} == HELP_PACKAGE_MODULES
    assert (tmp_path / "r.json").stat().st_size > 0
    assert len((tmp_path / "fg.csv").read_text().split("\n")) == 1 + 32 + 1
    assert all(row.split(",")[6] for row in (tmp_path / "cross.csv").read_text().split("\n")[1:-1])
    assert len((tmp_path / "series.csv").read_text().split("\n")) == 1 + 32 + 1
    assert len((tmp_path / "sector.csv").read_text().split("\n")) == 1 + 2 + 1
    assert (tmp_path / "ratio.csv").read_text().split("\n")[1].startswith("64,3/5,-0.59999999999999998,")
    # a field past 2048 bits still prints as exact p/q, through exactnum
    assert (tmp_path / "big.csv").read_text().split("\n")[1].startswith(f"4,1/{2**2100},0.5,")
    assert len((tmp_path / "pd.csv").read_text().split("\n")) == 1 + 81 * 81 + 1
    assert len(json.loads((tmp_path / "pd.json").read_text())["records"]) == 21 * 41


def _importers(module: str) -> set[str]:
    """Package files with an import statement naming ``module`` or a submodule of it."""
    importers = set()
    for path in sorted((SRC_DIR / "xygap").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == module or name.startswith(module + ".") for name in names):
                importers.add(path.relative_to(SRC_DIR).as_posix())
    return importers


def test_no_module_imports_numpy():
    # the package runs on the standard library; numpy serves only the tests
    assert _importers("numpy") == set()


def test_no_module_imports_dataclasses():
    # records are NamedTuples: importing dataclasses pulls in inspect, ast,
    # dis and tokenize, about 10 ms of every CLI process without a bytecode cache
    assert _importers("dataclasses") == set()


@pytest.mark.parametrize("args", [
    ("finite-gap", "--gamma", "1/3", "--N", "2:40:even"),  # exact rows, numeric cross column
    ("finite-gap", "--gamma", "0.6", "--h", "0.6", "--N", "64,1024"),  # sector route
    ("finite-gap", "--gamma", "7/5", "--h", "0.3", "--N", "64,256"),  # p/q field at h != 0
    ("finite-gap", "--gamma", "12.5e-2", "--h", "-0.75", "--N", "33,100"),
    ("scaling", "--seq", "double-exp", "--rule", "a_n", "--K", "5"),  # 65k-bit rationals
    # rows built from Decimal(p) and Decimal(q), checked by raising, not by assert
    ("finite-gap", "--gamma-series", "double-exp", "--terms", "5", "--N", "1:16:all"),
    ("phase-diagram", "--gamma", "0:2:21", "--h", "-1:1:41"),  # continued minimizer starts
    ("phase-diagram", "--gamma", "0:2:21", "--h", "-1:1:41", "--format", "json"),
    ("verify", "--max-N", "32"),  # every suite's checks are raised, none asserted
])
def test_output_unchanged_under_optimize(args):
    plain = run_cli(*args)
    optimized = run_cli(*args, python_flags=("-O",))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)


# The input rule gamma + |h| <= SAFE_REACH = 1e308: one grid well past the
# radicand's old overflow at 1.34e154 that passes, and one past the rule.
@pytest.mark.parametrize("args, code", [
    (("phase-diagram", "--gamma", "0:1e200:3", "--h", "-1e150:1e150:3"), 0),
    (("phase-diagram", "--gamma", "0:1e308:3", "--h", "0:1e300:2"), 2),
])
def test_overflow_verdict_unchanged_under_optimize(args, code):
    plain = run_cli(*args)
    optimized = run_cli(*args, python_flags=("-O",))
    assert plain.returncode == code, plain.stderr
    assert (optimized.stdout, optimized.stderr, optimized.returncode) == \
        (plain.stdout, plain.stderr, plain.returncode)


def _records():
    """One record of each of the 8 result types, and one field name of it."""
    point = FieldPoint(0.5, 0.25)
    seq = scaling.SizeSequence(SequenceKind.DOUBLE_EXP)
    gamma = Fraction(1, 3)
    return [
        (point, "h"),
        (scaling.dense_gamma_in_interval(Fraction(1, 3), Fraction(1, 2)), "lo"),
        (gaplaw.gap_record(4, gamma), "gap"),
        (seq, "rule"),
        (scaling.scaling_row(seq, 1, 4), "delta"),
        (scaling.build_scaling_report(seq, 4), "rows"),
        (sector.sector_matrix(4, point), "norm"),
        (verify.CheckResult("name", True, "detail"), "passed"),
    ]


def test_records_are_immutable():
    records = _records()
    assert len({type(record) for record, _ in records}) == 8
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict either


_BAD_INTERVAL = {"lo": Fraction(1, 2), "hi": Fraction(1, 4), "scale_exp": 3, "anchor_num": 3,
                 "positive_branch": True, "series_index": 4}


# The value functions of the series and the digit-injection map refuse bad
# arguments as the records do.
@pytest.mark.parametrize("make, fields, message", [
    (FieldPoint, {"gamma": -0.5, "h": 0.5},
     "need finite gamma >= 0 and finite h, got FieldPoint(gamma=-0.5, h=0.5)"),
    (FieldPoint, {"gamma": 0.5, "h": float("nan")},
     "need finite gamma >= 0 and finite h, got FieldPoint(gamma=0.5, h=nan)"),
    (exactnum.gamma_value, {"kind": SequenceKind.FACTORIAL, "count": 0},
     "count must be >= 1, got 0"),
    (exactnum.injection_value, {"digits": []}, "at least one digit is required"),
    (exactnum.injection_value, {"digits": [3, 10]}, "digits must lie in 0..9, got (3, 10)"),
    (scaling.IntervalConstruction, _BAD_INTERVAL, "need 0 < lo < hi < 1, got (1/2, 1/4)"),
    (scaling.IntervalConstruction, {**_BAD_INTERVAL, "hi": Fraction(1)},
     "need 0 < lo < hi < 1, got (1/2, 1)"),
    (scaling.SizeSequence, {"kind": SequenceKind.DOUBLE_EXP, "rule": "3a_n"},
     "rule must be 'a_n' or '2a_n', got '3a_n'"),
])
def test_validated_records_refuse_bad_fields(make, fields, message):
    for args, kwargs in ((tuple(fields.values()), {}), ((), fields)):
        with pytest.raises(ValueError) as exc:
            make(*args, **kwargs)
        assert str(exc.value) == message


def _unreached_names(package_dir) -> list[str]:
    """Top-level non-dunder names of the package's modules that no path of
    references reaches from ``cli.main``.

    The other roots are each module's top-level statements other than a
    def, a class or a plain assignment (imports, ``if`` blocks, docstrings).
    A reached definition reaches every ``Name`` and ``Attribute`` it holds:
    a name defined at the top of its own module, a name bound by a
    ``from . import x`` or ``from .x import y`` anywhere in the module, and
    the attribute of such an imported module.
    """
    defs: dict[tuple[str, str], ast.AST] = {}
    imports: dict[str, dict[str, tuple[str, str | None]]] = {}
    roots: list[tuple[str, ast.AST]] = []
    for path in sorted(package_dir.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = imports.setdefault(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (alias.name, None) if node.module is None else (node.module, alias.name)
                    bound[alias.asname or alias.name] = target
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[module, stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Name) for t in stmt.targets):
                for target in stmt.targets:
                    defs[module, target.id] = stmt
            else:
                roots.append((module, stmt))

    def refs(module: str, node: ast.AST):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if (module, sub.id) in defs:
                    yield module, sub.id
                elif sub.id in imports[module] and imports[module][sub.id][1] is not None:
                    yield imports[module][sub.id]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                source, name = imports[module].get(sub.value.id, (None, ""))
                if name is None:
                    yield source, sub.attr

    reached = {("cli", "main")}
    todo = [("cli", defs["cli", "main"])] + roots
    while todo:
        module, node = todo.pop()
        for key in refs(module, node):
            if key in defs and key not in reached:
                reached.add(key)
                todo.append((key[0], defs[key]))
    return sorted(f"{module}.{name}" for module, name in defs
                  if (module, name) not in reached
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_top_level_name_is_reached_from_the_cli():
    # the library is what the CLI and verify run; an oracle that only the
    # tests call belongs in the tests
    assert _unreached_names(SRC_DIR / "xygap") == []
