"""Command-line front end: scans, scaling runs, and verification.

Subcommands:

* ``phase-diagram`` - thermodynamic-limit scan over a (gamma, h) grid.
* ``finite-gap``    - finite-size gaps; exact rationals on the h = 0 line,
  eigensolver values elsewhere, with a cross-check column when both apply.
* ``scaling``       - certified scaling report for an engineered sequence.
* ``verify``        - cross-oracle suites; nonzero exit on any failure.

Exit codes: 0 success, 1 verification/runtime failure (also a standard
output closed early, as by ``| head``), 2 usage error, 3 bit-budget
exhaustion.  Identical invocations produce byte-identical output files.

The package needs only the standard library.  A process imports only the
modules its command runs, because without a bytecode cache each module is
also compiled.  At the top this module imports ``argparse`` and, of xygap,
only ``errors`` and ``sequences``: all that ``--help`` needs.  Each
``cmd_*`` imports its layers when it runs.  ``phase-diagram`` loads
``classical`` and none of the exact layers.  ``finite-gap`` loads
``exactnum`` (and with it ``fractions`` and ``decimal``), ``gaplaw`` at
h = 0, and ``sector`` where it solves.  ``scaling`` and ``verify`` load
their own modules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import BitBudgetError, XYGapError
from .sequences import (
    DEFAULT_BIT_BUDGET, HARD_BIT_CAP, RULE_DOUBLED, RULE_PLAIN, SequenceKind, max_term_count,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing for --help
if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction

BUDGET_ENV_VAR = "XYGAP_BIT_BUDGET"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def parse_grid(text: str) -> list[float]:
    """Inclusive grid "lo:hi:count"; count 1 degenerates to [lo]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {count}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    if not math.isfinite(step):
        raise UsageError(f"grid step of {text!r} overflows a double")
    return [lo + i * step for i in range(count - 1)] + [hi]


def parse_sizes(text: str) -> list[int]:
    """Size list: "2:64:even", "3:99:odd", "1:50:all", or "16,64,256"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or parts[2] not in ("even", "odd", "all"):
            raise UsageError(
                f"size range must look like start:stop:even|odd|all, got {text!r}"
            )
        try:
            start, stop = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad size range {text!r}: {exc}") from None
        if start < 1 or stop < start:
            raise UsageError(f"need 1 <= start <= stop in {text!r}")
        sizes = range(start, stop + 1)
        if parts[2] == "even":
            return [n for n in sizes if n % 2 == 0]
        if parts[2] == "odd":
            return [n for n in sizes if n % 2 == 1]
        return list(sizes)
    try:
        out = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad size list {text!r}: {exc}") from None
    if not out or any(n < 1 for n in out):
        raise UsageError(f"sizes must be positive integers, got {text!r}")
    return out


def parse_gamma(text: str, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """Exact field value from "p/q" or a decimal literal like "0.25", within the
    bit budget (BitBudgetError otherwise)."""
    from .exactnum import parse_field_literal

    try:
        return parse_field_literal(text, bit_budget)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad field value {text!r}: {exc}") from None


_SEQ_KINDS = {kind.value: kind for kind in SequenceKind}


def _resolve_budget(args) -> int:
    budget = args.bit_budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = int(env) if env else DEFAULT_BIT_BUDGET
        except ValueError:
            raise UsageError(f"${BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if not 64 <= budget <= HARD_BIT_CAP:
        raise UsageError(f"bit budget must lie in [64, {HARD_BIT_CAP}], got {budget}")
    return budget


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def cmd_phase_diagram(args) -> int:
    from . import classical

    gammas = parse_grid(args.gamma)
    hs = parse_grid(args.h)
    if any(g < 0 for g in gammas):
        raise UsageError("transverse field grid must be nonnegative")
    try:
        records = classical.phase_diagram_scan(gammas, hs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        _write_text(args.output, classical.scan_json(records))
    else:
        _write_text(args.output, "\n".join(classical.scan_csv_lines(records)))
    return EXIT_OK


FINITE_GAP_EXACT_HEADER = "N,gamma,delta,branch,gap,gap_decimal,gap_numeric"
FINITE_GAP_NUMERIC_HEADER = "N,gamma,h,gap_numeric"


def _finite_gap_field(args, budget: int) -> Fraction:
    from .exactnum import gamma_value

    if args.gamma_series is None:
        return parse_gamma(args.gamma, budget)
    if args.terms < 1:
        raise UsageError(f"--terms must be >= 1, got {args.terms}")
    return gamma_value(_SEQ_KINDS[args.gamma_series], args.terms, budget)


def _numeric_gaps(gamma: Fraction, h: float):
    """N -> eigensolver gap at (gamma, h); a negative field, or one too large
    for the eigensolver's doubles, is a usage error."""
    from . import sector
    from .exactnum import format_rational
    from .field import FieldPoint

    if gamma < 0:
        raise UsageError(f"--gamma must be >= 0, got {format_rational(gamma)}")
    try:
        point = FieldPoint(float(gamma), h)
    except OverflowError:
        raise UsageError("--gamma is too large for the eigensolver's doubles") from None

    def gap(size: int) -> float:
        try:
            return sector.finite_gap_numeric(size, point)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    return gap


def cmd_finite_gap(args, budget: int) -> int:
    from .exactnum import decimal_str, format_rational

    if not math.isfinite(args.h):
        raise UsageError(f"--h must be finite, got {args.h}")
    sizes = parse_sizes(args.N)
    gamma = _finite_gap_field(args, budget)
    gamma_text = format_rational(gamma)
    if args.h == 0.0:
        from . import gaplaw

        if not 0 <= gamma < 1:
            raise UsageError(f"the exact h=0 route needs 0 <= gamma < 1, got {gamma_text}")
        numeric_gap = _numeric_gaps(gamma, 0.0) if min(sizes) <= args.cross_max else None
        lines = [FINITE_GAP_EXACT_HEADER]
        for size in sizes:
            rec = gaplaw.gap_record(size, gamma)
            numeric = format(numeric_gap(size), ".17g") if size <= args.cross_max else ""
            gap = ("," if rec.gap is None
                   else f"{format_rational(rec.gap)},{decimal_str(rec.gap, 17)}")
            delta = format_rational(rec.delta.value)
            lines.append(f"{size},{gamma_text},{delta},{rec.branch},{gap},{numeric}")
        _write_text(args.output, "\n".join(lines))
        return EXIT_OK
    numeric_gap = _numeric_gaps(gamma, args.h)
    lines = [FINITE_GAP_NUMERIC_HEADER]
    for size in sizes:
        gap = numeric_gap(size)
        lines.append(
            f"{size},{gamma_text},{format(args.h, '.17g')},{format(gap, '.17g')}"
        )
    _write_text(args.output, "\n".join(lines))
    return EXIT_OK


def cmd_scaling(args, budget: int) -> int:
    from . import scaling

    kind = _SEQ_KINDS[args.seq]
    k_trunc = args.terms
    if k_trunc is None:
        # a budget that holds fewer than 4 terms fails on the 4th: exit 3
        k_trunc = max(4, max_term_count(kind, budget))
    if k_trunc < 4:
        raise UsageError(f"scaling needs --K >= 4 for two rows n = 1..K-2, got {k_trunc}")
    seq = scaling.SizeSequence(kind=kind, rule=args.rule)
    report = scaling.build_scaling_report(seq, k_trunc, budget)
    _write_text(args.output, scaling.report_to_json(report))
    if args.csv is not None:
        _write_text(args.csv, "\n".join(scaling.report_csv_lines(report)))
    return EXIT_OK


def cmd_verify(args, budget: int) -> int:
    if args.max_N < 2:
        raise UsageError(f"verify needs --max-N >= 2, its smallest size, got {args.max_N}")
    from . import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(max_size=args.max_N, seed=seed, bit_budget=budget)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xygap",
        description="Gap behavior of the infinite-range XY model in transverse "
        "and longitudinal fields",
    )
    parser.add_argument(
        "--bit-budget", type=int, default=None,
        help=f"max bits for exact integers (default {DEFAULT_BIT_BUDGET}, "
        f"or ${BUDGET_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase-diagram", help="thermodynamic-limit scan on a (gamma, h) grid")
    p.add_argument("--gamma", required=True, help="grid lo:hi:count, e.g. 0:2:81")
    p.add_argument("--h", required=True, help="grid lo:hi:count, e.g. -1:1:81")
    p.add_argument("-o", "--output", default=None, help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("finite-gap", help="finite-size gaps at fixed field values")
    field = p.add_mutually_exclusive_group(required=True)
    field.add_argument("--gamma", default=None, help='exact value, e.g. "1/3" or "0.25"')
    field.add_argument(
        "--gamma-series", choices=sorted(_SEQ_KINDS), default=None,
        help="use the truncated series over this sequence instead of --gamma",
    )
    p.add_argument("--terms", type=int, default=5, help="series truncation for --gamma-series")
    p.add_argument("--h", type=float, default=0.0, help="longitudinal field (default 0)")
    p.add_argument("--N", required=True, help='sizes: "2:64:even" or "16,64,256"')
    p.add_argument(
        "--cross-max", type=int, default=64,
        help="largest N given an eigensolver cross-check column at h=0",
    )
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("scaling", help="certified scaling report for an engineered sequence")
    p.add_argument("--seq", choices=sorted(_SEQ_KINDS), required=True)
    p.add_argument("--rule", choices=(RULE_PLAIN, RULE_DOUBLED), default=RULE_PLAIN)
    p.add_argument("--terms", "--K", dest="terms", type=int, default=None,
                   help="series truncation K, at least 4 (default: the largest K "
                   "whose terms fit the bit budget)")
    p.add_argument("-o", "--output", default=None, help="JSON report path")
    p.add_argument("--csv", default=None, help="also write the CSV summary here")

    p = sub.add_parser("verify", help="run the cross-oracle suites")
    p.add_argument("--max-N", type=int, default=64, help="largest size for the numeric oracle")
    p.add_argument("--seed", type=int, default=None)

    return parser


def _mend_argv(argv: Sequence[str]) -> list[str]:
    """Let '--h -1:1:81' and '--h -1e-3' work: argparse takes a token that
    begins with '-' for an option unless it reads as a plain negative number,
    so a '--h' or '--gamma' followed by a token that begins with a single '-'
    is merged into one '--h=...' token.  A token that begins with '--' is
    left alone: it names the next option."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in ("--h", "--gamma")
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
        ):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _run_command(args) -> int:
    budget = _resolve_budget(args)
    if args.command == "phase-diagram":
        return cmd_phase_diagram(args)
    if args.command == "finite-gap":
        return cmd_finite_gap(args, budget)
    if args.command == "scaling":
        return cmd_scaling(args, budget)
    return cmd_verify(args, budget)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_mend_argv(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = _run_command(args)
        sys.stdout.flush()  # a reader gone early shows up here, not at exit
        return code
    except BrokenPipeError:
        # `xygap ... | head`: stop without a message, and point fd 1 at
        # /dev/null so that the exit-time flush of what is still buffered
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILURE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BitBudgetError as exc:
        print(f"bit budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (XYGapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
