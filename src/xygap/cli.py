"""Command-line front end: scans, scaling runs, and verification.

Subcommands:

* ``phase-diagram`` - thermodynamic-limit scan over a (gamma, h) grid.
* ``finite-gap``    - finite-size gaps; exact rationals on the h = 0 line,
  eigensolver values elsewhere, with a cross-check column when both apply.
  The exact rows are computed in integers (``gaplaw.exact_row``) and
  printed by ``exactnum``'s ``(num, den)`` text helpers, with no Fraction
  built per row.
* ``scaling``       - certified scaling report for an engineered sequence.
* ``verify``        - cross-oracle suites; nonzero exit on any failure.

Exit codes: 0 success, 1 verification/runtime failure (also a standard
output closed early, as by ``| head``), 2 usage error, 3 bit-budget
exhaustion.  Identical invocations produce byte-identical output files.

Every command first computes all that can fail: the parsed sizes and field,
the scan records, the eigensolver gaps, the scaling report.  Only then does
it open its output, and :func:`_write_lines` streams the rows to it as they
are formatted (the scaling JSON goes through :func:`_write_chunks` in the
encoder's chunks).  So a failing command writes no file and prints nothing
to standard output, and the output text is never held: a size range stays
a ``range``, and each row is formatted, written and dropped in turn.  What
stays in memory is only what can fail, such as one float per size at
h != 0 and one record per scan point, so the exact h = 0 rows run in memory
that does not grow with the row count.

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
import itertools
import math
import os
import sys

from .errors import BitBudgetError, XYGapError
from .sequences import (
    DEFAULT_BIT_BUDGET, HARD_BIT_CAP, RULE_DOUBLED, RULE_PLAIN, SequenceKind, max_term_count,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing for --help
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence
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


def parse_sizes(text: str) -> Sequence[int]:
    """Size list: "2:64:even", "3:99:odd", "1:50:all" (each a ``range``), or
    "16,64,256"; a range that selects no size is a usage error."""
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
        if parts[2] != "all":
            parity = 0 if parts[2] == "even" else 1
            sizes = range(start if start % 2 == parity else start + 1, stop + 1, 2)
        if not sizes:
            raise UsageError(f"size range {text!r} selects no size")
        return sizes
    try:
        out = [int(tok) for tok in text.split(",")]
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


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    """Write each chunk to ``path``, or to standard output for None or "-",
    as the iterable yields it; the text is never held whole."""
    if path in (None, "-"):
        out = sys.stdout
    else:
        out = open(path, "w", encoding="ascii", newline="\n")
    try:
        out.writelines(chunks)
    finally:
        if out is not sys.stdout:
            out.close()


def _write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write each line and a newline, as :func:`_write_chunks`."""
    _write_chunks(path, itertools.chain.from_iterable(zip(lines, itertools.repeat("\n"))))


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
        _write_lines(args.output, [classical.scan_json(records)])
    else:
        _write_lines(args.output, classical.scan_csv_lines(records))
    return EXIT_OK


FINITE_GAP_EXACT_HEADER = "N,gamma,delta,branch,gap,gap_decimal,gap_numeric"
FINITE_GAP_NUMERIC_HEADER = "N,gamma,h,gap_numeric"
DEFAULT_TERMS = 5       # finite-gap --terms, read with --gamma-series only
DEFAULT_CROSS_MAX = 64  # finite-gap --cross-max, read at h = 0 only


def _finite_gap_field(args, budget: int) -> Fraction:
    from .exactnum import gamma_value

    if args.gamma_series is None:
        if args.terms is not None:
            raise UsageError("--terms applies only with --gamma-series")
        return parse_gamma(args.gamma, budget)
    terms = DEFAULT_TERMS if args.terms is None else args.terms
    if terms < 1:
        raise UsageError(f"--terms must be >= 1, got {terms}")
    return gamma_value(_SEQ_KINDS[args.gamma_series], terms, budget)


def _numeric_gaps(gamma: Fraction, h: float, sizes) -> dict[int, float]:
    """size -> eigensolver gap at (gamma >= 0, h).  A field too large for the
    eigensolver's doubles is a usage error at h != 0; at h = 0, where the
    gaps are an optional cross-check, such a size only goes without one."""
    from . import sector
    from .field import FieldPoint

    try:
        point = FieldPoint(float(gamma), h)
    except OverflowError:
        if h:
            raise UsageError("--gamma is too large for the eigensolver's doubles") from None
        return {}
    gaps = {}
    for size in sizes:
        try:
            gaps[size] = sector.finite_gap_numeric(size, point)
        except ValueError as exc:  # the squared norm bound overflows a double
            if h:
                raise UsageError(str(exc)) from None
    return gaps


def cmd_finite_gap(args, budget: int) -> int:
    from .exactnum import decimal_text, format_rational, ratio_text

    if not math.isfinite(args.h):
        raise UsageError(f"--h must be finite, got {args.h}")
    if args.h != 0.0 and args.cross_max is not None:
        raise UsageError("--cross-max applies only at h = 0")
    sizes = parse_sizes(args.N)
    gamma = _finite_gap_field(args, budget)
    gamma_text = format_rational(gamma)
    if args.h != 0.0:
        if gamma < 0:
            raise UsageError(f"--gamma must be >= 0, got {gamma_text}")
        gaps = _numeric_gaps(gamma, args.h, sizes)
        h_text = format(args.h, ".17g")

        def numeric_rows():
            yield FINITE_GAP_NUMERIC_HEADER
            for size in sizes:
                yield f"{size},{gamma_text},{h_text},{format(gaps[size], '.17g')}"

        _write_lines(args.output, numeric_rows())
        return EXIT_OK
    from . import gaplaw

    if gamma < 0:
        raise UsageError(f"the exact h=0 route needs gamma >= 0, got {gamma_text}")
    cross_max = DEFAULT_CROSS_MAX if args.cross_max is None else args.cross_max
    checked = [size for size in sizes if size <= cross_max]
    gaps = _numeric_gaps(gamma, 0.0, checked) if checked else {}
    cross = {size: format(gap, ".17g") for size, gap in gaps.items()}

    p, q = gamma.numerator, gamma.denominator
    exact_row, degenerate = gaplaw.exact_row, gaplaw.BRANCH_DEGENERATE

    def exact_rows():
        # exact_row cannot raise once gamma is >= 0, so rows are
        # computed as they are written
        yield FINITE_GAP_EXACT_HEADER
        for size in sizes:
            branch, delta_num, delta_den, gap_num, gap_den = exact_row(size, p, q)
            gap = ("," if branch == degenerate
                   else f"{ratio_text(gap_num, gap_den)},{decimal_text(gap_num, gap_den)}")
            delta = ratio_text(delta_num, delta_den)
            yield f"{size},{gamma_text},{delta},{branch},{gap},{cross.get(size, '')}"

    _write_lines(args.output, exact_rows())
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
    _write_chunks(args.output, itertools.chain(scaling.report_json_chunks(report), ["\n"]))
    if args.csv is not None:
        _write_lines(args.csv, scaling.report_csv_lines(report))
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
    p.add_argument("--terms", type=int, default=None, help="series truncation for --gamma-series")
    p.add_argument("--h", type=float, default=0.0, help="longitudinal field (default 0)")
    p.add_argument("--N", required=True, help='sizes: "2:64:even" or "16,64,256"')
    p.add_argument(
        "--cross-max", type=int, default=None,
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
