"""Command-line front end: scans, scaling runs, and verification.

Subcommands:

* ``phase-diagram`` - thermodynamic-limit scan over a (gamma, h) grid.
* ``finite-gap``    - finite-size gaps; exact rationals on the h = 0 line,
  eigensolver values elsewhere, with a cross-check column when both apply.
* ``scaling``       - certified scaling report for an engineered sequence.
* ``verify``        - cross-oracle suites; nonzero exit on any failure.

The entry points are ``python -m xygap`` and the installed ``xygap``
script.  ``python -m xygap.cli`` runs too, but compiles this core twice:
once as ``__main__`` and once as ``xygap.cli``, whose ``UsageError`` the
command modules raise.

Exit codes: 0 success, 1 verification/runtime failure (also a standard
output closed early, as by ``| head``, and memory exhausted, reported as
one ``error: out of memory`` line), 2 usage error, 3 bit-budget
exhaustion.  Identical invocations produce byte-identical output files.

Every command first computes all that can fail: the parsed sizes and field,
the eigensolver gaps, the scaling report.  Only then does it open its
output, and :func:`_write_chunks` streams the text to it as it is
formatted (``scaling``'s JSON in the encoder's chunks, the scan's from
``classical``'s templates).  So a failing command writes no file and prints
nothing to standard output, and the output text is never held: a size
range stays a ``range``, a grid a lazy ``Grid``, and each row is
formatted, written and dropped in turn.  What stays in memory is only what
can fail, such as one float per size at h != 0, so the exact h = 0 rows
and the ``phase-diagram`` scan run in memory that does not grow with the
row count.  The scan's one input rule, ``gamma + |h| <=
classical.SAFE_REACH``, is checked at the grid's extremes before any point
is computed; a grid that passes it cannot fail, so its rows stream as they
are computed.

The package needs only the standard library.  A process imports only the
modules its command runs, because without a bytecode cache each module is
also compiled, and the compile's heap high-water mark (about 0.2 MB per 100
lines) sets a light command's peak RSS.  So every process compiles this
core: the parser, the writers, ``main`` and the small ``scaling`` and
``verify``, with ``argparse`` and, of xygap, only ``errors`` and
``sequences`` (all that ``--help`` needs).  ``phase-diagram`` and
``finite-gap`` live in ``cli_phase_diagram`` and ``cli_finite_gap``,
imported when they run, and each command imports its layers when it runs:
``phase-diagram`` ``classical`` alone, not ``json`` (its JSON comes from a
template); ``finite-gap`` ``literal``, ``sector`` where it solves, and at
h = 0 ``gaplaw``, its rows printed in integers with neither ``fractions``
nor ``decimal``; ``exactnum`` only for ``--gamma-series`` or a field past
2048 bits, whose rows it builds from the field's two ``Decimal``s.
``scaling`` and ``verify`` load their own modules.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable, Sequence

from .errors import BitBudgetError, XYGapError
from .sequences import (
    DEFAULT_BIT_BUDGET, HARD_BIT_CAP, RULE_DOUBLED, RULE_PLAIN, SequenceKind, max_term_count,
)

BUDGET_ENV_VAR = "XYGAP_BIT_BUDGET"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


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


def _write_json(path: str | None, payload: dict) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` and a newline,
    in the encoder's chunks, as :func:`_write_chunks`."""
    import json

    _write_chunks(path, itertools.chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"]))


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
    _write_json(args.output, scaling.report_to_json_dict(report))
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
        from .cli_phase_diagram import cmd_phase_diagram

        return cmd_phase_diagram(args)
    if args.command == "finite-gap":
        from .cli_finite_gap import cmd_finite_gap

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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_FAILURE
    except (XYGapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    from xygap.cli import main  # whose UsageError the command modules raise

    sys.exit(main())
