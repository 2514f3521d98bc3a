"""The ``finite-gap`` command, compiled only when it runs (``cli`` docstring)."""

from __future__ import annotations

import math
from collections.abc import Sequence

from .cli import _SEQ_KINDS, EXIT_OK, UsageError, _write_lines
from .sequences import DEFAULT_BIT_BUDGET


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


def parse_gamma(text: str, bit_budget: int = DEFAULT_BIT_BUDGET) -> tuple[int, int]:
    """Exact field value (num, den) in lowest terms from "p/q" or a decimal
    literal like "0.25", within the bit budget (BitBudgetError otherwise)."""
    from .literal import parse_field_literal

    try:
        return parse_field_literal(text, bit_budget)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad field value {text!r}: {exc}") from None


FINITE_GAP_EXACT_HEADER = "N,gamma,delta,branch,gap,gap_decimal,gap_numeric"
FINITE_GAP_NUMERIC_HEADER = "N,gamma,h,gap_numeric"
DEFAULT_TERMS = 5       # finite-gap --terms, read with --gamma-series only
DEFAULT_CROSS_MAX = 64  # finite-gap --cross-max, read at h = 0 only


def _finite_gap_field(args, budget: int) -> tuple[int, int]:
    if args.gamma_series is None:
        if args.terms is not None:
            raise UsageError("--terms applies only with --gamma-series")
        return parse_gamma(args.gamma, budget)
    from .exactnum import gamma_value

    terms = DEFAULT_TERMS if args.terms is None else args.terms
    if terms < 1:
        raise UsageError(f"--terms must be >= 1, got {terms}")
    gamma = gamma_value(_SEQ_KINDS[args.gamma_series], terms, budget)
    return gamma.numerator, gamma.denominator


def _numeric_gaps(num: int, den: int, h: float, sizes) -> dict[int, float]:
    """size -> eigensolver gap at (gamma = num/den >= 0, h), gamma rounded
    once, as float(Fraction).  A field too large for the eigensolver's
    doubles is a usage error at h != 0; at h = 0, where the gaps are an
    optional cross-check, such a size only goes without one."""
    from . import sector
    from .field import FieldPoint

    try:
        point = FieldPoint(num / den, h)
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
    from .literal import ratio_text

    if not math.isfinite(args.h):
        raise UsageError(f"--h must be finite, got {args.h}")
    if args.h != 0.0 and args.cross_max is not None:
        raise UsageError("--cross-max applies only at h = 0")
    sizes = parse_sizes(args.N)
    p, q = _finite_gap_field(args, budget)
    gamma_text = ratio_text(p, q)
    if args.h != 0.0:
        if p < 0:
            raise UsageError(f"--gamma must be >= 0, got {gamma_text}")
        gaps = _numeric_gaps(p, q, args.h, sizes)
        h_text = format(args.h, ".17g")

        def numeric_rows():
            yield FINITE_GAP_NUMERIC_HEADER
            for size in sizes:
                yield f"{size},{gamma_text},{h_text},{format(gaps[size], '.17g')}"

        _write_lines(args.output, numeric_rows())
        return EXIT_OK
    from . import gaplaw
    from .literal import STR_BITS, decimal_text

    if p < 0:
        raise UsageError(f"the exact h=0 route needs gamma >= 0, got {gamma_text}")
    cross_max = DEFAULT_CROSS_MAX if args.cross_max is None else args.cross_max
    checked = [size for size in sizes if size <= cross_max]
    gaps = _numeric_gaps(p, q, 0.0, checked) if checked else {}
    cross = {size: format(gap, ".17g") for size, gap in gaps.items()}

    if p.bit_length() > STR_BITS or q.bit_length() > STR_BITS:
        from .exactnum import field_row_cells

        cells = field_row_cells(p, q)
    else:
        exact_row, degenerate = gaplaw.exact_row, gaplaw.BRANCH_DEGENERATE

        def cells(size: int) -> str:
            branch, delta_num, delta_den, gap_num, gap_den = exact_row(size, p, q)
            gap = ("," if branch == degenerate
                   else f"{ratio_text(gap_num, gap_den)},{decimal_text(gap_num, gap_den)}")
            return f"{ratio_text(delta_num, delta_den)},{branch},{gap}"

    def exact_rows():
        # exact_row cannot raise once gamma is >= 0 (nor field_row_cells,
        # but on a wrong coefficient), so rows are computed as they are written
        yield FINITE_GAP_EXACT_HEADER
        for size in sizes:
            yield f"{size},{gamma_text},{cells(size)},{cross.get(size, '')}"

    _write_lines(args.output, exact_rows())
    return EXIT_OK
