"""Exact rational values of the transverse field, with certified truncation bounds.

The anomalous gap behavior hinges on transverse-field values built from the
engineered sequences, and those values must be handled exactly: a deviation
of 2**-65533 in the fractional offset decides the closing rate.  Everything
here is a ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).

Besides a plain p/q (parsed into integers by :mod:`xygap.literal`), a
field value comes from one of two recipes here:

* :func:`gamma_value` - the first K terms of sum(1/a_n) over one of the
  engineered sequences, with :func:`series_enclosure` around the
  untruncated sum.
* :func:`injection_value` - sum((2 b_i + 1)/a_pos) for decimal digits b_i,
  the map that embeds an arbitrary real into the set of anomalous fields,
  at the positions :func:`injection_positions` certifies.

The appendix's third recipe, a dyadic anchor plus or minus a series tail
squeezed inside a target interval, lives in :mod:`xygap.scaling`.

Series denote infinite sums, so every evaluation is a truncation.  The
enclosures are exact rational bounds that contain the untruncated value,
which is what makes downstream comparisons (offset vs 1/2, interval
membership) decidable rather than approximate.
"""

from __future__ import annotations

import decimal
import functools
from decimal import Decimal
from fractions import Fraction
from typing import Tuple

from .errors import BitBudgetError
from .literal import decimal_text, ratio_text
from .sequences import DEFAULT_BIT_BUDGET, SequenceKind, doubling_holds, terms

# First sequence index used by the digit-injection map.  Consecutive
# denominators must grow by more than a factor of 21 so that the ten
# possible digits at one position can never be mimicked by any combination
# of later digits; for the double-exponential sequence that holds from
# a_3 = 16 onward (a_4/a_3 = 4096) but fails for a_1, a_2.
INJECTION_FIRST_INDEX = 3
_INJECTION_MIN_RATIO = 21


# ---------------------------------------------------------------------------
# serialization
#
# Integers of up to 2048 bits print with str() and divide in integers
# (xygap.literal).  Larger ones cross the text boundary through Decimal:
# denominators near 2**65536 have ~19.7k digits, past the default limit of
# 4300.  Decimal(int) is quadratic in the digit count, so an integer of more
# than _SPLIT_BITS bits is split in halves at a power 2**w and reassembled
# with libmpdec's subquadratic multiplication (Brent & Zimmermann, Modern
# Computer Arithmetic, section 1.7); a power of two is one short step from
# the cached powers 2**w.  The last 64 such integers stay cached, so that
# ``scaling``'s p/q texts, rounded decimals and CSV, which print the same
# values again, share one conversion each; the h = 0 rows of a field past
# 2048 bits convert nothing after the field (field_row_cells).  The exact
# arithmetic goes through _EXACT; an operator like -d or d + e would round
# to the caller's context (28 digits by default) without a word.

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact],
)
_SPLIT_BITS = 4096  # up to this size Decimal(int) is as fast as splitting


@functools.lru_cache(maxsize=None)
def _pow2_decimal(width: int) -> Decimal:
    """Decimal(2**width); the widths in use are _SPLIT_BITS times powers of two."""
    if width <= _SPLIT_BITS:
        return Decimal(1 << width)
    half = width >> 1
    return _EXACT.multiply(_pow2_decimal(half), _pow2_decimal(width - half))


def _split_decimal(n: int, width: int) -> Decimal:
    """Decimal(n) for 0 <= n < 2**(2*width), by splitting n at 2**width."""
    if n.bit_length() <= _SPLIT_BITS:
        return Decimal(n)
    while n.bit_length() <= width:
        width >>= 1
    hi = n >> width
    lo = n - (hi << width)
    return _EXACT.add(
        _EXACT.multiply(_split_decimal(hi, width), _pow2_decimal(width)),
        _split_decimal(lo, width >> 1),
    )


def _pow2_big_decimal(e: int) -> Decimal:
    """Decimal(2**e) for e >= _SPLIT_BITS, from the nearest cached power 2**w:
    one multiply by 2**(e - w), or exact division by 2**(w - e)."""
    width = _SPLIT_BITS
    while 2 * e > 3 * width:
        width *= 2
    shift = abs(e - width)
    step = Decimal(1 << shift) if shift <= _SPLIT_BITS else _pow2_big_decimal(shift)
    if e >= width:
        return _EXACT.multiply(_pow2_decimal(width), step)
    return _EXACT.divide_int(_pow2_decimal(width), step)  # exact: both are powers of two


@functools.lru_cache(maxsize=64)
def _big_decimal(n: int) -> Decimal:
    if n & (n - 1) == 0:
        return _pow2_big_decimal(n.bit_length() - 1)
    width = _SPLIT_BITS
    while 2 * width < n.bit_length():
        width *= 2
    return _split_decimal(n, width)


def _exact_decimal(n: int) -> Decimal:
    """The integer n as a Decimal with exponent 0."""
    if n.bit_length() <= _SPLIT_BITS:
        return Decimal(n)
    if n < 0:
        return _big_decimal(-n).copy_negate()
    return _big_decimal(n)


@functools.lru_cache(maxsize=16)
def _rounding_context(digits: int) -> decimal.Context:
    return decimal.Context(
        prec=digits, rounding=decimal.ROUND_HALF_UP,
        Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


def decimal_ratio_text(num: int, den: int) -> str:
    """"num/den" through exact Decimal conversions, for integers past every
    int<->str digit limit (:func:`xygap.literal.ratio_text` prints smaller
    ones)."""
    return f"{_exact_decimal(num)}/{_exact_decimal(den)}"


def decimal_quotient_text(num: int, den: int, digits: int = 17) -> str:
    """num/den (den > 0) in scientific notation with ``digits`` significant
    digits, rounded half away from zero, through Decimal.

    One correctly rounded division of the exact integers, so it works for
    rationals far outside float range (e.g. 2**-65536).  For num != 0 and
    digits >= 1, which :func:`xygap.literal.decimal_text` checks before it
    calls this for operands past 2048 bits; the tests keep it as that
    function's oracle at every size.
    """
    if num.bit_length() > _SPLIT_BITS or den.bit_length() > _SPLIT_BITS:
        num, den = _exact_decimal(num), _exact_decimal(den)
    return _quotient_text(num, den, digits)  # ints convert exactly


def _quotient_text(num, den, digits: int) -> str:
    quotient = _rounding_context(digits).divide(num, den)
    # an exact quotient keeps only its own digits (6/5 -> 1.2); the format
    # pads it to `digits` and rounds nothing, so no context setting matters
    mantissa = format(quotient, f".{digits - 1}e").partition("e")[0]
    return f"{mantissa}e{quotient.adjusted():+03d}"


def field_row_cells(p: int, q: int):
    """For a field p/q in lowest terms, p >= 0: the function from a size N
    to the cells "delta,branch,gap,gap_decimal" of its exact h = 0 row, as
    ``ratio_text`` and ``decimal_text`` print :func:`xygap.gaplaw.exact_row`'s
    integers (the tests' oracle), converting no big integer but p and q.

    Every integer of the row is (a*p + b*q)/c with small integers a, b, c.
    With nu = N mod 2 and k = (p*N + nu*q) // (2q), the residue is r = p*N +
    (nu - 2k)*q; delta is (r/g)/(2q/g) with g = 2q // delta_den, and the gap
    (|q - r|/h)/(q*N/h) with h = q*N // gap_den, its numerator ((p - q)*N +
    q)/h on the edge branch.  So each of them past _SPLIT_BITS bits is built
    from Decimal(p) and Decimal(q), which the field's own text has converted,
    by small multiplies, one addition and one division under _EXACT, whose
    traps refuse any rounding: time linear in the digits, where converting
    each integer anew costs milliseconds.  Each coefficient triple is first
    checked in integers, a*p + b*q == n*c against ``exact_row``'s n, so a
    wrong one raises, under ``python -O`` too, instead of printing.
    """
    from .gaplaw import BRANCH_DEGENERATE, BRANCH_EDGE, BRANCH_LOW, exact_row

    p_dec, q_dec = _exact_decimal(p), _exact_decimal(q)
    two_q = q + q

    def as_decimal(n: int, a: int, b: int, c: int) -> Decimal:
        if n.bit_length() <= _SPLIT_BITS:
            return Decimal(n)
        if a * p + b * q != n * c:
            raise ArithmeticError(
                f"a row integer of {n.bit_length()} bits is not ({a}*p + {b}*q)/{c}")
        total = _EXACT.fma(_exact_decimal(a), p_dec, _EXACT.multiply(_exact_decimal(b), q_dec))
        return _EXACT.divide_int(total, _exact_decimal(c))

    def cells(size: int) -> str:
        branch, delta_num, delta_den, gap_num, gap_den = exact_row(size, p, q)
        nu = size & 1
        k = (p * size + nu * q) // two_q
        g = two_q // delta_den
        delta = f"{as_decimal(delta_num, size, nu - 2 * k, g)}/{as_decimal(delta_den, 0, 2, g)}"
        if branch == BRANCH_DEGENERATE:
            return f"{delta},{branch},,"
        if branch == BRANCH_EDGE:
            a, b = size, 1 - size
        elif branch == BRANCH_LOW:
            a, b = -size, 2 * k + 1 - nu
        else:
            a, b = size, nu - 2 * k - 1
        h = q * size // gap_den
        num, den = as_decimal(gap_num, a, b, h), as_decimal(gap_den, 0, size, h)
        return f"{delta},{branch},{num}/{den},{_quotient_text(num, den, 17)}"

    return cells


def format_rational(r: Fraction) -> str:
    """Canonical "p/q" form, denominator always present ("0/1", "3/4", ...)."""
    return ratio_text(r.numerator, r.denominator)


def decimal_str(r: Fraction, digits: int = 17) -> str:
    """:func:`xygap.literal.decimal_text` of a Fraction."""
    return decimal_text(r.numerator, r.denominator, digits)


# ---------------------------------------------------------------------------
# tail bounds

def tail_bound(kind: SequenceKind, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """Certified upper bound 2/a_n on the discarded tail sum_{j>=n} 1/a_j.

    Valid because the terms at least double at every step from n onward
    (checked on the materialized prefix; both supported recurrences keep
    doubling forever), so the tail is dominated by a geometric series.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    seq = terms(kind, n, bit_budget)
    if not doubling_holds(seq):
        raise ValueError(f"doubling property fails for {kind.value} prefix; bound invalid")
    return Fraction(2, seq[-1])


def series_tail_bound_after(
    kind: SequenceKind, count: int, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Fraction:
    """Bound on sum_{n > count} 1/a_n: 2/a_{count+1}, or 1/a_count if a_{count+1}
    itself is out of budget (weaker but still valid, since a_{count+1} >= 2 a_count)."""
    try:
        return tail_bound(kind, count + 1, bit_budget)
    except BitBudgetError:
        return Fraction(1, terms(kind, count, bit_budget)[-1])


# ---------------------------------------------------------------------------
# evaluation

def gamma_value(
    kind: SequenceKind, count: int, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Fraction:
    """Exact sum of 1/a_n over the first ``count`` terms of the sequence."""
    return sum((Fraction(1, a) for a in terms(kind, count, bit_budget)), Fraction(0))


def series_enclosure(
    kind: SequenceKind, count: int, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Tuple[Fraction, Fraction]:
    """Exact bounds [lo, hi] containing the untruncated series: the truncation
    underestimates, so [value, value + tail]."""
    value = gamma_value(kind, count, bit_budget)
    return value, value + series_tail_bound_after(kind, count, bit_budget)


def injection_positions(length: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> list[int]:
    """Denominators a_3..a_(length+2) of the digit-injection map, certified far
    enough apart for the map to be injective."""
    seq = terms(SequenceKind.DOUBLE_EXP, INJECTION_FIRST_INDEX + length - 1, bit_budget)
    positions = seq[INJECTION_FIRST_INDEX - 1 :]
    for a, b in zip(positions, positions[1:]):
        if b < _INJECTION_MIN_RATIO * a:
            raise ValueError("digit positions too close; injectivity not certified")
    return positions


def injection_value(digits, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """Digits b_0..b_K mapped to sum((2 b_i + 1)/a_(INJECTION_FIRST_INDEX + i)).

    The value is not confined to (0, 1): leading digits 8 or 9 push it
    above 1.
    """
    digits = tuple(digits)
    if not digits:
        raise ValueError("at least one digit is required")
    if any(not (0 <= b <= 9) for b in digits):
        raise ValueError(f"digits must lie in 0..9, got {digits}")
    positions = injection_positions(len(digits), bit_budget)
    return sum((Fraction(2 * b + 1, a) for b, a in zip(digits, positions)), Fraction(0))
