"""Exact rational values of the transverse field, with certified truncation bounds.

The anomalous gap behavior hinges on transverse-field values built from the
engineered sequences, and those values must be handled exactly: a deviation
of 2**-65533 in the fractional offset decides the closing rate.  Everything
here is a ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).

Besides a plain p/q (a ``Fraction``, see :func:`parse_field_literal`), a
field value comes from one of two recipes here, each a pair of functions:

* :func:`gamma_value` and :func:`series_enclosure` - the first K terms of
  sum(1/a_n) over one of the engineered sequences.
* :func:`injection_value` and :func:`injection_enclosure` -
  sum((2 b_i + 1)/a_pos) for decimal digits b_i, the map that embeds an
  arbitrary real into the set of anomalous fields, at the positions
  :func:`injection_positions` certifies.

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
import re
from decimal import Decimal
from fractions import Fraction
from typing import Tuple

from .errors import BitBudgetError
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
# Integers of up to _STR_BITS bits print with str(): 2048 bits is at most 617
# digits, below 640, the smallest int<->str digit limit the interpreter can
# be set to, so no setting of that limit can refuse them.  Larger integers
# cross the text boundary through decimal.Decimal: denominators near 2**65536
# have ~19.7k digits, past the default limit of 4300.  Decimal(int) is
# quadratic in the digit count, so an integer of more than _SPLIT_BITS bits is
# split in halves at a power 2**w and reassembled with libmpdec's
# subquadratic multiplication (Brent & Zimmermann, Modern Computer
# Arithmetic, section 1.7).  The last 64 such integers stay cached, so the p/q
# text, the rounded decimal and every later print of the same value share one
# conversion.  The exact arithmetic goes through _EXACT; an operator like
# -d or d + e would round to the caller's context (28 digits by default)
# without a word.  Parsing runs the split the other way: a digit string is
# cut at powers 10**w and its halves are joined with int multiplication.

_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")

_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact],
)
_SPLIT_BITS = 4096  # up to this size Decimal(int) is as fast as splitting
_STR_BITS = 2048  # str(int) up to this size is within every digit limit
_STR_DIGITS = 600  # and so is int(text) of up to this many digits


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


@functools.lru_cache(maxsize=64)
def _big_decimal(n: int) -> Decimal:
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


@functools.lru_cache(maxsize=None)
def _pow10(width: int) -> int:
    """10**width; the widths in use are _STR_DIGITS times powers of two."""
    return 10**width


def _join_digits(digits: str, width: int) -> int:
    """int(digits) for a string of at most 2*width decimal digits, by cutting
    off its last `width` digits."""
    if len(digits) <= _STR_DIGITS:
        return int(digits)
    while len(digits) <= width:
        width >>= 1
    return (_join_digits(digits[:-width], width) * _pow10(width)
            + _join_digits(digits[-width:], width >> 1))


def _parse_int(text: str) -> int:
    """The integer spelled by an optionally signed run of decimal digits."""
    digits = text.lstrip("+-")
    width = _STR_DIGITS
    while 2 * width < len(digits):
        width *= 2
    value = _join_digits(digits, width)
    return -value if text.startswith("-") else value


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a Fraction in lowest terms."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational p/q: {text!r}")
    num, den = match.groups()
    return Fraction(_parse_int(num), _parse_int(den or "1"))


# Fraction's decimal-literal grammar; the groups are the sign, the integer
# digits, the fraction digits and the exponent.
_DIGITS = r"\d+(?:_\d+)*"
_DECIMAL_LITERAL = re.compile(
    rf"\s*([+-]?)(?=\d|\.\d)(\d*|{_DIGITS})(?:\.(\d*|{_DIGITS}))?(?:[eE]([+-]?{_DIGITS}))?\s*"
)
_LOG10_2_ABOVE = 0.30103  # slightly above log10(2)


def _check_spelled(digit_counts, bit_budget: int) -> None:
    if any(count - 1 > bit_budget * _LOG10_2_ABOVE for count in digit_counts):
        raise BitBudgetError(f"field value spells out an integer of more than {bit_budget} bits")


def parse_field_literal(text: str, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """Parse "p/q" or a decimal literal ("0.25", "1e-30") within the bit budget.

    Decimal literals follow ``Fraction``'s grammar, but their digits become
    integers through Decimal, past the interpreter's int<->str digit limit.
    Every integer the literal spells out (p and q, or a decimal's digits and
    the power of ten its point and exponent name) must fit the budget.  That
    is judged from digit counts before anything is built (a D-digit integer
    exceeds 2**budget once D - 1 > budget*log10(2)), so "1e-999999999" is
    refused without computing 10**999999999.  The value in lowest terms must
    then fit as well.  Raises BitBudgetError otherwise, ValueError or
    ZeroDivisionError on malformed text.
    """
    if "/" in text:
        match = _RATIONAL.fullmatch(text)
        if match is not None:
            _check_spelled([len(g.lstrip("+-0")) for g in match.groups() if g], bit_budget)
        value = parse_rational(text)
    else:
        match = _DECIMAL_LITERAL.fullmatch(text)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        sign, whole, frac, exp = (g.replace("_", "") for g in match.groups(""))
        digits = whole + frac
        power = _parse_int(exp or "0") - len(frac)
        _check_spelled([len(digits.lstrip("0")), abs(power) + 1], bit_budget)
        value = _parse_int(sign + digits) * Fraction(10) ** power
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > bit_budget:
        raise BitBudgetError(f"field value needs {bits} bits (budget {bit_budget})")
    return value


def ratio_text(num: int, den: int) -> str:
    """"num/den" for the integers of a rational in lowest terms, den > 0."""
    if num.bit_length() <= _STR_BITS and den.bit_length() <= _STR_BITS:
        return f"{num}/{den}"
    return f"{_exact_decimal(num)}/{_exact_decimal(den)}"


def decimal_text(num: int, den: int, digits: int = 17) -> str:
    """num/den (den > 0) in scientific notation with ``digits`` significant
    digits, rounded half away from zero.

    One correctly rounded division of the exact integers, so it works for
    rationals far outside float range (e.g. 2**-65536).  For human
    inspection and file output only; never used in computations.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if not num:
        return "0"
    if num.bit_length() > _SPLIT_BITS or den.bit_length() > _SPLIT_BITS:
        num, den = _exact_decimal(num), _exact_decimal(den)
    quotient = _rounding_context(digits).divide(num, den)  # ints convert exactly
    # an exact quotient keeps only its own digits (6/5 -> 1.2); the format
    # pads it to `digits` and rounds nothing, so no context setting matters
    mantissa = format(quotient, f".{digits - 1}e").partition("e")[0]
    return f"{mantissa}e{quotient.adjusted():+03d}"


def format_rational(r: Fraction) -> str:
    """Canonical "p/q" form, denominator always present ("0/1", "3/4", ...)."""
    return ratio_text(r.numerator, r.denominator)


def decimal_str(r: Fraction, digits: int = 17) -> str:
    """:func:`decimal_text` of a Fraction."""
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
    above 1, as its enclosure shows.
    """
    digits = tuple(digits)
    if not digits:
        raise ValueError("at least one digit is required")
    if any(not (0 <= b <= 9) for b in digits):
        raise ValueError(f"digits must lie in 0..9, got {digits}")
    positions = injection_positions(len(digits), bit_budget)
    return sum((Fraction(2 * b + 1, a) for b, a in zip(digits, positions)), Fraction(0))


def injection_enclosure(
    digits, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Tuple[Fraction, Fraction]:
    """Exact bounds [lo, hi] covering every infinite continuation of the digits."""
    digits = tuple(digits)
    value = injection_value(digits, bit_budget)
    last_index = INJECTION_FIRST_INDEX + len(digits) - 1
    tail = series_tail_bound_after(SequenceKind.DOUBLE_EXP, last_index, bit_budget)
    return value, value + 19 * tail
