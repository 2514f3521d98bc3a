"""Field literals and ``p/q`` text as the integers of a rational.

A field value is the pair (num, den) of a rational in lowest terms, den > 0.
Parsing and printing it need only integers, so this module imports neither
``fractions`` nor ``decimal``, and ``finite-gap`` at h != 0 loads neither.
Integers of up to STR_BITS = 2048 bits (at most 617 digits, below 640,
the smallest int<->str digit limit the interpreter can be set to) print
with str(); larger ones through ``exactnum``'s exact ``Decimal`` conversion.
A digit string is parsed by cutting it at powers 10**w and joining its
halves with int multiplication (subquadratic), past any digit limit.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import BitBudgetError
from .sequences import DEFAULT_BIT_BUDGET

STR_BITS = 2048  # str(int) up to this size is within every digit limit
_STR_DIGITS = 600  # and so is int(text) of up to this many digits

_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")
# Fraction's decimal-literal grammar; the groups are the sign, the integer
# digits, the fraction digits and the exponent.
_DIGITS = r"\d+(?:_\d+)*"
_DECIMAL_LITERAL = re.compile(
    rf"\s*([+-]?)(?=\d|\.\d)(\d*|{_DIGITS})(?:\.(\d*|{_DIGITS}))?(?:[eE]([+-]?{_DIGITS}))?\s*"
)
_LOG10_2_ABOVE = 0.30103  # slightly above log10(2)


@functools.lru_cache(maxsize=None)
def _pow10(width: int) -> int:
    """10**width; the widths in use are _STR_DIGITS times powers of two and
    the few scales of :func:`decimal_text`'s quotients."""
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


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms for den > 0; ZeroDivisionError for den = 0,
    with Fraction's message."""
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    return num // g, den // g


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "p/q" (or a bare integer "p") into (num, den) in lowest terms."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational p/q: {text!r}")
    num, den = match.groups()
    return _lowest_terms(_parse_int(num), _parse_int(den or "1"))


def _check_spelled(digit_counts, bit_budget: int) -> None:
    if any(count - 1 > bit_budget * _LOG10_2_ABOVE for count in digit_counts):
        raise BitBudgetError(f"field value spells out an integer of more than {bit_budget} bits")


def parse_field_literal(text: str, bit_budget: int = DEFAULT_BIT_BUDGET) -> tuple[int, int]:
    """Parse "p/q" or a decimal literal ("0.25", "1e-30") within the bit
    budget, as (num, den) in lowest terms.

    Decimal literals follow ``Fraction``'s grammar, but their digits become
    integers by splitting, past the interpreter's int<->str digit limit.
    Every integer the literal spells out (p and q, or a decimal's digits and
    the power of ten its point and exponent name) must fit the budget.  That
    is judged from digit counts before anything is built (a D-digit integer
    exceeds 2**budget once D - 1 > budget*log10(2)), so "1e-999999999" is
    refused without computing 10**999999999.  The value in lowest terms must
    then fit as well.  Raises BitBudgetError otherwise, ValueError or
    ZeroDivisionError on malformed text, with ``Fraction``'s messages.
    """
    if "/" in text:
        match = _RATIONAL.fullmatch(text)
        if match is not None:
            _check_spelled([len(g.lstrip("+-0")) for g in match.groups() if g], bit_budget)
        num, den = parse_ratio(text)
    else:
        match = _DECIMAL_LITERAL.fullmatch(text)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        sign, whole, frac, exp = (g.replace("_", "") for g in match.groups(""))
        digits = whole + frac
        power = _parse_int(exp or "0") - len(frac)
        _check_spelled([len(digits.lstrip("0")), abs(power) + 1], bit_budget)
        num = _parse_int(sign + digits)
        num, den = (num * 10**power, 1) if power >= 0 else _lowest_terms(num, 10**-power)
    bits = max(num.bit_length(), den.bit_length())
    if bits > bit_budget:
        raise BitBudgetError(f"field value needs {bits} bits (budget {bit_budget})")
    return num, den


def ratio_text(num: int, den: int) -> str:
    """"num/den" for the integers of a rational in lowest terms, den > 0."""
    if num.bit_length() <= STR_BITS and den.bit_length() <= STR_BITS:
        return f"{num}/{den}"
    from .exactnum import decimal_ratio_text

    return decimal_ratio_text(num, den)


def decimal_text(num: int, den: int, digits: int = 17) -> str:
    """num/den (den > 0) in scientific notation with ``digits`` significant
    digits, rounded half away from zero, as Decimal's ``e`` format prints it:
    one correctly rounded division of the integers, scaled so that the
    truncated quotient has ``digits`` digits.  Operands past STR_BITS go
    through ``exactnum``'s Decimal division, the tests' oracle for this one.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if not num:
        return "0"
    if num.bit_length() > STR_BITS or den.bit_length() > STR_BITS:
        from .exactnum import decimal_quotient_text

        return decimal_quotient_text(num, den, digits)
    mag, low = abs(num), _pow10(digits - 1)
    exp = math.floor((mag.bit_length() - den.bit_length()) * _LOG10_2_ABOVE)  # the decade, within 1
    while True:
        shift = digits - 1 - exp
        scaled, div = (mag * _pow10(shift), den) if shift >= 0 else (mag, den * _pow10(-shift))
        quotient, rest = divmod(scaled, div)
        if low <= quotient < 10 * low:
            break
        exp += 1 if quotient >= low else -1
    if rest + rest >= div:  # half away from zero, into the next decade at 10**digits
        quotient, exp = (quotient + 1, exp) if quotient + 1 < 10 * low else (low, exp + 1)
    text = str(quotient)
    return f"{'-' if num < 0 else ''}{text[0]}{'.' if digits > 1 else ''}{text[1:]}e{exp:+03d}"
