"""Exact rational values of the transverse field, with certified truncation bounds.

The anomalous gap behavior hinges on transverse-field values built from the
engineered sequences, and those values must be handled exactly: a deviation
of 2**-65533 in the fractional offset decides the closing rate.  Everything
here is a ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).

A field value can be specified four ways (:data:`GammaSpec`):

* :class:`ExplicitRational` - a plain p/q.
* :class:`TruncatedSeries` - the first K terms of sum(1/a_n) over one of the
  engineered sequences.
* :class:`DigitInjection` - sum((2 b_i + 1)/a_pos) for decimal digits b_i,
  the map that embeds an arbitrary real into the set of anomalous fields.
* :class:`IntervalConstruction` - a dyadic anchor plus or minus a series
  tail, squeezed inside a target interval.

Series specs denote infinite sums, so every evaluation is a truncation.
:func:`gamma_enclosure` returns exact rational bounds that contain the
untruncated value, which is what makes downstream comparisons (offset vs
1/2, interval membership) decidable rather than approximate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Tuple, Union

from .errors import BitBudgetError, SpecNotApplicableError
from .sequences import DEFAULT_BIT_BUDGET, SequenceKind, doubling_holds, terms

Rational = Fraction

# First sequence index used by the digit-injection map.  Consecutive
# denominators must grow by more than a factor of 21 so that the ten
# possible digits at one position can never be mimicked by any combination
# of later digits; for the double-exponential sequence that holds from
# a_3 = 16 onward (a_4/a_3 = 4096) but fails for a_1, a_2.
INJECTION_FIRST_INDEX = 3
_INJECTION_MIN_RATIO = 21


@dataclass(frozen=True)
class ExplicitRational:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class TruncatedSeries:
    """First ``count`` terms of sum(1/a_n) over the given sequence kind."""

    kind: SequenceKind
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"truncation index must be >= 1, got {self.count}")


@dataclass(frozen=True)
class DigitInjection:
    """Digits b_0..b_K mapped to sum((2 b_i + 1)/a_(INJECTION_FIRST_INDEX + i))."""

    digits: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        if not self.digits:
            raise ValueError("at least one digit is required")
        if any(not (0 <= b <= 9) for b in self.digits):
            raise ValueError(f"digits must lie in 0..9, got {self.digits}")


@dataclass(frozen=True)
class IntervalConstruction:
    """Dyadic anchor anchor_num/2**scale_exp +- the series tail from index series_index.

    Built by :func:`xygap.scaling.dense_gamma_in_interval`; carries the
    target interval (lo, hi) it is certified to land in.
    """

    lo: Fraction
    hi: Fraction
    scale_exp: int
    anchor_num: int
    positive_branch: bool
    series_index: int

    def __post_init__(self):
        if not (0 < self.lo < self.hi < 1):
            raise ValueError(f"need 0 < lo < hi < 1, got ({self.lo}, {self.hi})")

    @property
    def anchor(self) -> Fraction:
        return Fraction(self.anchor_num, 2**self.scale_exp)


GammaSpec = Union[ExplicitRational, TruncatedSeries, DigitInjection, IntervalConstruction]


# ---------------------------------------------------------------------------
# serialization
#
# Integers cross the text boundary through decimal.Decimal: denominators near
# 2**65536 have ~19.7k digits, past the interpreter's int<->str digit limit.

_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a Fraction in lowest terms."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational p/q: {text!r}")
    num, den = match.groups()
    return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


def format_rational(r: Fraction) -> str:
    """Canonical "p/q" form, denominator always present ("0/1", "3/4", ...)."""
    return f"{Decimal(r.numerator)}/{Decimal(r.denominator)}"


def _cmp_pow10(x: Fraction, e: int) -> int:
    """Sign of x - 10**e using only integer arithmetic."""
    if e >= 0:
        lhs, rhs = x.numerator, x.denominator * 10**e
    else:
        lhs, rhs = x.numerator * 10**-e, x.denominator
    return (lhs > rhs) - (lhs < rhs)


def decimal_str(r: Fraction, digits: int = 17) -> str:
    """Scientific-notation decimal approximation with the stated digit count.

    Pure integer arithmetic, so it works for rationals far outside float
    range (e.g. 2**-65536).  Rounds half away from zero.  For human
    inspection and file output only; never used in computations.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if r == 0:
        return "0"
    sign = "-" if r < 0 else ""
    x = -r if r < 0 else r
    # exponent e with 10**e <= x < 10**(e+1); bit lengths give a close seed
    e = int((x.numerator.bit_length() - x.denominator.bit_length()) * 0.3010299956639812)
    while _cmp_pow10(x, e) < 0:
        e -= 1
    while _cmp_pow10(x, e + 1) >= 0:
        e += 1
    scale = digits - 1 - e
    scaled = x * 10**scale if scale >= 0 else x / 10**-scale
    mantissa = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    if mantissa >= 10**digits:
        mantissa //= 10
        e += 1
    ms = str(mantissa)
    body = ms[0] if digits == 1 else f"{ms[0]}.{ms[1:]}"
    return f"{sign}{body}e{e:+03d}"


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

def _injection_positions(length: int, bit_budget: int) -> list[int]:
    seq = terms(SequenceKind.DOUBLE_EXP, INJECTION_FIRST_INDEX + length - 1, bit_budget)
    positions = seq[INJECTION_FIRST_INDEX - 1 :]
    for a, b in zip(positions, positions[1:]):
        if b < _INJECTION_MIN_RATIO * a:
            raise ValueError("digit positions too close; injectivity not certified")
    return positions


def _injection_sum(digits, positions: list[int]) -> Fraction:
    return sum((Fraction(2 * b + 1, a) for b, a in zip(digits, positions)), Fraction(0))


def gamma_value(spec: GammaSpec, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """Exact rational value of the (truncated) field recipe."""
    if isinstance(spec, ExplicitRational):
        return spec.value
    if isinstance(spec, TruncatedSeries):
        seq = terms(spec.kind, spec.count, bit_budget)
        return sum((Fraction(1, a) for a in seq), Fraction(0))
    if isinstance(spec, DigitInjection):
        return _injection_sum(spec.digits, _injection_positions(len(spec.digits), bit_budget))
    if isinstance(spec, IntervalConstruction):
        first = Fraction(1, terms(SequenceKind.DOUBLE_EXP, spec.series_index, bit_budget)[-1])
        return spec.anchor + first if spec.positive_branch else spec.anchor - first
    raise TypeError(f"not a field spec: {spec!r}")


def gamma_enclosure(
    spec: GammaSpec, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Tuple[Fraction, Fraction]:
    """Exact bounds [lo, hi] containing the untruncated field value.

    For series variants the truncated value underestimates, so the enclosure
    is [value, value + tail]; the interval construction's negative branch
    overestimates instead.  For a digit injection the enclosure covers every
    infinite digit continuation.
    """
    v = gamma_value(spec, bit_budget)
    if isinstance(spec, ExplicitRational):
        return v, v
    if isinstance(spec, TruncatedSeries):
        return v, v + series_tail_bound_after(spec.kind, spec.count, bit_budget)
    if isinstance(spec, DigitInjection):
        last_index = INJECTION_FIRST_INDEX + len(spec.digits) - 1
        cont = 19 * series_tail_bound_after(SequenceKind.DOUBLE_EXP, last_index, bit_budget)
        return v, v + cont
    rest = series_tail_bound_after(SequenceKind.DOUBLE_EXP, spec.series_index, bit_budget)
    if spec.positive_branch:
        return v, v + rest
    return v - rest, v


def gamma_bounds_check(spec: GammaSpec, bit_budget: int = DEFAULT_BIT_BUDGET) -> bool:
    """Certify 1/2 < field < 1 for the untruncated double-exponential series.

    True iff 1/2 < value and value + tail < 1, which pins the infinite sum
    strictly inside (1/2, 1).
    """
    if not isinstance(spec, TruncatedSeries) or spec.kind is not SequenceKind.DOUBLE_EXP:
        raise SpecNotApplicableError(
            "bounds certificate is defined for double-exponential truncated series only"
        )
    lo, hi = gamma_enclosure(spec, bit_budget)
    return Fraction(1, 2) < lo and hi < 1


def gamma_in_unit_interval(spec: GammaSpec, bit_budget: int = DEFAULT_BIT_BUDGET) -> bool:
    """True when the whole enclosure lies strictly inside (0, 1)."""
    lo, hi = gamma_enclosure(spec, bit_budget)
    return 0 < lo and hi < 1
