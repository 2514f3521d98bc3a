import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xygap import exactnum
from xygap.exactnum import (
    decimal_str,
    decimal_text,
    format_rational,
    gamma_value,
    injection_enclosure,
    injection_value,
    parse_field_literal,
    parse_rational,
    ratio_text,
    series_enclosure,
    series_tail_bound_after,
    tail_bound,
)
from xygap.sequences import SequenceKind

DEXP = SequenceKind.DOUBLE_EXP
FACT = SequenceKind.FACTORIAL


class TestSerialization:
    def test_format_always_carries_denominator(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(-5)) == "-5/1"

    def test_parse_examples(self):
        assert parse_rational("53249/65536") == Fraction(53249, 65536)
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("12") == Fraction(12)

    @given(st.fractions())
    def test_roundtrip(self, r):
        assert parse_rational(format_rational(r)) == r

    def test_roundtrip_huge_numerators(self):
        # up to 1e5-bit numerators and denominators
        rng = random.Random(7)
        for _ in range(10):
            num = rng.getrandbits(100_000) - 2**99_999
            den = rng.getrandbits(100_000) + 1
            r = Fraction(num, den)
            assert parse_rational(format_rational(r)) == r


class TestDecimalRendering:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (Fraction(3, 4), 3, "7.50e-01"),
            (Fraction(1, 3), 5, "3.3333e-01"),
            (Fraction(-1, 3), 5, "-3.3333e-01"),
            (Fraction(0), 17, "0"),
            (Fraction(999, 1000), 2, "1.0e+00"),   # carry over the decade edge
            (Fraction(12345), 4, "1.235e+04"),     # rounds half away from zero
        ],
    )
    def test_small_values(self, value, digits, expected):
        assert decimal_str(value, digits) == expected

    def test_huge_scale_without_float(self):
        tiny = Fraction(1, 2**65536)
        s = decimal_str(tiny, 6)
        assert s.endswith("e-19729")
        assert s.startswith("4.99119")
        huge = Fraction(2**65536, 3)
        assert decimal_str(huge, 3).endswith("e+19727")

    def test_digit_count_must_be_positive(self):
        with pytest.raises(ValueError):
            decimal_str(Fraction(1), 0)


def _cmp_pow10(x: Fraction, e: int) -> int:
    if e >= 0:
        lhs, rhs = x.numerator, x.denominator * 10**e
    else:
        lhs, rhs = x.numerator * 10**-e, x.denominator
    return (lhs > rhs) - (lhs < rhs)


def decimal_str_oracle(r: Fraction, digits: int) -> str:
    """Independent rendering in pure integer arithmetic: locate the decade by
    comparing against powers of ten, scale, round half away from zero."""
    if r == 0:
        return "0"
    sign = "-" if r < 0 else ""
    x = abs(r)
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


# A big_ints draw of tens of thousands of bits often exceeds hypothesis's
# per-example entropy limit, and that example is discarded and redrawn.  Some
# seeds discard 20 before the tenth kept example (seed 240 on test_huge_rationals,
# hypothesis 6.155), which fails the data_too_large health check, not the test.
BIG_DRAWS = [HealthCheck.data_too_large]


@st.composite
def big_ints(draw, max_bits):
    """Signed integers below 2**max_bits, their bit lengths spread over both
    sides of the split threshold and up to max_bits."""
    bits = draw(
        st.integers(0, 5000) | st.integers(5000, max_bits) | st.integers(max_bits - 10_000, max_bits)
    )
    n = 0 if bits == 0 else draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    return -n if draw(st.booleans()) else n


def _boundary_ints():
    # around the split threshold and the split widths above it
    out = [0, 1, -1]
    for k in (4095, 4096, 4097, 8191, 8192, 8193, 16384, 32768, 65535, 65536, 65537, 131072):
        j = int(k * 0.30103)
        out += [2**k, 2**k - 1, 2**k + 1, 10**j - 1, 10**j + 1, -(2**k), -(10**j - 1)]
    return out


class TestExactDecimalConversion:
    def test_boundaries_match_decimal(self):
        for n in _boundary_ints():
            assert str(exactnum._exact_decimal(n)) == str(Decimal(n)), n.bit_length()

    @settings(max_examples=60, deadline=None, suppress_health_check=BIG_DRAWS)
    @given(big_ints(199_999))
    @example(2**199_999 + 12345)
    @example(-(3**126_000))
    def test_matches_decimal(self, n):
        assert str(exactnum._exact_decimal(n)) == str(Decimal(n))

    @settings(max_examples=40, deadline=None, suppress_health_check=BIG_DRAWS)
    @given(big_ints(70_000), big_ints(70_000))
    def test_format_matches_decimal(self, num, den):
        r = Fraction(num, abs(den) + 1)
        assert format_rational(r) == f"{Decimal(r.numerator)}/{Decimal(r.denominator)}"

    def test_each_big_integer_converted_once_per_report(self):
        from xygap.scaling import (
            SizeSequence, build_scaling_report, report_csv_lines, report_to_json,
        )

        report = build_scaling_report(SizeSequence(DEXP, "a_n"), 5)
        distinct = {
            abs(k)
            for row in report.rows
            for r in (row.delta, row.delta_minus_half, row.gap, row.deviation_bound)
            for k in (r.numerator, r.denominator)
            if k.bit_length() > exactnum._SPLIT_BITS
        }
        exactnum._big_decimal.cache_clear()
        report_to_json(report)
        report_csv_lines(report)
        info = exactnum._big_decimal.cache_info()
        assert info.misses == len(distinct) > 0
        assert info.hits > 0


class TestStrTierAndDigitParsing:
    """Integers of up to 2048 bits print with str(), larger ones through the
    split Decimal conversion; digit strings parse by splitting at powers of
    ten.  The old conversions (Decimal(n) and int(Decimal(text))) are the
    oracles, and both tiers must work at the smallest int<->str digit limit."""

    def test_tier_boundary_at_the_smallest_digit_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for bits in (2047, 2048, 2049, 4097):
                for n in (2**bits - 1, -(2 ** (bits - 1)), 10 ** int(bits * 0.30103) - 1):
                    r = Fraction(n, 2**bits + 1)
                    text = format_rational(r)
                    assert text == f"{Decimal(r.numerator)}/{Decimal(r.denominator)}"
                    assert parse_rational(text) == r
        finally:
            sys.set_int_max_str_digits(before)

    @settings(max_examples=20, deadline=None, suppress_health_check=BIG_DRAWS)
    @given(big_ints(199_999), st.integers(0, 3))
    @example(2**199_999 - 1, 0)
    @example(-(10**60_000), 2)
    def test_parse_matches_decimal_oracle(self, n, zeros):
        text = "0" * zeros + str(exactnum._exact_decimal(abs(n)))
        text = ("-" if n < 0 else "+" if zeros % 2 else "") + text
        assert exactnum._parse_int(text) == int(Decimal(text)) == n

    @pytest.mark.parametrize("text", [
        "\u0663\u0661/\u0664",              # Arabic-Indic digits
        "\uff17" * 1500 + "/" + "7" * 1200,  # fullwidth digits past the chunk size
        "-0/1", "+0012/0006", " 1/3 ",
    ])
    def test_parse_rational_matches_decimal_oracle(self, text):
        num, _, den = text.strip().partition("/")
        assert parse_rational(text) == Fraction(int(Decimal(num)), int(Decimal(den)))


class TestDecimalStrAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(), st.integers(1, 25))
    def test_small_rationals(self, r, digits):
        assert decimal_str(r, digits) == decimal_str_oracle(r, digits)

    @settings(max_examples=30, deadline=None, suppress_health_check=BIG_DRAWS)
    @given(big_ints(70_000), big_ints(70_000), st.sampled_from([1, 2, 4, 6, 12, 17]))
    @example(1, 2**65536, 6)
    @example(2**65536 + 1, 3 * 2**65535, 17)
    def test_huge_rationals(self, num, den, digits):
        r = Fraction(num, abs(den) + 1)
        assert decimal_str(r, digits) == decimal_str_oracle(r, digits)

    @pytest.mark.parametrize("digits", [1, 2, 3])
    def test_half_way_ties(self, digits):
        # k + 1/2 with a k of `digits` digits sits exactly between two outputs
        for k in range(10 ** (digits - 1), 10**digits, 7):
            for r in (Fraction(2 * k + 1, 2), Fraction(-(2 * k + 1), 2), Fraction(2 * k + 1, 2000)):
                assert decimal_str(r, digits) == decimal_str_oracle(r, digits)

    @pytest.mark.parametrize("r,digits,expected", [
        (Fraction(6, 5), 6, "1.20000e+00"),        # exact quotient shorter than `digits`
        (Fraction(1, 4), 17, "2.5000000000000000e-01"),
        (Fraction(100), 2, "1.0e+02"),
        (Fraction(999, 100), 2, "1.0e+01"),        # 9.99 carries into the next decade
        (Fraction(99999, 10**4), 3, "1.00e+01"),
        (Fraction(-9999, 1000), 1, "-1e+01"),
        (Fraction(5, 2), 1, "3e+00"),              # half away from zero
        (Fraction(-5, 2), 1, "-3e+00"),
    ])
    def test_short_quotients_and_carries(self, r, digits, expected):
        assert decimal_str(r, digits) == expected == decimal_str_oracle(r, digits)


class TestIntegerTextHelpers:
    """ratio_text and decimal_text take a rational's integers; format_rational
    and decimal_str are their Fraction wrappers."""

    @settings(max_examples=30, deadline=None, suppress_health_check=BIG_DRAWS)
    @given(big_ints(70_000), big_ints(70_000), st.sampled_from([1, 2, 6, 12, 17]))
    @example(1, 2**65536 - 1, 17)
    @example(2**65536 + 1, 3 * 2**65535, 17)
    @example(-(3**41_000), 2**65536, 6)
    def test_match_the_fraction_wrappers(self, num, den, digits):
        r = Fraction(num, abs(den) + 1)
        num, den = r.numerator, r.denominator
        assert ratio_text(num, den) == format_rational(r) == f"{Decimal(num)}/{Decimal(den)}"
        assert decimal_text(num, den, digits) == decimal_str(r, digits) == decimal_str_oracle(r, digits)

    def test_default_digits_and_zero(self):
        assert decimal_text(1, 3) == decimal_str(Fraction(1, 3)) == "3.3333333333333333e-01"
        assert decimal_text(0, 1) == "0" and ratio_text(0, 1) == "0/1"
        with pytest.raises(ValueError):
            decimal_text(1, 3, 0)


class TestFieldLiteralAgainstFraction:
    """parse_field_literal builds decimal literals from its own match, through
    Decimal; Fraction(text) is the oracle for both the grammar and the value.
    Seven characters keep every exponent, and so the oracle's work, small."""

    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet="0159._eE+-d \t\u0663\uff17", max_size=7))
    @example("1.")
    @example(".5")
    @example("5.e3")
    @example("+.5e+1_0")
    @example("1_000.5")
    @example("-0.25")
    @example("\u0663\u0661.\u0664e\u0661")  # Arabic-Indic digits
    @example(" \t\n-12.5E-3 ")
    @example("0." + "7" * 4000)
    @example("1__0")
    @example("1.d")
    @example("1_")
    @example(".")
    def test_matches_fraction(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_field_literal(text)
        else:
            assert parse_field_literal(text) == expected


class TestSeriesValues:
    def test_two_term_sum(self):
        assert gamma_value(DEXP, 2) == Fraction(3, 4)

    def test_four_term_sum(self):
        assert gamma_value(DEXP, 4) == Fraction(53249, 65536)

    def test_factorial_three_terms(self):
        assert gamma_value(FACT, 3) == Fraction(361, 720)

    def test_monotone_in_truncation_with_exact_increment(self):
        from xygap.sequences import terms

        seq = terms(DEXP, 5)
        for k in range(1, 5):
            lo = gamma_value(DEXP, k)
            hi = gamma_value(DEXP, k + 1)
            assert hi > lo
            assert hi - lo == Fraction(1, seq[k])

    def test_enclosure_width_at_least_halves(self):
        widths = []
        for k in range(1, 5):
            lo, hi = series_enclosure(DEXP, k)
            widths.append(hi - lo)
        for prev, nxt in zip(widths, widths[1:]):
            assert nxt <= prev / 2

    def test_enclosure_contains_deeper_truncations(self):
        # the untruncated value is bracketed: any deeper truncation must stay inside
        lo, hi = series_enclosure(DEXP, 2)
        for k in (3, 4, 5):
            v = gamma_value(DEXP, k)
            assert lo <= v < hi


class TestTailBounds:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            (DEXP, 3, Fraction(1, 8)),
            (DEXP, 4, Fraction(1, 32768)),
            (FACT, 3, Fraction(1, 360)),
        ],
    )
    def test_values(self, kind, n, expected):
        assert tail_bound(kind, n) == expected

    def test_bound_dominates_partial_sums(self):
        from xygap.sequences import terms

        seq = terms(DEXP, 5)
        for n in range(1, 5):
            partial = sum(Fraction(1, a) for a in seq[n - 1:])
            assert partial < tail_bound(DEXP, n)

    def test_fallback_bound_when_next_term_out_of_budget(self):
        # after K = 5 the next double-exp term is unrepresentable; the bound
        # falls back to 1/a_5, still valid since the terms at least double
        assert series_tail_bound_after(DEXP, 5) == Fraction(1, 2**65536)
        assert series_tail_bound_after(DEXP, 3) == Fraction(2, 65536)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            tail_bound(DEXP, 0)


class TestBoundsCertificate:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_certifies_interval(self, k):
        lo, hi = series_enclosure(DEXP, k)
        assert Fraction(1, 2) < lo and hi < 1


class TestDigitInjectionSpec:
    """The digit-injection map's value and enclosure."""

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            injection_value(digits=(10,))
        with pytest.raises(ValueError):
            injection_value(digits=())

    def test_all_zero_digits_give_series_tail(self):
        value = injection_value(digits=(0, 0, 0))
        assert value == Fraction(1, 16) + Fraction(1, 65536) + Fraction(1, 2**65536)

    def test_enclosure_covers_every_continuation(self):
        lo, hi = injection_enclosure((3, 5))
        for last in range(10):
            assert lo < injection_value((3, 5, last)) < hi
