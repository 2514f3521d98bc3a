import math
from fractions import Fraction

import pytest

from xygap.errors import BitBudgetError, TruncationInsufficientError
from xygap.exactnum import injection_value, series_tail_bound_after, tail_bound
from xygap.gaplaw import BRANCH_LOW
from xygap.scaling import (
    CLASS_EXPONENTIAL,
    CLASS_FACTORIAL,
    CLASS_INDETERMINATE,
    CLASS_POLYNOMIAL,
    RULE_DOUBLED,
    RULE_PLAIN,
    ScalingRow,
    SizeSequence,
    build_scaling_report,
    classify_scaling,
    construction_enclosure,
    dense_gamma_in_interval,
    report_csv_lines,
    report_to_json_dict,
    scaling_row,
)
from xygap.sequences import SequenceKind, terms

DEXP = SequenceKind.DOUBLE_EXP
FACT = SequenceKind.FACTORIAL

DEXP_PLAIN = SizeSequence(DEXP, RULE_PLAIN)
DEXP_DOUBLED = SizeSequence(DEXP, RULE_DOUBLED)
FACT_PLAIN = SizeSequence(FACT, RULE_PLAIN)

DEXP_K = 5
FACT_K = 4


class TestSizes:
    def test_terms(self):
        assert terms(DEXP, 4) == [2, 4, 16, 65536]
        assert terms(FACT, 3) == [3, 6, 720]

    def test_doubled_rule(self):
        assert [scaling_row(DEXP_DOUBLED, n, DEXP_K).size for n in (1, 2, 3)] == [4, 8, 32]

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            SizeSequence(DEXP, "3a_n")


class TestClosedFormDelta:
    def test_exponential_row(self):
        delta = scaling_row(DEXP_PLAIN, 3, DEXP_K).delta
        assert delta == Fraction(1, 2) + Fraction(1, 2**13) + Fraction(1, 2**65533)

    def test_polynomial_row(self):
        delta = scaling_row(DEXP_DOUBLED, 3, DEXP_K).delta
        assert delta == Fraction(1, 2**12) + Fraction(1, 2**65532)

    def test_factorial_row(self):
        delta = scaling_row(FACT_PLAIN, 2, FACT_K).delta
        f720 = math.factorial(720)
        assert delta == Fraction(1, 2) + Fraction(1, 240) + Fraction(3, f720)

    def test_odd_size_row(self):
        # N_1 = 3 sits on the half-odd-integer grid; the anchor absorbs the 1/2
        delta = scaling_row(FACT_PLAIN, 1, FACT_K).delta
        f720 = math.factorial(720)
        assert delta == Fraction(1, 4) + Fraction(1, 480) + Fraction(3, 2 * f720)

    def test_every_in_budget_combination_agrees(self):
        # the equality of the two routes is asserted inside; just drive them all
        for seq, k_trunc in (
            (DEXP_PLAIN, DEXP_K),
            (DEXP_DOUBLED, DEXP_K),
            (FACT_PLAIN, FACT_K),
            (SizeSequence(FACT, RULE_DOUBLED), FACT_K),
        ):
            for n in range(1, k_trunc - 1):
                scaling_row(seq, n, k_trunc)

    def test_truncation_precondition(self):
        with pytest.raises(ValueError):
            scaling_row(DEXP_PLAIN, 4, DEXP_K)  # needs K >= 6


class TestScalingGap:
    def test_exponential_regime_value(self):
        assert scaling_row(DEXP_PLAIN, 3, DEXP_K).gap == Fraction(1, 2**16) + Fraction(1, 2**65536)

    def test_polynomial_regime_value(self):
        expected = (1 - Fraction(1, 2**11) - Fraction(1, 2**65531)) / 32
        assert scaling_row(DEXP_DOUBLED, 3, DEXP_K).gap == expected

    def test_factorial_regime_value(self):
        f720 = math.factorial(720)
        assert scaling_row(FACT_PLAIN, 2, FACT_K).gap == Fraction(1, 720) + Fraction(1, f720)

    def test_row_carries_certificate_data(self):
        row = scaling_row(DEXP_PLAIN, 3, DEXP_K)
        assert row.size == 16
        assert row.delta_minus_half == Fraction(1, 2**13) + Fraction(1, 2**65533)
        assert 0 < row.deviation_bound < Fraction(1, 2**65520)

    def test_branch_certification_guard(self):
        from xygap.errors import DegenerateDeltaError
        from xygap.gaplaw import BRANCH_HIGH, BRANCH_LOW
        from xygap.scaling import certify_branch

        gamma = Fraction(1, 3)
        assert certify_branch(Fraction(49, 100), Fraction(1, 1000), 10, gamma) == BRANCH_LOW
        assert certify_branch(Fraction(51, 100), Fraction(1, 1000), 10, gamma) == BRANCH_HIGH
        with pytest.raises(TruncationInsufficientError):
            certify_branch(Fraction(49, 100), Fraction(2, 100), 10, gamma)
        with pytest.raises(TruncationInsufficientError):
            certify_branch(Fraction(99, 100), Fraction(2, 100), 10, gamma)
        with pytest.raises(DegenerateDeltaError):
            certify_branch(Fraction(1, 2), Fraction(0), 10, gamma)

    def test_certification_margins_are_wide_on_default_rows(self):
        # the minimum-truncation rule K >= n + 2 keeps the tail bound far from
        # every boundary it could perturb, so the straddle signal never fires
        for seq, k_trunc in ((DEXP_PLAIN, DEXP_K), (DEXP_DOUBLED, DEXP_K), (FACT_PLAIN, FACT_K)):
            for n in range(1, k_trunc - 1):
                row = scaling_row(seq, n, k_trunc)
                distance = abs(row.delta - Fraction(1, 2))
                assert row.deviation_bound < distance / 2**40


class TestTailSumConvergence:
    @pytest.mark.parametrize(
        "kind,count", [(DEXP, 5), (FACT, 4)]
    )
    def test_ratio_sum_brackets(self, kind, count):
        # sum_{k>n} a_{n+1}/a_k lies in (1, 1 + 2*a_{n+1}/a_{n+2}]
        seq = terms(kind, count)
        for n in range(1, count - 1):
            a_next = seq[n]
            ratio_sum = sum(Fraction(a_next, a) for a in seq[n:])
            assert 1 < ratio_sum <= 1 + Fraction(2 * a_next, seq[n + 1])


class TestClassification:
    def test_trichotomy_with_shared_field(self):
        exp_report = build_scaling_report(DEXP_PLAIN, DEXP_K)
        poly_report = build_scaling_report(DEXP_DOUBLED, DEXP_K)
        assert exp_report.classification == CLASS_EXPONENTIAL
        assert poly_report.classification == CLASS_POLYNOMIAL

    def test_factorial_classification(self):
        assert build_scaling_report(FACT_PLAIN, FACT_K).classification == CLASS_FACTORIAL

    def test_exponential_band_holds_on_every_row(self):
        report = build_scaling_report(DEXP_PLAIN, DEXP_K)
        for row in report.rows:
            value = row.gap * 2**row.size
            assert Fraction(1, 2) <= value <= 2

    def test_polynomial_band_documents_preasymptotic_drops(self):
        report = build_scaling_report(DEXP_DOUBLED, DEXP_K)
        assert any("excluded" in line for line in report.certificate)
        # the surviving row is the spec anchor
        n3 = [r for r in report.rows if r.index == 3][0]
        assert Fraction(1, 2) <= n3.gap * n3.size <= 1

    def test_needs_two_rows(self):
        rows = build_scaling_report(DEXP_PLAIN, DEXP_K).rows
        with pytest.raises(ValueError):
            classify_scaling(rows[:1])

    def test_unclassifiable_rows_are_indeterminate(self):
        exp_rows = build_scaling_report(DEXP_PLAIN, DEXP_K).rows
        poly_rows = build_scaling_report(DEXP_DOUBLED, DEXP_K).rows
        # final row sits outside every band (n=2 on the doubled rule)
        label, _ = classify_scaling((exp_rows[2], poly_rows[1]))
        assert label == CLASS_INDETERMINATE
        # final row sits inside several bands at once (N=2 is too small to
        # distinguish the rates), so no unique label exists
        label2, _ = classify_scaling((poly_rows[1], exp_rows[0]))
        assert label2 == CLASS_INDETERMINATE

    @staticmethod
    def _rows(sizes, gap_of, deviation_bound):
        return tuple(
            ScalingRow(index=n, size=size, delta=(1 - gap_of(size) * size) / 2,
                       branch=BRANCH_LOW, gap=gap_of(size), deviation_bound=deviation_bound)
            for n, size in enumerate(sizes, 1)
        )

    def test_truncation_slack_keeps_rows_out_of_band(self):
        # gap*N = 3/4 lies in the Polynomial band only; the slack 2*N*dev/N = 2*dev
        # widens it to [3/4 - 2*dev, 3/4 + 2*dev], which must stay inside [1/2, 1]
        def gap_of(size):
            return Fraction(3, 4 * size)

        label, _ = classify_scaling(self._rows((10, 20), gap_of, Fraction(1, 8)))
        assert label == CLASS_POLYNOMIAL  # 3/4 - 1/4 touches the edge 1/2
        label, cert = classify_scaling(self._rows((10, 20), gap_of, Fraction(1, 8) + Fraction(1, 2**40)))
        assert label == CLASS_INDETERMINATE
        assert cert == ("no classification band covers any suffix of the rows",)

    def test_band_scale_over_budget_never_passes(self):
        # gap*2^N = 1 in the Exponential band; 2^200 has 201 bits
        rows = self._rows((100, 200), lambda size: Fraction(1, 2**size), Fraction(0))
        assert classify_scaling(rows, bit_budget=201)[0] == CLASS_EXPONENTIAL
        assert classify_scaling(rows, bit_budget=200)[0] == CLASS_INDETERMINATE


class TestInjection:
    def test_injective_over_all_length_three_strings(self):
        values = set()
        for b0 in range(10):
            for b1 in range(10):
                for b2 in range(10):
                    values.add(injection_value((b0, b1, b2)))
        assert len(values) == 1000

    def test_zero_digits_reproduce_series_tail(self):
        value = injection_value((0, 0))
        assert value == Fraction(1, 16) + Fraction(1, 65536)

    def test_large_leading_digit_leaves_unit_interval(self):
        # every continuation adds at most 19 times the series tail after a_4
        lo = injection_value((9, 0))
        hi = lo + 19 * series_tail_bound_after(DEXP, 4)
        assert 1 < lo < hi

    def test_small_digits_stay_inside(self):
        lo = injection_value((3, 5, 7))
        hi = lo + 19 * series_tail_bound_after(DEXP, 5)
        assert 0 < lo and hi < 1

    def test_budget_limit(self):
        with pytest.raises(BitBudgetError):
            injection_value((1, 2, 3, 4))  # needs the sixth double-exp term


class TestDenseInterval:
    def test_spec_anchor_example(self):
        spec = dense_gamma_in_interval(Fraction(1, 4), Fraction(3, 4))
        assert spec.scale_exp == 2 and spec.anchor_num == 2
        assert spec.anchor == Fraction(1, 2)

    def test_narrow_interval(self):
        spec = dense_gamma_in_interval(Fraction(3, 10), Fraction(30001, 100000))
        assert spec.scale_exp == 17
        assert spec.series_index == 5
        lo, hi = construction_enclosure(spec)
        assert spec.lo < lo and hi < spec.hi

    def test_appendix_bound_chain(self):
        spec = dense_gamma_in_interval(Fraction(1, 3), Fraction(2, 3))
        bound = tail_bound(DEXP, spec.series_index)
        assert bound < Fraction(1, 2 ** (spec.scale_exp + 1))

    def test_membership_on_random_intervals(self):
        import random

        rng = random.Random(99)
        for _ in range(50):
            width = rng.randrange(10, 30000)
            lo_units = rng.randrange(1, 10**5 - width - 1)
            lo = Fraction(lo_units, 10**5)
            hi = Fraction(lo_units + width, 10**5)
            spec = dense_gamma_in_interval(lo, hi)
            enc_lo, enc_hi = construction_enclosure(spec)
            assert lo < enc_lo < enc_hi < hi

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            dense_gamma_in_interval(Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            dense_gamma_in_interval(Fraction(0), Fraction(1, 2))


class TestSerialization:
    def test_json_shape(self):
        payload = report_to_json_dict(build_scaling_report(FACT_PLAIN, FACT_K))
        assert payload["schema_version"] == 1
        assert payload["classification"] == CLASS_FACTORIAL
        row = payload["rows"][1]
        assert row["N"] == 6
        assert row["gap"]["ratio"].startswith(str(math.factorial(719) + 1))
        assert row["gap"]["den_bits"] == math.factorial(720).bit_length()

    def test_csv_round_trip_of_gap_column(self):
        from conftest import parse_rational

        report = build_scaling_report(DEXP_PLAIN, DEXP_K)
        lines = report_csv_lines(report)
        assert lines[0] == "n,N,delta_minus_half,gap,gap_decimal"
        gap_text = lines[3].split(",")[3]
        assert parse_rational(gap_text) == report.rows[2].gap
