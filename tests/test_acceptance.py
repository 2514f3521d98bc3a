"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 4 is split in
two: the gap vanishes on the segment h = 0, 0 <= gamma < 1, and the x
magnetization jumps across it by the closed form 2*sqrt(1 - gamma^2), a jump
that stays finite as the probing field shrinks for gamma < 1 and vanishes
with it past the critical point gamma = 1.
"""

import math
import random
import time
from fractions import Fraction

from conftest import gap_times_size_values, min_excitation_brute, phase_record
from xygap.exactnum import injection_value, series_enclosure, tail_bound
from xygap.field import FieldPoint
from xygap.gaplaw import BRANCH_DEGENERATE, gap_record
from xygap.scaling import (
    CLASS_EXPONENTIAL,
    CLASS_FACTORIAL,
    CLASS_POLYNOMIAL,
    RULE_DOUBLED,
    RULE_PLAIN,
    SizeSequence,
    build_scaling_report,
    construction_enclosure,
    dense_gamma_in_interval,
    scaling_row,
)
from xygap.sector import finite_gap_numeric
from xygap.sequences import SequenceKind, terms

DEXP = SequenceKind.DOUBLE_EXP
FACT = SequenceKind.FACTORIAL


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_vs_numeric_oracle():
    started = time.perf_counter()
    gammas = [Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(7, 10), Fraction(99, 100)]
    tol = Fraction(1, 10**12)
    worst = Fraction(0)
    rows = 0
    for gamma in gammas:
        for size in range(2, 65, 2):
            exact = gap_record(size, gamma).gap
            if exact is None:
                continue
            diff = abs(exact - Fraction(finite_gap_numeric(size, FieldPoint(float(gamma), 0.0))))
            worst = max(worst, diff)
            rows += 1
    elapsed = time.perf_counter() - started
    ok = worst < tol and elapsed < 5.0
    _line(1, ok, f"{rows} rows, worst |exact - numeric| = {float(worst):.2e}, {elapsed:.2f}s")
    assert worst < tol
    assert elapsed < 5.0


def test_criterion_2_brute_force_level_oracle():
    started = time.perf_counter()
    rng = random.Random(1729)
    gammas = []
    while len(gammas) < 50:
        den = rng.randrange(1, 51)
        gamma = Fraction(rng.randrange(0, den), den)
        if gamma < 1:
            gammas.append(gamma)
    checked = degenerate = 0
    for gamma in gammas:
        for size in range(1, 201):
            expected = min_excitation_brute(size, gamma)
            rec = gap_record(size, gamma)
            if expected is None:
                degenerate += 1
                assert rec.gap is None and rec.branch == BRANCH_DEGENERATE, (
                    f"missed crossing at N={size}, gamma={gamma}")
                continue
            assert rec.gap == expected  # exact rational equality
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _line(2, ok, f"{checked} rows equal by enumeration, {degenerate} crossings flagged, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_3_thermodynamic_gap():
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        h = 2.0 * i / 99
        worst = max(worst, abs(phase_record(FieldPoint(0.0, h)).gap - math.sqrt(h + h * h)))
    finite = finite_gap_numeric(4096, FieldPoint(0.0, 0.5))
    finite_err = abs(finite - math.sqrt(0.75))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-14 and finite_err < 1e-2 and elapsed < 30.0
    _line(3, ok, f"curve max err {worst:.2e}, N=4096 gap off by {finite_err:.2e}, {elapsed:.2f}s")
    assert worst < 1e-14
    assert finite_err < 1e-2
    assert elapsed < 30.0


_FIRST_ORDER_GAMMAS = [0.99 * i / 19 for i in range(20)]


def test_criterion_4_first_order_gap_line():
    worst = max(phase_record(FieldPoint(g, 0.0)).gap for g in _FIRST_ORDER_GAMMAS)
    ok = worst <= 1e-14
    _line(4, ok, f"gap at h=0 is zero from the stationarity identity for 20 fields in [0, 0.99] (max {worst:.1e})")
    assert worst <= 1e-14


def _mx_jump(gamma: float, eps: float) -> float:
    return phase_record(FieldPoint(gamma, eps)).m_x - phase_record(FieldPoint(gamma, -eps)).m_x


def test_criterion_4_magnetization_jump_exceeds_one():
    """The x magnetization jumps by 2*sqrt(1 - gamma^2) across h = 0.

    At h = 0 the energy minimum sits at cos(theta0) = gamma (the exact ground
    state has Sz = gamma*N/2), so m_x = +-sqrt(1 - gamma^2).  The Hessian
    there is (1 - gamma^2)/2, which gives m_x a linear response
    gamma^2/(1 - gamma^2) to h; the jump measured at +-eps may differ from
    the closed form by twice that, 2*eps*gamma^2/(1 - gamma^2), and the
    bound allows double.  The jump exceeds 1 only for gamma < sqrt(3)/2,
    so "> 1" is checked there.  Past gamma = 1 the minimum is theta0 = 0
    with Hessian (gamma - 1)/2, and the jump 2*eps/(gamma - 1) goes to zero
    with eps: the first-order line ends at the critical point.
    """
    worst_ratio = 0.0
    smallest = math.inf
    off_law = []
    above_one_missing = []
    past_critical = []
    for eps in (1e-8, 1e-10):
        for g in _FIRST_ORDER_GAMMAS:
            jump = _mx_jump(g, eps)
            law = 2.0 * math.sqrt(1.0 - g * g)
            bound = 4.0 * eps * g * g / (1.0 - g * g) + 1e-12
            worst_ratio = max(worst_ratio, abs(jump - law) / bound)
            smallest = min(smallest, jump)
            if not abs(jump - law) <= bound:
                off_law.append((eps, round(g, 3), jump, law))
            if g < math.sqrt(3.0) / 2.0 and not jump > 1.0:
                above_one_missing.append((eps, round(g, 3), jump))
        for g in (1.2, 1.5, 2.0):
            jump = _mx_jump(g, eps)
            if not abs(jump) <= 4.0 * eps / (g - 1.0):
                past_critical.append((eps, g, jump))
    min_jump = 2.0 * math.sqrt(1.0 - 0.99**2)
    ok = not off_law and smallest >= min_jump and not above_one_missing and not past_critical
    _line(
        4,
        ok,
        f"m_x jump = 2*sqrt(1-gamma^2) at 20 fields in [0, 0.99], eps 1e-8 and 1e-10 "
        f"(worst deviation {worst_ratio:.2f} of bound, smallest jump {smallest:.3f}); "
        f"vanishes with eps at gamma 1.2, 1.5, 2",
    )
    assert not off_law, f"jump off 2*sqrt(1-gamma^2) beyond linear response: {off_law}"
    assert smallest >= min_jump, f"smallest jump {smallest} below {min_jump}"
    assert not above_one_missing, f"jump not > 1 where gamma < sqrt(3)/2: {above_one_missing}"
    assert not past_critical, f"jump does not vanish past gamma = 1: {past_critical}"


def test_criterion_5_scaling_trichotomy():
    started = time.perf_counter()
    dexp_k, fact_k = 5, 4

    # (a) exponential rate on sizes N_n = a_n; the row value is exact
    row_exp = scaling_row(SizeSequence(DEXP, RULE_PLAIN), 3, dexp_k)
    assert row_exp.size == 16
    assert row_exp.gap == Fraction(1, 2**16) + Fraction(1, 2**65536)
    assert Fraction(1, 2) <= row_exp.gap * 2**16 <= 2
    report_exp = build_scaling_report(SizeSequence(DEXP, RULE_PLAIN), dexp_k)
    assert report_exp.classification == CLASS_EXPONENTIAL

    # (b) polynomial rate on doubled sizes with the same field
    row_poly = scaling_row(SizeSequence(DEXP, RULE_DOUBLED), 3, dexp_k)
    assert row_poly.size == 32
    assert row_poly.gap == (1 - Fraction(1, 2**11) - Fraction(1, 2**65531)) / 32
    assert Fraction(1, 2) <= row_poly.gap * 32 <= 1
    report_poly = build_scaling_report(SizeSequence(DEXP, RULE_DOUBLED), dexp_k)
    assert report_poly.classification == CLASS_POLYNOMIAL

    # (c) factorial rate on the factorial sequence with its own field
    row_fact = scaling_row(SizeSequence(FACT, RULE_PLAIN), 2, fact_k)
    assert row_fact.size == 6
    assert row_fact.gap == Fraction(1, 720) + Fraction(1, math.factorial(720))
    assert Fraction(1, 2) <= row_fact.gap * 720 <= 2
    report_fact = build_scaling_report(SizeSequence(FACT, RULE_PLAIN), fact_k)
    assert report_fact.classification == CLASS_FACTORIAL

    # every row above was already computed along two independent routes
    # (direct fractional split vs closed form) inside scaling_row
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _line(
        5, ok,
        "exact gaps 2^-16+2^-65536 (Exponential), (1-2^-11-2^-65531)/32 (Polynomial), "
        f"1/720+1/720! (Factorial), {elapsed:.2f}s",
    )
    assert elapsed < 10.0


def test_criterion_6_rational_field_polynomial_law():
    sizes = range(2, 1001, 2)
    pairs = 0
    for den in range(1, 21):
        for num in range(den):
            gamma = Fraction(num, den)
            if gamma.denominator != den or gamma >= 1:
                continue
            values = gap_times_size_values(gamma, sizes)
            assert len(values) <= den, f"gamma={gamma}: {len(values)} > {den}"
            pairs += 1
    _line(6, True, f"|{{N*gap}}| <= q for all {pairs} reduced fields with q <= 20, even N <= 1000")


def test_criterion_7_appendix_suite():
    started = time.perf_counter()

    # (a) certified enclosure in (1/2, 1) for truncations K = 2..5
    for k in range(2, 6):
        lo, hi = series_enclosure(DEXP, k)
        assert Fraction(1, 2) < lo and hi < 1

    # (b) tail bound 2/a_n dominates every explicit partial sum
    dexp_terms = terms(DEXP, 5)
    for n in range(1, 5):
        partial = sum(Fraction(1, a) for a in dexp_terms[n - 1 :])
        assert partial < tail_bound(DEXP, n)
    fact_terms = terms(FACT, 4)
    for n in range(1, 4):
        partial = sum(Fraction(1, a) for a in fact_terms[n - 1 :])
        assert partial < tail_bound(FACT, n)

    # (c) dense-interval construction with certified membership
    rng = random.Random(271828)
    for _ in range(100):
        width = rng.randrange(10, 50000)  # >= 1e-4 on the 1e-5 grid
        lo_units = rng.randrange(1, 10**5 - width - 1)
        lo, hi = Fraction(lo_units, 10**5), Fraction(lo_units + width, 10**5)
        enc_lo, enc_hi = construction_enclosure(dense_gamma_in_interval(lo, hi))
        assert lo < enc_lo and enc_hi < hi

    # (d) digit injection is injective over all length-3 strings
    values = {
        injection_value((b0, b1, b2))
        for b0 in range(10)
        for b1 in range(10)
        for b2 in range(10)
    }
    assert len(values) == 1000

    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _line(7, ok, f"bounds, tail bounds, 100 dense intervals, 1000-string injectivity, {elapsed:.2f}s")
    assert elapsed < 10.0
