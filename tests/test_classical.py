import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import PhaseRecord, phase_diagram_scan, phase_record
from xygap import classical
from xygap.classical import SAFE_REACH, _theta0, scan_csv, scan_rows
from xygap.cli import UsageError, main
from xygap.cli_phase_diagram import parse_grid
from xygap.field import FieldPoint


def classical_energy(theta: float, phi: float, point: FieldPoint) -> float:
    """The energy density at the angles, the oracle the minimizer must minimize."""
    s = math.sin(theta)
    return -0.25 * s * s - 0.5 * point.h * s * math.cos(phi) - 0.5 * point.gamma * math.cos(theta)


def _oracle_slope(theta, gamma, habs):
    """The slope the classical docstring writes down, both terms scaled by
    a/0.5 where 0 < |h| < 2**-1021."""
    subnormal = (habs > 0.0) & (habs < 2.0**-1021)
    a = np.where(subnormal, np.where(gamma < 2.0**960, 2.0**63, 1.0), 0.5)
    half = np.sin(0.5 * theta)
    return a * np.sin(theta) * (gamma - 1.0 + 2.0 * half * half) - a * habs * np.cos(theta)


def _oracle_theta0(gammas, habs):
    """The minimizer by 62 plain bisection steps on the int64 bit patterns of
    the doubles in [0, pi/2], for whole arrays at once: the last double in
    [0, pi/2) whose slope is negative, else 0.0.  Positive doubles order like
    their patterns, so every step halves the doubles left in the bracket."""
    gamma = np.asarray(gammas, dtype=np.float64)
    habs = np.asarray(habs, dtype=np.float64)
    top = int(np.array(math.pi / 2).view(np.int64))
    lo = np.zeros(gamma.shape, dtype=np.int64)
    hi = np.full(gamma.shape, top, dtype=np.int64)
    for _ in range(top.bit_length()):
        mid = lo + (hi - lo) // 2
        falling = _oracle_slope(mid.view(np.float64), gamma, habs) < 0.0
        lo = np.where(falling, mid, lo)
        hi = np.where(falling, hi, mid)
    return lo.view(np.float64).tolist()


def _assert_theta0_matches_oracle(points):
    # the minimizer itself: at the extreme magnitudes gamma + |h| passes
    # SAFE_REACH, where phase_record refuses the point
    got = [_theta0(g, abs(h)) for g, h in points]
    want = _oracle_theta0([g for g, _ in points], [abs(h) for _, h in points])
    wrong = [(p, a, b) for p, a, b in zip(points, got, want) if a.hex() != b.hex()]
    assert wrong == []


# gamma = 1 +- 10^-k for k = 1..16, times h = 0 and h = 10^-2j for j = 1..13
_NEAR_CRITICAL = [
    (1.0 + sign * 10.0 ** -k, h)
    for k in range(1, 17) for sign in (-1, 1)
    for h in [0.0] + [10.0 ** (-2 * j) for j in range(1, 14)]
]
_MAGNITUDES = (0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e300, 1e308)
# 0 or log-uniform in [5e-324, 1e308]
_MAGNITUDE = st.one_of(
    st.just(0.0),
    st.floats(min_value=math.log10(5e-324), max_value=308.0).map(lambda e: 10.0 ** e),
)


class TestEnergy:
    @pytest.mark.parametrize(
        "theta,phi,gamma,h,expected",
        [
            (0.0, 0.0, 1.0, 0.0, -0.5),
            (math.pi / 2, 0.0, 0.0, 0.0, -0.25),
            (math.pi / 2, 0.0, 0.0, 0.5, -0.5),
        ],
    )
    def test_values(self, theta, phi, gamma, h, expected):
        e = classical_energy(theta, phi, FieldPoint(gamma, h))
        assert e == pytest.approx(expected, abs=1e-15)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            FieldPoint(-0.1, 0.0)


class TestMinimizer:
    @pytest.mark.parametrize("gamma", [0.5, 0.999982, 0.999999])
    def test_tilted_phase(self, gamma):
        # 0.999982 and 0.999999 put the root within one cell of a 512-point
        # theta grid from the pole
        theta0 = phase_record(FieldPoint(gamma, 0.0)).theta0
        assert theta0 == pytest.approx(math.acos(gamma), rel=1e-12)

    def test_polarized_phase(self):
        for gamma in (1.0, 2.0):
            assert phase_record(FieldPoint(gamma, 0.0)).theta0 == 0.0

    def test_zero_transverse_field(self):
        theta0 = phase_record(FieldPoint(0.0, 0.3)).theta0
        assert theta0 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_azimuthal_angle_follows_field_sign(self):
        # phi0 = 0 for h > 0 and pi for h < 0: m_x = sin(theta0)*cos(phi0)
        # carries the field's sign
        assert phase_record(FieldPoint(0.5, 0.25)).m_x > 0.0
        assert phase_record(FieldPoint(0.5, -0.25)).m_x < 0.0

    @pytest.mark.parametrize(
        "gamma,h", [(0.0, 0.0), (0.3, 0.1), (0.9, -0.4), (1.0, 0.0), (1.7, 0.8), (0.99, 1e-6)]
    )
    def test_stationarity_by_finite_differences(self, gamma, h):
        point = FieldPoint(gamma, h)
        eps = 1e-6
        t = phase_record(point).theta0

        def energy(theta):
            return classical_energy(theta, 0.0 if h >= 0 else math.pi, point)

        if eps < t < math.pi - eps:
            deriv = (energy(t + eps) - energy(t - eps)) / (2 * eps)
            assert abs(deriv) < 1e-8
        else:
            # boundary minimizer: energy must not decrease into the interior
            inward = t + eps if t < eps else t - eps
            assert energy(inward) >= energy(t) - 1e-12


_DENSE_THETA = np.linspace(0.0, math.pi, 100_001)
_FIELDS = st.one_of(
    st.tuples(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=-2.0, max_value=2.0)),
    # near the critical point gamma = 1, h = 0
    st.tuples(
        st.floats(min_value=1.0 - 1e-4, max_value=1.0 + 1e-4),
        st.floats(min_value=-1e-6, max_value=1e-6),
    ),
)


class TestMinimizerMatchesBisectionOracle:
    """theta0 is the same double as a plain whole-range bisection finds."""

    def test_readme_grid(self):
        _assert_theta0_matches_oracle(
            [(g, h) for g in parse_grid("0:2:81") for h in parse_grid("-1:1:81")])

    def test_near_critical_points(self):
        assert len(_NEAR_CRITICAL) == 448
        _assert_theta0_matches_oracle(_NEAR_CRITICAL)

    def test_extreme_magnitudes(self):
        # whole-range bisection at subnormal, huge and zero fields; the
        # starts a scan hands on are tested in TestContinuedScan
        _assert_theta0_matches_oracle([(g, h) for g in _MAGNITUDES for h in _MAGNITUDES])

    @given(field=st.one_of(
        st.tuples(_MAGNITUDE, _MAGNITUDE),
        st.tuples(st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=-2.0, max_value=2.0)),
    ))
    @settings(max_examples=500, deadline=None)
    def test_random_fields(self, field):
        _assert_theta0_matches_oracle([field])


def _hex(record):
    return tuple(map(float.hex, record))


_GRID_END = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1.0]),
    st.floats(min_value=-320.0, max_value=300.0).map(lambda e: 10.0 ** e),
    st.floats(min_value=0.0, max_value=3.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(1, 16)).map(
        lambda t: 1.0 + t[0] * 10.0 ** -t[1]),
)


_SIGNED_END = st.tuples(st.sampled_from([-1.0, 1.0]), _GRID_END).map(lambda t: t[0] * t[1])


def _grid_or_none(lo, hi, count):
    try:
        return parse_grid(f"{lo!r}:{hi!r}:{count}")
    except UsageError:  # a step past the largest double, as -1e308:1e308:2
        return None


def _grids(ends):
    """Grids as the CLI parses them: lo and hi in either order, 1 to 20 points."""
    return st.tuples(ends, ends, st.integers(1, 20)).map(
        lambda t: _grid_or_none(*t)).filter(lambda grid: grid is not None)


class TestContinuedScan:
    """Each scan point starts its minimizer from the previous point's
    theta0; the kernel's rows are still the lone points' records, and theta0
    the whole-range bisection's double."""

    def _assert_scan_is_lone_points(self, gammas, hs):
        # every grid here keeps gamma + |h| <= 2e300, inside SAFE_REACH
        points = [(g, h) for g in gammas for h in hs]
        scan = [_hex(r) for r in scan_rows(gammas, hs)]
        lone = [_hex(phase_record(FieldPoint(g, h))) for g, h in points]
        assert scan == lone
        want = _oracle_theta0([g for g, _ in points], [abs(h) for _, h in points])
        assert [r[2] for r in lone] == [t.hex() for t in want]

    @given(gammas=_grids(_GRID_END), hs=_grids(_SIGNED_END))
    @settings(max_examples=300, deadline=None)
    # a row ends at theta0 = 5e-324 and the next starts at h = 0, gamma < 1,
    # where the slope below 2**-1021 underflows and reads as rising
    @example(gammas=[2.0, 0.5], hs=[0.0, 1e-323])
    def test_random_grids(self, gammas, hs):
        self._assert_scan_is_lone_points(gammas, hs)

    @pytest.mark.parametrize("gamma,h", [
        ("0:2:81", "-1:1:81"),  # the README grid
        *((f"0:{g}:21", "-1:1:41") for g in ("1.5", "2", "2.5", "3")),  # JSON grids
    ])
    def test_benchmark_grids(self, gamma, h):
        self._assert_scan_is_lone_points(parse_grid(gamma), parse_grid(h))

    @pytest.mark.parametrize("gamma,h", [
        ("0:0:1", "-1:1:2001"),  # Newton steps from the last double below pi/2 reach pi/2
        ("0:0.5:3", "-1e-300:1e-300:501"),
    ])
    def test_gamma_zero_column_gallops_from_below_half_pi(self, monkeypatch, gamma, h):
        # a start at or past fl(pi/2) is clamped below it, not dropped for a
        # whole-range bisection (about 133 sines a point on the first grid)
        gammas, hs = parse_grid(gamma), parse_grid(h)
        calls = 0
        sin = math.sin

        def counting_sin(x):
            nonlocal calls
            calls += 1
            return sin(x)

        monkeypatch.setattr(math, "sin", counting_sin)
        rows = list(scan_rows(gammas, hs))
        monkeypatch.undo()
        assert calls <= 16 * len(rows)
        assert [r[2] for r in rows] == [_theta0(g, abs(x)) for g in gammas for x in hs]

    @pytest.mark.parametrize("near", [
        0.0, 5e-324, 2.0**-1025, math.nextafter(math.pi / 2, 0.0), math.pi / 2, 4.0,
        math.inf, -math.inf, math.nan,
    ])
    def test_any_start_gives_the_lone_theta0(self, near):
        fields = [(g, h) for g in _MAGNITUDES for h in _MAGNITUDES]
        fields += _NEAR_CRITICAL[::7]
        # the slope underflows up to 2**-1021 here
        fields.append((1.0 - 2.0**-53, 0.0))
        # from 0.0 the first Newton step overflows to inf, where math.sin raises
        fields.append((1.148199642116987, 1e308))
        got = [_theta0(g, h, near).hex() for g, h in fields]
        assert got == [_theta0(g, h).hex() for g, h in fields]


class TestGlobalMinimum:
    @given(field=_FIELDS)
    @settings(max_examples=300, deadline=None)
    def test_no_dense_grid_point_is_lower(self, field):
        point = FieldPoint(*field)
        s, c = np.sin(_DENSE_THETA), np.cos(_DENSE_THETA)
        dense = (-0.25 * s * s - 0.5 * abs(point.h) * s - 0.5 * point.gamma * c).min()
        phi0 = 0.0 if point.h >= 0 else math.pi
        assert classical_energy(phase_record(point).theta0, phi0, point) <= dense + 4e-16


class TestThermoGap:
    def test_first_order_segment_gap_vanishes(self):
        for gamma in (0.0, 0.25, 0.5, 0.75, 0.99, 0.99999, 0.999999):
            assert phase_record(FieldPoint(gamma, 0.0)).gap == 0.0

    def test_critical_point(self):
        assert phase_record(FieldPoint(1.0, 0.0)).gap == 0.0

    def test_polarized_gap(self):
        assert phase_record(FieldPoint(2.0, 0.0)).gap == pytest.approx(1.0, abs=1e-12)

    def test_zero_gamma_closed_form(self):
        for h in (0.1, 0.5, 1.0, 2.0):
            assert phase_record(FieldPoint(0.0, h)).gap == pytest.approx(
                math.sqrt(h + h * h), abs=1e-14
            )

    @given(
        gamma=st.floats(min_value=0.0, max_value=3.0),
        h=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=150)
    def test_symmetric_in_longitudinal_field(self, gamma, h):
        # the reflection is implemented exactly, so bit-for-bit equality holds
        assert phase_record(FieldPoint(gamma, h)).gap == phase_record(FieldPoint(gamma, -h)).gap

    def test_continuous_approach_to_zero(self):
        # gap ~ C*sqrt(|h|) near the first-order segment
        for gamma in (0.0, 0.4, 0.8):
            for eps in (1e-8, 1e-10, 1e-12):
                assert phase_record(FieldPoint(gamma, eps)).gap < 3.0 * math.sqrt(eps)


_U = 2.0**-53
_TINY = sys.float_info.min
_LOG_UNIFORM = st.floats(min_value=-320.0, max_value=308.0).map(lambda e: 10.0 ** e)
_ACCURACY_FIELDS = st.one_of(
    # h = 0: the first-order line, the critical point, the polarized axis
    st.tuples(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e308]), st.floats(0.0, 3.0)),
              st.sampled_from([0.0, -0.0])),
    # subnormal |h|
    st.tuples(st.one_of(st.just(1.0), st.floats(0.0, 3.0), _LOG_UNIFORM),
              st.floats(min_value=5e-324, max_value=_TINY, exclude_max=True)),
    # gamma within 1e-16..1e-1 of the critical point
    st.tuples(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 16.0)).map(
        lambda t: 1.0 + t[0] * 10.0 ** -t[1]), st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e)),
    st.tuples(_LOG_UNIFORM, _LOG_UNIFORM),
    st.tuples(st.floats(0.0, 3.0), st.floats(-2.0, 2.0)),
)


def _mp_minimizer(gamma, habs):
    """theta*, the exact minimizer, to the working precision: 0 where the
    slope is positive on all of (0, pi/2] (h = 0, gamma >= 1), else the
    root of sin(t)*(gamma - 1 + 2*sin(t/2)**2) = |h|*cos(t), bisected at
    geometric midpoints in a bracket [lo, hi] that steps of 2**-64 find."""
    g, h = mpmath.mpf(gamma), mpmath.mpf(habs)
    if h == 0:
        return mpmath.mpf(0) if g >= 1 else mpmath.acos(g)

    def slope(t):
        return mpmath.sin(t) * (g - 1 + 2 * mpmath.sin(t / 2) ** 2) - h * mpmath.cos(t)

    hi = mpmath.pi / 2
    if slope(hi) <= 0:
        return hi
    lo = hi * mpmath.ldexp(1, -64)
    while slope(lo) >= 0:
        hi, lo = lo, lo * mpmath.ldexp(1, -64)
    for _ in range(240):
        mid = mpmath.sqrt(lo * hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def _mp_gap(theta, x):
    s = mpmath.sin(theta)
    return mpmath.sqrt(x) * mpmath.sqrt(x + s * s)


def _mp_exact_gap(gamma, habs):
    """The gap at theta*: x = |h|/sin(theta*), or gamma - 1 and 0 on h = 0."""
    theta = _mp_minimizer(gamma, habs)
    if habs == 0:
        return max(mpmath.mpf(gamma) - 1, mpmath.mpf(0)), theta
    return _mp_gap(theta, mpmath.mpf(habs) / mpmath.sin(theta)), theta


def _mp_gap_at(theta0, gamma, habs):
    """G(theta0) of the classical docstring: the gap formula in exact
    arithmetic at the double theta0, x in the form _gap chooses there."""
    t, g, h = mpmath.mpf(theta0), mpmath.mpf(gamma), mpmath.mpf(habs)
    if theta0 < _TINY:
        return _mp_gap(t, g / mpmath.cos(t) - 1)
    if habs / math.sin(theta0) >= 1.0 and gamma >= 1.0:
        c = mpmath.cos(t)
        return _mp_gap(t, c * (g - c) + h * mpmath.sin(t))
    return _mp_gap(t, h / mpmath.sin(t))


class TestGapAccuracy:
    """The gap against an mpmath root of the stationarity equation, within
    the classical docstring's bound: 12u of rounding about G(theta0), and
    where theta0 lies within k = 4 doubles of theta*, (12 + 3k)u in all."""

    @given(field=_ACCURACY_FIELDS)
    @settings(max_examples=300, deadline=None)
    @example(field=(0.0, 1e-300))  # the radicand's clamp printed 0
    @example(field=(1e200, 0.0))
    # the slope's terms underflowed where |h| was subnormal: theta0 was 0 for
    # theta* = 2.146e-108, and 2.146e-108 for 2.704e-108
    @example(field=(1.0, 5e-324))
    @example(field=(1.0, 1e-323))
    @example(field=(0.5, 5e-324))
    @example(field=(1e300, 5e-324))
    @example(field=(2.0**960, 1e-310))  # the slope scaled by 2, not 2**64
    @example(field=(1.0, 2.0**-1021 - 2.0**-1074))
    @example(field=(0.5179196165576492, 1e-323))  # |h|/s is subnormal
    @example(field=(3.0, 0.3500000000000001))  # theta0 2.3 doubles from theta*
    @example(field=(1.0000000000000004, 1e-323))  # theta0 near 2**-1022
    @example(field=(1.0, 1e-300))
    @example(field=(1e308, 0.0))
    @example(field=(0.0, 1e308))
    def test_relative_error_within_the_docstring_bound(self, field):
        gamma, h = field
        assume(gamma + abs(h) <= SAFE_REACH)
        habs = abs(h)
        record = phase_record(FieldPoint(gamma, h))
        theta0, gap = record.theta0, record.gap
        with mpmath.workprec(256):
            at_theta0 = _mp_gap_at(theta0, gamma, habs)
            assert abs(gap - at_theta0) <= 12 * _U * at_theta0
            exact, theta_star = _mp_exact_gap(gamma, habs)
            assert abs(theta0 - theta_star) <= 4 * math.ulp(float(theta_star))
            assert abs(gap - exact) <= (12 + 3 * 4) * _U * exact
        if h == 0 and gamma <= 1.0:
            assert gap == 0.0 and math.copysign(1.0, gap) == 1.0

    def test_recorded_values(self):
        # 1e-150 was printed as 0 while the radicand was clamped below 1e-12
        gap = phase_record(FieldPoint(0.0, 1e-300)).gap
        assert abs(gap - 1e-150) <= 24 * _U * 1e-150
        assert phase_record(FieldPoint(1e200, 0.0)).gap == 1e200
        # where s**2 < 2**-53*x the gap is x, not two square roots rounded twice
        fields = [(0.0, 1.3e154), (1.0, 1.2e154), (5.0, 1e100)]
        assert [phase_record(FieldPoint(g, h)).gap for g, h in fields] == [1.3e154, 1.2e154, 1e100]
        assert [phase_record(FieldPoint(g, 0.0)).gap for g in (0.0, 0.5, 0.999999, 1.0)] == [0.0] * 4

    @given(field=st.tuples(st.floats(0.0, 3.0), st.floats(-2.0, 2.0)))
    @settings(max_examples=300, deadline=None)
    def test_radicand_route_where_it_does_not_cancel(self, field):
        # The radicand A**2 - s**4/4, A = 1.5*s**2 - 1 + |h|*s + gamma*c, is
        # the second route.  Where A keeps a quarter of its terms' sum and the
        # radicand a quarter of A**2 it is within about 10u of the gap (9.3u
        # over 40k fields); 64u leaves room for both routes' rounding and
        # their different sensitivity to theta0's error.
        gamma, h = field
        record = phase_record(FieldPoint(gamma, h))
        s, c = math.sin(record.theta0), math.cos(record.theta0)
        a = 1.5 * s * s - 1.0 + abs(h) * s + gamma * c
        radicand = a * a - 0.25 * s**4
        assume(abs(a) >= 0.25 * (1.5 * s * s + 1.0 + abs(h) * s + gamma * c))
        assume(radicand >= 0.25 * a * a)
        assert abs(record.gap - math.sqrt(radicand)) <= 64 * _U * record.gap


class TestMagnetization:
    def test_jump_at_moderate_field(self):
        up = phase_record(FieldPoint(0.5, 1e-6)).m_x
        down = phase_record(FieldPoint(0.5, -1e-6)).m_x
        assert up == pytest.approx(math.sqrt(0.75), abs=1e-3)
        assert down == pytest.approx(-math.sqrt(0.75), abs=1e-3)

    def test_polarized_phase_has_no_transverse_moment(self):
        assert phase_record(FieldPoint(2.0, 0.0)).m_x == 0.0

    @pytest.mark.parametrize(
        "gamma,h", [(1.5, 1e-8), (1.5, -1e-8), (2.0, 1e-8), (1.2, 1e-10)]
    )
    def test_linear_response_past_critical_point(self, gamma, h):
        # the tilt lowers the energy by h^2/(4(gamma - 1)), far below an ulp
        # of the energy itself; the minimizer must still find it
        assert phase_record(FieldPoint(gamma, h)).m_x == pytest.approx(
            h / (gamma - 1.0), rel=1e-12
        )

    def test_jump_magnitude_follows_tilt_angle(self):
        # the discontinuity is 2*sqrt(1 - gamma^2): order one for small gamma,
        # shrinking to zero at the critical point
        eps = 1e-8
        for gamma in (0.0, 0.3, 0.6, 0.866, 0.95, 0.99):
            jump = phase_record(FieldPoint(gamma, eps)).m_x - phase_record(FieldPoint(gamma, -eps)).m_x
            assert jump == pytest.approx(2.0 * math.sqrt(1.0 - gamma * gamma), abs=1e-5)
            assert jump > 0.0


_HUGE_END = st.one_of(
    _GRID_END,
    st.floats(min_value=150.0, max_value=308.25).map(lambda e: 10.0 ** e),
    st.sampled_from([SAFE_REACH, math.nextafter(SAFE_REACH, math.inf), 1.2e154, 1.3e154]),
)


def _first_failure(records):
    try:
        for _ in records:
            pass
    except ValueError as exc:
        return str(exc)
    return None


class TestOverflowVerdict:
    """One input rule: a point is accepted when gamma + |h| <= SAFE_REACH.
    Up to it the record is finite; past it phase_record raises, and the CLI
    refuses a grid from its extremes without computing a point."""

    @given(gammas=_grids(_HUGE_END), hs=_grids(st.tuples(st.sampled_from([-1.0, 1.0]), _HUGE_END)
                                              .map(lambda t: t[0] * t[1])))
    @settings(max_examples=300, deadline=None)
    @example(gammas=[1e154], hs=[1e154])
    @example(gammas=[0.0, 5e307, 1e308], hs=[0.0, 1.0])
    @example(gammas=[1.148199642116987], hs=[0.0, 1e308])
    @example(gammas=[0.0, 1e308], hs=[0.0, 1e300])  # only the last point is past the bound
    def test_verdict_is_the_scan_failure(self, gammas, hs):
        # the CLI's verdict from the extremes fails exactly the grids whose
        # scan fails, and the scan fails only at a point past SAFE_REACH
        reach = max(gammas) + max(abs(h) for h in hs)
        failure = _first_failure(phase_diagram_scan(gammas, hs))
        assert (reach > SAFE_REACH) == (failure is not None)
        past = [(g, h) for g in gammas for h in hs if g + abs(h) > SAFE_REACH]
        if past:
            g, h = past[0]
            assert failure == (f"field gamma={g!r}, h={h!r} is too large: "
                               f"gamma + |h| exceeds {SAFE_REACH!r}")

    def test_nothing_computed_up_to_the_bound(self, monkeypatch, capsys):
        # the CLI's verdict reads the grid's extremes only: no point is
        # computed, before or past the bound
        def refuse(*args):
            raise AssertionError("computed a point")

        monkeypatch.setattr(classical, "scan_rows", refuse)
        monkeypatch.setattr(classical, "_theta0", refuse)
        assert main(["phase-diagram", "--gamma", "0:1e308:1000001", "--h", "-1e300:1:3"]) == 2
        assert capsys.readouterr() == (
            "", "error: grid reaches gamma + |h| = 1.00000001e+308, past 1e+308\n")

    @given(share=st.floats(min_value=0.0, max_value=1.0),
           scale=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=500, deadline=None)
    @example(share=1.0, scale=1.0, sign=1.0)
    @example(share=0.0, scale=1.0, sign=-1.0)
    @example(share=0.5, scale=1.0, sign=1.0)
    def test_no_overflow_up_to_the_bound(self, share, scale, sign):
        gamma = SAFE_REACH * scale * share
        h = sign * (SAFE_REACH * scale - gamma)
        assume(gamma + abs(h) <= SAFE_REACH)  # as phase_record tests it
        self._assert_finite(gamma, h)

    # the sum rounds to its larger term: 7e137 is below half an ulp of 1e154
    # (the bound before the gap came from the stationarity identity), 7e291
    # below half an ulp of SAFE_REACH
    @pytest.mark.parametrize("gamma,h", [(1e154, 7e137), (1e154, -7e137), (7e137, 1e154),
                                         (SAFE_REACH, 7e291), (SAFE_REACH, -7e291),
                                         (7e291, SAFE_REACH)])
    def test_no_overflow_where_the_bound_rounds(self, gamma, h):
        assert gamma + abs(h) == max(gamma, abs(h)) <= SAFE_REACH
        self._assert_finite(gamma, h)

    @pytest.mark.parametrize("gamma,h", [
        (math.nextafter(SAFE_REACH, math.inf), 0.0), (0.0, -math.nextafter(SAFE_REACH, math.inf)),
        (SAFE_REACH, 1e300), (1e308, 1e308), (sys.float_info.max, sys.float_info.max),
    ])
    def test_past_the_bound_raises(self, gamma, h, capsys):
        # the scan does not test the rule; the CLI refuses the one-point grid
        argv = ["phase-diagram", f"--gamma={gamma!r}:{gamma!r}:1", f"--h={h!r}:{h!r}:1"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: grid reaches gamma + |h| = {gamma + abs(h)!r}, past {SAFE_REACH!r}\n")

    @staticmethod
    def _assert_finite(gamma, h):
        record = PhaseRecord._make(next(scan_rows([gamma], [h])))
        assert all(math.isfinite(x) for x in record)
        # the gap is about x, at most about sqrt(2)*max(gamma, |h|) (module docstring)
        assert 0.0 <= record.gap <= 1.5 * max(gamma, abs(h)) + 1.0


def _records(gammas, hs):
    return map(PhaseRecord._make, scan_rows(gammas, hs))


class TestScan:
    def test_grid_cardinality_and_order(self):
        records = list(_records([0.0, 0.5], [-0.5, 0.0, 0.5]))
        assert len(records) == 6
        assert [(r.gamma, r.h) for r in records[:3]] == [(0.0, -0.5), (0.0, 0.0), (0.0, 0.5)]

    def test_zero_gamma_column_matches_closed_form(self):
        records = _records([0.0], [0.0, 0.25, 0.5])
        gaps = [r.gap for r in records]
        assert gaps[0] == 0.0
        assert gaps[1] == pytest.approx(math.sqrt(0.3125), abs=1e-14)
        assert gaps[2] == pytest.approx(math.sqrt(0.75), abs=1e-14)

    def test_zero_field_row(self):
        records = _records([0.0, 0.5, 0.99, 1.0, 1.5], [0.0])
        for rec in records:
            expected = 0.0 if rec.gamma <= 1.0 else rec.gamma - 1.0
            assert rec.gap == pytest.approx(expected, abs=1e-12)

    def test_csv_shape(self):
        lines = "".join(scan_csv(scan_rows([0.0], [0.5]))).split("\n")
        assert lines[0] == "gamma,h,theta0,m_x,gap"
        assert len(lines) == 3 and len(lines[1].split(",")) == 5 and lines[2] == ""

    def test_csv_rows_match_per_value_format(self):
        # each value alone as format(x, ".17g"); the kernel adds 0.0 to gamma,
        # h and m_x, so -0.0 prints as 0: at h = -0.0, and where h < 0 has
        # theta0 = 0.0 (m_x = -sin(0.0))
        gammas, hs = [-0.0, 0.5, 0.999999, 1.0, 1.5, 2.0], [-1.0, -0.25, -0.0, 0.0, -5e-324, 0.3]
        rows = list(scan_rows(gammas, hs))
        want = ["gamma,h,theta0,m_x,gap", *(
            ",".join(format(v + 0.0, ".17g") for v in row) for row in rows), ""]
        assert "".join(scan_csv(rows)).split("\n") == want
        assert all(math.copysign(1.0, v) == 1.0 for row in rows for v in row if v == 0.0)
        assert want[-3] == "2,-4.9406564584124654e-324,0,0,1"
