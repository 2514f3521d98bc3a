import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xygap.classical import (
    ClassicalAngles,
    FieldPoint,
    PhaseRecord,
    classical_energy,
    magnetization_x,
    minimize_energy,
    phase_diagram_scan,
    scan_csv_lines,
    thermo_gap,
)
from xygap.cli import parse_grid


def _oracle_slope(theta, gamma, habs):
    half = np.sin(0.5 * theta)
    return 0.5 * np.sin(theta) * (gamma - 1.0 + 2.0 * half * half) - 0.5 * habs * np.cos(theta)


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
    got = [minimize_energy(FieldPoint(g, h)).theta0 for g, h in points]
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
        e = classical_energy(ClassicalAngles(theta, phi), FieldPoint(gamma, h))
        assert e == pytest.approx(expected, abs=1e-15)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            FieldPoint(-0.1, 0.0)


class TestMinimizer:
    @pytest.mark.parametrize("gamma", [0.5, 0.999982, 0.999999])
    def test_tilted_phase(self, gamma):
        # 0.999982 and 0.999999 put the root within one cell of a 512-point
        # theta grid from the pole
        angles = minimize_energy(FieldPoint(gamma, 0.0))
        assert angles.theta0 == pytest.approx(math.acos(gamma), rel=1e-12)

    def test_polarized_phase(self):
        for gamma in (1.0, 2.0):
            assert minimize_energy(FieldPoint(gamma, 0.0)).theta0 == 0.0

    def test_zero_transverse_field(self):
        angles = minimize_energy(FieldPoint(0.0, 0.3))
        assert angles.theta0 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_azimuthal_angle_follows_field_sign(self):
        assert minimize_energy(FieldPoint(0.5, 0.25)).phi0 == 0.0
        assert minimize_energy(FieldPoint(0.5, -0.25)).phi0 == math.pi

    @pytest.mark.parametrize(
        "gamma,h", [(0.0, 0.0), (0.3, 0.1), (0.9, -0.4), (1.0, 0.0), (1.7, 0.8), (0.99, 1e-6)]
    )
    def test_stationarity_by_finite_differences(self, gamma, h):
        point = FieldPoint(gamma, h)
        angles = minimize_energy(point)
        eps = 1e-6
        t = angles.theta0

        def energy(theta):
            return classical_energy(ClassicalAngles(theta, angles.phi0), point)

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
        # Newton's guess divides by zero, leaves its domain or lands on 0.0
        # at many of these; the bracket must not depend on it
        _assert_theta0_matches_oracle([(g, h) for g in _MAGNITUDES for h in _MAGNITUDES])

    @given(field=st.one_of(
        st.tuples(_MAGNITUDE, _MAGNITUDE),
        st.tuples(st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=-2.0, max_value=2.0)),
    ))
    @settings(max_examples=500, deadline=None)
    def test_random_fields(self, field):
        _assert_theta0_matches_oracle([field])


class TestGlobalMinimum:
    @given(field=_FIELDS)
    @settings(max_examples=300, deadline=None)
    def test_no_dense_grid_point_is_lower(self, field):
        point = FieldPoint(*field)
        s, c = np.sin(_DENSE_THETA), np.cos(_DENSE_THETA)
        dense = (-0.25 * s * s - 0.5 * abs(point.h) * s - 0.5 * point.gamma * c).min()
        assert classical_energy(minimize_energy(point), point) <= dense + 4e-16


class TestThermoGap:
    def test_first_order_segment_gap_vanishes(self):
        for gamma in (0.0, 0.25, 0.5, 0.75, 0.99, 0.99999, 0.999999):
            assert thermo_gap(FieldPoint(gamma, 0.0)) == 0.0

    def test_critical_point(self):
        assert thermo_gap(FieldPoint(1.0, 0.0)) == 0.0

    def test_polarized_gap(self):
        assert thermo_gap(FieldPoint(2.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gamma_closed_form(self):
        for h in (0.1, 0.5, 1.0, 2.0):
            assert thermo_gap(FieldPoint(0.0, h)) == pytest.approx(
                math.sqrt(h + h * h), abs=1e-14
            )

    @given(
        gamma=st.floats(min_value=0.0, max_value=3.0),
        h=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=150)
    def test_symmetric_in_longitudinal_field(self, gamma, h):
        # the reflection is implemented exactly, so bit-for-bit equality holds
        assert thermo_gap(FieldPoint(gamma, h)) == thermo_gap(FieldPoint(gamma, -h))

    def test_continuous_approach_to_zero(self):
        # gap ~ C*sqrt(|h|) near the first-order segment
        for gamma in (0.0, 0.4, 0.8):
            for eps in (1e-8, 1e-10, 1e-12):
                assert thermo_gap(FieldPoint(gamma, eps)) < 3.0 * math.sqrt(eps)


class TestMagnetization:
    def test_jump_at_moderate_field(self):
        up = magnetization_x(FieldPoint(0.5, 1e-6))
        down = magnetization_x(FieldPoint(0.5, -1e-6))
        assert up == pytest.approx(math.sqrt(0.75), abs=1e-3)
        assert down == pytest.approx(-math.sqrt(0.75), abs=1e-3)

    def test_polarized_phase_has_no_transverse_moment(self):
        assert magnetization_x(FieldPoint(2.0, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "gamma,h", [(1.5, 1e-8), (1.5, -1e-8), (2.0, 1e-8), (1.2, 1e-10)]
    )
    def test_linear_response_past_critical_point(self, gamma, h):
        # the tilt lowers the energy by h^2/(4(gamma - 1)), far below an ulp
        # of the energy itself; the minimizer must still find it
        assert magnetization_x(FieldPoint(gamma, h)) == pytest.approx(
            h / (gamma - 1.0), rel=1e-12
        )

    def test_jump_magnitude_follows_tilt_angle(self):
        # the discontinuity is 2*sqrt(1 - gamma^2): order one for small gamma,
        # shrinking to zero at the critical point
        eps = 1e-8
        for gamma in (0.0, 0.3, 0.6, 0.866, 0.95, 0.99):
            jump = magnetization_x(FieldPoint(gamma, eps)) - magnetization_x(
                FieldPoint(gamma, -eps)
            )
            assert jump == pytest.approx(2.0 * math.sqrt(1.0 - gamma * gamma), abs=1e-5)
            assert jump > 0.0


class TestScan:
    def test_grid_cardinality_and_order(self):
        records = phase_diagram_scan([0.0, 0.5], [-0.5, 0.0, 0.5])
        assert len(records) == 6
        assert [(r.gamma, r.h) for r in records[:3]] == [(0.0, -0.5), (0.0, 0.0), (0.0, 0.5)]

    def test_zero_gamma_column_matches_closed_form(self):
        records = phase_diagram_scan([0.0], [0.0, 0.25, 0.5])
        gaps = [r.gap for r in records]
        assert gaps[0] == 0.0
        assert gaps[1] == pytest.approx(math.sqrt(0.3125), abs=1e-14)
        assert gaps[2] == pytest.approx(math.sqrt(0.75), abs=1e-14)

    def test_zero_field_row(self):
        records = phase_diagram_scan([0.0, 0.5, 0.99, 1.0, 1.5], [0.0])
        for rec in records:
            expected = 0.0 if rec.gamma <= 1.0 else rec.gamma - 1.0
            assert rec.gap == pytest.approx(expected, abs=1e-12)

    def test_csv_shape(self):
        lines = list(scan_csv_lines(phase_diagram_scan([0.0], [0.5])))
        assert lines[0] == "gamma,h,theta0,m_x,gap"
        assert len(lines) == 2 and len(lines[1].split(",")) == 5

    def test_csv_rows_match_per_value_format(self):
        # the oracle formats each value alone, after + 0.0: a -0.0 prints as 0
        records = [
            *phase_diagram_scan([0.0, 0.5, 0.999999, 1.0, 1.5, 2.0], [-1.0, -0.25, 0.0, 1e-10, 0.3]),
            PhaseRecord(gamma=0.5, h=-0.0, theta0=1.0471975511965976, m_x=-0.0, gap=0.0),
            PhaseRecord(gamma=-0.0, h=-0.0, theta0=5e-324, m_x=-1e-300, gap=1.7976931348623157e308),
        ]
        want = ["gamma,h,theta0,m_x,gap", *(
            ",".join(format(v + 0.0, ".17g") for v in (r.gamma, r.h, r.theta0, r.m_x, r.gap))
            for r in records
        )]
        lines = list(scan_csv_lines(records))
        assert lines == want
        assert lines[-2] == "0.5,0,1.0471975511965976,0,0"
