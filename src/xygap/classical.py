"""Thermodynamic-limit behavior: classical energy surface, phase diagram, gap.

For large N the total spin behaves as a classical vector of length N/2
parameterized by polar angles, with energy density

    e(theta, phi) = -sin(theta)**2/4 - h*sin(theta)*cos(phi)/2 - gamma*cos(theta)/2.

The azimuthal angle is pinned by the sign of the longitudinal field
(phi0 = 0 for h >= 0, pi for h < 0), leaving a one-dimensional minimization
over theta in [0, pi].  For gamma >= 0 the minimum lies in [0, pi/2], where
the slope changes sign once, from <= 0 to > 0, so one fixed-count bisection
finds it; a grid of field points is bisected at once in numpy, and a single
point is a one-element grid.  Spin-wave corrections around the minimizer
give the thermodynamic-limit excitation gap

    gap(gamma, h) = sqrt(A**2 - sin(theta0)**4/4),
    A = (3/2)*sin(theta0)**2 - 1 + |h|*sin(theta0) + gamma*cos(theta0).

On the segment h = 0, 0 <= gamma < 1 the gap vanishes identically and the
x magnetization sin(theta0)*cos(phi0) flips sign with h: a line of
first-order transitions ending in a critical point at gamma = 1.  Negative h
is handled by the exact reflection symmetry (h -> -h, x -> -x), so
gap(gamma, h) == gap(gamma, -h) holds to the last bit.

All computations here are ordinary double precision; the closed forms are
well conditioned away from the critical point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GapBranchError

RADICAND_CLAMP = 1e-12   # |radicand| below this is roundoff: gap is exactly 0
RADICAND_ERROR = -1e-9   # radicand below this means a wrong minimizer branch

# Positive doubles order like their int64 bit patterns, so bisecting the
# patterns of [0.0, pi/2] halves the number of doubles in the bracket per
# step; after bit_length(pi/2's pattern) = 62 steps the ends are adjacent.
_HALF_PI_BITS = int(np.array(math.pi / 2).view(np.int64))
_BISECTION_STEPS = _HALF_PI_BITS.bit_length()


@dataclass(frozen=True)
class FieldPoint:
    """One (gamma, h) point; gamma is the transverse field and must be >= 0."""

    gamma: float
    h: float

    def __post_init__(self):
        if not (self.gamma >= 0 and math.isfinite(self.gamma) and math.isfinite(self.h)):
            raise ValueError(f"need finite gamma >= 0 and finite h, got {self}")


@dataclass(frozen=True)
class ClassicalAngles:
    theta0: float
    phi0: float


@dataclass(frozen=True)
class PhaseRecord:
    gamma: float
    h: float
    theta0: float
    m_x: float
    gap: float


def classical_energy(angles: ClassicalAngles, point: FieldPoint) -> float:
    """Energy density at the given angles."""
    s, c = math.sin(angles.theta0), math.cos(angles.theta0)
    return -0.25 * s * s - 0.5 * point.h * s * math.cos(angles.phi0) - 0.5 * point.gamma * c


def _slope(theta: np.ndarray, gamma: np.ndarray, habs: np.ndarray) -> np.ndarray:
    """de/dtheta at phi0, written without the cancellation of
    -sin*cos/2 + gamma*sin/2 near theta = 0, gamma = 1."""
    half = np.sin(0.5 * theta)
    return 0.5 * np.sin(theta) * (gamma - 1.0 + 2.0 * half * half) - 0.5 * habs * np.cos(theta)


def _theta0(gamma: np.ndarray, habs: np.ndarray) -> np.ndarray:
    """Global minimizer over theta in [0, pi] for each (gamma, |h|), gamma >= 0.

    Since e(pi - theta) - e(theta) = gamma*cos(theta) >= 0 on [0, pi/2], the
    minimum lies in [0, pi/2].  There, with s = sin(theta), the slope
    de/ds = -s/2 - |h|/2 + gamma*s/(2*sqrt(1 - s**2)) is convex in s and
    <= 0 at s = 0, so it is <= 0 exactly on [0, theta0] and positive after:
    the energy falls, then rises.  Bisection keeps the end where the slope
    is negative and returns it, so theta0 is exactly 0.0 wherever the slope
    is positive on all of (0, pi/2] (h = 0, gamma >= 1), also where it
    underflows to zero at subnormal theta.
    """
    lo = np.zeros(gamma.shape, dtype=np.int64)
    hi = np.full(gamma.shape, _HALF_PI_BITS, dtype=np.int64)
    for _ in range(_BISECTION_STEPS):
        mid = lo + (hi - lo) // 2
        falling = _slope(mid.view(np.float64), gamma, habs) < 0.0
        lo = np.where(falling, mid, lo)
        hi = np.where(falling, hi, mid)
    return lo.view(np.float64)


def _gap(theta0: np.ndarray, gamma: np.ndarray, habs: np.ndarray) -> np.ndarray:
    """Spin-wave gap at the minimizer; radicands within RADICAND_CLAMP of
    zero give an exact 0.0, one below RADICAND_ERROR raises GapBranchError."""
    s, c = np.sin(theta0), np.cos(theta0)
    a = 1.5 * s * s - 1.0 + habs * s + gamma * c
    radicand = a * a - 0.25 * s**4
    wrong = np.flatnonzero(radicand < RADICAND_ERROR)
    if wrong.size:
        i = wrong[0]
        raise GapBranchError(
            f"radicand {radicand[i]:.3e} at gamma={float(gamma[i])}, |h|={float(habs[i])}: "
            "not the global minimum"
        )
    return np.sqrt(np.where(radicand < RADICAND_CLAMP, 0.0, radicand))


def _phase_records(points: Sequence[FieldPoint]) -> list[PhaseRecord]:
    """Minimizer, magnetization and gap for all points in one array pass."""
    gamma = np.array([p.gamma for p in points], dtype=np.float64)
    h = np.array([p.h for p in points], dtype=np.float64)
    habs = np.abs(h)
    theta0 = _theta0(gamma, habs)
    s = np.sin(theta0)
    m_x = np.where(h >= 0, s, -s)
    gap = _gap(theta0, gamma, habs)
    return [
        PhaseRecord(gamma=p.gamma + 0.0, h=p.h + 0.0, theta0=t, m_x=m + 0.0, gap=g)
        for p, t, m, g in zip(points, theta0.tolist(), m_x.tolist(), gap.tolist())
    ]


def minimize_energy(point: FieldPoint) -> ClassicalAngles:
    """Global minimizer of the energy density over theta in [0, pi].

    phi0 is 0 for h >= 0 and pi otherwise; theta0 is the last double in
    [0, pi/2] where the slope is negative, or 0.0 (see :func:`_theta0`).
    """
    theta0 = _theta0(np.array([point.gamma], dtype=np.float64),
                     np.array([abs(point.h)], dtype=np.float64))
    return ClassicalAngles(theta0=float(theta0[0]), phi0=0.0 if point.h >= 0 else math.pi)


def thermo_gap(point: FieldPoint) -> float:
    """Thermodynamic-limit gap above the classical ground state.

    The radicand vanishes identically on the first-order segment, so values
    within RADICAND_CLAMP of zero are clamped to an exact 0.0; a radicand
    below RADICAND_ERROR is reported as a wrong-branch failure instead.
    """
    return phase_record(point).gap


def magnetization_x(point: FieldPoint) -> float:
    """x magnetization per spin, sin(theta0)*cos(phi0), in [-1, 1].

    Jumps between +-sin(theta0) across h = 0 for gamma < 1.  Exactly at
    h = 0 the positive branch is reported by convention.
    """
    return phase_record(point).m_x


def phase_record(point: FieldPoint) -> PhaseRecord:
    """Minimizer, magnetization, and gap for a single field point."""
    return _phase_records([point])[0]


def phase_diagram_scan(
    gammas: Sequence[float], hs: Sequence[float]
) -> list[PhaseRecord]:
    """One record per (gamma, h) grid point, gamma-major order."""
    return _phase_records([FieldPoint(gamma=g, h=h) for g in gammas for h in hs])


SCAN_CSV_HEADER = "gamma,h,theta0,m_x,gap"


def _fmt(x: float) -> str:
    return format(x + 0.0, ".17g")


def scan_csv_lines(records: Iterable[PhaseRecord]) -> list[str]:
    lines = [SCAN_CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (r.gamma, r.h, r.theta0, r.m_x, r.gap)))
    return lines


def scan_json(records: Iterable[PhaseRecord]) -> str:
    payload = {
        "schema_version": 1,
        "records": [
            {"gamma": r.gamma, "h": r.h, "theta0": r.theta0, "m_x": r.m_x, "gap": r.gap}
            for r in records
        ],
    }
    return json.dumps(payload, indent=2)
