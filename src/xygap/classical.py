"""Thermodynamic-limit behavior: classical energy surface, phase diagram, gap.

For large N the total spin behaves as a classical vector of length N/2
parameterized by polar angles, with energy density

    e(theta, phi) = -sin(theta)**2/4 - h*sin(theta)*cos(phi)/2 - gamma*cos(theta)/2.

The azimuthal angle is pinned by the sign of the longitudinal field
(phi0 = 0 for h >= 0, pi for h < 0), leaving a one-dimensional minimization
over theta in [0, pi].  Spin-wave corrections around the minimizer give the
thermodynamic-limit excitation gap

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

from .errors import GapBranchError

RADICAND_CLAMP = 1e-12   # |radicand| below this is roundoff: gap is exactly 0
RADICAND_ERROR = -1e-9   # radicand below this means a wrong minimizer branch
STATIONARY_TOL = 1e-12

_GRID_POINTS = 512


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


def _energy_above_pole(theta: float, gamma: float, habs: float) -> float:
    """e(theta) - e(0) without cancellation: near theta = 0 with gamma > 1 the
    tilt gains only h**2/(4*(gamma - 1)), far below an ulp of e itself."""
    s = math.sin(theta)
    return -0.25 * s * s - 0.5 * habs * s + gamma * math.sin(0.5 * theta) ** 2


def _denergy(theta: float, gamma: float, habs: float) -> float:
    s, c = math.sin(theta), math.cos(theta)
    return -0.5 * s * c - 0.5 * habs * c + 0.5 * gamma * s


def _d2energy(theta: float, gamma: float, habs: float) -> float:
    return -0.5 * math.cos(2 * theta) + 0.5 * habs * math.sin(theta) + 0.5 * gamma * math.cos(theta)


def _refine_root(lo: float, hi: float, gamma: float, habs: float) -> float:
    flo = _denergy(lo, gamma, habs)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        fmid = _denergy(mid, gamma, habs)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    for _ in range(4):  # Newton polish
        d2 = _d2energy(theta, gamma, habs)
        if abs(d2) < 1e-9:
            break
        step = _denergy(theta, gamma, habs) / d2
        candidate = theta - step
        if not 0.0 <= candidate <= math.pi:
            break
        theta = candidate
    return theta


def minimize_energy(point: FieldPoint) -> ClassicalAngles:
    """Global minimizer of the energy density over theta in [0, pi].

    All stationary points (at most three) are bracketed on a fine grid and
    refined by bisection plus Newton polish; the endpoints are always kept
    as candidates and the winner is picked by comparing energies relative to
    theta = 0.
    """
    gamma, habs = point.gamma, abs(point.h)
    candidates = [0.0, math.pi]
    prev_t = 0.0
    prev_f = _denergy(prev_t, gamma, habs)
    for k in range(1, _GRID_POINTS + 1):
        t = math.pi * k / _GRID_POINTS
        f = _denergy(t, gamma, habs)
        if f == 0.0:
            candidates.append(t)
        elif (prev_f < 0) != (f < 0) and prev_f != 0.0:
            candidates.append(_refine_root(prev_t, t, gamma, habs))
        prev_t, prev_f = t, f
    theta0 = min(candidates, key=lambda t: _energy_above_pole(t, gamma, habs))
    phi0 = 0.0 if point.h >= 0 else math.pi
    return ClassicalAngles(theta0=theta0, phi0=phi0)


def _gap_from_theta(theta0: float, gamma: float, habs: float) -> float:
    s, c = math.sin(theta0), math.cos(theta0)
    a = 1.5 * s * s - 1.0 + habs * s + gamma * c
    radicand = a * a - 0.25 * s**4
    if radicand < RADICAND_ERROR:
        raise GapBranchError(
            f"radicand {radicand:.3e} at gamma={gamma}, |h|={habs}: not the global minimum"
        )
    if radicand < RADICAND_CLAMP:
        return 0.0
    return math.sqrt(radicand)


def thermo_gap(point: FieldPoint) -> float:
    """Thermodynamic-limit gap above the classical ground state.

    The radicand vanishes identically on the first-order segment, so values
    within RADICAND_CLAMP of zero are clamped to an exact 0.0; a radicand
    below RADICAND_ERROR is reported as a wrong-branch failure instead.
    """
    theta0 = minimize_energy(point).theta0
    return _gap_from_theta(theta0, point.gamma, abs(point.h))


def magnetization_x(point: FieldPoint) -> float:
    """x magnetization per spin, sin(theta0)*cos(phi0), in [-1, 1].

    Jumps between +-sin(theta0) across h = 0 for gamma < 1.  Exactly at
    h = 0 the positive branch is reported by convention.
    """
    angles = minimize_energy(point)
    return math.sin(angles.theta0) * math.cos(angles.phi0) + 0.0


def phase_record(point: FieldPoint) -> PhaseRecord:
    """Minimizer, magnetization, and gap for a single field point."""
    angles = minimize_energy(point)
    return PhaseRecord(
        gamma=point.gamma + 0.0,
        h=point.h + 0.0,
        theta0=angles.theta0 + 0.0,
        m_x=math.sin(angles.theta0) * math.cos(angles.phi0) + 0.0,
        gap=_gap_from_theta(angles.theta0, point.gamma, abs(point.h)),
    )


def phase_diagram_scan(
    gammas: Sequence[float], hs: Sequence[float]
) -> list[PhaseRecord]:
    """One record per (gamma, h) grid point, gamma-major order."""
    return [phase_record(FieldPoint(gamma=g, h=h)) for g in gammas for h in hs]


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
