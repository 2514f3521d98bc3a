"""Thermodynamic-limit behavior: classical energy surface, phase diagram, gap.

For large N the total spin behaves as a classical vector of length N/2
parameterized by polar angles, with energy density

    e(theta, phi) = -sin(theta)**2/4 - h*sin(theta)*cos(phi)/2 - gamma*cos(theta)/2.

The azimuthal angle is pinned by the sign of the longitudinal field
(phi0 = 0 for h >= 0, pi for h < 0), leaving a one-dimensional minimization
over theta in [0, pi].  For gamma >= 0 the minimum lies in [0, pi/2], where
the slope changes sign once, from <= 0 to > 0.  Each point is solved on its
own: a Newton guess, then a bisection on the bit patterns of the doubles in
a bracket galloped out from the guess, down to two adjacent doubles.
Spin-wave corrections around the minimizer give the thermodynamic-limit
excitation gap

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

import math
import struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GapBranchError
from .field import FieldPoint

RADICAND_CLAMP = 1e-12   # |radicand| below this is roundoff: gap is exactly 0
RADICAND_ERROR = -1e-9   # radicand below this means a wrong minimizer branch

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


# Positive doubles order like their int64 bit patterns, so bisecting the
# patterns of [0.0, pi/2] halves the number of doubles in the bracket per
# step; after bit_length(pi/2's pattern) = 62 steps the ends are adjacent,
# and a gallop whose stride doubles crosses the range in as many steps.
_HALF_PI = math.pi / 2
_HALF_PI_BITS = _bits(_HALF_PI)
_BISECTION_STEPS = _HALF_PI_BITS.bit_length()
_NEWTON_STEPS = 64   # the guess's Newton iterates in s; most points need under 10
_POLISH_STEPS = 3    # Newton steps in theta after asin


class PhaseRecord(NamedTuple):
    gamma: float
    h: float
    theta0: float
    m_x: float
    gap: float


def _slope(theta: float, gamma: float, habs: float) -> float:
    """de/dtheta at phi0, written without the cancellation of
    -sin*cos/2 + gamma*sin/2 near theta = 0, gamma = 1."""
    half = math.sin(0.5 * theta)
    return 0.5 * math.sin(theta) * (gamma - 1.0 + 2.0 * half * half) - 0.5 * habs * math.cos(theta)


def _guess(gamma: float, habs: float) -> float | None:
    """A start in (0, pi/2) near theta0, or None.

    Newton on f(s) = -s - |h| + gamma*s/sqrt(1 - s**2), twice de/ds, starts
    right of the root, at s/sqrt(1 - s**2) = (1 + |h|)/gamma where f = 1 - s,
    and falls monotonically onto it because f is convex; it stops once an
    iterate does not fall.  asin is ill-conditioned near s = 1, so Newton
    steps on the slope in theta follow.  A zero divisor, a domain error, a
    non-finite value or a start outside (0, pi/2) gives no guess.
    """
    try:
        r = (1.0 + habs) / gamma
        s = r / math.sqrt(1.0 + r * r)
        for _ in range(_NEWTON_STEPS):
            c = math.sqrt(1.0 - s * s)
            s_next = s - (-s - habs + gamma * s / c) / (gamma / (c * c * c) - 1.0)
            if not s_next < s:
                break
            s = s_next
        theta = math.asin(s)
        for _ in range(_POLISH_STEPS):
            sin, cos = math.sin(theta), math.cos(theta)
            curvature = 0.5 * (gamma * cos + habs * sin - (cos - sin) * (cos + sin))
            theta -= _slope(theta, gamma, habs) / curvature
    except (ZeroDivisionError, ValueError):
        return None
    return theta if 0.0 < theta < _HALF_PI else None


def _theta0(gamma: float, habs: float) -> float:
    """Global minimizer over theta in [0, pi] for gamma >= 0 and |h| = habs.

    Since e(pi - theta) - e(theta) = gamma*cos(theta) >= 0 on [0, pi/2], the
    minimum lies in [0, pi/2].  There, with s = sin(theta), the slope
    de/ds = -s/2 - |h|/2 + gamma*s/(2*sqrt(1 - s**2)) is convex in s and
    <= 0 at s = 0, so it is <= 0 exactly on [0, theta0] and positive after:
    the energy falls, then rises.  The bracket [lo, hi] keeps lo at 0.0 or
    where the slope is negative and hi at pi/2 or where it is >= 0.  It
    starts at the guess and gallops outward to the sign change, or is all
    of [0, pi/2] without a guess; bisection then shrinks it to adjacent
    doubles and returns lo.  So theta0 is the last double in [0, pi/2) whose
    slope is negative, or exactly 0.0 wherever the slope is positive on all
    of (0, pi/2] (h = 0, gamma >= 1), also where it underflows to zero at
    subnormal theta.  Each loop runs at most 62 times.
    """
    lo, hi = 0, _HALF_PI_BITS
    guess = _guess(gamma, habs)
    if guess is not None:
        start = _bits(guess)
        if _slope(guess, gamma, habs) < 0.0:
            lo, stride = start, 1
        else:
            hi, stride = start, -1
        for _ in range(_BISECTION_STEPS):
            probe = start + stride
            if not lo < probe < hi:
                break
            falling = _slope(_double(probe), gamma, habs) < 0.0
            if falling:
                lo = probe
            else:
                hi = probe
            if falling != (stride > 0):
                break  # the probe crossed the sign change
            stride *= 2
    for _ in range(_BISECTION_STEPS):
        if hi - lo < 2:
            break
        mid = (lo + hi) // 2
        if _slope(_double(mid), gamma, habs) < 0.0:
            lo = mid
        else:
            hi = mid
    return _double(lo)


def _m_x(theta0: float, h: float) -> float:
    s = math.sin(theta0)
    return (s if h >= 0 else -s) + 0.0


def _gap(theta0: float, point: FieldPoint) -> float:
    """Spin-wave gap at the minimizer; a radicand within RADICAND_CLAMP of
    zero gives an exact 0.0, one below RADICAND_ERROR raises GapBranchError,
    and one that is not finite raises ValueError."""
    gamma, habs = point.gamma, abs(point.h)
    s, c = math.sin(theta0), math.cos(theta0)
    a = 1.5 * s * s - 1.0 + habs * s + gamma * c
    radicand = a * a - 0.25 * s**4
    if not math.isfinite(radicand):
        raise ValueError(
            f"field gamma={point.gamma!r}, h={point.h!r} is too large: "
            "the gap radicand overflows a double"
        )
    if radicand < RADICAND_ERROR:
        raise GapBranchError(
            f"radicand {radicand:.3e} at gamma={gamma}, |h|={habs}: not the global minimum"
        )
    return math.sqrt(radicand) if radicand >= RADICAND_CLAMP else 0.0


def phase_record(point: FieldPoint) -> PhaseRecord:
    """Minimizer, magnetization, and gap for a single field point.

    m_x = sin(theta0)*cos(phi0), with phi0 = 0 for h >= 0 and pi otherwise,
    jumps between +-sin(theta0) across h = 0 for gamma < 1; exactly at h = 0
    the positive branch is reported by convention.
    """
    theta0 = _theta0(point.gamma, abs(point.h))
    return PhaseRecord(gamma=point.gamma + 0.0, h=point.h + 0.0, theta0=theta0,
                       m_x=_m_x(theta0, point.h), gap=_gap(theta0, point))


def phase_diagram_scan(
    gammas: Sequence[float], hs: Sequence[float]
) -> list[PhaseRecord]:
    """One record per (gamma, h) grid point, gamma-major order."""
    return [phase_record(FieldPoint(gamma=g, h=h)) for g in gammas for h in hs]


SCAN_CSV_HEADER = "gamma,h,theta0,m_x,gap"


def scan_csv_lines(records: Iterable[PhaseRecord]) -> Iterator[str]:
    """The header, then one row per record as the caller asks for it, each
    value as format(x, ".17g") after ``+ 0.0``, which prints -0.0 as 0."""
    row = "%.17g,%.17g,%.17g,%.17g,%.17g"
    yield SCAN_CSV_HEADER
    for r in records:
        yield row % (r.gamma + 0.0, r.h + 0.0, r.theta0 + 0.0, r.m_x + 0.0, r.gap + 0.0)


def scan_json(records: Iterable[PhaseRecord]) -> str:
    import json

    payload = {
        "schema_version": 1,
        "records": [
            {"gamma": r.gamma, "h": r.h, "theta0": r.theta0, "m_x": r.m_x, "gap": r.gap}
            for r in records
        ],
    }
    return json.dumps(payload, indent=2)
