"""Thermodynamic-limit behavior: classical energy surface, phase diagram, gap.

For large N the total spin behaves as a classical vector of length N/2
parameterized by polar angles, with energy density

    e(theta, phi) = -sin(theta)**2/4 - h*sin(theta)*cos(phi)/2 - gamma*cos(theta)/2.

The azimuthal angle is pinned by the sign of the longitudinal field
(phi0 = 0 for h >= 0, pi for h < 0), leaving a one-dimensional minimization
over theta in [0, pi].  For gamma >= 0 the minimum lies in [0, pi/2], where
the slope changes sign once, from <= 0 to > 0.  The minimizer is a bisection
on the bit patterns of the doubles down to two adjacent ones.  In a scan its
bracket is galloped out from the previous point's theta0 after a few Newton
steps (continuation); a lone point has no start and bisects all of
[0, pi/2].  The start changes only the number of slopes computed, never the
double returned.
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

Overflow.  A point with finite gamma >= 0 and finite h fails only when its
gap radicand overflows a double (ValueError; a radicand below
RADICAND_ERROR raises GapBranchError, a wrong minimizer branch that no
input is known to reach).  No point with gamma + |h| <= SAFE_REACH = 1e154
overflows, so a scan whose grid stays below that bound (the CLI reads it
off the grid's extremes) is decided before its first record:

* theta0.  The slope's terms 0.5*sin(theta)*(gamma - 1 + 2*sin(theta/2)**2)
  and 0.5*|h|*cos(theta) are at most (gamma + 1)/2 and |h|/2, and the
  Newton curvature at most (gamma + |h| + 1)/2, all finite below the
  bound, so each slope's sign is that of a finite double.  A Newton
  quotient may still overflow (a curvature near zero): the start becomes
  infinite, and the next math.sin raises ValueError, or the range test
  drops it; a zero curvature raises ZeroDivisionError.  Both are caught and
  leave the whole-range bisection, which probes only doubles in
  [0, pi/2].  So _theta0 never raises, returns a double in [0, pi/2], and
  no inf or nan meets a comparison.
* The radicand.  With s, c = sin(theta0), cos(theta0) in [0, 1], each of
  the five roundings in A = 1.5*s*s - 1 + |h|*s + gamma*c has relative
  error at most 2**-53, so |A| <= (2.5 + gamma + |h|)*(1 + 2**-50), which
  is below 1.0001e154 even when the bound itself is met only after
  rounding (gamma + |h| <= 1e154*(1 + 2**-53)).  Then A*A < 1.0003e308 and
  0 <= s**4/4 <= 1/4, so the radicand is finite: |A| stays a quarter below
  sqrt(DBL_MAX) ~ 1.34e154.  m_x and the gap are then finite.

Past the bound, check_scan computes the points beyond SAFE_REACH alone, in
scan order, and raises the first overflow; theta0, and so the radicand,
does not depend on a scan's start.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GapBranchError
from .field import FieldPoint

RADICAND_CLAMP = 1e-12   # |radicand| below this is roundoff: gap is exactly 0
RADICAND_ERROR = -1e-9   # radicand below this means a wrong minimizer branch
SAFE_REACH = 1e154       # no point with gamma + |h| up to this overflows (module docstring)

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
_START_STEPS = 4  # Newton steps in theta from a neighbour's theta0
# The lowest start galloped from.  Where gamma < 1 and |h|/2 underflows to
# zero (h = 0 or 5e-324), the slope's other term underflows too at theta up
# to 2**-1021 and reads as rising, a sign change that the whole-range
# bisection never meets: its first probe, near 1e-154, is falling.
_START_FLOOR = 2.0**-1020


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


def _theta0(gamma: float, habs: float, near: float | None = None) -> float:
    """Global minimizer over theta in [0, pi] for gamma >= 0 and |h| = habs.

    Since e(pi - theta) - e(theta) = gamma*cos(theta) >= 0 on [0, pi/2], the
    minimum lies in [0, pi/2].  There, with s = sin(theta), the slope
    de/ds = -s/2 - |h|/2 + gamma*s/(2*sqrt(1 - s**2)) is convex in s and
    <= 0 at s = 0, so it is <= 0 exactly on [0, theta0] and positive after:
    the energy falls, then rises.  The bracket [lo, hi] keeps lo at 0.0 or
    where the slope is negative and hi at pi/2 or where it is >= 0.  In a
    scan it starts from ``near``, the previous point's theta0 moved by
    _START_STEPS Newton steps on the slope, and gallops outward to the sign
    change.  A lone point has no start; nor has one whose Newton steps
    overflow or divide by zero or that leaves [_START_FLOOR, pi/2).  Then
    the bracket is all of [0, pi/2], the plain whole-range bisection.
    Bisection shrinks the bracket to adjacent doubles and returns lo.  The
    start only sets how many slopes are computed: theta0 is the last double
    in [0, pi/2) whose slope is negative, or exactly 0.0 wherever the slope
    is positive on all of (0, pi/2] (h = 0, gamma >= 1), also where it
    underflows to zero at subnormal theta.  Each loop runs at most 62 times.
    """
    lo, hi = 0, _HALF_PI_BITS
    if near is not None:
        try:
            for _ in range(_START_STEPS):
                sin, cos = math.sin(near), math.cos(near)
                curvature = 0.5 * (gamma * cos + habs * sin - (cos - sin) * (cos + sin))
                near -= _slope(near, gamma, habs) / curvature
        except (ZeroDivisionError, ValueError):  # zero curvature; sin of an overflowed step
            near = None
    if near is not None and _START_FLOOR <= near < _HALF_PI:
        start = _bits(near)
        if _slope(near, gamma, habs) < 0.0:
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


def phase_record(point: FieldPoint, near: float | None = None) -> PhaseRecord:
    """Minimizer, magnetization, and gap for a single field point; ``near``,
    a neighbour's theta0, only speeds up the minimizer.

    m_x = sin(theta0)*cos(phi0), with phi0 = 0 for h >= 0 and pi otherwise,
    jumps between +-sin(theta0) across h = 0 for gamma < 1; exactly at h = 0
    the positive branch is reported by convention.
    """
    theta0 = _theta0(point.gamma, abs(point.h), near)
    return PhaseRecord(gamma=point.gamma + 0.0, h=point.h + 0.0, theta0=theta0,
                       m_x=_m_x(theta0, point.h), gap=_gap(theta0, point))


def check_scan(gammas: Iterable[float], hs: Sequence[float], reach: float) -> None:
    """Raise the ValueError that phase_diagram_scan(gammas, hs) would raise,
    if any, with no record kept.  ``reach`` is at least every point's
    gamma + |h|; at or below SAFE_REACH no point can overflow (module
    docstring), so nothing is computed.  Otherwise each point past
    SAFE_REACH is computed alone, in scan order, and the first overflow is
    raised: theta0 does not depend on the start a scan would hand it."""
    if reach <= SAFE_REACH:
        return
    for g in gammas:
        for h in hs:
            if g + abs(h) > SAFE_REACH:
                phase_record(FieldPoint(gamma=g, h=h))


def phase_diagram_scan(gammas: Iterable[float], hs: Sequence[float]) -> Iterator[PhaseRecord]:
    """One record per (gamma, h) grid point, gamma-major order, each made
    when it is asked for, its minimizer started from the previous record's
    theta0."""
    near = None
    for g in gammas:
        for h in hs:
            record = phase_record(FieldPoint(gamma=g, h=h), near)
            near = record.theta0
            yield record


SCAN_CSV_HEADER = "gamma,h,theta0,m_x,gap"


def scan_csv_lines(records: Iterable[PhaseRecord]) -> Iterator[str]:
    """The header, then one row per record as the caller asks for it, each
    value as format(x, ".17g") after ``+ 0.0``, which prints -0.0 as 0."""
    row = "%.17g,%.17g,%.17g,%.17g,%.17g"
    yield SCAN_CSV_HEADER
    for r in records:
        yield row % (r.gamma + 0.0, r.h + 0.0, r.theta0 + 0.0, r.m_x + 0.0, r.gap + 0.0)


def scan_payload(records: Iterable[PhaseRecord]) -> dict:
    """The scan's JSON document: the schema version and one object per
    record; with no records, the frame the CLI streams the records into."""
    return {"schema_version": 1, "records": [r._asdict() for r in records]}
