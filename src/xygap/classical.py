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
excitation gap.  With s, c = sin(theta0), cos(theta0) and B = s**2 +
gamma*c + |h|*s it is sqrt((B - 1)*(B - c**2)) = sqrt(x)*sqrt(x + s**2),
x = B - 1.  That radicand cancels near its zeros; stationarity, gamma*s =
c*(s + |h|), makes x = |h|/s = gamma/c - 1, and x is taken in a form that
does not cancel: |h|/s (its square root as sqrt(|h|)/sqrt(s) where the
quotient is subnormal); B - 1 = c*(gamma - c) + |h|*s where |h|/s >= 1 and
gamma >= 1, two nonnegative terms that move with theta0 by s*c per radian
where |h|/s moves by x*cot(theta0); and gamma - 1 where s is 0 or
subnormal, where c = 1.0 and s*s = 0.0, so the gap is x itself.

On the segment h = 0, 0 <= gamma < 1 the gap vanishes identically (x =
0/s, with no clamp) and the x magnetization sin(theta0)*cos(phi0) flips
sign with h: a line of first-order transitions ending in a critical point
at gamma = 1.  Negative h is handled by the exact reflection symmetry
(h -> -h, x -> -x), so gap(gamma, h) == gap(gamma, -h) holds to the last bit.

Error bound.  With u = 2**-53 and G(theta) the gap formula in exact
arithmetic at the double theta (x in the form chosen there), the gap is
G(theta0) within a relative 12u: at most eight roundings of u, and sin and
cos, within an ulp (2u), weighed at most 1.5 times; x >= 1 >= c**2 bounds
what c's error costs gamma - c, and a subnormal |h|/s or s*s errs by
2**-1075, below u times the sum it enters.  Where fl(s*s) < x*2**-53 the
gap is x itself, the double nearest x*sqrt(1 + s**2/x): x*2**-53 is exact
where it is normal, and below that doubles are 2**-1074 apart and each
rounding moves by at most half that, so s**2 <= u*x, and the product lies
in [x, x*(1 + u/2)], nearer x than the next double up, more than u*x
away.  (The two square roots round twice: at gamma = 0, h = 1.3e154 they
give the double after 1.3e154.)  theta0 within k doubles of the
exact minimizer theta* adds at most 3k*u (|h|/s carries theta0's relative
error times theta0*cot(theta0) <= 1).  Where h = 0 or |h| >= 2**-1021 the
slope's terms are normal doubles and k <= 4 (tested against an mpmath
root), so the gap is within (12 + 3k)u of G(theta*).  A subnormal |h| is
computed in subnormal steps and theta0 can stray: at gamma = 1, h = 5e-324
the field term rounds to zero, theta0 = 0 where theta* ~ 2.1e-108, and the
gap is 0 for 4e-216.

Input rule and overflow.  A point is accepted when gamma + |h| <=
SAFE_REACH = 1e308 as computed (<= 1e308*(1 + u)): phase_record raises
ValueError past it, and the CLI applies the rule to a grid's extremes
before it computes a point.  Up to it nothing overflows:

* theta0.  The slope's terms are at most (gamma + 1)/2 and |h|/2, and the
  Newton curvature 0.5*(gamma*c + |h|*s - (c - s)*(c + s)) about (gamma +
  |h| + 1)/2, all far below DBL_MAX ~ 1.797e308.  A Newton quotient may
  overflow (a curvature near zero): the next math.sin of the infinite
  start raises ValueError, or the range test drops it; a zero curvature
  raises ZeroDivisionError.  Both leave the whole-range bisection, which
  probes only doubles in [0, pi/2].  So _theta0 never raises, and no inf
  or nan meets a comparison.
* The gap.  x = |h|/s is below 1 but where gamma < 1; there, with theta1
  the double after theta0, either theta1 = fl(pi/2), so s = 1.0 and x = |h|,
  or theta1's computed slope is not negative, and its factor fl(gamma - 1)
  + 2*sin(theta1/2)**2 is at most 1, so |h|*cos(theta1) <= sin(theta1)*(1
  + 6u), and x <= sqrt(2)*|h|*(1 + u) where s >= 1/sqrt(2), x < 1.5 where
  not.  B - 1 holds two nonnegative terms, at most gamma and |h|, so x <=
  (gamma + |h|)*(1 + 4u).  s < 2**-1022 only where theta0 < 2**-1022, and
  then gamma >= 1: for gamma < 1 the whole-range bisection's first probe,
  1.33e-154, has a negative slope (|gamma - 1| >= 2**-53), and a scan's
  start never changes the double returned.  So 0 <= x < 1.42e308 and the
  gap is at most x + 1.  (The exact gap is at most hypot(gamma, |h|) +
  1/2.)
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .field import FieldPoint

SAFE_REACH = 1e308  # the largest gamma + |h| accepted (module docstring)
_TINY = 2.2250738585072014e-308  # the smallest normal double

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


def _gap(theta0: float, gamma: float, habs: float) -> float:
    """Spin-wave gap sqrt(x)*sqrt(x + s**2) at the minimizer, x in the form
    that does not cancel there (module docstring)."""
    s = math.sin(theta0)
    if s < _TINY:  # cos(theta0) = 1.0 and s*s = 0.0: sqrt(x)*sqrt(x) is x
        return gamma - 1.0
    x = habs / s
    if x >= 1.0 and gamma >= 1.0:  # B - 1 itself (module docstring)
        c = math.cos(theta0)
        x = c * (gamma - c) + habs * s
    if s * s < x * 2.0**-53:  # the gap rounds to x (module docstring)
        return x
    root_x = math.sqrt(x) if x >= _TINY else math.sqrt(habs) / math.sqrt(s)
    return root_x * math.sqrt(x + s * s)


def phase_record(point: FieldPoint, near: float | None = None) -> PhaseRecord:
    """Minimizer, magnetization, and gap for a single field point; ``near``,
    a neighbour's theta0, only speeds up the minimizer.  ValueError where
    gamma + |h| exceeds SAFE_REACH (module docstring).

    m_x = sin(theta0)*cos(phi0), with phi0 = 0 for h >= 0 and pi otherwise,
    jumps between +-sin(theta0) across h = 0 for gamma < 1; exactly at h = 0
    the positive branch is reported by convention.
    """
    gamma, habs = point.gamma, abs(point.h)
    if gamma + habs > SAFE_REACH:
        raise ValueError(f"field gamma={gamma!r}, h={point.h!r} is too large: "
                         f"gamma + |h| exceeds {SAFE_REACH!r}")
    theta0 = _theta0(gamma, habs, near)
    return PhaseRecord(gamma=gamma + 0.0, h=point.h + 0.0, theta0=theta0,
                       m_x=_m_x(theta0, point.h), gap=_gap(theta0, gamma, habs))


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
