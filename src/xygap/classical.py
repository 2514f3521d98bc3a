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
double returned.  The slope is written without the cancellation of
-sin*cos/2 + gamma*sin/2 near theta = 0, gamma = 1, as

    s*(gamma - 1 + 2*sin(theta/2)**2)/2 - |h|*c/2,    s, c = sin(theta), cos(theta).

Where 0 < |h| < 2**-1021 both terms can underflow (at gamma = 1, h =
5e-324, theta* = 2.1e-108 and each is 2.5e-324), so there the factor 0.5
becomes a = 2**63, and |h|/2 becomes a*|h|, both products exact; the
curvature is scaled alike.  The field term is then at least 2**-1012*c and
the other at most a*gamma < 2**1023 for gamma < 2**960.  For larger gamma,
a = 1: theta* < 2**-1980 and the slope at 5e-324 is positive, theta0 = 0.
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
error times theta0*cot(theta0) <= 1).  The slope's terms are normal
doubles near theta*, and k <= 4 (tested against an mpmath root, subnormal
|h| included), so the gap is within (12 + 3k)u of G(theta*).

Input rule and overflow.  A point is accepted when gamma + |h| <=
SAFE_REACH = 1e308 as computed (<= 1e308*(1 + u)).  The scan does not test
it: the CLI applies the rule to a grid's extremes before it computes a
point.  Up to it nothing overflows:

* theta0.  The slope's terms are at most a*gamma and a*|h|, and the Newton
  curvature a*(gamma*c + |h|*s - (c - s)*(c + s)) about a*(gamma + |h| +
  1), all below DBL_MAX ~ 1.797e308.  A Newton quotient may overflow (a
  curvature near zero): the next math.sin of the infinite start raises
  ValueError, a last step's +inf is clamped below pi/2 and -inf dropped; a
  zero curvature raises ZeroDivisionError.  Every probe is a double in [0,
  pi/2], so _theta0 never raises, and no inf or nan meets a slope's test.
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

Scan and text.  scan_rows, the scan's one kernel, yields plain (gamma, h,
theta0, m_x, gap) tuples of floats, gamma, h and m_x + 0.0 (theta0 is a
nonnegative bit pattern, and the gap's forms never make -0.0).  A point
costs one _theta0 and one _gap call; a Newton step shares its sines, three
calls where the slope and the curvature apart took five.  scan_csv and
scan_json fill fixed % templates, gamma's text once per gamma (its tuples
share one float): the CSV prints %.17g, the JSON is json.dumps(document,
indent=2) of {"schema_version": 1, "records": [...]}, one object per
tuple, as json prints a finite float by float.__repr__, which %r is.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Iterator

SAFE_REACH = 1e308  # the largest gamma + |h| accepted (module docstring)
_TINY = 2.2250738585072014e-308  # the smallest normal double
_HALF_EXACT = 2.0**-1021  # the smallest |h| whose half is exact
_SCALED_REACH = 2.0**960  # gamma below which a subnormal |h|'s slope scales by 2**64

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


# Positive doubles order like their int64 bit patterns, so bisecting the
# patterns of [0.0, pi/2] halves the number of doubles in the bracket per
# step; after bit_length(pi/2's pattern) = 62 steps the ends are adjacent,
# and a gallop whose stride doubles crosses the range in as many steps.
_HALF_PI = math.pi / 2
_HALF_PI_BITS = _bits(_HALF_PI)
_BELOW_HALF_PI = math.nextafter(_HALF_PI, 0.0)  # the highest start galloped from
_BISECTION_STEPS = _HALF_PI_BITS.bit_length()
_START_STEPS = 4  # Newton steps in theta from a neighbour's theta0
# The lowest start galloped from.  Where gamma < 1 and h = 0, the slope's
# one term underflows at theta up to 2**-1021 and reads as rising, a sign
# change that the whole-range bisection never meets: its first probe, near
# 1e-154, is falling.
_START_FLOOR = 2.0**-1020


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
    change.  A start at or past pi/2, +inf too, is clamped to the last
    double below it, where the gamma = 0 column's steps land.  A lone point
    has no start; nor has one whose Newton steps divide by zero or take an
    overflowed step's sine, nor a NaN one or one below _START_FLOOR.  Then
    the bracket is all of [0, pi/2], the plain whole-range bisection.
    Bisection shrinks the bracket to adjacent doubles and returns lo.  The
    start only sets how many slopes are computed: theta0 is the last double
    in [0, pi/2) whose slope is negative, or exactly 0.0 wherever the slope
    is positive on all of (0, pi/2] (h = 0, gamma >= 1), also where it
    underflows to zero at subnormal theta.  Each loop runs at most 62 times.
    Each slope is written out, a*s*(gamma - 1 + 2*half**2) - b*c, b = a*|h|
    (module docstring).
    """
    sin, cos = math.sin, math.cos
    pack, unpack = _INT64.pack, _DOUBLE.unpack
    gm1 = gamma - 1.0
    # the factor of the slope's terms, other than 0.5 where |h| is subnormal
    a = 0.5 if not 0.0 < habs < _HALF_EXACT else 2.0**63 if gamma < _SCALED_REACH else 1.0
    b = a * habs
    lo, hi = 0, _HALF_PI_BITS
    if near is not None:
        try:
            for _ in range(_START_STEPS):
                s, c, half = sin(near), cos(near), sin(0.5 * near)
                near -= ((a * s * (gm1 + 2.0 * half * half) - b * c)
                         / (a * (gamma * c + habs * s - (c - s) * (c + s))))
        except (ZeroDivisionError, ValueError):  # zero curvature; sin of an overflowed step
            near = None
    if near is not None and _START_FLOOR <= near:
        near = min(near, _BELOW_HALF_PI)
        start = _bits(near)
        half = sin(0.5 * near)
        if a * sin(near) * (gm1 + 2.0 * half * half) - b * cos(near) < 0.0:
            lo, stride = start, 1
        else:
            hi, stride = start, -1
        for _ in range(_BISECTION_STEPS):
            probe = start + stride
            if not lo < probe < hi:
                break
            theta = unpack(pack(probe))[0]
            half = sin(0.5 * theta)
            falling = a * sin(theta) * (gm1 + 2.0 * half * half) - b * cos(theta) < 0.0
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
        theta = unpack(pack(mid))[0]
        half = sin(0.5 * theta)
        if a * sin(theta) * (gm1 + 2.0 * half * half) - b * cos(theta) < 0.0:
            lo = mid
        else:
            hi = mid
    return unpack(pack(lo))[0]


def _gap(theta0: float, s: float, gamma: float, habs: float) -> float:
    """Spin-wave gap sqrt(x)*sqrt(x + s**2) at the minimizer, s =
    sin(theta0), x in the form that does not cancel there (module
    docstring)."""
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


def scan_rows(gammas: Iterable[float], hs: Iterable[float]) -> Iterator[tuple]:
    """(gamma, h, theta0, m_x, gap) per (gamma, h) grid point, gamma-major,
    each made when it is asked for, its minimizer started from the previous
    point's theta0 (module docstring).  The caller keeps every gamma >= 0
    and gamma + |h| <= SAFE_REACH.

    m_x = sin(theta0)*cos(phi0), with phi0 = 0 for h >= 0 and pi otherwise,
    jumps between +-sin(theta0) across h = 0 for gamma < 1; exactly at h = 0
    the positive branch is reported by convention.
    """
    theta0 = None
    for g in gammas:
        gamma = g + 0.0
        for h in hs:
            habs = abs(h)
            theta0 = _theta0(g, habs, theta0)
            s = math.sin(theta0)
            yield gamma, h + 0.0, theta0, (s if h >= 0 else -s) + 0.0, _gap(theta0, s, g, habs)


# The text templates, gamma's text filled in first (module docstring).
SCAN_CSV_HEADER = "gamma,h,theta0,m_x,gap"
_CSV_ROW = "%.17g,%%.17g,%%.17g,%%.17g,%%.17g\n"
_JSON_HEAD = '{\n  "schema_version": 1,\n  "records": ['
_JSON_RECORD = ('\n    {\n      "gamma": %r,\n      "h": %%r,\n      "theta0": %%r,'
                '\n      "m_x": %%r,\n      "gap": %%r\n    }')


def scan_csv(rows: Iterable[tuple]) -> Iterator[str]:
    """The scan's CSV text, the header and then one line per row, each
    value as %.17g (module docstring)."""
    yield SCAN_CSV_HEADER + "\n"
    gamma = None
    for g, h, theta0, m_x, gap in rows:
        if g is not gamma:
            gamma, template = g, _CSV_ROW % g
        yield template % (h, theta0, m_x, gap)


def scan_json(rows: Iterable[tuple]) -> Iterator[str]:
    """The scan's JSON text and a newline, one record at a time (module
    docstring)."""
    gamma, before = None, _JSON_HEAD
    for g, h, theta0, m_x, gap in rows:
        if g is not gamma:
            gamma, template = g, _JSON_RECORD % g
        yield before + template % (h, theta0, m_x, gap)
        before = ","
    yield "\n  ]\n}\n" if before == "," else before + "]\n}\n"
