"""Exact finite-size gap law on the zero-longitudinal-field line.

With h = 0 the Hamiltonian commutes with the total spin projection, so in
the maximal-spin sector every level is labelled by the projection m:

    E(N, m) = -(N + 2)/4 + m**2/N - gamma*m,

with m integer for even N and half-odd-integer for odd N, -N/2 <= m <= N/2.
The parabola is minimized at m* = gamma*N/2, which generically falls between
two admissible grid points.  Writing delta for the fractional offset of m*
from the grid (anchored at integers for even N, at half-odd-integers for odd
N), the two lowest levels are the grid neighbors of m* and the gap is

    gap = (1 - 2*delta)/N    for delta < 1/2,
    gap = (2*delta - 1)/N    for delta > 1/2.

The same two-branch form holds for both parities; it is cross-checked
against direct level enumeration in the test suite.  delta = 1/2 is a true
level crossing and is reported as a typed degeneracy, not as gap zero.

Everything in this module is exact rational arithmetic; floats are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DegenerateDeltaError

EVEN = "even"
ODD = "odd"

BRANCH_LOW = "delta<1/2"      # gap = (1 - 2 delta)/N
BRANCH_HIGH = "delta>1/2"     # gap = (2 delta - 1)/N
BRANCH_DEGENERATE = "degenerate"

_HALF = Fraction(1, 2)


def _as_exact(value, what: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"{what} must be an exact rational (Fraction or int), got {type(value).__name__}; "
        f'build one with Fraction("p/q")'
    )


@dataclass(frozen=True)
class DeltaValue:
    """Fractional offset of gamma*N/2 from the admissible projection grid."""

    value: Fraction
    parity: str
    degenerate: bool


@dataclass(frozen=True)
class MagnetizationLevel:
    size: int
    m: Fraction
    energy: Fraction


@dataclass(frozen=True)
class GapRecord:
    """One (N, gamma) result row; gap is None on a degenerate crossing."""

    size: int
    gamma: Fraction
    delta: DeltaValue
    branch: str
    gap: Optional[Fraction]
    excited_tied: bool = False


def energy_level(size: int, m, gamma) -> Fraction:
    """Level energy E(N, m); validates the parity and range of m."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    m = _as_exact(m, "m")
    gamma = _as_exact(gamma, "gamma")
    two_m = 2 * m
    if two_m.denominator != 1 or (two_m.numerator - size) % 2 != 0:
        raise ValueError(f"m={m} has wrong parity for N={size}")
    if not -Fraction(size, 2) <= m <= Fraction(size, 2):
        raise ValueError(f"m={m} outside [-N/2, N/2] for N={size}")
    return -Fraction(size + 2, 4) + m * m / size - gamma * m


def _split(size: int, gamma) -> tuple[Fraction, Fraction]:
    """(anchor, offset) of gamma*N/2 on the admissible grid, offset in [0, 1).

    Even N anchors at the integer floor; odd N anchors at the largest
    half-odd-integer not exceeding the value.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    gamma = _as_exact(gamma, "gamma")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    target = gamma * size / 2
    if size % 2 == 0:
        anchor = Fraction(math.floor(target))
    else:
        anchor = math.floor(target - _HALF) + _HALF
    return anchor, target - anchor


def delta_frac(size: int, gamma) -> DeltaValue:
    """Split gamma*N/2 off the admissible grid; flags the exact-1/2 crossing."""
    _, offset = _split(size, gamma)
    return DeltaValue(
        value=offset, parity=EVEN if size % 2 == 0 else ODD, degenerate=offset == _HALF
    )


def _level_pair(size: int, gamma) -> tuple[Fraction, Fraction]:
    """(m0, m1): the grid neighbors of gamma*N/2, the nearer one first."""
    anchor, offset = _split(size, gamma)
    if offset == _HALF:
        raise DegenerateDeltaError(size, gamma)
    return (anchor, anchor + 1) if offset < _HALF else (anchor + 1, anchor)


def ground_level(size: int, gamma) -> MagnetizationLevel:
    """Level minimizing E(N, m): the grid point nearest gamma*N/2.

    With :func:`excited_level`, the level-energy oracle for :func:`gap_record`.
    """
    m0, _ = _level_pair(size, gamma)
    return MagnetizationLevel(size=size, m=m0, energy=energy_level(size, m0, gamma))


def excited_level(size: int, gamma) -> MagnetizationLevel:
    """First excited level: the grid neighbor of m0 across gamma*N/2.

    At gamma = 0 (more generally, offset exactly 0) the two neighbors tie;
    the +1 side is reported, see :func:`gap_record` for the tie flag.
    """
    _, m1 = _level_pair(size, gamma)
    return MagnetizationLevel(size=size, m=m1, energy=energy_level(size, m1, gamma))


def gap_record(size: int, gamma) -> GapRecord:
    """Result row for one (N, gamma); degenerate crossings are kept, flagged.

    The gap is |1 - 2*delta|/N from a single offset split.
    """
    gamma = _as_exact(gamma, "gamma")
    d = delta_frac(size, gamma)
    if d.degenerate:
        return GapRecord(size, gamma, d, BRANCH_DEGENERATE, None)
    branch = BRANCH_LOW if d.value < _HALF else BRANCH_HIGH
    gap = abs(1 - 2 * d.value) / size
    return GapRecord(size, gamma, d, branch, gap, excited_tied=d.value == 0)


def exact_gap(size: int, gamma) -> Fraction:
    """E(m1) - E(m0), exactly: |1 - 2*delta|/N on either branch."""
    rec = gap_record(size, gamma)
    if rec.gap is None:
        raise DegenerateDeltaError(size, rec.gamma)
    return rec.gap


def gap_times_size_values(gamma, sizes: Iterable[int]) -> set[Fraction]:
    """{N * gap(N)} over the sizes, skipping degenerate rows.

    For rational gamma = p/q the offsets cycle through at most q values, so
    this set has cardinality at most q no matter how many sizes are probed.
    """
    gamma = _as_exact(gamma, "gamma")
    out: set[Fraction] = set()
    for size in sizes:
        gap = gap_record(size, gamma).gap
        if gap is not None:
            out.add(size * gap)
    return out
