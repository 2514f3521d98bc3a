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

Each row is one integer residue.  With gamma = p/q in lowest terms and
lengths in units of 1/(2q), m* sits at p*N and the grid at the multiples of
2q (even N) or at q plus them (odd N; -q and q agree mod 2q), so m* lies

    r = 2q*delta = (p*N + (N mod 2)*q) mod 2q

above the grid point at or below it.  Then delta = r/(2q); the crossing is
r = q, the low branch r < q, the neighbors tie at r = 0, and the gap is
|q - r|/(q*N).  :func:`exact_row` computes each row once, in integers, each
ratio reduced by one gcd; the CLI prints those integers as they are, and
:func:`gap_record` wraps the same row in Fractions for ``verify``,
``scaling`` and the tests.  Floats are rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .errors import DegenerateDeltaError

EVEN = "even"
ODD = "odd"

BRANCH_LOW = "delta<1/2"      # gap = (1 - 2 delta)/N
BRANCH_HIGH = "delta>1/2"     # gap = (2 delta - 1)/N
BRANCH_DEGENERATE = "degenerate"


def _as_exact(value, what: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"{what} must be an exact rational (Fraction or int), got {type(value).__name__}; "
        f'build one with Fraction("p/q")'
    )


class DeltaValue(NamedTuple):
    """Fractional offset of gamma*N/2 from the admissible projection grid."""

    value: Fraction
    parity: str
    degenerate: bool


class MagnetizationLevel(NamedTuple):
    size: int
    m: Fraction
    energy: Fraction


class GapRecord(NamedTuple):
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


def exact_row(size: int, p: int, q: int) -> tuple[str, int, int, int, int]:
    """The row of (N, gamma = p/q) in integers: (branch, delta numerator,
    delta denominator, gap numerator, gap denominator), each ratio in lowest
    terms, the gap 0/1 on a degenerate crossing.

    delta = r/(2q) and gap = |q - r|/(q*N) from the one residue r (module
    docstring); assumes N >= 1 and 0 <= p < q, which :func:`gap_record`
    checks.
    """
    two_q = q + q
    r = (p * size + (size & 1) * q) % two_q
    g = gcd(r, two_q)
    num, den = abs(q - r), q * size
    h = gcd(num, den)
    branch = BRANCH_LOW if r < q else BRANCH_HIGH if r > q else BRANCH_DEGENERATE
    return branch, r // g, two_q // g, num // h, den // h


def delta_frac(size: int, gamma) -> DeltaValue:
    """Split gamma*N/2 off the admissible grid; flags the exact-1/2 crossing."""
    return gap_record(size, gamma).delta


def _level_pair(size: int, gamma) -> tuple[Fraction, Fraction]:
    """(m0, m1): the grid neighbors of gamma*N/2, the nearer one first."""
    rec = gap_record(size, gamma)
    if rec.gap is None:
        raise DegenerateDeltaError(size, rec.gamma)
    below = rec.gamma * size / 2 - rec.delta.value
    return (below, below + 1) if rec.branch == BRANCH_LOW else (below + 1, below)


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

    :func:`exact_row` in Fractions: the gap is |1 - 2*delta|/N = |q - r|/(q*N)
    from the one residue r.
    """
    gamma = _as_exact(gamma, "gamma")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    p, q = gamma.numerator, gamma.denominator
    if not 0 <= p < q:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    branch, delta_num, delta_den, gap_num, gap_den = exact_row(size, p, q)
    degenerate = branch == BRANCH_DEGENERATE
    delta = DeltaValue(Fraction(delta_num, delta_den), ODD if size & 1 else EVEN, degenerate)
    if degenerate:
        return GapRecord(size, gamma, delta, branch, None)
    return GapRecord(size, gamma, delta, branch, Fraction(gap_num, gap_den), delta_num == 0)


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
