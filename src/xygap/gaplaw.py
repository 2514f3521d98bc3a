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
level crossing and is reported as the degenerate branch with no gap, not
as gap zero.

Each row is one integer residue.  With gamma = p/q in lowest terms and
lengths in units of 1/(2q), m* sits at p*N and the grid at the multiples of
2q (even N) or at q plus them (odd N; -q and q agree mod 2q), so m* lies

    r = 2q*delta = (p*N + (N mod 2)*q) mod 2q

above the grid point at or below it.  Then delta = r/(2q); the crossing is
r = q, the low branch r < q, the neighbors tie at r = 0, and the gap is
|q - r|/(q*N).

For gamma >= 1 the vertex sits at or past the top of the grid, m = N/2,
which is then the ground level, and m = N/2 - 1 the first excited one (no
level lies above N/2 to tie with it).  That is the edge branch:

    gap = E(N, N/2 - 1) - E(N, N/2) = gamma - 1 + 1/N = ((p - q)*N + q)/(q*N),

exactly 1/N at the critical point gamma = 1.  delta is still r/(2q), but it
no longer sets the gap.  For gamma < 1 the grid point above m* is at most
N/2, so the residue law above holds unchanged.

:func:`exact_row` computes each row once, in integers, each ratio reduced by
one gcd; the CLI prints those integers as they are, and :func:`gap_record`
wraps the same row in Fractions for ``verify`` and ``scaling``.  Floats are
rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

BRANCH_LOW = "delta<1/2"      # gap = (1 - 2 delta)/N
BRANCH_HIGH = "delta>1/2"     # gap = (2 delta - 1)/N
BRANCH_DEGENERATE = "degenerate"
BRANCH_EDGE = "edge"          # gamma >= 1: gap = gamma - 1 + 1/N


class GapRecord(NamedTuple):
    """One (N, gamma) result row: delta is the fractional offset of
    gamma*N/2 from the grid; gap is None on a degenerate crossing."""

    size: int
    gamma: Fraction
    delta: Fraction
    branch: str
    gap: Optional[Fraction]
    excited_tied: bool = False


def exact_row(size: int, p: int, q: int) -> tuple[str, int, int, int, int]:
    """The row of (N, gamma = p/q) in integers: (branch, delta numerator,
    delta denominator, gap numerator, gap denominator), each ratio in lowest
    terms, the gap 0/1 on a degenerate crossing.

    delta = r/(2q) from the one residue r, and gap = |q - r|/(q*N), or
    ((p - q)*N + q)/(q*N) on the edge branch, p >= q (module docstring);
    assumes N >= 1 and p >= 0, which :func:`gap_record` checks.
    """
    two_q = q + q
    r = (p * size + (size & 1) * q) % two_q
    g = gcd(r, two_q)
    den = q * size
    if p >= q:
        num, branch = (p - q) * size + q, BRANCH_EDGE
    else:
        num = abs(q - r)
        branch = BRANCH_LOW if r < q else BRANCH_HIGH if r > q else BRANCH_DEGENERATE
    h = gcd(num, den)
    return branch, r // g, two_q // g, num // h, den // h


def gap_record(size: int, gamma) -> GapRecord:
    """Result row for one (N, gamma); degenerate crossings are kept, flagged.

    :func:`exact_row` in Fractions: the gap is |1 - 2*delta|/N = |q - r|/(q*N)
    from the one residue r, or gamma - 1 + 1/N on the edge branch.
    """
    if isinstance(gamma, int):
        gamma = Fraction(gamma)
    elif not isinstance(gamma, Fraction):
        raise TypeError(
            f"gamma must be an exact rational (Fraction or int), got {type(gamma).__name__}; "
            f'build one with Fraction("p/q")'
        )
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    p, q = gamma.numerator, gamma.denominator
    if p < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    branch, delta_num, delta_den, gap_num, gap_den = exact_row(size, p, q)
    delta = Fraction(delta_num, delta_den)
    if branch == BRANCH_DEGENERATE:
        return GapRecord(size, gamma, delta, branch, None)
    tied = delta_num == 0 and branch != BRANCH_EDGE
    return GapRecord(size, gamma, delta, branch, Fraction(gap_num, gap_den), tied)
