"""Exact diagonalization in the maximal total-spin sector.

The collective Hamiltonian restricted to total spin S = N/2 acts on the
(N+1)-dimensional ladder basis |m>, m = -S..S, as a symmetric tridiagonal
matrix:

    diag[m]          = -(S(S+1) - m**2)/N - gamma*m
    offdiag[m, m+1]  = -(h/2) * sqrt((S - m)(S + m + 1))

The off-diagonal sign is a gauge choice (a diagonal +-1 similarity flips
it), which the test suite checks explicitly.  Only the bottom of the
spectrum is ever needed, so eigenvalues come from Sturm-count bisection
(no factorization).

The low eigenvectors live in a well of width ~sqrt(N) around the row where
the Gershgorin lower edge diag_i - |e_(i-1)| - |e_i| is smallest (N times
the classical energy density at cos(theta) = m/S, up to O(1)).  So each
eigenvalue is bisected with Sturm counts over a window of
2*(8*isqrt(N) + 16) + 1 rows centred there, starting from the whole
matrix's bracket, tolerance and pivmin.  The final bracket [lo, hi] of
eigenvalue k (0-based) is then certified with two counts over all N+1
rows: count(lo) <= k and count(hi) >= k+1 put that eigenvalue in
[lo, hi), whatever the window held.  The floating-point Sturm count is
monotone in the shift (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995),
so a passing certificate also means every window decision equals the
whole-matrix decision at the same shift: the bracket, and the eigenvalue,
are bit for bit those of whole-matrix bisection.  A failed certificate
doubles the half-width and bisects that eigenvalue again; a window
covering every row is whole-matrix bisection and needs no certificate.  A
lowest pair then costs about 100 window sweeps plus four full sweeps,
instead of about 100 full sweeps.

The Sturm recurrence is a Python loop over Python floats, so the rows are
tuples of floats, built by comprehensions and scanned by plain loops; no
array library is loaded.  Each entry, the norm bound and each Gershgorin
edge is the IEEE double result of the formulas above with their operands
in the order written, and one pass over the rows yields the norm bound,
the well's centre and the largest coupling.  The Sturm counts square the
couplings, so a field whose squared norm bound overflows a double is
rejected when the matrix is built.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .errors import XYGapError
from .field import FieldPoint

_SAFMIN = 2.2250738585072014e-308


class SectorHamiltonian(NamedTuple):
    size: int
    diag: tuple[float, ...]      # length N+1, entry per m = -N/2 .. N/2
    offdiag: tuple[float, ...]   # length N, couples m and m+1


def build_sector_hamiltonian(size: int, point: FieldPoint) -> SectorHamiltonian:
    """The sector matrix at ``point``; ValueError when its squared norm bound
    is not a finite double, where the Sturm counts would overflow."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n = size
    half = n / 2.0
    s_sq = n * (n + 2) / 4.0  # S(S+1)
    gamma = point.gamma
    diag = tuple([-(s_sq - m * m) / n - gamma * m for i in range(n + 1) for m in (i - half,)])
    scale = -(point.h / 2.0)
    sqrt = math.sqrt
    # (S - m)(S + m + 1) at m = j - S is the integer (n - j)(j + 1), converted
    # with one rounding.  It is unchanged by j -> n - 1 - j and largest at
    # j = (n - 1)//2, so the first half, up to that largest coupling, is
    # computed and mirrored.
    first = [scale * sqrt((n - j) * (j + 1)) for j in range((n + 1) // 2)]
    offdiag = (*first, *reversed(first[:n // 2]))
    ham = SectorHamiltonian(size=n, diag=diag, offdiag=offdiag)
    # Every row sum is at most (max|d| + max|e|) + max|e| (rounding is
    # monotone), so the row pass runs only when that bound's square overflows.
    d_max = max(max(diag), -min(diag))
    e_max = abs(first[-1])
    cap = (d_max + e_max) + e_max
    if not math.isfinite(cap * cap):
        bound = norm_bound(ham)
        if not math.isfinite(bound * bound):
            raise ValueError(
                f"field gamma={point.gamma!r}, h={point.h!r} is too large at N={n}: "
                "the squared norm bound of the sector matrix overflows a double"
            )
    return ham


def norm_bound(ham: SectorHamiltonian) -> float:
    """Max row sum of absolute values, (|d_i| + |e_i|) + |e_(i-1)|; cheap and
    sufficient for tolerances."""
    return _gershgorin(ham)[0]


def _gershgorin(ham: SectorHamiltonian) -> tuple[float, int, float]:
    """One pass over the rows: the norm bound, the first row of the lowest
    Gershgorin lower edge (d_i - |e_i|) - |e_(i-1)|, and max |e|."""
    diag = ham.diag
    norm = off_max = 0.0
    lowest = math.inf
    centre = 0
    prev = 0.0  # |e_(i-1)|, nothing above the first row
    for i, e in enumerate(ham.offdiag):
        a = abs(e)
        d = diag[i]
        row = (abs(d) + a) + prev
        if row > norm:
            norm = row
        edge = (d - a) - prev
        if edge < lowest:
            lowest, centre = edge, i
        if a > off_max:
            off_max = a
        prev = a
    d = diag[-1]  # the last row has no coupling below it
    norm = max(norm, abs(d) + prev)
    if d - prev < lowest:
        centre = len(diag) - 1
    return norm, centre, off_max


def _sturm_count(diag, off_sq, shift: float, pivmin: float) -> int:
    """Number of eigenvalues strictly below ``shift`` (LAPACK-style recurrence).

    ``off_sq[i]`` is the squared coupling of rows i-1 and i; ``off_sq[0]``
    must be 0.0, which makes the first pivot exactly ``diag[0] - shift``.
    Pivots smaller in magnitude than ``pivmin`` are replaced by -pivmin.
    """
    count = 0
    q = 1.0
    for d, e2 in zip(diag, off_sq):
        q = d - shift - e2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _bisect(diag, off_sq, index: int, lo: float, hi: float,
            tol: float, pivmin: float) -> tuple[float, float]:
    """Shrink [lo, hi] around eigenvalue ``index`` (0-based) to width <= tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _sturm_count(diag, off_sq, mid, pivmin) > index:
            hi = mid
        else:
            lo = mid
    return lo, hi


def lowest_eigenvalues(ham: SectorHamiltonian, k: int) -> list[float]:
    """The k smallest eigenvalues by windowed Sturm-count bisection, ascending.

    Each eigenvalue is the midpoint of a bracket of width <= 1e-15 times the
    norm bound whose ends carry certified whole-matrix Sturm counts
    (module docstring), comfortably below the 1e-13 relative / 1e-14 * norm
    absolute accuracy contract.
    """
    n = ham.size
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must lie in 1..{n + 1}, got {k}")
    norm, centre, offmax = _gershgorin(ham)
    span = max(norm, 1.0)  # scales the start bracket and the tolerance
    diag = ham.diag
    off_sq = [0.0, *map(mul, ham.offdiag, ham.offdiag)]
    # rounding is monotone, so max(e_i**2) rounds to the square of max |e_i|
    pivmin = _SAFMIN * max(1.0, offmax * offmax)
    lo0 = min(diag) - (offmax * 2 + 1e-3 * span)
    hi0 = max(diag) + (offmax * 2 + 1e-3 * span)
    tol = 1e-15 * span
    half = 8 * math.isqrt(n) + 16
    values = []
    for index in range(k):
        while True:
            first, stop = max(centre - half, 0), min(centre + half + 1, n + 1)
            lo, hi = _bisect(diag[first:stop], [0.0, *off_sq[first + 1:stop]],
                             index, lo0, hi0, tol, pivmin)
            if (stop - first == n + 1
                    or (_sturm_count(diag, off_sq, lo, pivmin) <= index
                        and _sturm_count(diag, off_sq, hi, pivmin) > index)):
                break
            half *= 2
        values.append(0.5 * (lo + hi))
    for below, above in zip(values, values[1:]):
        if above - below < -1e-13 * span:
            raise XYGapError(f"eigenvalue ordering violated: step {above - below:.3e}")
    return values


def finite_gap_numeric(size: int, point: FieldPoint) -> float:
    """E1 - E0 for the finite system; the numerical route used when h != 0."""
    e0, e1 = lowest_eigenvalues(build_sector_hamiltonian(size, point), 2)
    return max(e1 - e0, 0.0)
