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
are bit for bit those of whole-matrix bisection.  A failed certificate doubles the half-width and bisects that
eigenvalue again; a window covering every row is whole-matrix bisection
and needs no certificate.  A lowest pair then costs about 100 window
sweeps plus four full sweeps, instead of about 100 full sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import FieldPoint
from .errors import XYGapError

_SAFMIN = 2.2250738585072014e-308


@dataclass(frozen=True)
class SectorHamiltonian:
    size: int
    diag: np.ndarray      # length N+1, entry per m = -N/2 .. N/2
    offdiag: np.ndarray   # length N, couples m and m+1


def build_sector_hamiltonian(size: int, point: FieldPoint) -> SectorHamiltonian:
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n = size
    i = np.arange(n + 1, dtype=float)
    m = i - n / 2.0
    s_sq = n * (n + 2) / 4.0  # S(S+1)
    diag = -(s_sq - m * m) / n - point.gamma * m
    j = np.arange(n, dtype=float)
    ladder = (n - j) * (j + 1.0)  # (S - m)(S + m + 1) at m = j - S
    offdiag = -(point.h / 2.0) * np.sqrt(ladder)
    diag.setflags(write=False)
    offdiag.setflags(write=False)
    return SectorHamiltonian(size=n, diag=diag, offdiag=offdiag)


def norm_bound(ham: SectorHamiltonian) -> float:
    """Max row sum of absolute values; cheap and sufficient for tolerances."""
    row = np.abs(ham.diag)
    row[:-1] += np.abs(ham.offdiag)
    row[1:] += np.abs(ham.offdiag)
    return float(row.max())


def _sturm_count(diag: list, off_sq: list, shift: float, pivmin: float) -> int:
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


def _bisect(diag: list, off_sq: list, index: int, lo: float, hi: float,
            tol: float, pivmin: float) -> tuple[float, float]:
    """Shrink [lo, hi] around eigenvalue ``index`` (0-based) to width <= tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _sturm_count(diag, off_sq, mid, pivmin) > index:
            hi = mid
        else:
            lo = mid
    return lo, hi


def lowest_eigenvalues(ham: SectorHamiltonian, k: int) -> np.ndarray:
    """The k smallest eigenvalues by windowed Sturm-count bisection, ascending.

    Each eigenvalue is the midpoint of a bracket of width <= 1e-15 times the
    norm bound whose ends carry certified whole-matrix Sturm counts
    (module docstring), comfortably below the 1e-13 relative / 1e-14 * norm
    absolute accuracy contract.
    """
    n = ham.size
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must lie in 1..{n + 1}, got {k}")
    span = max(norm_bound(ham), 1.0)  # scales the start bracket and the tolerance
    diag = ham.diag.tolist()
    off = np.abs(ham.offdiag)
    off_sq = [0.0, *(ham.offdiag * ham.offdiag).tolist()]
    offmax = float(off.max()) if n else 0.0
    pivmin = _SAFMIN * max(1.0, max(off_sq))
    lo0 = min(diag) - (offmax * 2 + 1e-3 * span)
    hi0 = max(diag) + (offmax * 2 + 1e-3 * span)
    tol = 1e-15 * span
    edge = ham.diag.copy()  # Gershgorin lower edges; the lowest marks the well
    edge[:-1] -= off
    edge[1:] -= off
    centre = int(np.argmin(edge))
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
    return np.array(values)


def finite_gap_numeric(size: int, point: FieldPoint) -> float:
    """E1 - E0 for the finite system; the numerical route used when h != 0."""
    ham = build_sector_hamiltonian(size, point)
    pair = lowest_eigenvalues(ham, 2)
    diff = float(pair[1] - pair[0])
    if diff < -1e-13 * max(norm_bound(ham), 1.0):
        raise XYGapError(f"eigenvalue ordering violated: gap {diff:.3e}")
    return max(diff, 0.0)
