"""Exact diagonalization in the maximal total-spin sector.

The collective Hamiltonian restricted to total spin S = N/2 acts on the
(N+1)-dimensional ladder basis |m>, m = -S..S, as a symmetric tridiagonal
matrix:

    diag[m]          = -(S(S+1) - m**2)/N - gamma*m
    offdiag[m, m+1]  = -(h/2) * sqrt((S - m)(S + m + 1))

The off-diagonal sign is a gauge choice (a diagonal +-1 similarity flips
it), which the test suite checks explicitly.  Only the bottom of the
spectrum is ever needed, so eigenvalues come from Sturm-count bisection
(no factorization) and the ground-state vector from shifted inverse
iteration.

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
from typing import Optional

import numpy as np

from .classical import FieldPoint
from .errors import DegenerateGroundStateError, XYGapError

DEGENERACY_RTOL = 1e-13   # isolation threshold, relative to the norm bound
RESIDUAL_RTOL = 1e-10

_SAFMIN = 2.2250738585072014e-308


@dataclass(frozen=True)
class SectorHamiltonian:
    size: int
    gamma: float
    h: float
    diag: np.ndarray      # length N+1, entry per m = -N/2 .. N/2
    offdiag: np.ndarray   # length N, couples m and m+1


@dataclass(frozen=True)
class SpectrumSlice:
    eigenvalues: np.ndarray
    vector: Optional[np.ndarray] = None


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
    return SectorHamiltonian(size=n, gamma=point.gamma, h=point.h, diag=diag, offdiag=offdiag)


def norm_bound(ham: SectorHamiltonian) -> float:
    """Max row sum of absolute values; cheap and sufficient for tolerances."""
    n = ham.size
    row = np.abs(ham.diag).copy()
    if n >= 1:
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


def _bisect_lowest(ham: SectorHamiltonian, k: int, span: float) -> np.ndarray:
    """The k smallest eigenvalues, each bisected on a certified window.

    ``span`` is ``max(norm_bound(ham), 1.0)``; it scales the start bracket
    and the tolerance.
    """
    n = ham.size
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


def lowest_eigenvalues(ham: SectorHamiltonian, k: int) -> SpectrumSlice:
    """The k smallest eigenvalues by windowed Sturm-count bisection, ascending.

    Each eigenvalue is the midpoint of a bracket of width <= 1e-15 times the
    norm bound whose ends carry certified whole-matrix Sturm counts
    (module docstring), comfortably below the 1e-13 relative / 1e-14 * norm
    absolute accuracy contract.
    """
    n = ham.size
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must lie in 1..{n + 1}, got {k}")
    return SpectrumSlice(eigenvalues=_bisect_lowest(ham, k, max(norm_bound(ham), 1.0)))


def _solve_shifted(diag: np.ndarray, off: np.ndarray, shift: float, rhs: np.ndarray,
                   pivmin: float) -> np.ndarray:
    """Solve (T - shift*I) x = rhs by tridiagonal LU with partial pivoting."""
    n = diag.size
    d = (diag - shift).astype(float)
    if n == 1:
        piv = d[0] if abs(d[0]) >= pivmin else pivmin
        return rhs / piv
    dl = off.astype(float).copy()
    du = off.astype(float).copy()
    du2 = np.zeros(max(n - 2, 0))
    swap = np.zeros(n - 1, dtype=bool)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if abs(d[i]) < pivmin:
                d[i] = pivmin
            fact = dl[i] / d[i]
            dl[i] = fact
            d[i + 1] -= fact * du[i]
            if i < n - 2:
                du2[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            dl[i] = fact
            tmp = du[i]
            du[i] = d[i + 1]
            d[i + 1] = tmp - fact * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
            swap[i] = True
    x = rhs.astype(float).copy()
    for i in range(n - 1):
        if swap[i]:
            x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
        else:
            x[i + 1] -= dl[i] * x[i]
    for i in range(n):
        if abs(d[i]) < pivmin:
            d[i] = pivmin
    x[n - 1] /= d[n - 1]
    x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x


def _residual(ham: SectorHamiltonian, lam: float, vec: np.ndarray) -> float:
    r = ham.diag * vec - lam * vec
    r[:-1] += ham.offdiag * vec[1:]
    r[1:] += ham.offdiag * vec[:-1]
    return float(np.linalg.norm(r))


def ground_state_vector(ham: SectorHamiltonian) -> SpectrumSlice:
    """Unit-norm ground state by inverse iteration at the bisection eigenvalue.

    Requires the lowest eigenvalue to be isolated from the second by more
    than DEGENERACY_RTOL times the norm bound; true crossings (h = 0 with
    the offset at exactly 1/2) raise :class:`DegenerateGroundStateError`.
    """
    span = max(norm_bound(ham), 1.0)
    pair = _bisect_lowest(ham, min(2, ham.size + 1), span)
    lam = float(pair[0])
    if len(pair) > 1 and pair[1] - lam <= DEGENERACY_RTOL * span:
        raise DegenerateGroundStateError(
            f"lowest eigenvalues separated by {pair[1] - lam:.3e} "
            f"at N={ham.size}, gamma={ham.gamma}, h={ham.h}"
        )
    pivmin = _SAFMIN * span
    rng = np.random.default_rng(20160923)
    vec = rng.standard_normal(ham.size + 1)
    vec /= np.linalg.norm(vec)
    tol = RESIDUAL_RTOL * span
    for _ in range(8):
        vec = _solve_shifted(ham.diag, ham.offdiag, lam, vec, pivmin)
        vec /= np.linalg.norm(vec)
        if _residual(ham, lam, vec) < 0.5 * tol:
            break
    if _residual(ham, lam, vec) >= tol:
        raise XYGapError(
            f"inverse iteration stalled at N={ham.size}, gamma={ham.gamma}, h={ham.h}"
        )
    lead = np.flatnonzero(np.abs(vec) > 1e-8)
    if lead.size and vec[lead[0]] < 0:
        vec = -vec
    vec.setflags(write=False)
    return SpectrumSlice(eigenvalues=pair, vector=vec)


def finite_gap_numeric(size: int, point: FieldPoint) -> float:
    """E1 - E0 for the finite system; the numerical route used when h != 0."""
    ham = build_sector_hamiltonian(size, point)
    pair = lowest_eigenvalues(ham, min(2, size + 1))
    if len(pair.eigenvalues) < 2:
        return 0.0
    diff = float(pair.eigenvalues[1] - pair.eigenvalues[0])
    if diff < -1e-13 * max(norm_bound(ham), 1.0):
        raise XYGapError(f"eigenvalue ordering violated: gap {diff:.3e}")
    return max(diff, 0.0)


def spectrum_csv_lines(spectrum: SpectrumSlice) -> list[str]:
    """Debug dump of the computed eigenvalues."""
    lines = ["index,eigenvalue"]
    for i, val in enumerate(spectrum.eigenvalues):
        lines.append(f"{i},{format(float(val), '.17g')}")
    return lines
