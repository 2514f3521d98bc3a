"""Exact diagonalization in the maximal total-spin sector.

The collective Hamiltonian restricted to total spin S = N/2 acts on the
(N+1)-dimensional ladder basis |m>, m = -S..S, as a symmetric tridiagonal
matrix:

    diag[m]          = -(S(S+1) - m**2)/N - gamma*m
    offdiag[m, m+1]  = -(h/2) * sqrt((S - m)(S + m + 1))

The off-diagonal sign is a gauge choice (a diagonal +-1 similarity flips
it), which the test suite checks explicitly.  Only the bottom of the
spectrum is ever needed, so eigenvalues come from Sturm-count bisection
(no factorization), and a solve costs O(sqrt(N)) time and memory: only
about 16*sqrt(N) rows are ever built.  Row i (0-based, m = i - N/2) has
diagonal d_i and coupling e_i to row i+1 (e_-1 = e_N = 0); a_i = |e_i|.

Bisection.  Eigenvalue k (0-based) is bisected from the start bracket
[min d - (2 max a + s/1000), max d + (2 max a + s/1000)], s = max(norm
bound, 1), with the norm bound max_i (|d_i| + a_i) + a_(i-1), down to
width 1e-15*s; it is the bracket's midpoint.  The result is by definition
that of bisection with counts over all N+1 rows; the rest of this
docstring shows how it is reached without visiting them.

Sturm count.  Row i's pivot is q_i = (d_i - x) - e_(i-1)**2/q_(i-1), each
operation one IEEE rounding, and the count of eigenvalues below x is the
number of pivots below pivmin = SAFMIN*max(1, max a**2), each of which is
then clamped to at most -pivmin (LAPACK's dstebz; Kahan 1966; Barth,
Martin & Wilkinson 1967).  Every pivot is finite and at least pivmin in
magnitude.  Lift the state after a row, the count c so far and the pivot
q, to L = c*pi + atan(1/q).  The next row maps it to L' = c*pi +
acot(q'), since c' = c + [q' < 0], and L' is non-decreasing in L, across
sign changes of q included: within one count L rises as q runs from 0-
down to -inf and from +inf down to 0+; on each sign of q the subtracted
e**2/q falls as q grows, so along that run q' falls and acot(q') rises;
and negative q give q' >= fl(d - x) >= the q' of any positive q.  The
clamp moves q' only within (-pivmin, pivmin) and keeps its order, and
counts differ by a whole pi while |atan| < pi/2, so the map is monotone
across counts too.  It is also monotone in the shift, since fl(d - x)
falls as x rises.  Hence the count is monotone in x (so a bisection whose
final lo and hi carry whole-matrix counts <= k and > k made every
whole-matrix decision, bit for bit), and monotone in the pivot a block of
rows is entered with, where q = +inf (L = 0, first pivot exactly
fl(d - x)) means entered decoupled.

Rows on demand.  Each row is the same expression of the same doubles
whether built alone or in the whole matrix.  The whole-row quantities
(norm bound, min and max d, max a, and the centre: the first row of the
lowest Gershgorin lower edge g_i = (d_i - a_i) - a_(i-1)) come from block
enclosures.  d_i = fl(A(m) - B(m)) with A(m) = -(S(S+1) - m*m)/N, which
each rounding keeps non-decreasing in |m|, and B(m) = gamma*m,
non-decreasing in m; a_j is the square root of the integer (N - j)(j +
1), which rises to j = (N-1)//2 and mirrors after it.  Rounding is
monotone, so on rows p..r the same float operations at the block's ends
(and at m = 0, or the largest coupling, when the block holds it) bound
every computed d_i, a_i, g_i and row sum, exactly: fl(A_lo - B_hi) <= d_i
<= fl(A_hi - B_lo), and so on.  A depth-first search splits the blocks
whose bound could hold the extremum and scans blocks of at most 32 rows
one by one, so it returns the computed extremum itself, and the first row
that attains it.  max a is the coupling at j = (N-1)//2.  Rounding is
also symmetric, so each row sum (|d_i| + a_i) + a_(i-1) is at least -g_i,
and equal to it where d_i <= 0: the norm bound is the larger of -min g
and the largest row sum over rows with d_i > 0, a search that skips every
block whose d stays <= 0.  A field whose squared norm bound overflows a
double is rejected (the Sturm counts square the couplings).

Window and local certificate.  Bisection runs on the 2*(8*isqrt(N) +
16) + 1 rows centred on the centre row, entered decoupled; the low
eigenvectors live in a well of width ~sqrt(N) around it.  The bracket of
each eigenvalue k is then certified without the outside rows: count(lo)
<= k and count(hi) > k over all N+1 rows.
  - Outside rows.  Each row i outside the window must pass the pivot
    floor: P_i = fl(fl(d_i - x) - fl(fl(a_(i-1)**2)/a_(i-1))) >=
    max(a_i, pivmin) (the floating-point form of g_i >= x; a term with
    a_(i-1) = 0 is 0).  Checked by the same enclosures, P_i >= fl(fl(d_lo
    - x) - fl(fl(a_hi**2)/a_lo)), at the largest hi: P_i falls as x
    rises.  By induction, a pivot q_(i-1) >= a_(i-1) makes q_i >= P_i, so
    rows before the window add no count and hand it a pivot q >= a_(f-1)
    (f the first window row); and a row entered with a negative pivot has
    q_i >= fl(d_i - x) >= P_i, so the rows after the window add no count
    when the window's last pivot is negative or >= a_(t-1) (t - 1 the last
    window row).
  - The sandwich.  By the lift's monotonicity, the window entered
    decoupled (q = +inf) ends at or below the true state and entered at q
    = a_(f-1) at or above it; if that end pivot passes the rule above,
    its count is the count of all rows from that state.  So count(hi) is
    at least the decoupled window count at hi, and count(lo) at most the
    window count entered at a_(f-1) at lo.
  - If any check fails, the half-width doubles and the window is
    bisected again; a window covering every row is whole-matrix bisection
    and needs no certificate.

Sweeps.  Eigenvalues whose brackets still coincide share each count:
the lowest pair follows one path while the count at the midpoint is 0 or
>= 2 and splits at the first count of 1, with the brackets single-value
bisection would reach.  On the benchmark's fields a lowest pair costs
84-95 window sweeps plus four for the certificate, where it took 102-104
window sweeps and four whole-matrix sweeps.  Bisection reads a count only
through min(count, k): it compares the count with the first index of the
eigenvalues sharing a bracket and with one past their last, at most k,
and splits the group at a count between them.  When every squared
coupling of the window is 0.0 (h = 0, or squares that underflow), each
pivot differs from fl(d_i - x) at most in the sign of a zero, since
e**2/q = +-0.0 with q never 0, so a row counts iff fl(d_i - x) < pivmin.
Rounding keeps that test monotone in d_i, so the counting rows are those
with the smallest diagonal entries, equal entries together: on decoupled
rows the Sturm count is a rank of the diagonal (Kahan 1966; Barth, Martin
& Wilkinson 1967).  min(count, k) is then the number of the k smallest
entries that count, O(k) per step instead of a sweep; it equals the
sweep's min(count, k) exactly, so the path, the brackets and the
certificate are unchanged.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import XYGapError
from .field import FieldPoint

_SAFMIN = 2.2250738585072014e-308
_LEAF = 32  # the enclosure searches scan blocks of at most this many rows


class SectorHamiltonian(NamedTuple):
    """Every row of a symmetric tridiagonal matrix: the sector matrix from
    build_sector_hamiltonian, the oracle for the rows computed on demand, or
    any other matrix lowest_eigenvalues should solve."""

    size: int
    diag: tuple[float, ...]      # length N+1, entry per m = -N/2 .. N/2
    offdiag: tuple[float, ...]   # length N, couples m and m+1

    def summary(self) -> tuple[float, int, float, float, float]:
        """One pass over the rows: the norm bound, the centre row, max |e|,
        min d and max d (module docstring)."""
        diag = self.diag
        norm = off_max = 0.0
        lowest = math.inf
        centre = 0
        prev = 0.0  # |e_(i-1)|, nothing above the first row
        for i, e in enumerate(self.offdiag):
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
        return norm, centre, off_max, min(diag), max(diag)

    def rows(self, first: int, stop: int) -> tuple[list[float], list[float]]:
        """Rows first..stop-1: their diagonal, and the couplings e_(first-1)
        .. e_(stop-1), 0.0 beyond the matrix."""
        off = self.offdiag
        inner = off[first:stop - 1]
        return list(self.diag[first:stop]), [
            off[first - 1] if first else 0.0, *inner, off[stop - 1] if stop <= self.size else 0.0
        ]

    def outside_rows_clear(self, first: int, stop: int, shift: float, pivmin: float) -> bool:
        """Whether every row outside first..stop-1 passes the pivot floor at
        ``shift`` (module docstring)."""
        return all(_pivot_floor_ok(*self.rows(p, r), shift, pivmin)
                   for p, r in ((0, first), (stop, self.size + 1)) if p < r)


class SectorMatrix(NamedTuple):
    """The sector matrix at ``point``, each row computed when asked for, with
    the whole-row quantities bisection needs; made by sector_matrix."""

    size: int
    point: FieldPoint
    norm: float     # the norm bound
    centre: int     # first row of the lowest Gershgorin lower edge
    offmax: float   # max |e|
    dmin: float
    dmax: float

    def summary(self) -> tuple[float, int, float, float, float]:
        return self.norm, self.centre, self.offmax, self.dmin, self.dmax

    def rows(self, first: int, stop: int) -> tuple[list[float], list[float]]:
        """As SectorHamiltonian.rows, each entry the same double."""
        return _rows(self.size, self.point, first, stop)

    def outside_rows_clear(self, first: int, stop: int, shift: float, pivmin: float) -> bool:
        """As SectorHamiltonian.outside_rows_clear, from block enclosures:
        rows are visited only in blocks whose bound does not pass."""
        n, point = self.size, self.point
        blocks = [(p, r) for p, r in ((0, first), (stop, n + 1)) if p < r]
        while blocks:
            p, r = blocks.pop()
            d_lo, _, _, below_hi, above_lo, above_hi = _enclose(n, point, p, r)
            if above_lo:
                quotient = above_hi * above_hi / above_lo
            else:
                quotient = math.inf if above_hi else 0.0
            if d_lo - shift - quotient >= max(below_hi, pivmin):
                continue
            if r - p <= _LEAF:
                if not _pivot_floor_ok(*_rows(n, point, p, r), shift, pivmin):
                    return False
            else:
                mid = (p + r) // 2
                blocks += [(p, mid), (mid, r)]
        return True


def _diag(n: int, point: FieldPoint, first: int, stop: int) -> list[float]:
    half = n / 2.0
    s_sq = n * (n + 2) / 4.0  # S(S+1)
    gamma = point.gamma
    return [-(s_sq - m * m) / n - gamma * m for i in range(first, stop) for m in (i - half,)]


def _couplings(n: int, point: FieldPoint, first: int, stop: int) -> list[float]:
    """e_(first-1) .. e_(stop-1).  (S - m)(S + m + 1) at m = j - S is the
    integer (n - j)(j + 1), converted with one rounding; it is 0 at j = -1
    and j = n."""
    scale = -(point.h / 2.0)
    if not scale:  # h = 0: each product of the signed zero is that zero
        return [scale] * (stop - first + 1)
    sqrt = math.sqrt
    return [scale * sqrt((n - j) * (j + 1)) for j in range(first - 1, stop)]


def _rows(n: int, point: FieldPoint, first: int, stop: int) -> tuple[list[float], list[float]]:
    return _diag(n, point, first, stop), _couplings(n, point, first, stop)


def _enclose(n: int, point: FieldPoint, p: int, r: int):
    """Bounds on rows p..r-1 of the computed d_i, a_i and a_(i-1):
    (d_lo, d_hi, below_lo, below_hi, above_lo, above_hi)."""
    half = n / 2.0
    s_sq = n * (n + 2) / 4.0
    gamma = point.gamma
    scale = abs(point.h / 2.0)
    sqrt = math.sqrt
    m_p, m_r = p - half, (r - 1) - half
    m_0 = m_p if m_p > 0 else m_r if m_r < 0 else 0.0  # the m nearest 0
    curv_lo = -(s_sq - m_0 * m_0) / n
    curv_hi = max(-(s_sq - m_p * m_p) / n, -(s_sq - m_r * m_r) / n)
    # a_j at j = p - 1, p, r - 2 and r - 1, and at the peak
    a_above, a_first = scale * sqrt((n - p + 1) * p), scale * sqrt((n - p) * (p + 1))
    a_before, a_last = scale * sqrt((n - r + 2) * (r - 1)), scale * sqrt((n - r + 1) * r)
    peak = (n - 1) // 2
    top = scale * sqrt((n - peak) * (peak + 1))
    below_hi = top if p <= peak < r else a_first if peak < p else a_last
    above_hi = top if p - 1 <= peak < r - 1 else a_above if peak < p - 1 else a_before
    return (curv_lo - gamma * m_r, curv_hi - gamma * m_p,
            min(a_first, a_last), below_hi, min(a_above, a_before), above_hi)


def _pivot_floor_ok(diag, coup, shift: float, pivmin: float) -> bool:
    """Whether each row i of ``diag``, entered with pivot a_(i-1), hands on
    a pivot of at least max(a_i, pivmin); ``coup`` as the rows methods."""
    above = abs(coup[0])
    for i, d in enumerate(diag, 1):
        below = abs(coup[i])
        quotient = above * above / above if above else 0.0
        if d - shift - quotient < max(below, pivmin):
            return False
        above = below
    return True


def _first_min(rows: int, bound, exact, best: float = math.inf) -> tuple[float, int]:
    """The least value over rows 0..rows-1 and the first row holding it, or
    (``best``, rows) when none is below ``best``.  ``bound(p, r)`` is at most
    every value in rows p..r-1 and ``exact(p, r)`` lists those values; a
    depth-first search splits each block that can hold a value <= the best,
    the half with the lower bound first, and scans it once small."""
    where = rows
    blocks = [(bound(0, rows), 0, rows)]
    while blocks:
        low, p, r = blocks.pop()
        if low > best:
            continue
        if r - p <= _LEAF:
            for i, value in enumerate(exact(p, r), p):
                if value < best or (value == best and i < where):
                    best, where = value, i
        else:
            mid = (p + r) // 2
            blocks += sorted([(bound(p, mid), p, mid), (bound(mid, r), mid, r)], reverse=True)
    return best, where


def sector_matrix(size: int, point: FieldPoint) -> SectorMatrix:
    """The sector matrix at ``point`` with rows on demand; ValueError when
    its squared norm bound is not a finite double, where the Sturm counts
    would overflow."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n = size
    rows = n + 1

    def enclose(p, r):
        return _enclose(n, point, p, r)

    def diagonal(p, r):
        return _diag(n, point, p, r)

    dmin = _first_min(rows, lambda p, r: enclose(p, r)[0], diagonal)[0]
    dmax = -_first_min(rows, lambda p, r: -enclose(p, r)[1],
                       lambda p, r: [-d for d in diagonal(p, r)])[0]
    peak = (n - 1) // 2
    offmax = abs(-(point.h / 2.0) * math.sqrt((n - peak) * (peak + 1)))
    centre, norm = 0, math.inf  # an infinite |d| or |e| makes the norm bound infinite
    if math.isfinite(max(dmax, -dmin, offmax)):
        def edges(p, r):
            diag, coup = _rows(n, point, p, r)
            return [(d - abs(coup[i])) - abs(coup[i - 1]) for i, d in enumerate(diag, 1)]

        def edge_bound(p, r):
            d_lo, _, _, below_hi, _, above_hi = enclose(p, r)
            return (d_lo - below_hi) - above_hi

        def positive_row_sums(p, r):  # negated, so the search finds the largest
            diag, coup = _rows(n, point, p, r)
            return [-((d + abs(coup[i])) + abs(coup[i - 1])) if d > 0 else math.inf
                    for i, d in enumerate(diag, 1)]

        def positive_row_sum_bound(p, r):
            _, d_hi, _, below_hi, _, above_hi = enclose(p, r)
            return -((d_hi + below_hi) + above_hi) if d_hi > 0 else math.inf

        lowest, centre = _first_min(rows, edge_bound, edges)
        norm = -_first_min(rows, positive_row_sum_bound, positive_row_sums, lowest)[0]
    if not math.isfinite(norm * norm):
        raise ValueError(
            f"field gamma={point.gamma!r}, h={point.h!r} is too large at N={n}: "
            "the squared norm bound of the sector matrix overflows a double"
        )
    return SectorMatrix(n, point, norm, centre, offmax, dmin, dmax)


def build_sector_hamiltonian(size: int, point: FieldPoint) -> SectorHamiltonian:
    """Every row of the sector matrix at ``point``; ValueError as
    sector_matrix."""
    diag, coup = sector_matrix(size, point).rows(0, size + 1)
    return SectorHamiltonian(size=size, diag=tuple(diag), offdiag=tuple(coup[1:-1]))


def norm_bound(ham) -> float:
    """Max row sum of absolute values, (|d_i| + |e_i|) + |e_(i-1)|; cheap and
    sufficient for tolerances."""
    return ham.summary()[0]


def _sturm_count(diag, off_sq, shift: float, pivmin: float, q: float = 1.0) -> tuple[int, float]:
    """The number of pivots below ``pivmin`` and the last pivot (module
    docstring): with ``off_sq[0]`` = 0.0 the count of eigenvalues of these
    rows strictly below ``shift``; with the squared coupling into the first
    row there and its entering pivot ``q``, their count entered at ``q``."""
    count = 0
    for d, e2 in zip(diag, off_sq):
        q = d - shift - e2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count, q


def _bisect(diag, off_sq, k: int, lo: float, hi: float,
            tol: float, pivmin: float) -> list[tuple[float, float]]:
    """Shrink [lo, hi] around eigenvalues 0..k-1 to width <= tol each, every
    bracket the one bisecting that eigenvalue alone reaches: eigenvalues
    whose brackets coincide share each count, and part where it falls
    between them.  The bisection reads only min(count, k); on decoupled
    rows the k smallest diagonal entries give it (module docstring)."""
    if any(off_sq):
        def count_below(shift: float) -> int:
            return _sturm_count(diag, off_sq, shift, pivmin)[0]
    else:
        smallest = sorted(diag)[:k]

        def count_below(shift: float) -> int:
            count = 0
            for d in smallest:
                if d - shift >= pivmin:
                    break
                count += 1
            return count

    brackets: list[tuple[float, float]] = [(lo, hi)] * k
    groups = [(0, k, lo, hi)]  # eigenvalues first..stop-1 share [lo, hi]
    while groups:
        first, stop, lo, hi = groups.pop()
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            count = count_below(mid)
            if count <= first:
                lo = mid
            elif count >= stop:
                hi = mid
            else:
                groups.append((count, stop, mid, hi))
                stop, hi = count, mid
        brackets[first:stop] = [(lo, hi)] * (stop - first)
    return brackets


def _certified(ham, first: int, stop: int, diag, off_sq, coup, brackets, pivmin: float) -> bool:
    """Whether each bracket's ends carry whole-matrix counts <= and > its
    eigenvalue's index, from the window rows and the outside rows' pivot
    floor (module docstring)."""
    if not ham.outside_rows_clear(first, stop, max(hi for _, hi in brackets), pivmin):
        return False
    enter, leave = abs(coup[0]), abs(coup[-1])
    entered = [enter * enter, *off_sq[1:]]

    def count(shift, upper):
        if upper and enter:
            rows_count, q = _sturm_count(diag, entered, shift, pivmin, enter)
        else:
            rows_count, q = _sturm_count(diag, off_sq, shift, pivmin)
        return rows_count if q < 0.0 or q >= leave else None

    for index, (lo, hi) in enumerate(brackets):
        at_most = count(lo, True)
        if at_most is None or at_most > index:
            return False
        at_least = count(hi, False)
        if at_least is None or at_least <= index:
            return False
    return True


def lowest_eigenvalues(ham, k: int) -> list[float]:
    """The k smallest eigenvalues of ``ham`` (a SectorMatrix or a
    SectorHamiltonian) by windowed Sturm-count bisection, ascending.

    Each eigenvalue is the midpoint of a bracket of width <= 1e-15 times the
    norm bound whose ends carry certified whole-matrix Sturm counts
    (module docstring), comfortably below the 1e-13 relative / 1e-14 * norm
    absolute accuracy contract.
    """
    n = ham.size
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must lie in 1..{n + 1}, got {k}")
    norm, centre, offmax, dmin, dmax = ham.summary()
    span = max(norm, 1.0)  # scales the start bracket and the tolerance
    # rounding is monotone, so max(e_i**2) rounds to the square of max |e_i|
    pivmin = _SAFMIN * max(1.0, offmax * offmax)
    lo0 = dmin - (offmax * 2 + 1e-3 * span)
    hi0 = dmax + (offmax * 2 + 1e-3 * span)
    tol = 1e-15 * span
    half = 8 * math.isqrt(n) + 16
    while True:
        first, stop = max(centre - half, 0), min(centre + half + 1, n + 1)
        if stop - first < k:  # the window's counts cannot reach eigenvalue k - 1
            half *= 2
            continue
        diag, coup = ham.rows(first, stop)
        off_sq = [0.0, *[e * e for e in coup[1:-1]]]
        brackets = _bisect(diag, off_sq, k, lo0, hi0, tol, pivmin)
        if (stop - first == n + 1
                or _certified(ham, first, stop, diag, off_sq, coup, brackets, pivmin)):
            break
        half *= 2
    values = [0.5 * (lo + hi) for lo, hi in brackets]
    for below, above in zip(values, values[1:]):
        if above - below < -1e-13 * span:
            raise XYGapError(f"eigenvalue ordering violated: step {above - below:.3e}")
    return values


def finite_gap_numeric(size: int, point: FieldPoint) -> float:
    """E1 - E0 for the finite system; the numerical route used when h != 0."""
    e0, e1 = lowest_eigenvalues(sector_matrix(size, point), 2)
    return max(e1 - e0, 0.0)
