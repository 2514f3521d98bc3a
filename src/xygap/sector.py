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
about 8*sqrt(N) rows are ever built.  Row i (0-based, m = i - N/2) has
diagonal d_i and coupling e_i to row i+1 (e_-1 = e_N = 0); a_i = |e_i|.

Bisection.  Eigenvalue k (0-based) is bisected from the start bracket
[dmin - (2 max a + s/1000), dmax + (2 max a + s/1000)], s = max(norm
bound, 1), down to width 1e-15*s; it is the bracket's midpoint.  With dmin
and dmax the extreme diagonal entries and the norm bound at least the
row-sum norm max_i (|d_i| + a_i) + a_(i-1), Gershgorin puts every
eigenvalue inside the bracket.  The result is by definition that of
bisection with counts over all N+1 rows from that bracket; the rest of
this docstring shows how it is reached without visiting them.

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
whether built alone or in the whole matrix.  An explicit matrix
(SectorHamiltonian) takes its summary from one pass over its rows, the
sector matrix from closed forms.  d is a convex parabola in m with its
vertex at m* = gamma*N/2: dmin is the smaller d of the at most two rows
next to m*, clamped to the grid, and dmax the larger of the two end rows.
Rounding could reorder only rows whose exact d agree to a few ulps, far
inside the bracket's s/1000, and at the extremes of every tested field it
does not.  max a is a_j at j = (N-1)//2, a_j being the square root of the
integer (N - j)(j + 1).  The norm bound (max(|dmin|, |dmax|) + max a) +
max a repeats each row sum's operations on operands at least as large, so
it is at least every row sum; at h = 0 it is max |d_i|.  The centre, a row
inside the ground-state well, is where the Gershgorin lower edge g_i =
(d_i - a_i) - a_(i-1) stops falling, by bisection on the sign of g_(i+1) -
g_i: g is a convex parabola minus a concave square root.  The certificate
below makes any centre safe.  A field whose squared norm bound overflows a
double is rejected (the Sturm counts square the couplings).

Window and local certificate.  Bisection runs on the 2*(4*isqrt(N) +
16) + 1 rows centred on the centre row, moved inside the matrix when the
centre lies nearer an end, entered decoupled; the low eigenvectors live in
a well of width ~sqrt(N) around it.  The bracket of each eigenvalue k is
then certified without the outside rows: count(lo) <= k and count(hi) > k
over all N+1 rows.
  - Outside rows.  Each row i outside the window must pass the pivot
    floor: P_i = fl(fl(d_i - x) - fl(fl(a_(i-1)**2)/a_(i-1))) >= max(a_i,
    pivmin) (the floating-point form of g_i >= x; a term with a_(i-1) = 0
    is 0).  d_i = fl(A(m) - B(m)) with A(m) = -(S(S+1) - m*m)/N, which
    each rounding keeps non-decreasing in |m|, and B(m) = gamma*m, and a_j
    rises to j = (N-1)//2 and mirrors after it.  So on rows p..r the same
    float operations at the block's ends (and at m = 0, or the largest
    coupling, when the block holds it) bound every computed d_i and a_i,
    and P_i >= fl(fl(d_lo - x) - fl(fl(a_hi**2)/a_lo)) at the largest hi
    (P_i falls as x rises); a block failing that is split, down to 32 rows
    checked one by one.  By induction, a pivot q_(i-1) >= a_(i-1) makes
    q_i >= P_i, so rows before the window add no count and hand it a pivot
    q >= a_(f-1) (f the first window row); and a row entered with a
    negative pivot has q_i >= fl(d_i - x) >= P_i, so the rows after the
    window add no count when the window's last pivot is negative or >=
    a_(t-1) (t - 1 the last window row).
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
82-94 window sweeps plus four for the certificate, where it took 102-104
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
_LEAF = 32  # outside_rows_clear checks blocks of at most this many rows row by row


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
    centre: int     # a row inside the ground-state well
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
            d_lo, below_hi, above_lo, above_hi = _enclose(n, point, p, r)
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
    (d_lo, below_hi, above_lo, above_hi)."""
    half = n / 2.0
    s_sq = n * (n + 2) / 4.0
    gamma = point.gamma
    scale = abs(point.h / 2.0)
    sqrt = math.sqrt
    m_p, m_r = p - half, (r - 1) - half
    m_0 = m_p if m_p > 0 else m_r if m_r < 0 else 0.0  # the m nearest 0
    curv_lo = -(s_sq - m_0 * m_0) / n
    # a_j at j = p - 1, p, r - 2 and r - 1, and at the peak
    a_above, a_first = scale * sqrt((n - p + 1) * p), scale * sqrt((n - p) * (p + 1))
    a_before, a_last = scale * sqrt((n - r + 2) * (r - 1)), scale * sqrt((n - r + 1) * r)
    peak = (n - 1) // 2
    top = scale * sqrt((n - peak) * (peak + 1))
    below_hi = top if p <= peak < r else a_first if peak < p else a_last
    above_hi = top if p - 1 <= peak < r - 1 else a_above if peak < p - 1 else a_before
    return curv_lo - gamma * m_r, below_hi, min(a_above, a_before), above_hi


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


def _half_width(size: int) -> int:
    """Half the width of the first bisection window (module docstring)."""
    return 4 * math.isqrt(size) + 16


def sector_matrix(size: int, point: FieldPoint) -> SectorMatrix:
    """The sector matrix at ``point`` with rows on demand and its summary
    from closed forms (module docstring); ValueError when its squared norm
    bound is not a finite double, where the Sturm counts would overflow."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n = size
    # the row of the vertex gamma*N/2, clamped to the grid before int() sees it
    vertex = int(min((point.gamma + 1.0) * (n / 2.0), float(n)))
    dmin = min(_diag(n, point, vertex, min(vertex + 2, n + 1)))
    dmax = max(_diag(n, point, 0, 1) + _diag(n, point, n, n + 1))
    peak = (n - 1) // 2
    offmax = abs(-(point.h / 2.0) * math.sqrt((n - peak) * (peak + 1)))
    norm = (max(abs(dmin), abs(dmax)) + offmax) + offmax  # rounds as the row sums
    if not math.isfinite(norm * norm):
        raise ValueError(
            f"field gamma={point.gamma!r}, h={point.h!r} is too large at N={n}: "
            "the squared norm bound of the sector matrix overflows a double"
        )
    lo, hi = 0, n  # the first row i < n where g_(i+1) >= g_i, else n
    while lo < hi:
        mid = (lo + hi) // 2
        diag, coup = _rows(n, point, mid, mid + 2)
        above, here, below = abs(coup[0]), abs(coup[1]), abs(coup[2])
        if (diag[1] - below) - here >= (diag[0] - here) - above:
            hi = mid
        else:
            lo = mid + 1
    return SectorMatrix(n, point, norm, lo, offmax, dmin, dmax)


def build_sector_hamiltonian(size: int, point: FieldPoint) -> SectorHamiltonian:
    """Every row of the sector matrix at ``point``; ValueError as
    sector_matrix."""
    diag, coup = sector_matrix(size, point).rows(0, size + 1)
    return SectorHamiltonian(size=size, diag=tuple(diag), offdiag=tuple(coup[1:-1]))


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
    half = _half_width(n)
    while True:
        first = max(min(centre - half, n - 2 * half), 0)
        stop = min(first + 2 * half + 1, n + 1)
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
