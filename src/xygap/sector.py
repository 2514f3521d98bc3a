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
inside the ground-state well, is where the convex Gershgorin lower edge
g_i = fl(fl(d_i - a_i) - a_(i-1)) (below) stops falling, by bisection on
the sign of g_(i+1) - g_i; the certificate makes any centre safe.  A field
whose squared norm bound overflows a double is rejected (the Sturm counts
square the couplings).

Window and local certificate.  Bisection runs on the 2*(4*isqrt(N) +
16) + 1 rows centred on the centre row, moved inside the matrix when the
centre lies nearer an end, entered decoupled; the low eigenvectors live in
a well of width ~sqrt(N) around it.  The bracket of each eigenvalue k is
then certified without the outside rows: count(lo) <= k and count(hi) > k
over all N+1 rows.
  - Outside rows.  Each row i outside the window must pass the pivot
    floor P_i = fl(fl(d_i - x) - fl(fl(a_(i-1)**2)/a_(i-1))) >= max(a_i,
    pivmin) (a term with a_(i-1) = 0 is 0).  By induction, a pivot
    q_(i-1) >= a_(i-1) makes q_i >= P_i, so rows before the window add no
    count and hand it a pivot q >= a_(f-1) (f the first window row); and a
    row entered with a negative pivot has q_i >= fl(d_i - x) >= P_i, so the
    rows after the window add no count when the window's last pivot is
    negative or >= a_(t-1) (t - 1 the last window row).  P_i falls as x
    rises, so only the largest bracket end is checked.  An explicit matrix
    checks each outside row; the sector matrix reads four.
  - Convex edge.  Starred values are exact for the doubles gamma and h.
    P_i - a_i is g*_i - x in exact arithmetic, and g*_i = d*_i - a*_i -
    a*_(i-1) is convex in i, a convex parabola minus two concave roots
    (a*_j = |h|/2*sqrt((N - j)(j + 1)), 0 at j = -1 and N).  So if g*
    rises from row f to row f - 1, each row before the window lies at
    least as high as row f - 1; after it, likewise from rows t - 1 and t.
    With M = 2**-48*(norm + |x| + 1) + pivmin, a side is clear when
    fl(g_(f-1) - g_f) >= M and fl(g_(f-1) - x) >= M (mirrored: g_t -
    g_(t-1) and g_t - x).
  - Margin.  Let u = 2**-53, r = S(S+1)/N and N < 2**53 (i, N and m
    exact).  _diag's six roundings leave |d_i - d*_i| <= 4u*r + 2u*|d*_i|,
    as |gamma*m| <= |d*_i| + r; _couplings' three |a_j - a*_j| <=
    2.5u*a*_j; fl(fl(a**2)/a) lies within 2u*a + 2**-537 of a; all up to
    O(u**2) and underflow, below 2**-536 each.  With D = max|d*_i| and A =
    max a*_j, the rows m = 0 or +-1/2 give r <= D + 1/4, and the closed
    forms, whose rows hold the exact extremes, D + 2A <= (1 + 10u)*norm +
    2u.  So |(P_i - a_i) - (g*_i - x)| <= 4u*(D + r) + 2u*|x| + 8u*A <=
    8u*(norm + |x| + 1) = E and |g_i - g*_i| <= 4u*(D + r) + 8u*A <=
    8u*(norm + 1) = E', up to O(u**2).  A test fl(y) >= M, M's three
    roundings included, gives y >= 31u*(norm + |x| + 1) + pivmin, so the
    slope test leaves g*_(f-1) - g*_f >= y - 2E' > 0 and the border test
    g*_(f-1) - x >= y - E' >= E + pivmin: every outside P_i - a_i >=
    pivmin, that is P_i >= max(a_i, pivmin).  E + E' needs 16u, rounded up
    to the power of two 32u; the 15u left cover the O(u**2) terms.
  - The sandwich.  By the lift's monotonicity, the window entered
    decoupled (q = +inf) ends at or below the true state and entered at q
    = a_(f-1) at or above it; if that end pivot passes the rule above,
    its count is the count of all rows from that state.  So count(hi) is
    at least the decoupled window count at hi, and count(lo) at most the
    window count entered at a_(f-1) at lo.
  - If any check fails, the half-width doubles and the window is
    bisected again; a window covering every row is whole-matrix bisection
    and needs no certificate.

Sweeps.  Eigenvalues whose brackets still coincide share each count: the
lowest pair follows one path while the count at the midpoint is 0 or >= 2
and splits at the first count of 1, with the brackets single-value
bisection would reach.  On the benchmark's fields a lowest pair costs
82-94 window sweeps plus four for the certificate.  Bisection reads a
count only through min(count, k): it compares the count with the first
index of the eigenvalues sharing a bracket and with one past their last,
at most k, and splits the group at a count between them.  When every
squared coupling of the window is 0.0 (h = 0, or squares that underflow),
each pivot differs from fl(d_i - x) at most in the sign of a zero, since
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

import bisect
import math
from typing import NamedTuple

from .errors import XYGapError
from .field import FieldPoint

_SAFMIN = 2.2250738585072014e-308


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
        """As SectorHamiltonian.outside_rows_clear, from the convex Gershgorin
        edge at the four rows around the window's borders (module docstring)."""
        n, point = self.size, self.point
        margin = (self.norm + abs(shift) + 1.0) * 2.0**-48 + pivmin
        for outside, inside in ((first - 1, first), (stop, stop - 1)):
            if 0 <= outside <= n:
                edge = _edge(n, point, outside)
                if edge - _edge(n, point, inside) < margin or edge - shift < margin:
                    return False
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


def _edge(n: int, point: FieldPoint, i: int) -> float:
    """The computed Gershgorin lower edge g_i = (d_i - a_i) - a_(i-1) of row i."""
    (d,), (above, below) = _rows(n, point, i, i + 1)
    return (d - abs(below)) - abs(above)


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
    # the first row i < n where g_(i+1) >= g_i, else n
    centre = bisect.bisect_left(
        range(n), True, key=lambda i: _edge(n, point, i + 1) >= _edge(n, point, i))
    return SectorMatrix(n, point, norm, centre, offmax, dmin, dmax)


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
