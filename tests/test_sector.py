import functools
import math
import random
import struct
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SectorHamiltonian, _pivot_floor_ok, build_sector_hamiltonian
from xygap import sector
from xygap.field import FieldPoint
from xygap.gaplaw import gap_record
from xygap.sector import finite_gap_numeric, lowest_eigenvalues, sector_matrix


class TestBuild:
    def test_single_spin_matrix(self):
        ham = build_sector_hamiltonian(1, FieldPoint(0.7, 0.3))
        assert ham.diag == pytest.approx([-0.5 + 0.35, -0.5 - 0.35])
        assert ham.offdiag == pytest.approx([-0.15])

    def test_two_spins_zero_field_diagonal(self):
        ham = build_sector_hamiltonian(2, FieldPoint(0.0, 0.0))
        assert ham.diag == pytest.approx([-0.5, -1.0, -0.5])
        assert ham.offdiag == pytest.approx([0.0, 0.0])

    def test_zero_longitudinal_field_decouples(self):
        ham = build_sector_hamiltonian(4, FieldPoint(0.8, 0.0))
        assert np.all(np.asarray(ham.offdiag) == 0.0)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            build_sector_hamiltonian(0, FieldPoint(1.0, 1.0))

    def test_arrays_are_frozen(self):
        ham = build_sector_hamiltonian(3, FieldPoint(0.5, 0.5))
        with pytest.raises(TypeError):
            ham.diag[0] = 0.0


class TestEigenvalues:
    def test_diagonal_case(self):
        ham = build_sector_hamiltonian(2, FieldPoint(0.0, 0.0))
        evals = lowest_eigenvalues(ham, 3)
        assert evals == pytest.approx([-1.0, -0.5, -0.5], abs=1e-13)

    def test_single_spin_gap(self):
        ham = build_sector_hamiltonian(1, FieldPoint(0.7, 0.0))
        evals = lowest_eigenvalues(ham, 2)
        assert evals[1] - evals[0] == pytest.approx(0.7, abs=1e-13)

    def test_matches_dense_solver_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            diag = rng.uniform(-2, 2, size=n + 1)
            off = rng.uniform(-2, 2, size=n)
            ham = SectorHamiltonian(size=n, diag=tuple(diag.tolist()), offdiag=tuple(off.tolist()))
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            expected = np.sort(np.linalg.eigvalsh(dense))
            got = lowest_eigenvalues(ham, n + 1)
            assert np.max(np.abs(np.asarray(got) - expected)) < 1e-10

    def test_k_validation(self):
        ham = build_sector_hamiltonian(2, FieldPoint(0.0, 0.0))
        with pytest.raises(ValueError):
            lowest_eigenvalues(ham, 0)
        with pytest.raises(ValueError):
            lowest_eigenvalues(ham, 4)

    def test_offdiagonal_sign_is_gauge(self):
        # the sign flip alone leaves every squared coupling as it was; the
        # reflection m -> -m (rows reversed) moves each to the other side
        ham = build_sector_hamiltonian(16, FieldPoint(0.4, 0.9))
        mirrored_off = list(reversed(ham.offdiag))
        mirrored_off[7] *= -1.0
        mirrored = SectorHamiltonian(16, ham.diag[::-1], tuple(mirrored_off))
        ref = lowest_eigenvalues(ham, 4)
        alt = lowest_eigenvalues(mirrored, 4)
        assert np.max(np.abs(np.asarray(ref) - np.asarray(alt))) < 1e-12 * ham.summary()[0]


def start_bracket(summary):
    """The start bracket and tolerance the solver documents for a summary
    (norm bound, centre, max |e|, min d, max d)."""
    norm, _, offmax, dmin, dmax = summary
    span = max(norm, 1.0)
    return dmin - (offmax * 2 + 1e-3 * span), dmax + (offmax * 2 + 1e-3 * span), 1e-15 * span


def whole_matrix_bisection(ham, indices, summary=None):
    """Bisection with Sturm counts over all N+1 rows: the unwindowed algorithm,
    one eigenvalue at a time, from the start bracket and tolerance of
    ``summary`` (the explicit rows' own by default) and the pivmin the solver
    documents."""
    offdiag = np.asarray(ham.offdiag, dtype=float)
    diag = list(ham.diag)
    off_sq = [0.0, *(offdiag * offdiag).tolist()]
    pivmin = sector._SAFMIN * max(1.0, max(off_sq))
    lo0, hi0, tol = start_bracket(summary or ham.summary())

    def count(shift):
        below, q = 0, 1.0
        for d, e2 in zip(diag, off_sq):
            q = d - shift - e2 / q
            if q < pivmin:
                below += 1
                q = min(q, -pivmin)
        return below

    values = []
    for index in indices:
        lo, hi = lo0, hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count(mid) > index:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
    return np.array(values)


half_width = sector._half_width


def with_summary(ham, summary):
    """The explicit rows of ``ham`` with another matrix's summary, so that
    both are bisected from the same start bracket and centre."""
    return SimpleNamespace(size=ham.size, summary=lambda: summary, rows=ham.rows,
                           outside_rows_clear=ham.outside_rows_clear)


@pytest.fixture
def count_lengths(monkeypatch):
    """Record the row count of every Sturm count the solver makes."""
    lengths = []
    inner = sector._sturm_count

    def recording(diag, *args):
        lengths.append(len(diag))
        return inner(diag, *args)

    monkeypatch.setattr(sector, "_sturm_count", recording)
    return lengths


# The benchmark's eight sector-ladder fields, the README ladder field and the
# near-degenerate field.
WINDOW_FIELDS = (
    (0.25, 0.3), (0.75, 0.2), (1.5, 0.4), (0.9, 0.05),
    (1.25, 0.8), (0.4, 1.0), (2.0, 0.25), (0.6, 0.6),
    (0.0, 0.5), (0.5, 0.001),
)


def numpy_rows(size, point):
    """The sector matrix and its Gershgorin data in whole-array numpy, the
    oracle for the solver's element-by-element floats: diag, offdiag, the norm
    bound, the first row of the lowest lower edge and the largest coupling."""
    n = size
    i = np.arange(n + 1, dtype=float)
    m = i - n / 2.0
    s_sq = n * (n + 2) / 4.0
    diag = -(s_sq - m * m) / n - point.gamma * m
    j = np.arange(n, dtype=float)
    ladder = (n - j) * (j + 1.0)
    offdiag = -(point.h / 2.0) * np.sqrt(ladder)
    off = np.abs(offdiag)
    row = np.abs(diag)
    row[:-1] += off
    row[1:] += off
    edge = diag.copy()
    edge[:-1] -= off
    edge[1:] -= off
    return diag, offdiag, float(row.max()), int(np.argmin(edge)), float(off.max())


ORACLE_SIZES = (*range(1, 71), 1024, 4096, 16384, 65536)

# Fields whose whole-row quantities tie or sit at the edge of the doubles: at
# gamma = 0 the edges are mirror-equal, so the centre is the first of two
# rows; subnormal fields give subnormal or zero couplings.
TIE_FIELDS = ((0.0, 0.3), (0.0, -1.7), (0.0, 0.0), (0.5, 5e-324), (0.25, -1e-310), (0.0, 4e-320))


# h = 0 fields as the CLI passes them to the eigensolver: verify's five
# exact-vs-numeric fields, and 3/5 and 9/11.
H0_GAMMAS = tuple(float(Fraction(g)) for g in ("0", "1/5", "1/3", "7/10", "99/100", "3/5", "9/11"))


def bytes_but_norm(summary):
    """Every summary entry but the norm bound (the centre, max |e|, min d
    and max d) as bytes, so that -0.0 and 0.0 differ."""
    return struct.pack("qddd", *summary[1:])


class TestNumpyOracle:
    @pytest.mark.parametrize("gamma,h", [*WINDOW_FIELDS, (0.3, 0.0), (0.7, -0.45)])
    def test_rows_norm_and_centre_bit_equal(self, gamma, h):
        # the explicit rows and their one-pass summary against numpy; the
        # closed forms give the same centre and extremes, and a norm bound
        # at least the row-sum norm that equals it at h = 0
        point = FieldPoint(gamma, h)
        for size in ORACLE_SIZES:
            ham = build_sector_hamiltonian(size, point)
            diag, offdiag, norm, centre, offmax = numpy_rows(size, point)
            assert np.array(ham.diag).tobytes() == diag.tobytes(), size
            assert np.array(ham.offdiag).tobytes() == offdiag.tobytes(), size
            assert ham.summary() == (norm, centre, offmax, diag.min(), diag.max()), size
            closed = sector_matrix(size, point).summary()
            assert bytes_but_norm(closed) == bytes_but_norm(ham.summary()), size
            assert closed[0] >= norm and (h or closed[0] == norm), size


class TestClosedFormSummary:
    magnitudes = st.just(0.0) | st.floats(-300.0, 150.0).map(lambda e: 10.0**e)

    @settings(max_examples=150, deadline=None)
    @given(
        gamma=magnitudes | st.floats(0.0, 3.0) | st.sampled_from([1.0, 1.25, 2.0]),
        h=magnitudes | magnitudes.map(lambda x: -x) | st.floats(-2.0, 2.0),
        size=st.integers(1, 70) | st.integers(1, 65536),
    )
    def test_bracket_norm_bound_and_well(self, gamma, h, size):
        point = FieldPoint(gamma, h)
        with np.errstate(over="ignore", invalid="ignore"):
            diag, offdiag, row_norm, well, offmax = numpy_rows(size, point)
        try:
            summary = sector_matrix(size, point).summary()
        except ValueError:
            bound = (max(abs(float(diag.min())), abs(float(diag.max()))) + offmax) + offmax
            assert not math.isfinite(bound * bound)
            return
        off = np.abs(offdiag)
        edge = diag.copy()
        edge[:-1] -= off
        edge[1:] -= off
        assert start_bracket(summary)[0] < edge.min()
        norm, centre = summary[:2]
        assert norm >= row_norm
        # the first window, at least the half-width on each side of the
        # centre, holds the first row of the lowest Gershgorin lower edge
        assert abs(centre - well) <= half_width(size)


class TestRowsOnDemand:
    """The closed-form summary and the solve on rows built on demand against
    the explicit rows."""

    @pytest.mark.parametrize("gamma,h", TIE_FIELDS)
    def test_summary_bit_equal_on_ties(self, gamma, h):
        # every entry but the norm bound, which only has to bound the norm
        point = FieldPoint(gamma, h)
        for size in ORACLE_SIZES:
            want = build_sector_hamiltonian(size, point).summary()
            got = sector_matrix(size, point).summary()
            assert bytes_but_norm(got) == bytes_but_norm(want), size
            assert got[0] >= want[0], size

    def test_mirror_tie_takes_the_first_row(self):
        # at gamma = 0 and odd N the rows m = -1/2 and m = 1/2 hold the lowest
        # edge (at these N no rounding breaks the mirror symmetry)
        for size in (63, 255, 4097, 65537):
            ham = build_sector_hamiltonian(size, FieldPoint(0.0, 0.3))
            edges = [(d - abs(b)) - abs(a) for d, a, b in
                     zip(ham.diag, (0.0, *ham.offdiag), (*ham.offdiag, 0.0))]
            centre = ham.summary()[1]
            assert centre == edges.index(min(edges)) == (size - 1) // 2, size
            assert edges[size - centre] == edges[centre], size
            assert sector_matrix(size, FieldPoint(0.0, 0.3)).centre == centre, size

    def test_adjacent_equal_diagonal_minimum(self):
        # gamma = (N-1)/N makes rows m = N/2 - 1 and N/2 equal in exact
        # arithmetic: the closed form's two rows next to the vertex are they
        for size in ORACLE_SIZES[1:]:
            point = FieldPoint((size - 1) / size, 0.4)
            ham = build_sector_hamiltonian(size, point)
            matrix = sector_matrix(size, point)
            assert bytes_but_norm(matrix.summary()) == bytes_but_norm(ham.summary()), size
            if size <= 4096:
                want = lowest_eigenvalues(with_summary(ham, matrix.summary()), 2)
                assert struct.pack("dd", *lowest_eigenvalues(matrix, 2)) == struct.pack("dd", *want)

    @pytest.mark.parametrize("gamma,h,sizes", [
        *((gamma, h, ORACLE_SIZES) for gamma, h in WINDOW_FIELDS),
        *((gamma, h, ORACLE_SIZES[:-2]) for gamma, h in TIE_FIELDS),
        *((gamma, 0.0, ORACLE_SIZES) for gamma in H0_GAMMAS),
    ])
    def test_solve_bit_identical_to_explicit_rows(self, gamma, h, sizes):
        point = FieldPoint(gamma, h)
        for size in sizes:
            ham = build_sector_hamiltonian(size, point)
            matrix = sector_matrix(size, point)
            want = lowest_eigenvalues(with_summary(ham, matrix.summary()), 2)
            got = lowest_eigenvalues(matrix, 2)
            assert struct.pack("dd", *got) == struct.pack("dd", *want), size
            gap = finite_gap_numeric(size, point)
            assert struct.pack("d", gap) == struct.pack("d", max(want[1] - want[0], 0.0)), size
            if size <= 70:
                whole = whole_matrix_bisection(ham, range(2), matrix.summary())
                assert np.asarray(got).tobytes() == whole.tobytes()

    def test_solve_bit_identical_to_whole_matrix_at_65536(self):
        point = FieldPoint(0.6, 0.6)
        matrix = sector_matrix(65536, point)
        got = lowest_eigenvalues(matrix, 2)
        want = whole_matrix_bisection(build_sector_hamiltonian(65536, point), range(2), matrix.summary())
        assert np.asarray(got).tobytes() == want.tobytes()


class TestOverflow:
    @pytest.mark.parametrize("size,gamma,h", [
        (4, 0.5, 1e200), (4, 0.5, -1e200), (4, 0.5, 1e308), (4, 1e308, 0.5),
        (65536, 0.5, 1e152),
        (1, 0.0, 3e154),  # the row-sum norm itself squares past the largest double
        (1, 0.0, 2e154),  # max|d| + 2*max|e| squares to inf, the row-sum norm does not
    ])
    def test_rejected_when_squared_norm_bound_overflows(self, size, gamma, h):
        point = FieldPoint(gamma, h)
        message = (f"field gamma={gamma!r}, h={h!r} is too large at N={size}: "
                   "the squared norm bound of the sector matrix overflows a double")
        for build in (build_sector_hamiltonian, sector_matrix, finite_gap_numeric):
            with pytest.raises(ValueError) as caught:
                build(size, point)
            assert str(caught.value) == message

    @pytest.mark.parametrize("size,gamma,h", [
        (4, 0.5, 1e150), (4, 1e150, 0.5), (1024, 0.5, -1e148),
        (1, 0.0, 1.3e154),  # max|d| + 2*max|e| squares to a finite double
    ])
    def test_accepted_while_squared_norm_bound_is_finite(self, size, gamma, h):
        point = FieldPoint(gamma, h)
        ham = build_sector_hamiltonian(size, point)
        with np.errstate(over="ignore"):
            assert math.isfinite(numpy_rows(size, point)[2] ** 2)
        matrix = sector_matrix(size, point)
        assert math.isfinite(matrix.norm ** 2)
        gap = finite_gap_numeric(size, point)
        assert math.isfinite(gap)
        want = lowest_eigenvalues(with_summary(ham, matrix.summary()), 2)
        assert struct.pack("d", gap) == struct.pack("d", max(want[1] - want[0], 0.0))


class TestWindowCap:
    """sector_matrix refuses a size whose first bisection window exceeds
    WINDOW_ROW_BUDGET rows, before any row is built."""

    # the largest N with 2*(4*isqrt(N) + 16) + 1 <= WINDOW_ROW_BUDGET
    LARGEST = ((sector.WINDOW_ROW_BUDGET - 33) // 8 + 1) ** 2 - 1

    def test_largest_size_under_the_cap_builds(self):
        assert 2 * half_width(self.LARGEST) + 1 <= sector.WINDOW_ROW_BUDGET
        assert 2 * half_width(self.LARGEST + 1) + 1 > sector.WINDOW_ROW_BUDGET
        for size in (65536, self.LARGEST):  # the benchmark's largest N, and the cap's
            for h in (0.6, 0.0):
                assert sector_matrix(size, FieldPoint(0.6, h)).size == size

    @pytest.mark.parametrize("size", [LARGEST + 1, 10**17, 2**62])
    def test_size_past_the_cap_is_rejected(self, size):
        window = 2 * half_width(size) + 1
        message = (f"size N={size} is too large: the eigensolver's first window of "
                   f"{window} rows exceeds {sector.WINDOW_ROW_BUDGET}")
        for build in (sector_matrix, finite_gap_numeric):
            with pytest.raises(ValueError) as caught:
                build(size, FieldPoint(0.6, 0.6))
            assert str(caught.value) == message


@functools.lru_cache(maxsize=None)
def whole_matrix_pair(size, gamma, h):
    """The lowest pair of the sector matrix at (gamma, h) by whole-matrix
    bisection from its closed-form summary, as bytes; shared by the tests
    that solve the same matrix with different windows."""
    point = FieldPoint(gamma, h)
    summary = sector_matrix(size, point).summary()
    return whole_matrix_bisection(build_sector_hamiltonian(size, point), range(2), summary).tobytes()


class TestWindowedBisection:
    @pytest.mark.parametrize("size", [1024, 4096])
    @pytest.mark.parametrize("gamma,h", WINDOW_FIELDS)
    def test_bit_identical_to_whole_matrix(self, size, gamma, h):
        point = FieldPoint(gamma, h)
        ham = build_sector_hamiltonian(size, point)
        want = whole_matrix_bisection(ham, range(2)).tobytes()
        assert np.asarray(lowest_eigenvalues(ham, 2)).tobytes() == want
        matrix = sector_matrix(size, point)
        want = whole_matrix_pair(size, gamma, h)
        assert np.asarray(lowest_eigenvalues(matrix, 2)).tobytes() == want

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(0.0, 3.0),
        h=st.floats(-2.0, 2.0),
        size=st.integers(200, 3000),
        k=st.integers(1, 3),
    )
    def test_bit_identical_on_random_fields(self, gamma, h, size, k):
        point = FieldPoint(gamma, h)
        ham = build_sector_hamiltonian(size, point)
        want = whole_matrix_bisection(ham, range(k)).tobytes()
        assert np.asarray(lowest_eigenvalues(ham, k)).tobytes() == want
        matrix = sector_matrix(size, point)
        want = whole_matrix_bisection(ham, range(k), matrix.summary()).tobytes()
        assert np.asarray(lowest_eigenvalues(matrix, k)).tobytes() == want

    def test_extended_ground_state_widens_the_window(self, count_lengths):
        # a weakly disordered uniform chain: the low eigenvectors spread over
        # all rows, so the first window's eigenvalues fail the certificate
        rng = np.random.default_rng(7)
        n = 1500
        diag = rng.uniform(-1e-3, 1e-3, size=n + 1)
        off = -1.0 + rng.uniform(-1e-3, 1e-3, size=n)
        ham = SectorHamiltonian(size=n, diag=tuple(diag.tolist()), offdiag=tuple(off.tolist()))
        got = lowest_eigenvalues(ham, 2)
        assert max(count_lengths) > 2 * half_width(n) + 1  # the window widened
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.linalg.eigvalsh(dense)[:2]
        assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-12 * ham.summary()[0]
        assert np.asarray(got).tobytes() == whole_matrix_bisection(ham, range(2)).tobytes()

    def test_decoupled_row_beyond_the_window(self, count_lengths):
        # A harmonic well at row 150 and, far outside its window, one row
        # with no couplings whose diagonal lies between the well's two lowest
        # levels.  Inside the window nothing hints at it: the pivot leaving
        # the window passes, so only the outside rows' pivot floor catches
        # the eigenvalue it adds.
        n = 900
        rows = np.arange(n + 1)
        diag = ((rows - 150) / 40.0) ** 2
        off = np.full(n, -1.0)
        well = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:2]
        diag[800] = 0.5 * (well[0] + well[1])
        off[799:801] = 0.0
        ham = SectorHamiltonian(size=n, diag=tuple(diag.tolist()), offdiag=tuple(off.tolist()))
        got = lowest_eigenvalues(ham, 2)
        expected = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:2]
        assert expected[1] == pytest.approx(diag[800], abs=1e-12)
        assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-12 * ham.summary()[0]
        assert np.asarray(got).tobytes() == whole_matrix_bisection(ham, range(2)).tobytes()
        assert max(count_lengths) > 801  # the window widened past the decoupled row

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_level_coupled_across_the_window_edge(self, edge, count_lengths):
        # Rows of diagonal 10 and no couplings, one isolated row at -5 that
        # fixes the window to rows 450 -+ half_width(900), and a three-row
        # chain (diagonal 0, couplings -1) at the window's first or last
        # rows, coupled by -1 to the diagonal-10 row just outside.  Every
        # outside row passes the pivot floor; the chain's level, -sqrt(2)
        # inside the window, drops by about 0.02 through that coupling,
        # which only the entering (first) or leaving (last) pivot shows.
        n = 900
        first, last = 450 - half_width(n), 450 + half_width(n)
        diag = np.full(n + 1, 10.0)
        off = np.zeros(n)
        diag[450] = -5.0
        chain = [first, first + 1, first + 2] if edge == "first" else [last - 2, last - 1, last]
        diag[chain] = 0.0
        couples = [first - 1, first, first + 1] if edge == "first" else [last - 2, last - 1, last]
        off[couples] = -1.0
        ham = SectorHamiltonian(size=n, diag=tuple(diag.tolist()), offdiag=tuple(off.tolist()))
        assert ham.summary()[1] == 450 and 0 < first and last < n
        got = lowest_eigenvalues(ham, 2)
        expected = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:2]
        assert expected[1] < -math.sqrt(2) - 0.02
        assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-12 * ham.summary()[0]
        assert np.asarray(got).tobytes() == whole_matrix_bisection(ham, range(2)).tobytes()
        assert max(count_lengths) > 2 * half_width(n) + 1  # the window widened

    def test_k_beyond_the_window_rows(self):
        size = 400
        rows = 2 * half_width(size) + 1
        assert rows < size + 1
        ham = build_sector_hamiltonian(size, FieldPoint(0.1, 0.5))
        k = rows + 2
        got = lowest_eigenvalues(ham, k)
        dense = np.diag(ham.diag) + np.diag(ham.offdiag, 1) + np.diag(ham.offdiag, -1)
        expected = np.linalg.eigvalsh(dense)[:k]
        assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-12 * ham.summary()[0]
        tail = whole_matrix_bisection(ham, range(k - 3, k))
        assert np.asarray(got[-3:]).tobytes() == tail.tobytes()
        matrix = sector_matrix(size, FieldPoint(0.1, 0.5))
        assert lowest_eigenvalues(matrix, k) == lowest_eigenvalues(with_summary(ham, matrix.summary()), k)

    def test_large_solve_counts_only_window_rows(self, count_lengths):
        size = 16384
        finite_gap_numeric(size, FieldPoint(0.6, 0.6))
        # about 90 shared bisection sweeps and four certificate sweeps, none
        # longer than the first window
        assert 80 <= len(count_lengths) <= 100
        assert max(count_lengths) == 2 * half_width(size) + 1

    def test_million_row_solve_stays_small(self):
        # the window holds 8033 rows; every row of the matrix would take
        # over 100 MB as Python floats
        tracemalloc.start()
        try:
            gap = finite_gap_numeric(10**6, FieldPoint(0.6, 0.6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < gap < 1.0
        assert peak < 4 * 2**20


def full_count_bisection(diag, off_sq, k, lo, hi, tol, pivmin):
    """The solver's group bisection with every count a whole sweep of the
    window rows, as before counts ended once the step was decided: the
    oracle for the early exit."""
    def count_below(shift):
        count, q = 0, 1.0
        for d, e2 in zip(diag, off_sq):
            q = d - shift - e2 / q
            if q < pivmin:
                count += 1
                q = min(q, -pivmin)
        return count

    brackets = [(lo, hi)] * k
    groups = [(0, k, lo, hi)]
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


class TestEarlyExit:
    """A bisection count ends once it reaches its group's stop; the brackets
    are those of whole sweeps."""

    @pytest.mark.parametrize("size", [64, 1024, 4096, 65536])
    @pytest.mark.parametrize("gamma,h", [*WINDOW_FIELDS, *((g, 0.0) for g in H0_GAMMAS[:3])])
    def test_brackets_equal_whole_sweeps(self, size, gamma, h):
        # the first window's rows, start bracket, tolerance and pivmin, as
        # lowest_eigenvalues takes them
        matrix = sector_matrix(size, FieldPoint(gamma, h))
        norm, centre, offmax, _, _ = summary = matrix.summary()
        half = half_width(size)
        first = max(min(centre - half, size - 2 * half), 0)
        diag, coup = matrix.rows(first, min(first + 2 * half + 1, size + 1))
        off_sq = [0.0, *[e * e for e in coup[1:-1]]]
        lo, hi, tol = start_bracket(summary)
        pivmin = sector._SAFMIN * max(1.0, offmax * offmax)
        for k in (1, 2, 3):
            want = full_count_bisection(diag, off_sq, k, lo, hi, tol, pivmin)
            got = sector._bisect(diag, off_sq, k, lo, hi, tol, pivmin)
            assert [tuple(map(float.hex, b)) for b in got] == [tuple(map(float.hex, b)) for b in want]

    def test_count_stops_at_the_limit(self):
        diag, off_sq = [-3.0, -2.0, -1.0, 5.0], [0.0, 0.25, 0.25, 0.25]
        assert sector._sturm_count(diag, off_sq, 0.0, 1e-300)[0] == 3
        assert [sector._sturm_count(diag, off_sq, 0.0, 1e-300, 1.0, limit)[0]
                for limit in (1, 2, 3, 4)] == [1, 2, 3, 3]


class TestConvexEdgeCertificate:
    """SectorMatrix.outside_rows_clear reads the Gershgorin lower edge at the
    four rows around the window's borders; the explicit rows' pivot floor is
    its oracle."""

    magnitudes = st.floats(-300.0, 100.0).map(lambda e: 10.0**e)

    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.sampled_from([0.0, 1.0, 2.0]) | magnitudes,
        h=st.sampled_from([0.0, 5e-324, 1e-310]) | magnitudes | st.floats(0.0, 2.0),
        negative=st.booleans(),
        size=st.integers(1, 60) | st.integers(1, 5000),
        half=st.integers(1, 40) | st.integers(1, 300),
        centre=st.none() | st.integers(0, 5000),
        steps=st.integers(-200, 200) | st.floats(-1e12, 1e12),
    )
    # a field where the border row clears the shift by a unit of rounding
    # and its own pivot floor does not: the margin's rounding terms are needed
    @example(gamma=0.0, h=0.9709747384579139, negative=True, size=130, half=37,
             centre=None, steps=1)
    @example(gamma=0.0, h=1.3587590784885317, negative=False, size=145, half=3,
             centre=None, steps=1)
    def test_clear_implies_every_outside_row_passes(
            self, gamma, h, negative, size, half, centre, steps):
        # windows from the solver's first one (the half-width at most
        # _half_width, the matrix's centre or any row) and shifts from well
        # below the border rows' edge to past it, down to units of rounding
        point = FieldPoint(gamma, -h if negative else h)
        try:
            matrix = sector_matrix(size, point)
        except ValueError:  # the squared norm bound overflows
            return
        half = min(half, half_width(size))
        centre = matrix.centre if centre is None else min(centre, size)
        first = max(min(centre - half, size - 2 * half), 0)
        stop = min(first + 2 * half + 1, size + 1)
        borders = [i for i in (first - 1, stop) if 0 <= i <= size] or [first]
        # row i's edge: the first of the pair at i, the second at i - 1 for the last row
        edge = min(sector._edges(size, point, min(i, size - 1))[i == size] for i in borders)
        shift = edge - steps * (matrix.norm + abs(edge) + 1.0) * 2.0**-53
        pivmin = sector._SAFMIN * max(1.0, matrix.offmax * matrix.offmax)
        if matrix.outside_rows_clear(first, stop, shift, pivmin):
            for p, r in ((0, first), (stop, size + 1)):
                if p < r:
                    assert _pivot_floor_ok(*matrix.rows(p, r), shift, pivmin), (p, r)

    @pytest.mark.parametrize("size", [1024, 65536])
    def test_reads_at_most_four_rows(self, size, monkeypatch):
        point = FieldPoint(0.6, 0.6)
        matrix = sector_matrix(size, point)
        read = set()
        inner = sector._rows

        def recording(n, pt, first, stop):
            read.update(range(first, stop))
            return inner(n, pt, first, stop)

        monkeypatch.setattr(sector, "_rows", recording)
        half = half_width(size)
        for first, stop in ((0, 2 * half + 1), (size - 2 * half, size + 1),
                            (matrix.centre - half, matrix.centre + half + 1)):
            read.clear()
            matrix.outside_rows_clear(first, stop, matrix.dmin, sector._SAFMIN)
            assert len(read) <= 4 and read <= {first - 1, first, stop - 1, stop}

    @pytest.mark.parametrize("size", [1024, 4096])
    @pytest.mark.parametrize("gamma,h", WINDOW_FIELDS)
    def test_forced_narrow_window_stays_bit_identical(self, size, gamma, h, monkeypatch):
        # a three-row first window: the outside rows fail, the window doubles
        # until the certificate holds, and the solve is that of whole-matrix
        # bisection
        failures = {"certificate": 0, "outside": 0}
        certified, clear = sector._certified, sector.SectorMatrix.outside_rows_clear

        def counting_certified(*args):
            ok = certified(*args)
            failures["certificate"] += not ok
            return ok

        def counting_clear(*args):
            ok = clear(*args)
            failures["outside"] += not ok
            return ok

        monkeypatch.setattr(sector, "_half_width", lambda n: 1)
        monkeypatch.setattr(sector, "_certified", counting_certified)
        monkeypatch.setattr(sector.SectorMatrix, "outside_rows_clear", counting_clear)
        got = lowest_eigenvalues(sector_matrix(size, FieldPoint(gamma, h)), 2)
        assert failures["certificate"] >= failures["outside"] >= 1
        assert np.asarray(got).tobytes() == whole_matrix_pair(size, gamma, h)


def step_ulps(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def decoupled_matrices(draw):
    """Matrices whose squared couplings are all 0.0: couplings of +-0.0 or
    small enough to underflow when squared; diagonals with ties, +-0.0,
    neighbours a few ulps apart, subnormals and magnitudes up to 1e150.
    Sizes past 65 are windowed."""
    size = draw(st.integers(1, 40) | st.integers(500, 700))
    anchors = draw(st.lists(
        st.floats(-1e150, 1e150) | st.floats(-1e-300, 1e-300)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sector._SAFMIN, 1e150, -1e150]),
        min_size=1, max_size=4))
    couplings = draw(st.sampled_from([(0.0, -0.0), (0.0, -0.0, 1e-170, -3e-200, 5e-324)]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        x = rng.choice(anchors)
        roll = rng.random()
        if roll < 0.3:
            return x
        if roll < 0.6:
            return step_ulps(x, rng.randint(-3, 3))
        if roll < 0.7:
            return -x
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 150)

    diag = tuple(entry() for _ in range(size + 1))
    offdiag = tuple(rng.choice(couplings) for _ in range(size))
    return SectorHamiltonian(size, diag, offdiag)


class TestZeroCouplings:
    """On decoupled rows the count is read off the smallest diagonal entries."""

    @settings(max_examples=150, deadline=None)
    @given(decoupled_matrices(), st.integers(1, 3))
    def test_bit_identical_to_whole_matrix(self, ham, k):
        assert not any(e * e for e in ham.offdiag)
        k = min(k, ham.size + 1)
        want = whole_matrix_bisection(ham, range(k)).tobytes()
        assert np.asarray(lowest_eigenvalues(ham, k)).tobytes() == want

    @pytest.mark.parametrize("gamma", H0_GAMMAS)
    def test_h0_solves_make_no_sweeps(self, gamma, count_lengths):
        point = FieldPoint(gamma, 0.0)
        for size in range(1, 66):
            finite_gap_numeric(size, point)
        assert count_lengths == []  # the window holds every row: no certificate
        for size in (1024, 4096):
            count_lengths.clear()
            finite_gap_numeric(size, point)
            # only the certificate's four counts over the first window
            assert len(count_lengths) == 4 and len(set(count_lengths)) == 1, size
            assert count_lengths[0] <= 2 * half_width(size) + 1 < size + 1


class TestFiniteGap:
    @pytest.mark.parametrize(
        "size,gamma,h,expected,tol",
        [
            (1, 0.3, 0.4, 0.5, 1e-12),
            (16, 1 / 3, 0.0, 1 / 48, 1e-12),
            (64, 0.0, 0.5, math.sqrt(0.75), 0.02),
            (2, 0.5, 0.0, 0.0, 0.0),  # offset exactly 1/2: m = 0 and m = 1 tie
        ],
    )
    def test_values(self, size, gamma, h, expected, tol):
        assert finite_gap_numeric(size, FieldPoint(gamma, h)) == pytest.approx(expected, abs=tol)

    def test_agrees_with_exact_law(self):
        for gamma in (Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(7, 10)):
            for size in range(2, 33, 2):
                exact = gap_record(size, gamma).gap
                if exact is None:
                    continue
                numeric = finite_gap_numeric(size, FieldPoint(float(gamma), 0.0))
                assert abs(Fraction(numeric) - exact) < Fraction(1, 10**12)

    def test_gap_nonnegative(self):
        for size in (2, 3, 10, 33):
            for h in (0.0, 0.2, -0.7):
                assert finite_gap_numeric(size, FieldPoint(0.5, h)) >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        gamma=st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        h=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-8])),
        size=st.one_of(st.integers(1, 4096), st.sampled_from([1, 2, 112, 113, 4096])),
        k=st.integers(2, 4),
    )
    @example(gamma=0.5, h=0.0, size=2, k=2)  # offset exactly 1/2: the pair ties
    @example(gamma=0.5, h=-0.0, size=2, k=3)
    def test_values_ascend_and_gap_is_never_negative_zero(self, gamma, h, size, k):
        # lowest_eigenvalues has no ordering check and finite_gap_numeric no
        # max(., 0.0): its docstring argues both cannot fire
        point = FieldPoint(gamma, h)
        values = lowest_eigenvalues(sector_matrix(size, point), min(k, size + 1))
        assert all(below <= above for below, above in zip(values, values[1:])), values
        gap = finite_gap_numeric(size, point)
        assert gap == values[1] - values[0]
        assert gap >= 0.0 and math.copysign(1.0, gap) == 1.0, gap

    def test_continuity_at_small_longitudinal_field(self):
        for size in (8, 21):
            up = finite_gap_numeric(size, FieldPoint(0.3, 1e-8))
            down = finite_gap_numeric(size, FieldPoint(0.3, -1e-8))
            assert abs(up - down) < 1e-6

    def test_thermodynamic_approach(self):
        target = math.sqrt(0.75)
        dists = [
            abs(finite_gap_numeric(2**k, FieldPoint(0.0, 0.5)) - target) for k in range(4, 13)
        ]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-2
