import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xygap import sector
from xygap.classical import FieldPoint
from xygap.gaplaw import delta_frac, exact_gap
from xygap.sector import (
    SectorHamiltonian,
    _bisect,
    build_sector_hamiltonian,
    finite_gap_numeric,
    lowest_eigenvalues,
    norm_bound,
)


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
        assert np.all(ham.offdiag == 0.0)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            build_sector_hamiltonian(0, FieldPoint(1.0, 1.0))

    def test_arrays_are_frozen(self):
        ham = build_sector_hamiltonian(3, FieldPoint(0.5, 0.5))
        with pytest.raises(ValueError):
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
            ham = SectorHamiltonian(size=n, diag=diag, offdiag=off)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            expected = np.sort(np.linalg.eigvalsh(dense))
            got = lowest_eigenvalues(ham, n + 1)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_k_validation(self):
        ham = build_sector_hamiltonian(2, FieldPoint(0.0, 0.0))
        with pytest.raises(ValueError):
            lowest_eigenvalues(ham, 0)
        with pytest.raises(ValueError):
            lowest_eigenvalues(ham, 4)

    def test_offdiagonal_sign_is_gauge(self):
        ham = build_sector_hamiltonian(16, FieldPoint(0.4, 0.9))
        flipped_off = ham.offdiag.copy()
        flipped_off[7] *= -1.0
        flipped = SectorHamiltonian(16, ham.diag, flipped_off)
        ref = lowest_eigenvalues(ham, 4)
        alt = lowest_eigenvalues(flipped, 4)
        assert np.max(np.abs(ref - alt)) < 1e-12 * norm_bound(ham)


def whole_matrix_bisection(ham, indices):
    """Bisection with Sturm counts over all N+1 rows: the unwindowed algorithm,
    from the start bracket, tolerance and pivmin the solver documents."""
    diag = ham.diag.tolist()
    off_sq = [0.0, *(ham.offdiag * ham.offdiag).tolist()]
    offmax = max(np.abs(ham.offdiag).tolist(), default=0.0)
    span = max(norm_bound(ham), 1.0)
    pivmin = sector._SAFMIN * max(1.0, max(off_sq))
    lo0 = min(diag) - (offmax * 2 + 1e-3 * span)
    hi0 = max(diag) + (offmax * 2 + 1e-3 * span)
    tol = 1e-15 * span
    values = []
    for index in indices:
        lo, hi = _bisect(diag, off_sq, index, lo0, hi0, tol, pivmin)
        values.append(0.5 * (lo + hi))
    return np.array(values)


def half_width(size):
    return 8 * math.isqrt(size) + 16


@pytest.fixture
def count_lengths(monkeypatch):
    """Record the row count of every Sturm count the solver makes."""
    lengths = []
    inner = sector._sturm_count

    def recording(diag, off_sq, shift, pivmin):
        lengths.append(len(diag))
        return inner(diag, off_sq, shift, pivmin)

    monkeypatch.setattr(sector, "_sturm_count", recording)
    return lengths


# The benchmark's eight sector-ladder fields, the README ladder field and the
# near-degenerate field.
WINDOW_FIELDS = (
    (0.25, 0.3), (0.75, 0.2), (1.5, 0.4), (0.9, 0.05),
    (1.25, 0.8), (0.4, 1.0), (2.0, 0.25), (0.6, 0.6),
    (0.0, 0.5), (0.5, 0.001),
)


class TestWindowedBisection:
    @pytest.mark.parametrize("size", [1024, 4096])
    @pytest.mark.parametrize("gamma,h", WINDOW_FIELDS)
    def test_bit_identical_to_whole_matrix(self, size, gamma, h):
        ham = build_sector_hamiltonian(size, FieldPoint(gamma, h))
        got = lowest_eigenvalues(ham, 2)
        assert got.tobytes() == whole_matrix_bisection(ham, range(2)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(0.0, 3.0),
        h=st.floats(-2.0, 2.0),
        size=st.integers(200, 3000),
        k=st.integers(1, 3),
    )
    def test_bit_identical_on_random_fields(self, gamma, h, size, k):
        ham = build_sector_hamiltonian(size, FieldPoint(gamma, h))
        got = lowest_eigenvalues(ham, k)
        assert got.tobytes() == whole_matrix_bisection(ham, range(k)).tobytes()

    def test_extended_ground_state_widens_the_window(self, count_lengths):
        # a weakly disordered uniform chain: the low eigenvectors spread over
        # all rows, so the first window's eigenvalues fail the certificate
        rng = np.random.default_rng(7)
        n = 1500
        diag = rng.uniform(-1e-3, 1e-3, size=n + 1)
        off = -1.0 + rng.uniform(-1e-3, 1e-3, size=n)
        ham = SectorHamiltonian(size=n, diag=diag, offdiag=off)
        got = lowest_eigenvalues(ham, 2)
        # without widening exactly two whole-matrix counts certify each value
        assert count_lengths.count(n + 1) > 4
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.linalg.eigvalsh(dense)[:2]
        assert np.max(np.abs(got - expected)) <= 1e-12 * norm_bound(ham)

    def test_k_beyond_the_window_rows(self):
        size = 400
        rows = 2 * half_width(size) + 1
        assert rows < size + 1
        ham = build_sector_hamiltonian(size, FieldPoint(0.1, 0.5))
        k = rows + 2
        got = lowest_eigenvalues(ham, k)
        dense = np.diag(ham.diag) + np.diag(ham.offdiag, 1) + np.diag(ham.offdiag, -1)
        expected = np.linalg.eigvalsh(dense)[:k]
        assert np.max(np.abs(got - expected)) <= 1e-12 * norm_bound(ham)
        tail = whole_matrix_bisection(ham, range(k - 3, k))
        assert got[-3:].tobytes() == tail.tobytes()

    def test_large_solve_counts_whole_matrix_only_to_certify(self, count_lengths):
        size = 16384
        finite_gap_numeric(size, FieldPoint(0.6, 0.6))
        full = [n for n in count_lengths if n == size + 1]
        windowed = [n for n in count_lengths if n != size + 1]
        assert len(full) == 4  # count(lo) and count(hi) for each of the pair
        assert windowed and max(windowed) <= 2 * half_width(size) + 1


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
                if delta_frac(size, gamma).degenerate:
                    continue
                numeric = finite_gap_numeric(size, FieldPoint(float(gamma), 0.0))
                assert abs(Fraction(numeric) - exact_gap(size, gamma)) < Fraction(1, 10**12)

    def test_gap_nonnegative(self):
        for size in (2, 3, 10, 33):
            for h in (0.0, 0.2, -0.7):
                assert finite_gap_numeric(size, FieldPoint(0.5, h)) >= 0.0

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
