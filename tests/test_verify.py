import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from xygap import exactnum, gaplaw, scaling, sector, verify
from xygap.cli import main
from xygap.verify import CheckResult, check_injection_injective


class TestInjectionSuite:
    """The suite compares integer numerators over lcm(positions); a few digit
    strings tie them to the library's Fraction sum."""

    def test_passes_with_unchanged_detail(self):
        assert check_injection_injective() == CheckResult(
            "injection-injective", True, "1000 distinct values from 1000 digit strings"
        )

    def test_catches_colliding_positions(self, monkeypatch):
        # ratio 2 between positions: (2b + 1) windows overlap, strings collide;
        # the library's value takes the same positions, so only the count fails
        def colliding(length, budget):
            return [16, 32, 64]

        monkeypatch.setattr(verify, "injection_positions", colliding)
        monkeypatch.setattr(exactnum, "injection_positions", colliding)
        res = check_injection_injective()
        assert not res.passed
        assert res.detail.endswith("distinct values from 1000 digit strings")

    def test_ties_mod_the_prime_are_settled_by_the_integers(self, monkeypatch):
        # weights 2**66, 2**61, 1: as 2**61 = 1 mod 2**61 - 1, the last two
        # tie, so digit strings (., 1, 0) and (., 0, 1) share a residue; the
        # integers differ and the map is injective
        P = verify.RESIDUE_PRIME

        def tied(length, budget):
            return [16, 512, 512 * (P + 1)]

        monkeypatch.setattr(verify, "injection_positions", tied)
        monkeypatch.setattr(exactnum, "injection_positions", tied)
        weights = [2**70 // a for a in tied(3, None)]
        residues = {
            sum((2 * b + 1) * w for b, w in zip(digits, weights)) % P
            for digits in product(range(10), repeat=3)
        }
        assert len(residues) < 1000
        assert check_injection_injective() == CheckResult(
            "injection-injective", True, "1000 distinct values from 1000 digit strings"
        )

    @pytest.mark.parametrize("prime", [2, 101, 997])
    def test_small_prime_gives_the_same_counts(self, monkeypatch, prime):
        # most strings share a residue with another; the counts come from
        # the integers, so both outcomes stay as they are
        monkeypatch.setattr(verify, "RESIDUE_PRIME", prime)
        assert check_injection_injective().passed
        monkeypatch.setattr(verify, "injection_positions", lambda length, budget: [16, 32, 64])
        monkeypatch.setattr(exactnum, "injection_positions", lambda length, budget: [16, 32, 64])
        res = check_injection_injective()
        assert not res.passed
        weights = [4, 2, 1]
        exact = {sum((2 * b + 1) * w for b, w in zip(digits, weights))
                 for digits in product(range(10), repeat=3)}
        assert res.detail == f"{len(exact)} distinct values from 1000 digit strings"

    def test_peak_memory_stays_small(self):
        # Only strings that tie mod the prime get their 65,537-bit numerators
        # built.  Measured under tracemalloc: 0.19 MB; when the suite kept a set
        # of all 1000 numerators, 8.9 MB.  The bound is 1 MB.
        check_injection_injective()  # warm: imports and cached terms
        tracemalloc.start()
        try:
            assert check_injection_injective().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_catches_numerators_that_leave_the_library_sum(self, monkeypatch):
        real = verify.injection_value
        monkeypatch.setattr(
            verify, "injection_value",
            lambda digits, budget: real(digits, budget) + Fraction(1, 2**70_000),
        )
        res = check_injection_injective()
        assert not res.passed
        assert "integer numerator differs" in res.detail


class TestFailuresAreReported:
    """A suite whose oracles disagree reports FAIL; the run goes on."""

    def test_offset_routes_disagree(self, monkeypatch, capsys):
        real = gaplaw.gap_record

        def shifted(size, gamma):
            rec = real(size, gamma)
            return rec._replace(delta=rec.delta + Fraction(1, 2**70_000))

        monkeypatch.setattr(gaplaw, "gap_record", shifted)
        assert main(["verify", "--max-N", "8"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert len(lines) == 7 and lines[-1] == "5/6 suites passed"
        assert lines[1].startswith("FAIL closed-form-routes: offset routes disagree at n=1, N=2")

    def test_interval_construction_fails_its_certificate(self, monkeypatch):
        # an enclosure as wide as the target interval is not strictly inside it
        monkeypatch.setattr(
            scaling, "construction_enclosure", lambda spec, budget: (spec.lo, spec.hi))
        res = verify.check_dense_intervals(samples=3)
        assert not res.passed
        assert res.detail.startswith("interval construction failed its own certificate for (")

    def test_dense_intervals_catch_a_flipped_branch(self, monkeypatch):
        # the tail leaves the anchor towards the nearer endpoint, where
        # anchor -+ 2^-(k+1) falls outside (lo, hi): the construction's
        # argument no longer holds
        real = scaling.dense_gamma_in_interval
        flipped = []

        def flip(lo, hi, budget):
            spec = real(lo, hi, budget)
            reach = Fraction(1, 2 ** (spec.scale_exp + 1))
            far = spec.anchor - reach if spec.positive_branch else spec.anchor + reach
            flipped.append((lo, hi, lo < far < hi))
            return spec._replace(positive_branch=not spec.positive_branch)

        monkeypatch.setattr(scaling, "dense_gamma_in_interval", flip)
        res = verify.check_dense_intervals()
        assert not res.passed
        lo, hi, inside = flipped[-1]
        assert not inside and all(ok for _, _, ok in flipped[:-1])
        assert res.detail == f"membership failed for ({lo}, {hi})"

    def test_exact_vs_numeric_catches_a_wrong_edge_gap(self, monkeypatch):
        # the edge branch off by 1/(2N): the suite reaches gamma >= 1
        real = gaplaw.exact_row

        def off(size, p, q):
            branch, dn, dd, gn, gd = real(size, p, q)
            return (branch, dn, dd, 2 * gn + 1, 2 * gd) if branch == gaplaw.BRANCH_EDGE else (
                branch, dn, dd, gn, gd)

        assert verify.check_exact_vs_numeric(8).passed
        monkeypatch.setattr(gaplaw, "exact_row", off)
        res = verify.check_exact_vs_numeric(8)
        assert not res.passed
        assert res.detail.startswith("N=2, gamma=1: |exact - numeric| = ")

    def test_exact_counts_catch_couplings_on_the_wrong_rows(self, monkeypatch):
        # a solver whose squared couplings sit one row too low solves another
        # matrix; the exact rows are built apart from the solver's
        real = sector._bisect

        def shifted(diag, off_sq, *rest):
            return real(diag, [0.0, *off_sq[:-1]], *rest)

        assert verify.check_sector_exact_counts().passed
        monkeypatch.setattr(sector, "_bisect", shifted)
        res = verify.check_sector_exact_counts()
        assert not res.passed
        assert res.detail.startswith("N=32: E_0 = ")


class TestSectorExactCounts:
    """The eigensolver's lowest values against exact Sturm counts of the
    sector matrix built in rationals from its formula."""

    def test_passes_with_recorded_detail(self):
        assert verify.check_sector_exact_counts() == CheckResult(
            "sector-exact-counts", True,
            "3 lowest eigenvalues at N=32, 33 within 1e-14*norm of exact Sturm counts",
        )

    def test_fixed_inputs_meet_no_zero_pivot(self, monkeypatch):
        real = verify._exact_count
        counts = []

        def record(*args):
            counts.append(real(*args))
            return counts[-1]

        monkeypatch.setattr(verify, "_exact_count", record)
        assert verify.check_sector_exact_counts().passed
        # two shifts around each of three values at each of two sizes
        assert len(counts) == 12 and None not in counts

    def test_zero_pivot_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "_exact_count", lambda *args: None)
        res = verify.check_sector_exact_counts()
        assert not res.passed
        assert res.detail.startswith("N=32: zero pivot at shift ")

    def test_exact_count(self):
        # [[1, 1], [1, 1]] has eigenvalues 0 and 2: there the last pivot is
        # exactly 0, and at shift 1 the first
        diag, off_sq = [Fraction(1), Fraction(1)], [0, Fraction(1)]
        shifts = (-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
        assert [verify._exact_count(diag, off_sq, Fraction(x)) for x in shifts] \
            == [0, None, 1, None, 1, None, 2]

    def test_catches_swapped_couplings(self, monkeypatch):
        # e_10 and e_20 trade places; the window solved covers every row
        real = sector._couplings
        swap = {10: 20, 20: 10}

        def swapped(n, point, first, stop):
            return [real(n, point, j + 1, j + 1)[0]
                    for j in (swap.get(j, j) for j in range(first - 1, stop))]

        monkeypatch.setattr(sector, "_couplings", swapped)
        res = verify.check_sector_exact_counts()
        assert not res.passed
        assert res.detail.startswith("N=32: E_")

    def test_catches_a_diagonal_off_by_1e13(self, monkeypatch):
        real = sector._diag
        monkeypatch.setattr(
            sector, "_diag", lambda *args: [d * (1 + 1e-13) for d in real(*args)])
        res = verify.check_sector_exact_counts()
        assert not res.passed
        assert res.detail.startswith("N=32: E_0 = ")
