import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gap_times_size_values, min_excitation_brute
from xygap.exactnum import gamma_value
from xygap.gaplaw import (
    BRANCH_DEGENERATE,
    BRANCH_EDGE,
    BRANCH_HIGH,
    BRANCH_LOW,
    GapRecord,
    gap_record,
)
from xygap.sequences import SequenceKind, terms

HALF = Fraction(1, 2)


def split_oracle(size: int, gamma: Fraction) -> Fraction:
    """The offset of gamma*N/2 above the grid point at or below it (an
    integer for even N, a half-odd-integer for odd N), in Fraction
    arithmetic."""
    target = gamma * size / 2
    if size % 2 == 0:
        return target - math.floor(target)
    return target - (math.floor(target - HALF) + HALF)


def assert_matches_split_oracle(size: int, gamma: Fraction) -> None:
    offset = split_oracle(size, gamma)
    if offset == HALF:
        expected = GapRecord(size, gamma, offset, BRANCH_DEGENERATE, None)
    else:
        branch = BRANCH_LOW if offset < HALF else BRANCH_HIGH
        expected = GapRecord(size, gamma, offset, branch, abs(1 - 2 * offset) / size, offset == 0)
    assert gap_record(size, gamma) == expected


def level_energy(size: int, m, gamma: Fraction) -> Fraction:
    """E(N, m) = -(N + 2)/4 + m**2/N - gamma*m, the level of projection m."""
    return -Fraction(size + 2, 4) + Fraction(m) ** 2 / size - gamma * m


def assert_level_pair(size: int, gamma: Fraction, m0, m1) -> None:
    """m0 is the ground level and m1 the first excited one: the branch names
    the side of gamma*N/2 that m0 lies on, and the gap is E(m1) - E(m0)."""
    rec = gap_record(size, gamma)
    assert rec.branch == (BRANCH_LOW if m0 <= gamma * size / 2 else BRANCH_HIGH)
    assert rec.gap == level_energy(size, m1, gamma) - level_energy(size, m0, gamma)


@st.composite
def fields(draw, max_bits):
    """(p, q) with 0 <= p < q and q of up to max_bits bits; a pair, since
    the repr of a huge Fraction in a failure report would exceed the
    interpreter's int-to-str digit limit."""
    bits = draw(st.integers(1, 64) | st.integers(64, max_bits)
                | st.integers(max(1, max_bits - 10_000), max_bits))
    q = draw(st.integers(2 ** (bits - 1), 2**bits))
    return draw(st.integers(0, q - 1)), q


class TestResidueRouteAgainstSplitOracle:
    """gap_record against the Fraction split."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 2000), fields(64))
    @example(1, (0, 1))
    @example(2, (0, 1))
    @example(10, (1, 2))
    def test_small_fields(self, size, field):
        assert_matches_split_oracle(size, Fraction(*field))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200) | st.integers(2**40, 2**80), fields(70_000))
    @example(3, (2**70_000 - 1, 2**70_000))
    @example(2**69 + 1, (1, 3**44_000))
    def test_huge_fields(self, size, field):
        assert_matches_split_oracle(size, Fraction(*field))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6), st.data())
    def test_crossings(self, size, data):
        # gamma*N/2 on the grid's midpoints: a half-integer for even N, an
        # integer for odd N
        k = data.draw(st.integers(0, (size - 1) // 2))
        gamma = Fraction(2 * k + 1 if size % 2 == 0 else 2 * k, size)
        if gamma >= 1:
            return
        assert gap_record(size, gamma).branch == BRANCH_DEGENERATE
        assert_matches_split_oracle(size, gamma)

    @pytest.mark.parametrize("kind,count", [
        (SequenceKind.DOUBLE_EXP, 5), (SequenceKind.FACTORIAL, 4),
    ])
    def test_series_fields(self, kind, count):
        # the 65k-bit double-exp field and the factorial one, at N = 1..64 and
        # at every size a scaling row of either rule can take
        gamma = gamma_value(kind, count)
        rows = {scale * a for scale in (1, 2) for a in terms(kind, count - 1)}
        for size in sorted(set(range(1, 65)) | rows):
            assert_matches_split_oracle(size, gamma)


class TestEnergyLevel:
    @pytest.mark.parametrize(
        "size,m,gamma,expected",
        [
            (4, 0, Fraction(1, 3), Fraction(-3, 2)),
            (4, 1, Fraction(1, 3), Fraction(-19, 12)),
            (2, 1, Fraction(0), Fraction(-1, 2)),
            (3, Fraction(1, 2), Fraction(1, 3), Fraction(-5, 4) + Fraction(1, 12) - Fraction(1, 6)),
        ],
    )
    def test_values(self, size, m, gamma, expected):
        assert level_energy(size, m, gamma) == expected


class TestDeltaFrac:
    def test_even_size(self):
        rec = gap_record(4, Fraction(1, 3))
        assert rec.delta == Fraction(2, 3) and rec.branch == BRANCH_HIGH

    def test_odd_size_on_grid(self):
        # target 1/2 is itself a half-odd-integer, so the offset vanishes
        rec = gap_record(3, Fraction(1, 3))
        assert rec.delta == 0 and rec.branch == BRANCH_LOW

    def test_exact_crossing_flagged(self):
        rec = gap_record(10, Fraction(1, 2))
        assert rec.delta == HALF and rec.branch == BRANCH_DEGENERATE

    def test_odd_size_at_zero_field_is_degenerate(self):
        # m = +-1/2 tie exactly
        assert gap_record(3, Fraction(0)).branch == BRANCH_DEGENERATE

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            gap_record(4, Fraction(-1, 3))


class TestLevels:
    def test_even_case(self):
        assert_level_pair(4, Fraction(1, 3), 1, 0)

    def test_zero_field(self):
        assert_level_pair(16, Fraction(0), 0, 1)

    def test_odd_case(self):
        assert_level_pair(3, Fraction(1, 3), HALF, Fraction(3, 2))

    def test_degenerate_raises(self):
        # m = 2 and m = 3 tie, so there is no gap
        gamma = Fraction(1, 2)
        assert level_energy(10, 2, gamma) == level_energy(10, 3, gamma)
        rec = gap_record(10, gamma)
        assert rec.gap is None and rec.branch == BRANCH_DEGENERATE

    def test_ordering(self):
        for size in (2, 5, 8, 33):
            rec = gap_record(size, Fraction(2, 7))
            if rec.branch != BRANCH_DEGENERATE:
                assert rec.gap > 0


class TestExactGap:
    @pytest.mark.parametrize(
        "size,gamma,expected",
        [
            (4, Fraction(1, 3), Fraction(1, 12)),
            (16, Fraction(0), Fraction(1, 16)),
            (6, Fraction(361, 720), Fraction(1, 720)),
            (3, Fraction(1, 3), Fraction(1, 3)),
        ],
    )
    def test_values(self, size, gamma, expected):
        assert gap_record(size, gamma).gap == expected

    def test_degenerate_raises(self):
        rec = gap_record(10, Fraction(1, 2))
        assert rec.gap is None and rec.branch == BRANCH_DEGENERATE

    @given(
        size=st.integers(min_value=1, max_value=300),
        num=st.integers(min_value=0, max_value=59),
        den=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200)
    def test_gap_law_identity(self, size, num, den):
        # N*gap + 2*min(delta, 1 - delta) == 1 exactly, both parities
        rec = gap_record(size, Fraction(num % den, den))
        if rec.branch == BRANCH_DEGENERATE:
            return
        assert size * rec.gap + 2 * min(rec.delta, 1 - rec.delta) == 1

    @given(
        size=st.integers(min_value=1, max_value=120),
        num=st.integers(min_value=0, max_value=39),
        den=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150)
    def test_matches_brute_force_enumeration(self, size, num, den):
        gamma = Fraction(num % den, den)
        rec = gap_record(size, gamma)
        assert rec.gap == min_excitation_brute(size, gamma)
        assert (rec.gap is None) == (rec.branch == BRANCH_DEGENERATE)


class TestGapRecord:
    def test_branches(self):
        assert gap_record(2, Fraction(1, 3)).branch == BRANCH_LOW
        assert gap_record(4, Fraction(1, 3)).branch == BRANCH_HIGH
        rec = gap_record(10, Fraction(1, 2))
        assert rec.branch == BRANCH_DEGENERATE and rec.gap is None

    def test_excited_tie_flag_at_zero_field(self):
        assert gap_record(16, Fraction(0)).excited_tied
        assert not gap_record(4, Fraction(1, 3)).excited_tied

    @pytest.mark.parametrize("gamma", [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)])
    def test_edge_branch_matches_brute_force_enumeration(self, gamma):
        # for gamma >= 1 the levels N/2 and N/2 - 1 are the lowest pair
        for size in range(1, 121):
            rec = gap_record(size, gamma)
            assert rec.gap == min_excitation_brute(size, gamma) == gamma - 1 + Fraction(1, size)
            assert rec.branch == BRANCH_EDGE and not rec.excited_tied
            assert rec.delta == split_oracle(size, gamma)

    def test_floats_rejected(self):
        for gamma in (0.3, 1.0):
            with pytest.raises(TypeError) as exc:
                gap_record(4, gamma)
            assert str(exc.value) == ('gamma must be an exact rational (Fraction or int), '
                                      'got float; build one with Fraction("p/q")')


class TestValueSets:
    def test_third(self):
        values = gap_times_size_values(Fraction(1, 3), range(2, 1001, 2))
        assert values == {Fraction(1, 3), Fraction(1)}

    def test_zero_field(self):
        assert gap_times_size_values(Fraction(0), range(2, 501, 2)) == {Fraction(1)}

    def test_fifth_bounded_by_denominator(self):
        values = gap_times_size_values(Fraction(1, 5), range(2, 1001, 2))
        assert len(values) <= 5

    @pytest.mark.parametrize("den", range(2, 21))
    def test_cardinality_bound_all_small_denominators(self, den):
        for num in range(den):
            gamma = Fraction(num, den)
            if gamma.denominator > den or gamma >= 1:
                continue
            values = gap_times_size_values(gamma, range(2, 201, 2))
            assert len(values) <= gamma.denominator
