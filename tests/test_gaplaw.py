import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import min_excitation_brute
from xygap.errors import DegenerateDeltaError
from xygap.exactnum import gamma_value
from xygap.gaplaw import (
    BRANCH_DEGENERATE,
    BRANCH_HIGH,
    BRANCH_LOW,
    DeltaValue,
    GapRecord,
    delta_frac,
    energy_level,
    exact_gap,
    excited_level,
    gap_record,
    gap_times_size_values,
    ground_level,
)
from xygap.scaling import RULE_DOUBLED, RULE_PLAIN, SizeSequence, sequence_sizes
from xygap.sequences import SequenceKind

HALF = Fraction(1, 2)


def split_oracle(size: int, gamma: Fraction) -> tuple[Fraction, Fraction]:
    """(anchor, offset) of gamma*N/2 in Fraction arithmetic: the grid point at
    or below it (an integer for even N, a half-odd-integer for odd N) and the
    distance above it."""
    target = gamma * size / 2
    if size % 2 == 0:
        anchor = Fraction(math.floor(target))
    else:
        anchor = math.floor(target - HALF) + HALF
    return anchor, target - anchor


def assert_matches_split_oracle(size: int, gamma: Fraction) -> None:
    anchor, offset = split_oracle(size, gamma)
    delta = DeltaValue(offset, "even" if size % 2 == 0 else "odd", offset == HALF)
    assert delta_frac(size, gamma) == delta
    if offset == HALF:
        expected = GapRecord(size, gamma, delta, BRANCH_DEGENERATE, None)
        with pytest.raises(DegenerateDeltaError):
            ground_level(size, gamma)
    else:
        branch = BRANCH_LOW if offset < HALF else BRANCH_HIGH
        expected = GapRecord(size, gamma, delta, branch, abs(1 - 2 * offset) / size, offset == 0)
        m0, m1 = (anchor, anchor + 1) if offset < HALF else (anchor + 1, anchor)
        assert (ground_level(size, gamma).m, excited_level(size, gamma).m) == (m0, m1)
    assert gap_record(size, gamma) == expected


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
    """gap_record, delta_frac and the level pair against the Fraction split."""

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
        assert delta_frac(size, gamma).degenerate
        assert_matches_split_oracle(size, gamma)

    @pytest.mark.parametrize("kind,count", [
        (SequenceKind.DOUBLE_EXP, 5), (SequenceKind.FACTORIAL, 4),
    ])
    def test_series_fields(self, kind, count):
        # the 65k-bit double-exp field and the factorial one, at N = 1..64 and
        # at every size a scaling row of either rule can take
        gamma = gamma_value(kind, count)
        rows = {
            size
            for rule in (RULE_PLAIN, RULE_DOUBLED)
            for size in sequence_sizes(SizeSequence(kind, rule), count - 1)
        }
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
        assert energy_level(size, m, gamma) == expected

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError):
            energy_level(4, Fraction(1, 2), Fraction(0))
        with pytest.raises(ValueError):
            energy_level(3, 1, Fraction(0))

    def test_range_violation_rejected(self):
        with pytest.raises(ValueError):
            energy_level(4, 3, Fraction(0))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            energy_level(4, 1, 0.3)


class TestDeltaFrac:
    def test_even_size(self):
        d = delta_frac(4, Fraction(1, 3))
        assert d.value == Fraction(2, 3) and d.parity == "even" and not d.degenerate

    def test_odd_size_on_grid(self):
        # target 1/2 is itself a half-odd-integer, so the offset vanishes
        d = delta_frac(3, Fraction(1, 3))
        assert d.value == 0 and d.parity == "odd" and not d.degenerate

    def test_exact_crossing_flagged(self):
        d = delta_frac(10, Fraction(1, 2))
        assert d.value == HALF and d.degenerate

    def test_odd_size_at_zero_field_is_degenerate(self):
        # m = +-1/2 tie exactly
        assert delta_frac(3, Fraction(0)).degenerate

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            delta_frac(4, Fraction(3, 2))


class TestLevels:
    def test_even_case(self):
        assert ground_level(4, Fraction(1, 3)).m == 1
        assert excited_level(4, Fraction(1, 3)).m == 0

    def test_zero_field(self):
        assert ground_level(16, Fraction(0)).m == 0
        assert excited_level(16, Fraction(0)).m == 1

    def test_odd_case(self):
        assert ground_level(3, Fraction(1, 3)).m == HALF
        assert excited_level(3, Fraction(1, 3)).m == Fraction(3, 2)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDeltaError):
            ground_level(10, Fraction(1, 2))

    def test_ordering(self):
        for size in (2, 5, 8, 33):
            gamma = Fraction(2, 7)
            if delta_frac(size, gamma).degenerate:
                continue
            assert excited_level(size, gamma).energy > ground_level(size, gamma).energy


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
        assert exact_gap(size, gamma) == expected

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDeltaError):
            exact_gap(10, Fraction(1, 2))

    @given(
        size=st.integers(min_value=1, max_value=300),
        num=st.integers(min_value=0, max_value=59),
        den=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200)
    def test_gap_law_identity(self, size, num, den):
        # N*gap + 2*min(delta, 1 - delta) == 1 exactly, both parities
        gamma = Fraction(num % den, den)
        d = delta_frac(size, gamma)
        if d.degenerate:
            return
        gap = exact_gap(size, gamma)
        assert size * gap + 2 * min(d.value, 1 - d.value) == 1

    @given(
        size=st.integers(min_value=1, max_value=120),
        num=st.integers(min_value=0, max_value=39),
        den=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150)
    def test_matches_brute_force_enumeration(self, size, num, den):
        gamma = Fraction(num % den, den)
        expected = min_excitation_brute(size, gamma)
        if expected is None:
            with pytest.raises(DegenerateDeltaError):
                exact_gap(size, gamma)
        else:
            assert exact_gap(size, gamma) == expected
            levels = excited_level(size, gamma).energy - ground_level(size, gamma).energy
            assert levels == exact_gap(size, gamma)


class TestGapRecord:
    def test_branches(self):
        assert gap_record(2, Fraction(1, 3)).branch == BRANCH_LOW
        assert gap_record(4, Fraction(1, 3)).branch == BRANCH_HIGH
        rec = gap_record(10, Fraction(1, 2))
        assert rec.branch == BRANCH_DEGENERATE and rec.gap is None

    def test_excited_tie_flag_at_zero_field(self):
        assert gap_record(16, Fraction(0)).excited_tied
        assert not gap_record(4, Fraction(1, 3)).excited_tied


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
