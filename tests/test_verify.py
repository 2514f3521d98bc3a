from fractions import Fraction

from xygap import verify
from xygap.verify import CheckResult, check_injection_injective


class TestInjectionSuite:
    """The suite compares integer numerators over lcm(positions); a few digit
    strings tie them to the library's Fraction sum."""

    def test_passes_with_unchanged_detail(self):
        assert check_injection_injective() == CheckResult(
            "injection-injective", True, "1000 distinct values from 1000 digit strings"
        )

    def test_catches_colliding_positions(self, monkeypatch):
        # ratio 2 between positions: (2b + 1) windows overlap, strings collide
        monkeypatch.setattr(verify, "_injection_positions", lambda length, budget: [16, 32, 64])
        res = check_injection_injective()
        assert not res.passed
        assert res.detail.endswith("distinct values from 1000 digit strings")

    def test_catches_numerators_that_leave_the_library_sum(self, monkeypatch):
        real = verify._injection_sum
        monkeypatch.setattr(
            verify, "_injection_sum",
            lambda digits, positions: real(digits, positions) + Fraction(1, 2**70_000),
        )
        res = check_injection_injective()
        assert not res.passed
        assert "integer numerator differs" in res.detail
