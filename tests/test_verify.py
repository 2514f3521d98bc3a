from fractions import Fraction

from xygap import gaplaw, scaling, verify
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


class TestFailuresAreReported:
    """A suite whose oracles disagree reports FAIL; the run goes on."""

    def test_offset_routes_disagree(self, monkeypatch, capsys):
        real = gaplaw.delta_frac

        def shifted(size, gamma):
            d = real(size, gamma)
            return gaplaw.DeltaValue(d.value + Fraction(1, 2**70_000), d.parity, d.degenerate)

        monkeypatch.setattr(gaplaw, "delta_frac", shifted)
        assert main(["verify", "--max-N", "8"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert len(lines) == 7 and lines[-1] == "5/6 suites passed"
        assert lines[1].startswith("FAIL closed-form-routes: offset routes disagree at n=1, N=2")

    def test_interval_construction_fails_its_certificate(self, monkeypatch):
        monkeypatch.setattr(scaling, "gamma_within", lambda spec, lo, hi, budget: False)
        res = verify.check_dense_intervals(samples=3)
        assert not res.passed
        assert res.detail.startswith("interval construction failed its own certificate for (")
