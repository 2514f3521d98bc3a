"""Cross-oracle verification suites, runnable from the command line.

Every suite pits two independent computations of the same quantity against
each other: the exact h = 0 gap law against the tridiagonal eigensolver,
the closed-form offset against the direct fractional split, the certified
tail bounds against explicit partial sums, the interval construction
against exact membership checks, and the eigensolver against itself on the
mirrored matrix.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import gaplaw, scaling, sector
from .errors import DegenerateDeltaError, TruncationInsufficientError
from .exactnum import injection_positions, injection_value, series_enclosure, tail_bound
from .field import FieldPoint
from .sequences import DEFAULT_BIT_BUDGET, SequenceKind, terms

DEFAULT_SEED = 20240817


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_exact_vs_numeric(max_size: int = 64) -> CheckResult:
    """Exact gap law vs Sturm-bisection eigensolver on the h = 0 line, both
    sides of the critical point gamma = 1 (the edge branch from there on)."""
    gammas = [Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(7, 10), Fraction(99, 100),
              Fraction(1), Fraction(5, 4), Fraction(2)]
    tol = Fraction(1, 10**12)
    worst = Fraction(0)
    rows = 0
    for gamma in gammas:
        for size in range(2, max_size + 1, 2):
            exact = gaplaw.gap_record(size, gamma).gap
            if exact is None:
                continue
            numeric = sector.finite_gap_numeric(size, FieldPoint(float(gamma), 0.0))
            diff = abs(exact - Fraction(numeric))
            worst = max(worst, diff)
            rows += 1
            if diff >= tol:
                return CheckResult(
                    "exact-vs-numeric", False,
                    f"N={size}, gamma={gamma}: |exact - numeric| = {float(diff):.3e}",
                )
    return CheckResult(
        "exact-vs-numeric", True,
        f"{rows} rows agree within 1e-12 (worst {float(worst):.3e})",
    )


def check_closed_form_routes(bit_budget: int = DEFAULT_BIT_BUDGET) -> CheckResult:
    """Two-route offset equality, and a certified branch, over every in-budget
    (sequence, rule, n)."""
    combos = 0
    for kind, k_trunc in ((SequenceKind.DOUBLE_EXP, 5), (SequenceKind.FACTORIAL, 4)):
        for rule in (scaling.RULE_PLAIN, scaling.RULE_DOUBLED):
            seq = scaling.SizeSequence(kind, rule)
            for n in range(1, k_trunc - 1):
                try:
                    scaling.scaling_row(seq, n, k_trunc, bit_budget)
                except (ArithmeticError, DegenerateDeltaError, TruncationInsufficientError) as exc:
                    return CheckResult("closed-form-routes", False, str(exc))
                combos += 1
    return CheckResult("closed-form-routes", True, f"{combos} (sequence, rule, n) combinations agree")


def check_appendix_bounds(bit_budget: int = DEFAULT_BIT_BUDGET) -> CheckResult:
    """Field enclosure in (1/2, 1) and tail bounds vs explicit partial sums."""
    for k_trunc in range(2, 6):
        lo, hi = series_enclosure(SequenceKind.DOUBLE_EXP, k_trunc, bit_budget)
        if not (Fraction(1, 2) < lo and hi < 1):
            return CheckResult("appendix-bounds", False, f"enclosure check failed at K={k_trunc}")
    seq = terms(SequenceKind.DOUBLE_EXP, 5, bit_budget)
    for n in range(1, 5):
        bound = tail_bound(SequenceKind.DOUBLE_EXP, n, bit_budget)
        partial = sum(Fraction(1, a) for a in seq[n - 1 :])
        if not partial < bound:
            return CheckResult(
                "appendix-bounds", False, f"partial sum from index {n} exceeds 2/a_{n}"
            )
    return CheckResult("appendix-bounds", True, "enclosures for K=2..5 and tail bounds for n=1..4 hold")


def check_dense_intervals(
    samples: int = 100, seed: int = DEFAULT_SEED, bit_budget: int = DEFAULT_BIT_BUDGET
) -> CheckResult:
    """Membership of random target intervals of width >= 1e-4 by the
    construction's argument: anchor +- 2^-(k+1) on the chosen branch lies
    inside (lo, hi), and the series tail from index n is below 2^-(k+1)."""
    rng = random.Random(seed)
    for _ in range(samples):
        width_units = rng.randrange(10, 40000)  # >= 1e-4 on a 1e-5 grid
        lo_units = rng.randrange(1, 10**5 - width_units - 1)
        lo = Fraction(lo_units, 10**5)
        hi = Fraction(lo_units + width_units, 10**5)
        try:
            spec = scaling.dense_gamma_in_interval(lo, hi, bit_budget)
        except ArithmeticError as exc:
            return CheckResult("dense-intervals", False, str(exc))
        reach = Fraction(1, 2 ** (spec.scale_exp + 1))
        far = spec.anchor + reach if spec.positive_branch else spec.anchor - reach
        if not (lo < min(spec.anchor, far) and max(spec.anchor, far) < hi):
            return CheckResult("dense-intervals", False, f"membership failed for ({lo}, {hi})")
        bound = tail_bound(SequenceKind.DOUBLE_EXP, spec.series_index, bit_budget)
        if not bound < reach:
            return CheckResult(
                "dense-intervals", False, f"tail bound not below 2^-(k+1) for ({lo}, {hi})"
            )
    return CheckResult("dense-intervals", True, f"{samples} random intervals certified")


# A prime modulus for the injection suite: numerators with distinct residues
# are distinct integers, so only strings that tie mod this prime need their
# 65k-bit numerators compared.
RESIDUE_PRIME = 2**61 - 1


def check_injection_injective(bit_budget: int = DEFAULT_BIT_BUDGET) -> CheckResult:
    """All 1000 length-3 digit strings map to distinct field values.

    The values share the denominator L = lcm(positions), so they are distinct
    iff the integers sum((2b + 1)*(L/a)) are; a few strings tie those
    integers to the library's sum.  The strings are grouped by that integer
    mod RESIDUE_PRIME, and the integers themselves are built only inside a
    group of two or more.
    """
    positions = injection_positions(3, bit_budget)
    lcm = math.lcm(*positions)
    weights = [lcm // a for a in positions]

    def numerator(digits) -> int:
        return sum((2 * b + 1) * w for b, w in zip(digits, weights))

    for digits in ((0, 0, 0), (9, 9, 9), (0, 9, 5), (5, 0, 9), (3, 1, 4)):
        if injection_value(digits, bit_budget) * lcm != numerator(digits):
            return CheckResult(
                "injection-injective", False,
                f"digits {digits}: integer numerator differs from the field value",
            )
    residues = [w % RESIDUE_PRIME for w in weights]
    groups: dict[int, list] = {}
    for digits in product(range(10), repeat=3):
        key = sum((2 * b + 1) * r for b, r in zip(digits, residues)) % RESIDUE_PRIME
        groups.setdefault(key, []).append(digits)
    distinct = sum(
        1 if len(group) == 1 else len({numerator(d) for d in group})
        for group in groups.values()
    )
    return CheckResult(
        "injection-injective", distinct == 1000,
        f"{distinct} distinct values from 1000 digit strings",
    )


def check_gauge_invariance(size: int = 32, gamma: float = 0.3, h: float = 0.7) -> CheckResult:
    """Reversing the rows (the reflection m -> -m) and flipping one
    off-diagonal sign is a signed permutation similarity, so it must leave
    the spectrum untouched.  The sign flip alone could not fail, as the
    Sturm counts read only squared couplings; the reversal shows a solver
    that pairs a coupling with the wrong row a different matrix."""
    ham = sector.build_sector_hamiltonian(size, FieldPoint(gamma, h))
    mirrored_off = list(reversed(ham.offdiag))
    mirrored_off[size // 2] *= -1.0
    mirrored = sector.SectorHamiltonian(
        size=ham.size, diag=ham.diag[::-1], offdiag=tuple(mirrored_off))
    ref = sector.lowest_eigenvalues(ham, 3)
    alt = sector.lowest_eigenvalues(mirrored, 3)
    worst = max(abs(a - b) for a, b in zip(ref, alt))
    ok = worst < 1e-11 * max(ham.summary()[0], 1.0)
    return CheckResult("gauge-invariance", ok, f"spectra differ by at most {worst:.3e}")


def run_all(
    max_size: int = 64, seed: int = DEFAULT_SEED, bit_budget: int = DEFAULT_BIT_BUDGET
) -> list[CheckResult]:
    return [
        check_exact_vs_numeric(max_size),
        check_closed_form_routes(bit_budget),
        check_appendix_bounds(bit_budget),
        check_dense_intervals(seed=seed, bit_budget=bit_budget),
        check_injection_injective(bit_budget),
        check_gauge_invariance(),
    ]
