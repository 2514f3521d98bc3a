"""Engineered integer sequences and the bit budget that keeps them finite.

Two recurrences are supported:

* ``DOUBLE_EXP``: a_{n+1} = 2**a_n with a_0 = 1, giving 2, 4, 16, 65536, 2**65536, ...
* ``FACTORIAL``:  a_{n+1} = a_n! with a_1 = 3, giving 3, 6, 720, 720!, ...

Terms are exact integers.  Growth is so violent that the sixth double-exp
term (2**2**65536) could never be materialized; every entry point therefore
takes a bit budget and fails loudly with :class:`BitBudgetError` instead of
exhausting memory.
"""

from __future__ import annotations

import enum
import math

from .errors import BitBudgetError

DEFAULT_BIT_BUDGET = 10**6
HARD_BIT_CAP = 10**8

_LGAMMA_SAFE_MAX = 2**48  # above this, a! is out of any sane budget


class SequenceKind(str, enum.Enum):
    DOUBLE_EXP = "double-exp"
    FACTORIAL = "factorial"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def first_term(kind: SequenceKind) -> int:
    return 2 if kind is SequenceKind.DOUBLE_EXP else 3


def next_term_bits(kind: SequenceKind, term: int) -> int | None:
    """Bit length of the successor of ``term``, or None when unrepresentable.

    For the double-exponential rule the successor 2**term has exactly
    term + 1 bits.  For the factorial rule the bit length of term! is
    estimated via lgamma; terms too large for that estimate are certainly
    beyond any budget (n! >= 2**n for n >= 4).
    """
    if kind is SequenceKind.DOUBLE_EXP:
        return term + 1
    if term > _LGAMMA_SAFE_MAX:
        return None
    return int(math.lgamma(term + 1) / math.log(2)) + 2


def next_term(kind: SequenceKind, term: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> int:
    bits = next_term_bits(kind, term)
    if bits is None or bits > bit_budget:
        need = "astronomically many" if bits is None or bits.bit_length() > 64 else str(bits)
        raise BitBudgetError(
            f"next {kind.value} term after a term of {term.bit_length()} bits "
            f"would need {need} bits (budget {bit_budget})"
        )
    if kind is SequenceKind.DOUBLE_EXP:
        return 1 << term
    return math.factorial(term)


def terms(kind: SequenceKind, count: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> list[int]:
    """First ``count`` terms a_1..a_count, or raise :class:`BitBudgetError`."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = [first_term(kind)]
    while len(out) < count:
        out.append(next_term(kind, out[-1], bit_budget))
    return out


def max_term_count(kind: SequenceKind, bit_budget: int = DEFAULT_BIT_BUDGET) -> int:
    """Largest n such that a_n fits the budget (5 and 4 for the defaults)."""
    term = first_term(kind)
    n = 1
    while n < 64:
        bits = next_term_bits(kind, term)
        if bits is None or bits > bit_budget:
            return n
        term = next_term(kind, term, bit_budget)
        n += 1
    return n  # pragma: no cover - unreachable for the supported kinds


def doubling_holds(seq: list[int]) -> bool:
    """True when a_{j+1} >= 2 a_j for every stored consecutive pair."""
    return all(b >= 2 * a for a, b in zip(seq, seq[1:]))
