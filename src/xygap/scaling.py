"""Engineered size sequences and the exact gap-closing trichotomy.

The h = 0 gap law gap = |1 - 2*delta|/N makes the closing rate a question
about how fast the fractional offset delta(N) approaches 1/2 (or 0) along a
chosen sequence of system sizes.  Three regimes are realized exactly:

* sizes N_n = a_n on the double-exponential sequence, field = sum(1/a_n):
  delta - 1/2 ~ N * 2**-N / 2, so the gap closes exponentially;
* sizes N_n = 2*a_n with the same field: delta ~ N * 2**(-N/2) / 2 tends to
  0, so the gap closes polynomially (as 1/N);
* sizes N_n = a_n on the factorial sequence with its own field:
  the gap closes as 1/N!.

For a size N_n drawn from the defining sequence the offset has a closed
form.  With the field truncated at K >= n + 2 terms,

    delta = 1/2 + (a_n/2) * sum_{k=n+1..K} 1/a_k     (N_n = a_n, even)
    delta =       (a_n/2) * sum_{k=n+1..K} 1/a_k     (N_n = a_n, odd)
    delta =        a_n    * sum_{k=n+1..K} 1/a_k     (N_n = 2*a_n)

because the discarded head sum_{k<n} a_n/(2*a_k) is an integer.  Every row
is computed along two independent routes (this closed form, and the direct
fractional split of field*N/2) and the two exact rationals are required to
agree.  A certified bound on the truncation tail accompanies each row so
that branch decisions and classification bands provably hold for the
untruncated field, or the row fails loudly as truncation-insufficient.

The interval construction of the appendix lives here too
(:func:`dense_gamma_in_interval`, :class:`IntervalConstruction` and its
:func:`construction_enclosure`): it plants an anomalous field value inside
any target subinterval of (0, 1).  The digit-injection map, which embeds
decimal strings into anomalous field values, is
:func:`xygap.exactnum.injection_value`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

from . import gaplaw
from .errors import BitBudgetError, DegenerateDeltaError, TruncationInsufficientError
from .exactnum import decimal_str, format_rational, gamma_value, series_tail_bound_after
from .sequences import (
    DEFAULT_BIT_BUDGET, RULE_DOUBLED, RULE_PLAIN, SequenceKind, next_term, terms,
)

CLASS_EXPONENTIAL = "Exponential"
CLASS_POLYNOMIAL = "Polynomial"
CLASS_FACTORIAL = "Factorial"
CLASS_INDETERMINATE = "Indeterminate"

_HALF = Fraction(1, 2)


class _SizeSequence(NamedTuple):
    kind: SequenceKind
    rule: str = RULE_PLAIN


class SizeSequence(_SizeSequence):
    """A term recurrence plus the rule turning terms into system sizes."""

    __slots__ = ()

    def __new__(cls, kind: SequenceKind, rule: str = RULE_PLAIN):
        if rule not in (RULE_PLAIN, RULE_DOUBLED):
            raise ValueError(f"rule must be {RULE_PLAIN!r} or {RULE_DOUBLED!r}, got {rule!r}")
        return super().__new__(cls, kind, rule)


def sequence_sizes(seq: SizeSequence, count: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> list[int]:
    """System sizes N_1..N_count under the size rule."""
    scale = 1 if seq.rule == RULE_PLAIN else 2
    return [scale * a for a in terms(seq.kind, count, bit_budget)]


class ScalingRow(NamedTuple):
    """One certified (n, N_n) row of a scaling run.

    ``deviation_bound`` bounds how far the offset of the *untruncated* field
    can sit above the exact truncated ``delta``.
    """

    index: int
    size: int
    delta: Fraction
    branch: str
    gap: Fraction
    deviation_bound: Fraction

    @property
    def delta_minus_half(self) -> Fraction:
        return self.delta - _HALF


class ScalingReport(NamedTuple):
    sequence: SizeSequence
    truncation: int
    rows: Tuple[ScalingRow, ...]
    classification: str
    certificate: Tuple[str, ...]


def _two_route_offset(
    seq: SizeSequence, n: int, seq_terms: list[int], gamma: Fraction
) -> gaplaw.GapRecord:
    """The gap record at N_n, from the terms a_1..a_K and the field value
    they sum to, its offset checked against the closed form.

    Route one is the definition: the fractional split of field*N/2.  Route
    two is the closed form above.  Exact disagreement would mean the
    integer-part argument failed, so it is a hard error.
    """
    if n < 1:
        raise ValueError(f"row index must be >= 1, got {n}")
    if len(seq_terms) < n + 2:
        raise ValueError(
            f"field must be truncated at K >= n + 2 = {n + 2} terms, got K = {len(seq_terms)}"
        )
    a_n = seq_terms[n - 1]
    size = a_n if seq.rule == RULE_PLAIN else 2 * a_n
    tail = sum((Fraction(1, a) for a in seq_terms[n:]), Fraction(0))
    if seq.rule == RULE_DOUBLED:
        closed = a_n * tail
    elif size % 2 == 0:
        closed = _HALF + Fraction(a_n, 2) * tail
    else:
        closed = Fraction(a_n, 2) * tail
    rec = gaplaw.gap_record(size, gamma)
    direct = rec.delta.value
    if direct != closed:
        raise ArithmeticError(
            f"offset routes disagree at n={n}, N={size}: direct - closed = "
            f"{decimal_str(direct - closed, 6)}"
        )
    return rec


def certify_branch(delta: Fraction, deviation_bound: Fraction, size: int, gamma) -> str:
    """Branch of the gap law that provably holds for the untruncated field.

    The untruncated offset lies in [delta, delta + deviation_bound); a
    certificate exists only when that whole interval sits strictly on one
    side of 1/2 and below the wraparound at 1.
    """
    if delta == _HALF:
        raise DegenerateDeltaError(size, gamma)
    if delta < _HALF and delta + deviation_bound >= _HALF:
        raise TruncationInsufficientError(
            f"offset {decimal_str(delta, 12)} + tail bound {decimal_str(deviation_bound, 6)} "
            f"straddles 1/2 at N={size}; increase the truncation"
        )
    if delta + deviation_bound >= 1:
        raise TruncationInsufficientError(
            f"offset enclosure wraps past 1 at N={size}; increase the truncation"
        )
    return gaplaw.BRANCH_LOW if delta < _HALF else gaplaw.BRANCH_HIGH


def scaling_row(
    seq: SizeSequence, n: int, truncation: int, bit_budget: int = DEFAULT_BIT_BUDGET,
) -> ScalingRow:
    """Build one certified row of a scaling run.

    The field is the series over ``seq.kind`` truncated at K = ``truncation``
    terms.  Extending it by its tail raises field*N/2 by at most
    (N/2) * tail, and the tail is certified below 2/a_{K+1} (or 1/a_K when
    a_{K+1} is out of budget); that is the row's deviation bound.
    """
    seq_terms = terms(seq.kind, truncation, bit_budget)
    gamma = gamma_value(seq.kind, truncation, bit_budget)
    rec = _two_route_offset(seq, n, seq_terms, gamma)
    size, delta = rec.size, rec.delta.value
    dev = Fraction(size, 2) * series_tail_bound_after(seq.kind, truncation, bit_budget)
    branch = certify_branch(delta, dev, size, gamma)
    return ScalingRow(index=n, size=size, delta=delta, branch=branch, gap=rec.gap,
                      deviation_bound=dev)


# ---------------------------------------------------------------------------
# classification

# label -> (recurrence whose successor of N is the band's scale, None for the
# scale N itself; band edges; certificate text)
_BANDS = {
    CLASS_EXPONENTIAL: (SequenceKind.DOUBLE_EXP, Fraction(1, 2), Fraction(2), "gap*2^N in [1/2, 2]"),
    CLASS_POLYNOMIAL: (None, Fraction(1, 2), Fraction(1), "gap*N in [1/2, 1]"),
    CLASS_FACTORIAL: (SequenceKind.FACTORIAL, Fraction(1, 2), Fraction(2), "gap*N! in [1/2, 2]"),
}


def _band_value(row: ScalingRow, label: str, bit_budget: int) -> Optional[Fraction]:
    """gap*scale when it is certified in band, else None.

    The untruncated gap differs from the row gap by at most
    2*deviation_bound/N, so the band value moves by at most that times the
    scale; the whole perturbed interval must stay in band.  A scale out of
    the bit budget certifies nothing.
    """
    recurrence, lo, hi, _ = _BANDS[label]
    try:
        scale = row.size if recurrence is None else next_term(recurrence, row.size, bit_budget)
    except BitBudgetError:
        return None
    value = row.gap * scale
    slack = 2 * scale * row.deviation_bound / row.size
    return value if lo <= value - slack and value + slack <= hi else None


def classify_scaling(
    rows: Sequence[ScalingRow], bit_budget: int = DEFAULT_BIT_BUDGET
) -> Tuple[str, Tuple[str, ...]]:
    """Assign Exponential / Polynomial / Factorial from certified band checks.

    A label applies when every row satisfies its band (including the
    truncation slack).  Small-index rows sit outside the asymptotic regime
    (at n = 2 on the doubled rule the exact value of gap*N is
    1/2 - 2**-13, a hair under the band), so when no label covers all rows
    the leading rows are dropped one at a time and the longest suffix with a
    unique label decides, with the drops recorded in the certificate.
    Anything else is Indeterminate; a label is never forced.
    """
    if len(rows) < 2:
        raise ValueError("classification needs at least 2 certified rows")
    values = {label: [_band_value(row, label, bit_budget) for row in rows] for label in _BANDS}
    for start in range(len(rows)):
        passing = [
            label for label, column in values.items()
            if all(value is not None for value in column[start:])
        ]
        if len(passing) == 1:
            label = passing[0]
            suffix = rows[start:]
            cert = [f"{_BANDS[label][3]} holds for rows n={suffix[0].index}..{suffix[-1].index}"]
            for row, value in zip(suffix, values[label][start:]):
                cert.append(
                    f"n={row.index}, N={row.size}: band value {decimal_str(value, 12)}, "
                    f"offset tail bound {decimal_str(row.deviation_bound, 4)}"
                )
            if start:
                dropped = ", ".join(str(r.index) for r in rows[:start])
                cert.append(
                    f"rows n={dropped} are below the asymptotic regime and were "
                    f"excluded from the certificate"
                )
            return label, tuple(cert)
        if len(passing) > 1:
            return CLASS_INDETERMINATE, (
                f"rows from n={rows[start].index} satisfy several bands; refusing to pick",
            )
    return CLASS_INDETERMINATE, ("no classification band covers any suffix of the rows",)


def build_scaling_report(
    seq: SizeSequence, truncation: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
    indices: Optional[Sequence[int]] = None,
) -> ScalingReport:
    """Rows n = 1..K-2 (or the given indices) plus the certified classification,
    for the series over ``seq.kind`` truncated at K = ``truncation`` terms."""
    if indices is None:
        indices = range(1, truncation - 1)
    rows = tuple(scaling_row(seq, n, truncation, bit_budget) for n in indices)
    classification, certificate = classify_scaling(rows, bit_budget)
    return ScalingReport(
        sequence=seq,
        truncation=truncation,
        rows=rows,
        classification=classification,
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# appendix construction

class _IntervalConstruction(NamedTuple):
    lo: Fraction
    hi: Fraction
    scale_exp: int
    anchor_num: int
    positive_branch: bool
    series_index: int


class IntervalConstruction(_IntervalConstruction):
    """Dyadic anchor anchor_num/2**scale_exp +- the series tail from index series_index.

    Built by :func:`dense_gamma_in_interval`; carries the target interval
    (lo, hi) it is certified to land in.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, scale_exp: int, anchor_num: int,
                positive_branch: bool, series_index: int):
        if not (0 < lo < hi < 1):
            raise ValueError(f"need 0 < lo < hi < 1, got ({lo}, {hi})")
        return super().__new__(cls, lo, hi, scale_exp, anchor_num, positive_branch, series_index)

    @property
    def anchor(self) -> Fraction:
        return Fraction(self.anchor_num, 2**self.scale_exp)


def construction_enclosure(
    spec: IntervalConstruction, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Tuple[Fraction, Fraction]:
    """Exact bounds [lo, hi] containing anchor +- the untruncated series tail.

    The tail's first term 1/a_n is added exactly and the rest is bounded, so
    the positive branch underestimates and the negative one overestimates.
    """
    first = Fraction(1, terms(SequenceKind.DOUBLE_EXP, spec.series_index, bit_budget)[-1])
    rest = series_tail_bound_after(SequenceKind.DOUBLE_EXP, spec.series_index, bit_budget)
    if spec.positive_branch:
        value = spec.anchor + first
        return value, value + rest
    value = spec.anchor - first
    return value - rest, value


def dense_gamma_in_interval(
    lo, hi, bit_budget: int = DEFAULT_BIT_BUDGET
) -> IntervalConstruction:
    """An anomalous-scaling field value certified to lie in (lo, hi).

    Takes the smallest scale k with hi - lo > 2**-k, the smallest dyadic
    numerator with lo < anchor < hi, and the smallest sequence index n with
    a_n > 2**(k+2); the series tail from n is then provably below
    2**-(k+1), which is less than the anchor's distance to the farther
    endpoint, so anchor +- tail stays inside.  Ties between the two branch
    rules pick the positive branch.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 < lo < hi < 1:
        raise ValueError(f"need 0 < lo < hi < 1, got ({lo}, {hi})")
    width = hi - lo
    k = 1
    while Fraction(1, 2**k) >= width:
        k += 1
    scale = 2**k
    anchor_num = math.floor(lo * scale) + 1
    anchor = Fraction(anchor_num, scale)
    if not lo < anchor < hi:
        raise ArithmeticError(f"no dyadic anchor at scale 2^-{k} inside ({lo}, {hi})")
    positive = hi - anchor >= anchor - lo
    threshold = 2 ** (k + 2)
    seq = terms(SequenceKind.DOUBLE_EXP, 1, bit_budget)
    while seq[-1] <= threshold:
        seq = terms(SequenceKind.DOUBLE_EXP, len(seq) + 1, bit_budget)
    n = len(seq)
    spec = IntervalConstruction(
        lo=lo, hi=hi, scale_exp=k, anchor_num=anchor_num,
        positive_branch=positive, series_index=n,
    )
    enc_lo, enc_hi = construction_enclosure(spec, bit_budget)
    if not (lo < enc_lo and enc_hi < hi):
        raise ArithmeticError(
            f"interval construction failed its own certificate for ({lo}, {hi})"
        )
    return spec


# ---------------------------------------------------------------------------
# serialization

def _rational_json(r: Fraction, digits: int = 17) -> dict:
    return {
        "ratio": format_rational(r),
        "decimal": decimal_str(r, digits),
        "num_bits": r.numerator.bit_length(),
        "den_bits": r.denominator.bit_length(),
    }


def report_to_json_dict(report: ScalingReport) -> dict:
    return {
        "schema_version": 1,
        "sequence": {"kind": report.sequence.kind.value, "rule": report.sequence.rule},
        "field": {"kind": "truncated-series", "sequence": report.sequence.kind.value,
                  "terms": report.truncation},
        "rows": [
            {
                "n": row.index,
                "N": row.size,
                "delta": _rational_json(row.delta),
                "delta_minus_half": _rational_json(row.delta_minus_half),
                "gap": _rational_json(row.gap),
                "branch": row.branch,
                "deviation_bound": _rational_json(row.deviation_bound, 6),
            }
            for row in report.rows
        ],
        "classification": report.classification,
        "certificate": list(report.certificate),
    }


def report_to_json(report: ScalingReport) -> str:
    import json

    return json.dumps(report_to_json_dict(report), indent=2)


def report_json_chunks(report: ScalingReport) -> Iterator[str]:
    """The text of :func:`report_to_json` in the encoder's chunks, so that it
    can be written without being held whole."""
    import json

    return json.JSONEncoder(indent=2).iterencode(report_to_json_dict(report))


SCALING_CSV_HEADER = "n,N,delta_minus_half,gap,gap_decimal"


def report_csv_lines(report: ScalingReport) -> list[str]:
    lines = [SCALING_CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.index},{row.size},{format_rational(row.delta_minus_half)},"
            f"{format_rational(row.gap)},{decimal_str(row.gap, 17)}"
        )
    return lines
