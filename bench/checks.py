"""Output checks that do not trust the code under test.

Every check re-derives what it compares against from the model's definition,
H = -(Sx^2 + Sy^2)/N - gamma*Sz - h*Sx, with its own arithmetic: integer level
enumeration and the integer fractional split on the h = 0 line, dense
eigensolves of the sector matrix for N <= 64, a recorded LAPACK reference
table for larger N, a refined global minimizer, the spin-wave expansion and
closed forms in the thermodynamic limit, and the engineered sequences summed
from scratch.  Nothing in here
imports xygap.

Each check takes the text of the files a command wrote (by path) and its
standard output and returns ``(rows, problems)``: the number of output data
rows and a list of human-readable problems, empty when the output is correct.
CSV columns are looked up by header name, so added columns do not break them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HALF = Fraction(1, 2)
DENSE_MAX_N = 64                 # sector gaps up to here are checked by dense eigvalsh
DENSE_ABS_TOL = 1e-10
REFERENCE_REL_TOL = 1e-8         # against the recorded LAPACK table, N > DENSE_MAX_N
REFERENCE_ABS_TOL = 1e-10
CROSS_ABS_TOL = 1e-10            # gap_numeric column against the exact gap
REFERENCE_PATH = Path(__file__).with_name("sector_reference.json")

BRANCH_LOW = "delta<1/2"
BRANCH_HIGH = "delta>1/2"
BRANCH_DEGENERATE = "degenerate"


@contextlib.contextmanager
def _unlimited_int_digits():
    """Rationals here reach 2**65536, beyond the default int<->str digit cap."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _ratio(text: str) -> Fraction:
    num, den = text.split("/")
    with _unlimited_int_digits():
        return Fraction(int(num), int(den))


def _csv_rows(text: str, columns: tuple[str, ...]) -> tuple[list[dict], list[str]]:
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        return [], [f"CSV header lacks {missing}"]
    return list(reader), []


def _grid(spec: str) -> list[float]:
    lo_s, hi_s, count_s = spec.split(":")
    lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count - 1)] + [hi]


# ---------------------------------------------------------------------------
# thermodynamic limit

_THETA = np.linspace(0.0, math.pi, 2049)
_SIN, _COS = np.sin(_THETA), np.cos(_THETA)
BISECTION_STEPS = 64
THETA_TOL = 1e-10        # rounding is ~1e-15; slack for flat minima near gamma = 1, h = 0
GAP_SQ_TOL = 2e-12       # the program rounds a gap squared below 1e-12 to 0
CLOSED_FORM_TOL = 1e-12


def _slope(theta, gamma, habs):
    """d/dtheta of the energy density -sin^2/4 - |h| sin/2 - gamma cos/2."""
    s, c = np.sin(theta), np.cos(theta)
    return -0.5 * s * c - 0.5 * habs * c + 0.5 * gamma * s


def minimizer(gamma: np.ndarray, habs: np.ndarray) -> np.ndarray:
    """Global minimizer of the energy density over theta in [0, pi].

    The argmin of a 2049-point scan brackets it; bisection on the slope
    between the neighbouring grid points refines it to rounding.  A minimum
    on an end of [0, pi] is kept where the slope does not point inwards.
    """
    k = np.empty(len(gamma), dtype=np.intp)
    for lo in range(0, len(gamma), 256):
        sl = slice(lo, lo + 256)
        energy = -0.25 * _SIN**2 - 0.5 * habs[sl, None] * _SIN - 0.5 * gamma[sl, None] * _COS
        k[sl] = energy.argmin(axis=1)
    lo = _THETA[np.maximum(k - 1, 0)]
    hi = _THETA[np.minimum(k + 1, len(_THETA) - 1)]
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        down = _slope(mid, gamma, habs) < 0
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    theta = 0.5 * (lo + hi)
    theta[(k == 0) & (_slope(0.0, gamma, habs) >= 0)] = 0.0
    theta[(k == len(_THETA) - 1) & (_slope(math.pi, gamma, habs) <= 0)] = math.pi
    return theta


def gap_squared(theta, gamma, habs):
    """Spin-wave gap squared from the second-order expansion about theta.

    In the frame with the classical spin along z', H to second order is
    ((B - cos^2 theta) x^2 + (B - 1) p^2)/2 with
    B = sin^2 theta + gamma cos theta + |h| sin theta, so the gap squared is
    (B - 1)(B - cos^2 theta).
    """
    s, c = np.sin(theta), np.cos(theta)
    b = s * s + gamma * c + habs * s
    return (b - 1.0) * (b - c * c)


def phase_diagram(files, stdout, *, path, fmt, gamma, h):
    """Grid order, the minimizer and gap at every point, and three closed forms.

    theta0 must match :func:`minimizer` to THETA_TOL; the gap is then checked
    against :func:`gap_squared` at that theta0.
    At gamma = 0 the gap is sqrt(|h| + h^2); on h = 0 it is exactly 0 for
    gamma < 1 (the first-order line) and gamma - 1 for gamma >= 1.
    """
    columns = ("gamma", "h", "theta0", "m_x", "gap")
    text = files[path]
    if fmt == "csv":
        records, problems = _csv_rows(text, columns)
        if problems:
            return 0, problems
    else:
        payload = json.loads(text)
        if payload.get("schema_version") != 1:
            return 0, ["JSON schema_version is not 1"]
        records = payload["records"]
    expected = [(g, x) for g in _grid(gamma) for x in _grid(h)]
    if len(records) != len(expected):
        return len(records), [f"{len(records)} records, expected {len(expected)}"]
    g, hv, theta, m_x, gap = (
        np.array([float(r[c]) for r in records]) for c in columns
    )
    want = np.array(expected)
    problems = []
    if np.max(np.abs(g - want[:, 0])) > 1e-12 or np.max(np.abs(hv - want[:, 1])) > 1e-12:
        problems.append("records are not the requested gamma-major grid")
    if not (np.all(np.isfinite(gap)) and np.all(gap >= 0)):
        problems.append("gap not finite and nonnegative everywhere")
    sign = np.where(hv >= 0, 1.0, -1.0)
    if np.max(np.abs(m_x - sign * np.sin(theta))) > 1e-12:
        problems.append("m_x differs from sin(theta0)*sign(h)")
    habs = np.abs(hv)
    ref = minimizer(g, habs)
    off = np.abs(theta - ref) > THETA_TOL
    if off.any():
        i = int(np.argmax(np.abs(theta - ref)))
        problems.append(f"theta0 differs from the global minimizer at {off.sum()} points, "
                        f"e.g. gamma={g[i]}, h={hv[i]}: {float(theta[i])!r} vs {float(ref[i])!r}")
    wrong = np.abs(gap * gap - np.maximum(gap_squared(theta, g, habs), 0.0)) > GAP_SQ_TOL
    if wrong.any():
        i = int(np.argmax(wrong))
        problems.append(f"gap differs from the spin-wave expansion at {wrong.sum()} points, "
                        f"e.g. gamma={g[i]}, h={hv[i]}: {float(gap[i])!r}")
    closed_forms = (
        (g == 0.0, np.sqrt(habs + hv * hv), CLOSED_FORM_TOL, "gamma = 0", "sqrt(|h| + h^2)"),
        ((hv == 0.0) & (g < 1.0), 0.0, 0.0, "the first-order line h = 0, gamma < 1", "exactly 0"),
        ((hv == 0.0) & (g >= 1.0), g - 1.0, CLOSED_FORM_TOL, "h = 0, gamma >= 1", "gamma - 1"),
    )
    for where, law, tol, line, formula in closed_forms:
        if not where.any():
            problems.append(f"grid has no point on {line}")
        elif np.any(np.abs(gap - law)[where] > tol):
            problems.append(f"gap on {line} differs from {formula}")
    return len(records), problems


# ---------------------------------------------------------------------------
# finite N at h != 0

def dense_gap(size: int, gamma: float, h: float) -> float:
    """E1 - E0 from a dense eigensolve of the maximal-spin sector matrix.

    In the basis |m>, m = -S..S with S = N/2:
    <m|H|m> = -(S(S+1) - m^2)/N - gamma*m and
    <m+1|H|m> = -(h/2) sqrt((S - m)(S + m + 1)).
    """
    s = size / 2.0
    m = np.arange(size + 1) - s
    mat = np.diag(-(s * (s + 1) - m * m) / size - gamma * m)
    off = -(h / 2.0) * np.sqrt((s - m[:-1]) * (s + m[:-1] + 1))
    mat += np.diag(off, 1) + np.diag(off, -1)
    w = np.linalg.eigvalsh(mat)
    return float(w[1] - w[0])


def load_reference() -> dict:
    entries = json.loads(REFERENCE_PATH.read_text())["gaps"]
    return {(str(Fraction(e["gamma"])), float(e["h"]), int(e["N"])): float(e["gap"]) for e in entries}


def sector_gaps(files, stdout, *, path, gamma, h, sizes, reference):
    """finite-gap at h != 0: dense eigensolves, then the recorded table."""
    records, problems = _csv_rows(files[path], ("N", "gamma", "h", "gap_numeric"))
    if problems:
        return 0, problems
    if [int(r["N"]) for r in records] != list(sizes):
        return len(records), [f"sizes {[r['N'] for r in records]} differ from {list(sizes)}"]
    field = Fraction(gamma)
    for r in records:
        n, gap = int(r["N"]), float(r["gap_numeric"])
        if Fraction(r["gamma"]) != field or float(r["h"]) != float(h):
            problems.append(f"N={n}: field columns ({r['gamma']}, {r['h']}) differ from ({gamma}, {h})")
            continue
        if n <= DENSE_MAX_N:
            ref = dense_gap(n, float(field), float(h))
            tol = DENSE_ABS_TOL
        else:
            key = (str(field), float(h), n)
            if key not in reference:
                problems.append(f"no reference gap recorded for {key}")
                continue
            ref = reference[key]
            tol = REFERENCE_REL_TOL * abs(ref) + REFERENCE_ABS_TOL
        if not abs(gap - ref) <= tol:
            problems.append(f"N={n}, gamma={gamma}, h={h}: gap {gap!r} vs reference {ref!r}")
    return len(records), problems


# ---------------------------------------------------------------------------
# exact h = 0 line

def offset(gamma: Fraction, size: int) -> Fraction:
    """Fractional part of gamma*N/2 (even N) or of gamma*N/2 - 1/2 (odd N)."""
    p, q = gamma.numerator, gamma.denominator
    return Fraction((p * size - (size % 2) * q) % (2 * q), 2 * q)


def brute_force_gap(size: int, gamma: Fraction) -> Fraction | None:
    """Gap from enumerating every level; None on a two-fold ground state.

    With gamma = p/q and k = 2m, E(N, m) = const + (q k^2 - 2 N p k)/(4 N q)
    for k = -N, -N+2, ..., N: scaled integer energies, nothing else assumed.
    """
    p, q = gamma.numerator, gamma.denominator
    levels = sorted(q * k * k - 2 * size * p * k for k in range(-size, size + 1, 2))
    if levels[0] == levels[1]:
        return None
    return Fraction(levels[1] - levels[0], 4 * size * q)


def exact_rows(files, stdout, *, path, gamma, sizes, cross_max, sample, seed):
    """finite-gap on h = 0: every row against the integer split and the
    gap law, a seeded sample against brute-force level enumeration."""
    columns = ("N", "gamma", "delta", "branch", "gap", "gap_decimal", "gap_numeric")
    records, problems = _csv_rows(files[path], columns)
    if problems:
        return 0, problems
    if len(records) != len(sizes):
        return len(records), [f"{len(records)} rows, expected {len(sizes)}"]
    gamma_text = records[0]["gamma"] if records else ""
    if gamma_text and _ratio(gamma_text) != gamma:
        problems.append(f"gamma column {gamma_text[:40]} differs from the requested field")
    rows = []
    for r, n in zip(records, sizes):
        if int(r["N"]) != n or r["gamma"] != gamma_text:
            problems.append(f"row for N={r['N']} out of order or with another gamma")
            continue
        delta = _ratio(r["delta"])
        if delta != offset(gamma, n):
            problems.append(f"N={n}: delta differs from the fractional split of gamma*N/2")
            continue
        numeric = r["gap_numeric"]
        if (numeric != "") != (n <= cross_max):
            problems.append(f"N={n}: gap_numeric present iff N <= {cross_max} violated")
        if delta == HALF:
            if r["branch"] != BRANCH_DEGENERATE or r["gap"] or r["gap_decimal"]:
                problems.append(f"N={n}: crossing at delta = 1/2 not reported as degenerate")
            elif numeric and not abs(float(numeric)) <= CROSS_ABS_TOL:
                problems.append(f"N={n}: numeric gap {numeric} at a crossing")
            rows.append((n, None))
            continue
        gap = _ratio(r["gap"])
        rows.append((n, gap))
        if r["branch"] != (BRANCH_LOW if delta < HALF else BRANCH_HIGH):
            problems.append(f"N={n}: branch {r['branch']} does not match delta")
        if gap != abs(1 - 2 * delta) / n:
            problems.append(f"N={n}: gap is not |1 - 2 delta|/N")
        if not math.isclose(float(r["gap_decimal"]), float(gap), rel_tol=1e-15):
            problems.append(f"N={n}: gap_decimal {r['gap_decimal']} does not match gap")
        if numeric and not abs(float(numeric) - float(gap)) <= CROSS_ABS_TOL:
            problems.append(f"N={n}: gap_numeric {numeric} differs from the exact gap")
    for n, gap in random.Random(seed).sample(rows, min(sample, len(rows))):
        if brute_force_gap(n, gamma) != gap:
            problems.append(f"N={n}: gap differs from brute-force level enumeration")
    return len(records), problems


# ---------------------------------------------------------------------------
# certified scaling

def sequence_terms(kind: str, count: int) -> list[int]:
    """a_1..a_count: 2, 4, 16, 65536, ... or 3, 6, 720, 720!, ..."""
    out = [2 if kind == "double-exp" else 3]
    while len(out) < count:
        out.append(2 ** out[-1] if kind == "double-exp" else math.factorial(out[-1]))
    return out


def series_field(kind: str, count: int) -> Fraction:
    return sum((Fraction(1, a) for a in sequence_terms(kind, count)), Fraction(0))


SCALING_LABELS = {
    ("double-exp", "a_n"): "Exponential",
    ("double-exp", "2a_n"): "Polynomial",
    ("factorial", "a_n"): "Factorial",
}


def scaling_report(files, stdout, *, json_path, csv_path, kind, rule, terms):
    """Classification label and every row's exact ratios, recomputed."""
    payload = json.loads(files[json_path])
    problems = []
    label = SCALING_LABELS[(kind, rule)]
    if payload.get("classification") != label:
        problems.append(f"{kind}/{rule}: classification {payload.get('classification')!r}, expected {label}")
    if payload.get("sequence") != {"kind": kind, "rule": rule}:
        problems.append(f"sequence descriptor {payload.get('sequence')} is not {kind}/{rule}")
    seq = sequence_terms(kind, terms)
    field = series_field(kind, terms)
    rows = payload.get("rows", [])
    if [row.get("n") for row in rows] != list(range(1, terms - 1)):
        return len(rows), problems + [f"row indices {[row.get('n') for row in rows]} are not 1..{terms - 2}"]
    expected = []
    for row in rows:
        n = row["n"]
        size = seq[n - 1] * (1 if rule == "a_n" else 2)
        delta = offset(field, size)
        gap = abs(1 - 2 * delta) / size
        expected.append((n, size, delta - HALF, gap))
        if row["N"] != size:
            problems.append(f"row n={n}: N={row['N']}, expected {size}")
        elif (
            _ratio(row["delta"]["ratio"]) != delta
            or _ratio(row["delta_minus_half"]["ratio"]) != delta - HALF
            or _ratio(row["gap"]["ratio"]) != gap
        ):
            problems.append(f"row n={n}: delta or gap ratio differs from the exact recomputation")
    records, csv_problems = _csv_rows(files[csv_path], ("n", "N", "delta_minus_half", "gap", "gap_decimal"))
    problems += csv_problems
    got = [(int(r["n"]), int(r["N"]), _ratio(r["delta_minus_half"]), _ratio(r["gap"])) for r in records]
    if not csv_problems and got != expected:
        problems.append(f"{kind}/{rule}: CSV summary rows differ from the exact recomputation")
    return len(rows) + len(records), problems


def verify_summary(files, stdout, *, suites):
    lines = stdout.strip().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    problems = []
    if passed != suites or not lines or lines[-1] != f"{suites}/{suites} suites passed":
        problems.append(f"verify did not report {suites}/{suites} suites passed: {lines[-1:]}")
    return len(lines), problems
