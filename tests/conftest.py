from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from xygap import classical
from xygap.field import FieldPoint
from xygap.gaplaw import gap_record
from xygap.literal import parse_ratio
from xygap.sector import sector_matrix

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args: str, cwd=None, python_flags=(), timeout=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "xygap", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )


@pytest.fixture
def cli():
    return run_cli


def parse_rational(text: str) -> Fraction:
    """The Fraction a "p/q" text names, its integers parsed past the
    interpreter's int<->str digit limit."""
    return Fraction(*parse_ratio(text))


class PhaseRecord(NamedTuple):
    gamma: float
    h: float
    theta0: float
    m_x: float
    gap: float


def phase_record(point: FieldPoint, near: float | None = None) -> PhaseRecord:
    """The thermodynamic-limit record of one field point, one point at a
    time as the scan once made it: the oracle for classical.scan_rows and
    its text.  ValueError past classical.SAFE_REACH."""
    gamma, habs = point.gamma, abs(point.h)
    if gamma + habs > classical.SAFE_REACH:
        raise ValueError(f"field gamma={gamma!r}, h={point.h!r} is too large: "
                         f"gamma + |h| exceeds {classical.SAFE_REACH!r}")
    theta0 = classical._theta0(gamma, habs, near)
    s = math.sin(theta0)
    return PhaseRecord(gamma=gamma + 0.0, h=point.h + 0.0, theta0=theta0,
                       m_x=(s if point.h >= 0 else -s) + 0.0,
                       gap=classical._gap(theta0, s, gamma, habs))


def phase_diagram_scan(gammas, hs):
    """One record per (gamma, h) grid point, gamma-major, each minimizer
    started from the previous record's theta0."""
    near = None
    for g in gammas:
        for h in hs:
            record = phase_record(FieldPoint(g, h), near)
            near = record.theta0
            yield record


def scan_csv_lines(records):
    """The header, then one row per record, each value as format(x, ".17g")
    after + 0.0, which prints -0.0 as 0."""
    yield classical.SCAN_CSV_HEADER
    for r in records:
        yield ",".join(format(v + 0.0, ".17g") for v in r)


def scan_payload(records) -> dict:
    """The scan's JSON document: the schema version and one object per record."""
    return {"schema_version": 1, "records": [r._asdict() for r in records]}


def min_excitation_brute(size: int, gamma: Fraction) -> Fraction | None:
    """Independent gap oracle: scan every level in the sector directly.

    Works in scaled integers: with gamma = p/q and m twice the spin
    projection, E(N, m) equals (q*m*m - 2*N*p*m)/(4*N*q) up to a constant.
    Returns None when the two lowest levels tie (a true crossing).
    No fractional-part or nearest-grid-point reasoning is used anywhere.
    """
    p, q = gamma.numerator, gamma.denominator
    best: int | None = None
    second: int | None = None
    for m in range(-size, size + 1, 2):
        val = q * m * m - 2 * size * p * m
        if best is None or val < best:
            best, second = val, best
        elif second is None or val < second:
            second = val
    assert best is not None and second is not None
    if best == second:
        return None
    return Fraction(second - best, 4 * size * q)


def gap_times_size_values(gamma: Fraction, sizes) -> set[Fraction]:
    """{N * gap(N)} over the sizes, skipping degenerate rows.

    For gamma = p/q the offsets cycle through at most q values, so this set
    has at most q members however many sizes are probed.
    """
    return {size * gap for size in sizes if (gap := gap_record(size, gamma).gap) is not None}


class SectorHamiltonian(NamedTuple):
    """Every row of a symmetric tridiagonal matrix: the sector matrix from
    build_sector_hamiltonian, the oracle for the rows computed on demand, or
    any other matrix lowest_eigenvalues should solve."""

    size: int
    diag: tuple[float, ...]      # length N+1, entry per m = -N/2 .. N/2
    offdiag: tuple[float, ...]   # length N, couples m and m+1

    def summary(self) -> tuple[float, int, float, float, float]:
        """One pass over the rows: the norm bound, the centre row, max |e|,
        min d and max d (xygap.sector's module docstring)."""
        diag = self.diag
        norm = off_max = 0.0
        lowest = math.inf
        centre = 0
        prev = 0.0  # |e_(i-1)|, nothing above the first row
        for i, e in enumerate(self.offdiag):
            a = abs(e)
            d = diag[i]
            row = (abs(d) + a) + prev
            if row > norm:
                norm = row
            edge = (d - a) - prev
            if edge < lowest:
                lowest, centre = edge, i
            if a > off_max:
                off_max = a
            prev = a
        d = diag[-1]  # the last row has no coupling below it
        norm = max(norm, abs(d) + prev)
        if d - prev < lowest:
            centre = len(diag) - 1
        return norm, centre, off_max, min(diag), max(diag)

    def rows(self, first: int, stop: int) -> tuple[list[float], list[float]]:
        """Rows first..stop-1: their diagonal, and the couplings e_(first-1)
        .. e_(stop-1), 0.0 beyond the matrix."""
        off = self.offdiag
        inner = off[first:stop - 1]
        return list(self.diag[first:stop]), [
            off[first - 1] if first else 0.0, *inner, off[stop - 1] if stop <= self.size else 0.0
        ]

    def outside_rows_clear(self, first: int, stop: int, shift: float, pivmin: float) -> bool:
        """Whether every row outside first..stop-1 passes the pivot floor at
        ``shift`` (xygap.sector's module docstring)."""
        return all(_pivot_floor_ok(*self.rows(p, r), shift, pivmin)
                   for p, r in ((0, first), (stop, self.size + 1)) if p < r)


def _pivot_floor_ok(diag, coup, shift: float, pivmin: float) -> bool:
    """Whether each row i of ``diag``, entered with pivot a_(i-1), hands on
    a pivot of at least max(a_i, pivmin); ``coup`` as the rows methods."""
    above = abs(coup[0])
    for i, d in enumerate(diag, 1):
        below = abs(coup[i])
        quotient = above * above / above if above else 0.0
        if d - shift - quotient < max(below, pivmin):
            return False
        above = below
    return True


def build_sector_hamiltonian(size: int, point: FieldPoint) -> SectorHamiltonian:
    """Every row of the sector matrix at ``point``; ValueError as
    sector_matrix."""
    diag, coup = sector_matrix(size, point).rows(0, size + 1)
    return SectorHamiltonian(size=size, diag=tuple(diag), offdiag=tuple(coup[1:-1]))
