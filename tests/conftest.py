from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
