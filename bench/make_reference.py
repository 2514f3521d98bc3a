"""Regenerate sector_reference.json, the large-N gaps the sector checks use.

The gaps come from LAPACK's tridiagonal bisection (``stebz`` through
``scipy.linalg.eigh_tridiagonal``), not from xygap, on the sector matrix
written out from the model's definition in :func:`checks.dense_gap`.
Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

import checks
import workloads


def lapack_gap(size: int, gamma: float, h: float) -> float:
    s = size / 2.0
    m = np.arange(size + 1) - s
    diag = -(s * (s + 1) - m * m) / size - gamma * m
    off = -(h / 2.0) * np.sqrt((s - m[:-1]) * (s + m[:-1] + 1))
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 1),
                         lapack_driver="stebz", tol=np.finfo(float).tiny)
    return float(w[1] - w[0])


def main() -> None:
    cases = [workloads.SECTOR_README, workloads.SECTOR_NEAR_DEGENERATE]
    cases += [(point, workloads.SECTOR_SEEDED_SIZES) for point in workloads.SECTOR_FIELDS]
    gaps = []
    for (gamma, h), sizes in cases:
        for n in sizes:
            if n > checks.DENSE_MAX_N:
                gap = lapack_gap(n, float(Fraction(gamma)), float(h))
                gaps.append({"gamma": gamma, "h": h, "N": n, "gap": gap})
    payload = {"source": "scipy.linalg.eigh_tridiagonal, LAPACK stebz", "gaps": gaps}
    checks.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
