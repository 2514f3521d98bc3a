"""The field point shared by the float layers, free of any array library."""

from __future__ import annotations

import math
from typing import NamedTuple


class _FieldPoint(NamedTuple):
    gamma: float
    h: float


class FieldPoint(_FieldPoint):
    """One (gamma, h) point; gamma is the transverse field and must be >= 0."""

    __slots__ = ()

    def __new__(cls, gamma: float, h: float):
        self = super().__new__(cls, gamma, h)
        if not (gamma >= 0 and math.isfinite(gamma) and math.isfinite(h)):
            raise ValueError(f"need finite gamma >= 0 and finite h, got {self}")
        return self
