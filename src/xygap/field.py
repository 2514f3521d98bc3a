"""The field point shared by the float layers, free of any array library."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FieldPoint:
    """One (gamma, h) point; gamma is the transverse field and must be >= 0."""

    gamma: float
    h: float

    def __post_init__(self):
        if not (self.gamma >= 0 and math.isfinite(self.gamma) and math.isfinite(self.h)):
            raise ValueError(f"need finite gamma >= 0 and finite h, got {self}")
