"""States of coupled walks on the n-fold product of the complete graph K_d.

A state is a length-n vector with entries in {0, ..., d-1} (coordinates are
0-based internally).  The walk moves one coordinate at a time, uniformly to
one of the other d-1 values, at unit rate per coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WalkParams:
    """Dimensions of the product walk: d vertices per factor, n coordinates."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
