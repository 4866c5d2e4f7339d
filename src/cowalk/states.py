"""States of coupled walks on the n-fold product of the complete graph K_d.

A state is a length-n vector with entries in {0, ..., d-1} (coordinates are
0-based internally).  The walk moves one coordinate at a time, uniformly to
one of the other d-1 values, at unit rate per coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .strategies import _count


@dataclass(frozen=True)
class WalkParams:
    """Dimensions of the product walk: d vertices per factor, n coordinates."""

    d: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "d", _count("d", self.d, 2))
        object.__setattr__(self, "n", _count("n", self.n, 1))
