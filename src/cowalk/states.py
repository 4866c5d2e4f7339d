"""States of coupled walks on the n-fold product of the complete graph K_d.

A state is a length-n vector with entries in {0, ..., d-1} (coordinates are
0-based internally).  The walk moves one coordinate at a time, uniformly to
one of the other d-1 values, at unit rate per coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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


def hamming(x, y) -> int:
    """Number of coordinates where x and y differ."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return int(np.count_nonzero(x != y))


@dataclass(frozen=True)
class PairConfig:
    """A coupled pair of states plus its matched/unmatched coordinate split."""

    x: np.ndarray
    y: np.ndarray
    unmatched: np.ndarray = field(init=False)
    matched: np.ndarray = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        diff = x != y
        object.__setattr__(self, "unmatched", np.flatnonzero(diff))
        object.__setattr__(self, "matched", np.flatnonzero(~diff))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_unmatched(self) -> int:
        return self.unmatched.shape[0]

