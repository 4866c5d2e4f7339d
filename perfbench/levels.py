"""Level rates of the unmatched count and the exact rationals derived from
them, written from the model rather than from the package (standard
library only, so the CLI checks can use it without numpy)."""
from __future__ import annotations

from fractions import Fraction


def level_rates(strategy: str, d: int, m: int, exact: bool = True):
    """(rate of a -1 jump, rate of a -2 jump) at unmatched count m, as
    Fractions, or as floats when ``exact`` is false."""
    ratio = Fraction if exact else (lambda a, b: a / b)
    if m == 0:
        return ratio(0, 1), ratio(0, 1)
    if strategy == "independent":
        return ratio(2 * m, d - 1), ratio(0, 1)
    if strategy != "optimal":
        raise ValueError(f"no reference rates for {strategy!r}")
    if m % 2 == 1 and m * (d - 2) < 2 * (d - 1):  # singles mode
        return ratio(m * d, d - 1), ratio(0, 1)
    return ratio(m * (d - 2), d - 1), ratio(m, d - 1)


def transform_levels(d: int, m_max: int, alpha: Fraction) -> list[Fraction]:
    """V(0..m_max) at alpha, where V(m) is the Laplace transform of the tail
    of the optimal coupling time from m: (q + alpha) V(m) = 1 + q1 V(m-1)
    + q2 V(m-2)."""
    v = [Fraction(0)]
    for m in range(1, m_max + 1):
        q1, q2 = level_rates("optimal", d, m)
        v.append((1 + q1 * v[m - 1] + q2 * v[max(m - 2, 0)]) / (q1 + q2 + alpha))
    return v


def exact_means(strategy: str, d: int, m_max: int) -> list[Fraction]:
    """E[tau | N_0 = m] for m = 0..m_max (the transform at alpha = 0)."""
    if strategy == "optimal":
        return transform_levels(d, m_max, Fraction(0))
    e = [Fraction(0)]
    for m in range(1, m_max + 1):
        q1, q2 = level_rates(strategy, d, m)
        e.append((1 + q1 * e[m - 1] + q2 * e[max(m - 2, 0)]) / (q1 + q2))
    return e
