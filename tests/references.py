"""Coordinate-level references for the coupling strategies.

A co-adapted strategy is realized by an (n*d) x (n*d) doubly-stochastic
control matrix Q: independent Poisson streams of rate 1/(d-1) propose joint
moves "coordinate i of X to value k, coordinate j of Y to value l", and the
proposal is accepted with probability q[(i,k),(j,l)].  Row/column sums equal
to one guarantee that each chain, viewed alone, is a correct simple random
walk.  The library runs on the unmatched count N alone (``death_chain``);
these builders are the tests' reference that Q lumps to that chain.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from cowalk.strategies import RateSchedule, Strategy, _singles_mode, death_chain


def _pair(x, y):
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x, y


def level_schedule(strategy: Strategy, m: int, d: int) -> RateSchedule:
    """Level m of ``death_chain`` as exact rationals: the -1 and -2 rates
    c1/(d-1) and c2/(d-1)."""
    chain = death_chain(strategy, d, m)
    return RateSchedule(down2=Fraction(int(chain.c2[m]), d - 1),
                        down1=Fraction(int(chain.c1[m]), d - 1))


def build_q_matrix(strategy: Strategy, x, y, d: int) -> np.ndarray:
    """Doubly-stochastic control matrix realizing ``strategy`` at states (x, y).

    Rows/columns are indexed by (coordinate, value) as i*d + k.
    Synchronous moves every coordinate with the common increment y(i) - x(i)
    (0 where matched).  Otherwise the matrix starts from the identity, which
    keeps matched coordinates (no match is ever broken) and is the whole of
    singles mode.  Paired mode clears the (i, x(i)) and (i, y(i)) diagonals
    of each unmatched coordinate i and pairs the matching move of X(i) with
    that of Y(j), q[(i, y(i)), (j, x(j))] = w, completed by the no-op mass
    q[(i, x(i)), (j, y(j))] = w, which changes neither chain and keeps the
    matrix doubly stochastic.  The optimal strategy pairs i with every
    other unmatched j at w = 1/(N-1) (N >= 2 there, as N = 1 is singles
    mode); pairwise-classic pairs consecutive unmatched coordinates at w = 1.

    Only optimal, synchronous, and even-count pairwise-classic have a cheap
    full-matrix realization; the independent baseline is simulated directly.
    """
    strategy = Strategy(strategy)
    x, y = _pair(x, y)
    n = x.shape[0]
    if (x >= d).any() or (y >= d).any():
        raise ValueError("state values exceed d")
    if strategy is Strategy.SYNCHRONOUS:
        # common-increment pairing: X(i) -> k goes with Y(i) -> k + (y-x)
        rows = np.arange(n * d)
        i, k = np.divmod(rows, d)
        q = np.zeros((n * d, n * d))
        q[rows, i * d + (k + y[i] - x[i]) % d] = 1.0
        return q
    q = np.eye(n * d)
    u = np.flatnonzero(x != y)
    m = len(u)
    if m == 0 or (strategy is Strategy.OPTIMAL and _singles_mode(m, d)):
        return q
    if strategy is Strategy.PAIRWISE_CLASSIC and m % 2 == 1:
        raise ValueError(
            "pairwise-classic has a full-matrix realization only at even "
            "unmatched counts (odd counts behave independently)"
        )
    if strategy is Strategy.OPTIMAL:
        i, j = np.repeat(u, m), np.tile(u, m)
        i, j, w = i[i != j], j[i != j], 1.0 / (m - 1)
    elif strategy is Strategy.PAIRWISE_CLASSIC:
        i, j, w = u, u.reshape(-1, 2)[:, ::-1].ravel(), 1.0
    else:
        raise ValueError(f"no full-matrix realization for strategy {strategy!r}")
    q[u * d + x[u], u * d + x[u]] = q[u * d + y[u], u * d + y[u]] = 0.0
    q[i * d + y[i], j * d + x[j]] = w  # matching move of X(i) paired with one of Y(j)
    q[i * d + x[i], j * d + y[j]] = w  # no-op completion row/column
    return q


def lump_rates(q: np.ndarray, x, y, d: int) -> RateSchedule:
    """Rates of the unmatched count induced by a control matrix at (x, y).

    Every transition ((i,k),(j,l)) fires at rate q/(d-1); it sets X(i)=k and
    Y(j)=l (both on coordinate i when i == j) and is classified by its effect
    on the number of unmatched coordinates.
    """
    x, y = _pair(x, y)
    n = x.shape[0]
    if q.shape != (n * d, n * d):
        raise ValueError(f"expected matrix shape {(n * d, n * d)}, got {q.shape}")
    m0 = int(np.count_nonzero(x != y))
    lam = {s: 0.0 for s in (-2, -1, 0, 1, 2)}
    rows, cols = np.nonzero(q)
    for r, c in zip(rows, cols):
        i, k = divmod(int(r), d)
        j, l = divmod(int(c), d)
        x2 = x.copy()
        y2 = y.copy()
        x2[i] = k
        y2[j] = l
        delta = int(np.count_nonzero(x2 != y2)) - m0
        lam[delta] += q[r, c] / (d - 1)
    return RateSchedule(down2=lam[-2], down1=lam[-1], up1=lam[1], up2=lam[2])


def count_changes(x, y, d: int) -> np.ndarray:
    """Integer matrix of the change in the unmatched count when the proposal
    ((i,k),(j,l)) of ``lump_rates`` fires at (x, y): X(i) = k, Y(j) = l.

    Coordinate i then compares k with y(i) and coordinate j compares x(j)
    with l; on one coordinate (i == j) it compares k with l."""
    x, y = _pair(x, y)
    i, k = np.divmod(np.arange(x.shape[0] * d), d)
    before = (x != y).astype(np.int64)[i]
    delta = ((k != y[i]) - before)[:, None] + ((x[i] != k) - before)[None, :]
    same = i[:, None] == i[None, :]
    delta[same] = ((k[:, None] != k[None, :]) - before[:, None])[same]
    return delta
