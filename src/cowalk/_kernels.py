"""Hot simulation loops, both vectorised with numpy across replicates: the
lumped death-chain kernel and the full-coordinate event kernel.

Both consume pre-generated uniform deviates positionally, so replicate
chunks can run in parallel with a deterministic reduction.
"""
from __future__ import annotations

import numpy as np

from .strategies import Strategy


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# lumped death-chain batch


def lumped_batch(total, p2, m0, t_max, u_exp, u_jump):
    """Jump chains of the unmatched count, one per replicate, advanced in
    lockstep; returns (tau, n_jumps).

    total[m]: exit rate at level m; p2[m]: probability a jump is -2.
    u_exp: (R, m0) unit-mean exponential deviates; u_jump: (R, m0)
    uniforms.  Replicate r consumes row r positionally, one column per jump.
    tau is +inf when the chain cannot move or absorption exceeds t_max.

    The state is (m, t, n_jumps) alone, and every replicate steps down while
    m > 0 with no branch: copies with rate[0] = inf (an absorbed run adds
    u / inf == 0.0 to t) and p2[:2] = 0 (m stays >= 0) make that exact.  A
    run counts while t <= cap = min(t_max, DBL_MAX); a rate-0 level (t = inf,
    or nan from 0/0) and a late absorption fail that test for good.  A table
    with no -2 jump left (independent, say) skips the jump test: no uniform
    is < 0.0.
    """
    rate, p2 = np.array(total, dtype=float), np.array(p2, dtype=float)
    rate[0], p2[:2] = np.inf, 0.0
    down2 = p2.any()
    cap = min(t_max, np.finfo(float).max)
    m = np.full(u_exp.shape[0], m0, dtype=np.int64)
    t, njumps = np.zeros(m.shape), np.zeros(m.shape, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(m0):
            live = m > 0
            t += u_exp[:, step] / rate[m]
            moved = live & (t <= cap)
            if not moved.any():  # every run is absorbed, stuck or censored
                break
            njumps += moved
            if down2:
                m -= u_jump[:, step] < p2[m]  # the jump size is drawn at the pre-step m
            m -= live
    return np.where(t <= cap, t, np.inf), njumps


# ---------------------------------------------------------------------------
# full-coordinate event simulation (marginal validation)

_DOMINATING_BLOCK_RATE = 2.0  # >= per-coordinate pair-event rate of any strategy


def _index(u, k):
    """Uniform index in range(k) from uniforms u (k may vary per replicate)."""
    return np.minimum((u * k).astype(np.int64), k - 1)


def _skip(k, v):
    """The k-th value of range(d) other than v."""
    return k + (k >= v)


def _unmatched(x, y, r, i, j):
    """Unmatched coordinates among {i, j} of replicates r."""
    return (x[r, i] != y[r, i]).astype(np.int64) + ((j != i) & (x[r, j] != y[r, j]))


def marginal_batch(strategy, d, n, x0, y0, ev_count, offsets, u, paired):
    """Thinned event loop for the coupled pair at full coordinate detail;
    returns (xchg, ychg, xinc, yinc, joint_moves).

    Candidate events arrive at rate 2*n (the dominating rate); replicate r's
    e-th candidate reads row offsets[r] + e of u: thinning, coordinate
    choice, row/class choice, sub-choice.  All replicates with an e-th
    candidate advance together.  An accepted event sets X(i) := kx and
    Y(j) := ky, with j = i except on the optimal strategy's pairing row.
    ``paired[m]`` tells whether the optimal strategy runs in paired mode at
    unmatched count m.  Records per-coordinate value-change counts, pooled
    increment tallies (index by increment size 1..d-1), and per-replicate
    counts of events that moved both chains at once.
    """
    n_rep = ev_count.shape[0]
    xchg = np.zeros((n_rep, n), dtype=np.int64)
    ychg = np.zeros((n_rep, n), dtype=np.int64)
    xinc = np.zeros(d, dtype=np.int64)
    yinc = np.zeros(d, dtype=np.int64)
    joint_moves = np.zeros(n_rep, dtype=np.int64)
    x = np.tile(np.asarray(x0, dtype=np.int64), (n_rep, 1))
    y = np.tile(np.asarray(y0, dtype=np.int64), (n_rep, 1))
    n_unm = np.count_nonzero(x != y, axis=1)
    for e in range(int(ev_count.max(initial=0))):
        r = np.flatnonzero(ev_count > e)
        u0, u1, u2, u3 = u[offsets[r] + e].T
        i = _index(u1, n)
        matched = x[r, i] == y[r, i]
        if strategy is Strategy.OPTIMAL:
            block = d / (d - 1.0)
        elif strategy is Strategy.INDEPENDENT:
            block = np.where(matched, 1.0, 2.0)
        else:
            block = 1.0
        keep = u0 * _DOMINATING_BLOCK_RATE < block
        r, i, matched, u2, u3 = r[keep], i[keep], matched[keep], u2[keep], u3[keep]
        xi, yi = x[r, i], y[r, i]
        j = i
        if strategy is Strategy.SYNCHRONOUS:
            delta = 1 + _index(u2, d - 1)
            kx, ky = (xi + delta) % d, (yi + delta) % d
        elif strategy is Strategy.INDEPENDENT:
            # matched: both move to one value; unmatched: X or Y moves alone
            k = _index(np.where(matched, u2, u3), d - 1)
            to_x = u2 < 0.5
            kx = np.where(matched | to_x, _skip(k, xi), xi)
            ky = np.where(matched | ~to_x, _skip(k, yi), yi)
        else:
            # matched or singles mode: both move to value c
            c = _index(u2, d)
            kx, ky = c.copy(), c.copy()
            pair = ~matched & paired[n_unm[r]]
            fresh = pair & (c >= 2)
            lo, hi = np.minimum(xi, yi), np.maximum(xi, yi)
            kx[fresh] = ky[fresh] = _skip(_skip(c - 2, lo), hi)[fresh]
            stay = pair & (c == 1)  # completion row: both keep their value
            kx[stay], ky[stay] = xi[stay], yi[stay]
            # pairing row: X(i) makes a match, and so does Y at a uniformly
            # chosen other unmatched coordinate j
            p = np.flatnonzero(pair & (c == 0))
            rp = r[p]
            other = x[rp] != y[rp]
            other[np.arange(p.size), i[p]] = False
            target = _index(u3[p], n_unm[rp] - 1)
            j = i.copy()
            j[p] = np.argmax(np.cumsum(other, axis=1) > target[:, None], axis=1)
            kx[p], ky[p] = yi[p], x[rp, j[p]]
        yj = y[r, j]
        moved_x, moved_y = kx != xi, ky != yj
        np.add.at(xinc, (kx - xi)[moved_x] % d, 1)
        np.add.at(yinc, (ky - yj)[moved_y] % d, 1)
        xchg[r, i] += moved_x
        ychg[r, j] += moved_y
        joint_moves[r] += moved_x & moved_y
        before = _unmatched(x, y, r, i, j)
        x[r, i] = kx
        y[r, j] = ky
        n_unm[r] += _unmatched(x, y, r, i, j) - before
    return xchg, ychg, xinc, yinc, joint_moves
