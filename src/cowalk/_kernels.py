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

    The replicates are sorted once by candidate count, descending (stably),
    so those with an e-th candidate are the prefix [:live[e]], and the state
    is flat: coordinate i of sorted replicate r sits at r*n + i.  Replicates
    share nothing, so the order changes no value; outputs are unpermuted.
    """
    n_rep = ev_count.shape[0]
    order = np.argsort(-ev_count, kind="stable")
    live = np.searchsorted(-ev_count[order], -np.arange(ev_count.max(initial=0)), "left")
    offsets = offsets[order]
    x, y = (np.tile(np.asarray(v, dtype=np.int64), n_rep) for v in (x0, y0))
    xchg, ychg = np.zeros(n_rep * n, dtype=np.int64), np.zeros(n_rep * n, dtype=np.int64)
    xinc, yinc = np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int64)
    joint_moves = np.zeros(n_rep, dtype=np.int64)
    n_unm = np.count_nonzero((x != y).reshape(n_rep, n), axis=1)
    # the thinning block when it does not depend on the state
    block = {Strategy.OPTIMAL: d / (d - 1.0), Strategy.SYNCHRONOUS: 1.0}.get(strategy)
    for e, width in enumerate(live):
        rows = offsets[:width] + e
        if block is not None:  # thin before gathering the rest of the row
            r = np.flatnonzero(u[rows, 0] * _DOMINATING_BLOCK_RATE < block)
            rows = rows[r]
            at = r * n + _index(u[rows, 1], n)
            xi, yi = x[at], y[at]
        else:  # independent: the block is 1 on a matched coordinate, 2 on an unmatched one
            at = np.arange(width) * n + _index(u[rows, 1], n)
            xi, yi = x[at], y[at]
            r = np.flatnonzero(u[rows, 0] * _DOMINATING_BLOCK_RATE < np.where(xi == yi, 1.0, 2.0))
            rows, at, xi, yi = rows[r], at[r], xi[r], yi[r]
        u2, u3 = u[rows, 2], u[rows, 3]
        matched = xi == yi
        jat, yj = at, yi
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
            unm = (kx != ky).astype(np.int64) - ~matched  # unmatched-count change, j = i
            # pairing row: X(i) makes a match, and so does Y at a uniformly
            # chosen other unmatched coordinate j; two matches are made
            p = np.flatnonzero(pair & (c == 0))
            if p.size:
                rp = r[p]
                other = x.reshape(n_rep, n)[rp] != y.reshape(n_rep, n)[rp]
                other[np.arange(p.size), at[p] % n] = False
                target = _index(u3[p], n_unm[rp] - 1)
                jp = rp * n + np.argmax(np.cumsum(other, axis=1) > target[:, None], axis=1)
                jat, yj = at.copy(), yi.copy()
                jat[p], yj[p] = jp, y[jp]
                kx[p], ky[p] = yi[p], x[jp]
                unm[p] = -2
            n_unm[r] += unm
        dx, dy = (kx - xi) % d, (ky - yj) % d  # nonzero exactly when the chain moved
        xinc += np.bincount(dx, minlength=d)
        yinc += np.bincount(dy, minlength=d)
        xchg[at] += dx != 0
        ychg[jat] += dy != 0
        joint_moves[r] += (dx != 0) & (dy != 0)
        x[at], y[jat] = kx, ky
    xinc[0] = yinc[0] = 0
    back = np.argsort(order)
    return (xchg.reshape(n_rep, n)[back], ychg.reshape(n_rep, n)[back], xinc, yinc,
            joint_moves[back])
