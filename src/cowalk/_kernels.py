"""Hot simulation loops: a vectorized numpy lumped kernel and a plain
Python event kernel.

Both consume pre-generated uniform deviates positionally, so replicate
chunks can run in parallel with a deterministic reduction.

Strategy codes for the event kernel: 0 optimal, 1 independent, 2 synchronous.
"""
from __future__ import annotations

import numpy as np

OPTIMAL_CODE = 0
INDEPENDENT_CODE = 1
SYNCHRONOUS_CODE = 2


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
    """
    total = np.asarray(total)
    p2 = np.asarray(p2)
    n_rep = u_exp.shape[0]
    njumps = np.zeros(n_rep, dtype=np.int64)
    m = np.full(n_rep, m0, dtype=np.int64)
    t = np.zeros(n_rep)
    done = np.zeros(n_rep, dtype=bool)
    for step in range(m0):
        live = ~done & (m > 0)
        if not live.any():
            break
        rate = total[m]
        stuck = live & (rate <= 0.0)
        t[stuck] = np.inf
        njumps[stuck] = step
        done |= stuck
        move = live & ~stuck
        dt = np.zeros(n_rep)
        dt[move] = u_exp[move, step] / rate[move]
        t[move] += dt[move]
        censored = move & (t > t_max)
        t[censored] = np.inf
        njumps[censored] = step
        done |= censored
        move &= ~censored
        jump = np.where(u_jump[:, step] < p2[m], 2, 1)
        m[move] -= jump[move]
        np.maximum(m, 0, out=m)
        finished = move & (m == 0)
        njumps[finished] = step + 1
        done |= finished
    return t, njumps


# ---------------------------------------------------------------------------
# full-coordinate event simulation (marginal validation)

_DOMINATING_BLOCK_RATE = 2.0  # >= per-coordinate pair-event rate of any strategy


def marginal_batch(code, d, n, x0, y0, ev_count, offsets, u, paired):
    """Thinned event loop for the coupled pair at full coordinate detail;
    returns (xchg, ychg, xinc, yinc, joint_moves).

    Candidate events arrive at rate 2*n (the dominating rate); each consumes
    four uniforms: thinning, coordinate choice, row/class choice, sub-choice.
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
    x = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    for r in range(n_rep):
        for i in range(n):
            x[i] = x0[i]
            y[i] = y0[i]
        base = offsets[r]
        for e in range(ev_count[r]):
            row = base + e
            u0 = u[row, 0]
            u1 = u[row, 1]
            u2 = u[row, 2]
            u3 = u[row, 3]
            i = int(u1 * n)
            if i >= n:
                i = n - 1
            matched = x[i] == y[i]
            if code == OPTIMAL_CODE:
                block = d / (d - 1.0)
            elif code == INDEPENDENT_CODE:
                block = 1.0 if matched else 2.0
            else:
                block = 1.0
            if u0 * _DOMINATING_BLOCK_RATE >= block:
                continue

            if code == SYNCHRONOUS_CODE:
                delta = 1 + int(u2 * (d - 1))
                if delta >= d:
                    delta = d - 1
                x[i] = (x[i] + delta) % d
                y[i] = (y[i] + delta) % d
                xchg[r, i] += 1
                ychg[r, i] += 1
                xinc[delta] += 1
                yinc[delta] += 1
                joint_moves[r] += 1
                continue

            if code == INDEPENDENT_CODE:
                if matched:
                    k = int(u2 * (d - 1))
                    if k >= d - 1:
                        k = d - 2
                    if k >= x[i]:
                        k += 1
                    xinc[(k - x[i]) % d] += 1
                    yinc[(k - y[i]) % d] += 1
                    x[i] = k
                    y[i] = k
                    xchg[r, i] += 1
                    ychg[r, i] += 1
                    joint_moves[r] += 1
                else:
                    k = int(u3 * (d - 1))
                    if k >= d - 1:
                        k = d - 2
                    if u2 < 0.5:
                        if k >= x[i]:
                            k += 1
                        xinc[(k - x[i]) % d] += 1
                        x[i] = k
                        xchg[r, i] += 1
                    else:
                        if k >= y[i]:
                            k += 1
                        yinc[(k - y[i]) % d] += 1
                        y[i] = k
                        ychg[r, i] += 1
                continue

            # optimal strategy
            if matched:
                k = int(u2 * d)
                if k >= d:
                    k = d - 1
                if k != x[i]:
                    xinc[(k - x[i]) % d] += 1
                    yinc[(k - y[i]) % d] += 1
                    x[i] = k
                    y[i] = k
                    xchg[r, i] += 1
                    ychg[r, i] += 1
                    joint_moves[r] += 1
                continue
            n_unm = 0
            for c in range(n):
                if x[c] != y[c]:
                    n_unm += 1
            if not paired[n_unm]:
                k = int(u2 * d)
                if k >= d:
                    k = d - 1
                moved_both = k != x[i] and k != y[i]
                if k != x[i]:
                    xinc[(k - x[i]) % d] += 1
                    x[i] = k
                    xchg[r, i] += 1
                if k != y[i]:
                    yinc[(k - y[i]) % d] += 1
                    y[i] = k
                    ychg[r, i] += 1
                if moved_both:
                    joint_moves[r] += 1
                continue
            c = int(u2 * d)
            if c >= d:
                c = d - 1
            if c == 0:
                # pairing row: X(i) makes a match, a uniformly-chosen other
                # unmatched coordinate of Y makes a second match
                target = int(u3 * (n_unm - 1))
                if target >= n_unm - 1:
                    target = n_unm - 2
                j = -1
                seen = 0
                for cc in range(n):
                    if cc != i and x[cc] != y[cc]:
                        if seen == target:
                            j = cc
                            break
                        seen += 1
                xinc[(y[i] - x[i]) % d] += 1
                x[i] = y[i]
                xchg[r, i] += 1
                yinc[(x[j] - y[j]) % d] += 1
                y[j] = x[j]
                ychg[r, j] += 1
                joint_moves[r] += 1
            elif c == 1:
                pass  # completion row: both chains keep their value
            else:
                k = c - 2
                lo = x[i] if x[i] < y[i] else y[i]
                hi = x[i] if x[i] > y[i] else y[i]
                if k >= lo:
                    k += 1
                if k >= hi:
                    k += 1
                xinc[(k - x[i]) % d] += 1
                yinc[(k - y[i]) % d] += 1
                x[i] = k
                y[i] = k
                xchg[r, i] += 1
                ychg[r, i] += 1
                joint_moves[r] += 1
    return xchg, ychg, xinc, yinc, joint_moves
