import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cowalk.strategies import (
    RateSchedule,
    Strategy,
    _singles_mode,
    death_chain,
    rate_table,
)
from references import build_q_matrix, count_changes, level_schedule, lump_rates


# --- regime thresholds ------------------------------------------------------
# the ids name each level's mode: C3 singles, C2 paired, ABSORBED at level 0

@pytest.mark.parametrize("m,d,singles", [
    pytest.param(7, 2, True, id="7-2-Regime.C3"),       # d=2: every odd level
    pytest.param(3, 3, True, id="3-3-Regime.C3"),       # d=3: levels 1 and 3
    pytest.param(1, 3, True, id="1-3-Regime.C3"),
    pytest.param(5, 3, False, id="5-3-Regime.C2"),
    pytest.param(3, 4, False, id="3-4-Regime.C2"),      # d>=4: only level 1
    pytest.param(1, 4, True, id="1-4-Regime.C3"),
    pytest.param(0, 5, False, id="0-5-Regime.ABSORBED"),
])
def test_regime_examples(m, d, singles):
    assert _singles_mode(m, d) == singles


@given(st.integers(0, 200), st.integers(2, 40))
@settings(max_examples=300, deadline=None)
def test_regime_threshold_rule(m, d):
    singles = _singles_mode(m, d)
    if m == 0:
        assert not singles
    elif d == 2:
        assert singles == (m % 2 == 1)
    elif d == 3:
        assert singles == (m in (1, 3))
    else:
        assert singles == (m == 1)


# --- optimal rates ----------------------------------------------------------

def test_optimal_rates_examples():
    # d=2 even level: only -2 jumps, rate = level
    assert level_schedule(Strategy.OPTIMAL, 4, 2) == RateSchedule(down2=Fraction(4),
                                                                  down1=Fraction(0))
    # d=2 odd level: only -1 jumps, rate 2*level
    assert level_schedule(Strategy.OPTIMAL, 3, 2) == RateSchedule(down2=Fraction(0),
                                                                  down1=Fraction(6))
    # single unmatched coordinate for any d: exit rate d/(d-1)
    for d in (2, 3, 4, 17):
        assert level_schedule(Strategy.OPTIMAL, 1, d).down1 == Fraction(d, d - 1)
        assert level_schedule(Strategy.OPTIMAL, 1, d).down2 == 0
    sched = level_schedule(Strategy.OPTIMAL, 6, 10)
    assert sched.down2 == Fraction(6, 9) and sched.down1 == Fraction(48, 9)
    assert (10 - 1) * (sched.down1 + 2 * sched.down2) == 60  # = m*d


@given(st.integers(1, 80), st.integers(2, 20))
@settings(max_examples=300, deadline=None)
def test_optimal_rates_feasible_and_saturating(m, d):
    sched = level_schedule(Strategy.OPTIMAL, m, d)
    assert sched.up1 == 0 and sched.up2 == 0
    assert sched.is_feasible(m, d)
    assert (d - 1) * (sched.down1 + 2 * sched.down2) == m * d  # saturates the budget
    assert (d - 1) * sched.down2 <= m


def test_zero_level_all_zero():
    sched = level_schedule(Strategy.OPTIMAL, 0, 5)
    assert sched.down2 + sched.down1 + sched.up1 + sched.up2 == 0


# --- competitor rates -------------------------------------------------------

def test_competitor_rate_examples():
    assert level_schedule(Strategy.INDEPENDENT, 1, 2).down1 == 2
    sched = level_schedule(Strategy.SYNCHRONOUS, 5, 7)
    assert sched.down2 + sched.down1 + sched.up1 + sched.up2 == 0
    sched = level_schedule(Strategy.PAIRWISE_CLASSIC, 2, 5)
    assert sched.down2 == Fraction(2, 4) and sched.down1 == Fraction(2 * 3, 4)


def test_pairwise_coincides_with_optimal_at_d2():
    for m in range(1, 12):
        assert (level_schedule(Strategy.PAIRWISE_CLASSIC, m, 2)
                == level_schedule(Strategy.OPTIMAL, m, 2))


@given(st.integers(1, 40), st.integers(2, 12),
       st.sampled_from([Strategy.INDEPENDENT, Strategy.SYNCHRONOUS, Strategy.PAIRWISE_CLASSIC]))
@settings(max_examples=200, deadline=None)
def test_competitors_feasible(m, d, strat):
    assert level_schedule(strat, m, d).is_feasible(m, d)


def _level_numerators(strategy, m, d):
    """(c1, c2) at one level, stated case by case from the model."""
    if m == 0 or strategy is Strategy.SYNCHRONOUS:
        return 0, 0
    if strategy is Strategy.OPTIMAL:
        if m % 2 == 1 and m * (d - 2) < 2 * (d - 1):
            return m * d, 0
        return m * (d - 2), m
    if strategy is Strategy.PAIRWISE_CLASSIC and m % 2 == 0:
        return m * (d - 2), m
    return 2 * m, 0


@pytest.mark.parametrize("strategy", list(Strategy))
def test_death_chain_numerators(strategy):
    for d in (2, 3, 4, 5, 7, 10):
        chain = death_chain(strategy, d, 60)
        assert chain.c1.dtype == chain.c2.dtype == np.int64
        c1, c2 = chain.c1.tolist(), chain.c2.tolist()
        assert [(c1[m], c2[m]) for m in range(61)] == [
            _level_numerators(strategy, m, d) for m in range(61)]


def test_rate_numerators_stay_below_2_to_the_53():
    # int64 numerators wrapped at 3 * 2^62 (c1 = [0, 2^62, 2^63 - 4, -2^62])
    for m, d in ((3, 2**62), (3, 2**53 // 3 + 1), (0, 2**53), (1, 2**53)):
        with pytest.raises(ValueError, match=r"max\(m, 1\) \* d must be below 2\^53"):
            death_chain(Strategy.OPTIMAL, d, m)
    d = (2**53 - 1) // 3
    chain = death_chain(Strategy.OPTIMAL, d, 3)
    assert (chain.c1.tolist(), chain.c2.tolist()) == ([0, d, 2 * (d - 2), 3 * (d - 2)],
                                                      [0, 0, 2, 3])
    assert chain.down1[3] == 3 * (d - 2) / (d - 1)


def test_death_chain_working_set_is_bounded():
    # the two int64 tables take 15.3 MiB at 10^6 levels; the level range
    # and the mode mask add 8.6 MiB
    tracemalloc.start()
    try:
        for strategy in Strategy:
            for d in (2, 5):
                death_chain(strategy, d, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


@pytest.mark.parametrize("strategy", list(Strategy))
def test_rate_table_is_correctly_rounded(strategy):
    # each entry equals float() of the exact rational, bit for bit
    for d in range(2, 13):
        total, p2 = rate_table(strategy, d, 200)
        for m in range(201):
            sched = level_schedule(strategy, m, d)
            rate = sched.down2 + sched.down1 + sched.up1 + sched.up2
            assert total[m] == float(rate)
            assert p2[m] == (float(sched.down2 / rate) if rate else 0.0)


# --- control matrices -------------------------------------------------------

def _doubly_stochastic(q):
    return (np.abs(q.sum(axis=0) - 1) < 1e-12).all() and (np.abs(q.sum(axis=1) - 1) < 1e-12).all()


def test_q_identity_when_fully_matched():
    x = np.array([0, 1, 2])
    q = build_q_matrix(Strategy.OPTIMAL, x, x, 4)
    assert (q == np.eye(12)).all()


def test_q_paired_entry_value():
    # two unmatched coordinates: the pairing entry carries weight 1/(N-1) = 1
    x = np.array([0, 0, 0])
    y = np.array([1, 2, 0])
    q = build_q_matrix(Strategy.OPTIMAL, x, y, 4)
    row = 0 * 4 + int(y[0])   # (coordinate 0, Y-value) pairing row
    col = 1 * 4 + int(x[1])
    assert q[row, col] == 1.0


@pytest.mark.parametrize("strategy,d,x,y", [
    (Strategy.OPTIMAL, 4, [0, 0, 0], [1, 2, 0]),
    (Strategy.OPTIMAL, 2, [0, 0, 0, 0], [1, 1, 0, 0]),
    (Strategy.OPTIMAL, 5, [0, 1, 2, 3], [4, 3, 2, 1]),
    (Strategy.OPTIMAL, 3, [0, 0, 0], [1, 1, 1]),   # singles mode (N=3, d=3)
    (Strategy.SYNCHRONOUS, 4, [0, 1, 0], [2, 1, 3]),
    (Strategy.PAIRWISE_CLASSIC, 5, [0, 0, 1], [2, 3, 1]),
])
def test_q_doubly_stochastic(strategy, d, x, y):
    q = build_q_matrix(strategy, np.array(x), np.array(y), d)
    assert _doubly_stochastic(q)
    assert (q >= 0).all() and (q <= 1 + 1e-15).all()


def test_q_errors():
    x, y = np.array([0, 0]), np.array([1, 0])
    with pytest.raises(ValueError):
        build_q_matrix(Strategy.PAIRWISE_CLASSIC, x, y, 4)  # odd unmatched count
    with pytest.raises(ValueError):
        build_q_matrix(Strategy.INDEPENDENT, x, y, 4)  # no cheap realization


@pytest.mark.parametrize("d, n, sha256", [
    (2, 4, "796a0712d6c0b86b374d7ead1f4fc61e316a93c54b87d8a846cc07d54858bfa5"),
    (3, 3, "d09f5c988028fc964c7c8afc4efed12b73f2b6c622ebda8b47aa111dd98ea0fa"),
    (4, 2, "e4eafc6113d7f7252dff5033070704b17287cf434491d63e090bfd5b88bb0697"),
    (5, 2, "96f4543ec9389cf52d96aaba4527789396c8c75cafc9edba37ab593c63d7acc7"),
])
def test_q_matrices_are_pinned(d, n, sha256):
    # sha256 of every strategy's matrix at every (x, y), recorded when each
    # strategy's matrix was built by its own branch; a refusal adds its
    # message instead
    digest = hashlib.sha256()
    for strategy in Strategy:
        for x in itertools.product(range(d), repeat=n):
            for y in itertools.product(range(d), repeat=n):
                try:
                    q = build_q_matrix(strategy, np.array(x), np.array(y), d)
                except ValueError as err:
                    digest.update(str(err).encode())
                else:
                    digest.update(q.tobytes())
    assert digest.hexdigest() == sha256


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_q_lumps_to_the_death_chain_at_every_state_pair(d, n):
    # the library runs on N alone: at every (x, y) the control matrix moves
    # N down only, at exactly the death chain's rates of level #{x != y}
    chains = {s: death_chain(s, d, n) for s in
              (Strategy.OPTIMAL, Strategy.SYNCHRONOUS, Strategy.PAIRWISE_CLASSIC)}
    for x in itertools.product(range(d), repeat=n):
        for y in itertools.product(range(d), repeat=n):
            x_, y_ = np.array(x), np.array(y)
            m = np.count_nonzero(x_ != y_)
            for strategy, chain in chains.items():
                if strategy is Strategy.PAIRWISE_CLASSIC and m % 2 == 1:
                    continue
                lumped = lump_rates(build_q_matrix(strategy, x_, y_, d), x_, y_, d)
                assert lumped.up1 == 0 and lumped.up2 == 0
                assert lumped.down1 == chain.c1[m] / (d - 1)
                assert lumped.down2 == chain.c2[m] / (d - 1)


def test_lump_rates_of_optimal_matches_schedule():
    rng = np.random.default_rng(3)
    for d, n in [(2, 6), (3, 5), (4, 5), (7, 6)]:
        x = rng.integers(0, d, size=n)
        y = rng.integers(0, d, size=n)
        m = np.count_nonzero(x != y)
        if m == 0:
            continue
        q = build_q_matrix(Strategy.OPTIMAL, x, y, d)
        lumped = lump_rates(q, x, y, d)
        expected = level_schedule(Strategy.OPTIMAL, m, d)
        for field in ("down2", "down1", "up1", "up2"):
            assert getattr(lumped, field) == pytest.approx(
                float(getattr(expected, field)), abs=1e-12)


def test_lump_rates_of_pairwise_matches_schedule():
    x = np.array([0, 0, 1, 4])
    y = np.array([2, 3, 1, 0])   # unmatched count 3... make it even
    y[3] = 4
    assert np.count_nonzero(x != y) == 2
    q = build_q_matrix(Strategy.PAIRWISE_CLASSIC, x, y, 5)
    lumped = lump_rates(q, x, y, 5)
    expected = level_schedule(Strategy.PAIRWISE_CLASSIC, 2, 5)
    assert lumped.down2 == pytest.approx(float(expected.down2), abs=1e-12)
    assert lumped.down1 == pytest.approx(float(expected.down1), abs=1e-12)


def test_lump_rates_identity_matrix_oracle():
    # identity control matrix: same-coordinate synchronized moves; every mark
    # on an unmatched coordinate makes one match, so the four-sum formula
    # gives (d-1) * lam(-1) = m*d and no other transitions.
    d, n = 4, 3
    x = np.array([0, 0, 0])
    y = np.array([1, 2, 0])
    q = np.eye(n * d)
    lumped = lump_rates(q, x, y, d)
    m = np.count_nonzero(x != y)
    # oracle: the first sum of the level-decrease rate evaluated directly
    first_sum = sum(1.0 for i in np.flatnonzero(x != y) for k in range(d))
    assert first_sum == m * d
    assert lumped.down1 == pytest.approx(m * d / (d - 1), abs=1e-12)
    assert lumped.down2 == 0 and lumped.up1 == 0 and lumped.up2 == 0


def test_lump_rates_budget_bound_random_doubly_stochastic():
    # any doubly-stochastic control matrix obeys the budget inequality
    rng = np.random.default_rng(11)
    d, n = 3, 4
    x = rng.integers(0, d, size=n)
    y = rng.integers(0, d, size=n)
    m = np.count_nonzero(x != y)
    for _ in range(20):
        # random doubly stochastic by Sinkhorn iteration
        q = rng.random((n * d, n * d))
        for _ in range(200):
            q /= q.sum(axis=1, keepdims=True)
            q /= q.sum(axis=0, keepdims=True)
        lumped = lump_rates(q, x, y, d)
        assert lumped.down1 + 2 * lumped.down2 <= m * d / (d - 1) + 1e-9


def _budget_maxima(x, y, d):
    """The largest (d-1)(lam(-1) + 2 lam(-2)) and the largest (d-1) lam(-2)
    over every doubly stochastic control at (x, y), each with a permutation
    matrix that attains it.  Both are linear in Q, so a permutation matrix
    attains each (Birkhoff-von Neumann): an assignment problem over the
    integer weights of ``count_changes`` (Kuhn 1955), so exact."""
    delta = count_changes(x, y, d)
    out = []
    for weights in (np.maximum(-delta, 0), (delta == -2).astype(np.int64)):
        rows, cols = linear_sum_assignment(weights, maximize=True)
        perm = np.zeros(weights.shape)
        perm[rows, cols] = 1.0
        out.append((int(weights[rows, cols].sum()), perm))
    return out


def test_count_changes_classify_each_proposal_as_lump_rates_does():
    # a random positive q weights every proposal differently, at every pair
    d, n = 3, 2
    q = np.random.default_rng(5).random((n * d, n * d))
    for x in itertools.product(range(d), repeat=n):
        for y in itertools.product(range(d), repeat=n):
            delta = count_changes(x, y, d)
            lumped = lump_rates(q, x, y, d)
            for rate, step in ((lumped.down2, -2), (lumped.down1, -1), (lumped.up1, 1),
                               (lumped.up2, 2)):
                assert (d - 1) * rate == pytest.approx(q[delta == step].sum(), abs=1e-12)


def _class_pair(n, m):
    """The pair standing for every state pair with m unmatched coordinates:
    relabelling a coordinate's values and permuting coordinates keep the
    walk pair, so x = 0 and y = 1 on the first m coordinates."""
    return np.zeros(n, dtype=np.int64), (np.arange(n) < m).astype(np.int64)


@pytest.mark.parametrize("d, n", [(2, 4), (4, 2), (3, 3), (5, 2), (3, 6), (5, 5), (10, 4),
                                  (4, 10), (2, 30), (6, 10), (3, 20)])
def test_rate_budget_is_exact_at_every_level(d, n):
    # link (a) of the optimality certificate, exactly: every co-adapted
    # control's down rates lie in the LP polytope {(d-1)(lam(-1) + 2 lam(-2))
    # <= m d, (d-1) lam(-2) <= m}.  The budget m d is attained at every m;
    # the cap m at every m but m = 1, which has no -2 jump (0 < 1): an outer
    # bound there, which is all the Bellman argument needs
    for m in range(n + 1):
        x, y = _class_pair(n, m)
        (budget, p_budget), (cap, p_cap) = _budget_maxima(x, y, d)
        assert budget <= m * d and cap <= m
        assert budget == m * d and cap == (0 if m == 1 else m)
        # the permutations' rates in lump_rates' own terms
        lumped, capped = lump_rates(p_budget, x, y, d), lump_rates(p_cap, x, y, d)
        assert (d - 1) * (lumped.down1 + 2 * lumped.down2) == pytest.approx(budget, abs=1e-9)
        assert (d - 1) * capped.down2 == pytest.approx(cap, abs=1e-9)


@pytest.mark.parametrize("d, n", [(2, 4), (4, 2)])
def test_rate_budget_depends_on_the_level_alone(d, n):
    # the class reduction, exhaustively: every state pair has the maxima of
    # its level's class pair
    by_level = [[w for w, _ in _budget_maxima(*_class_pair(n, m), d)] for m in range(n + 1)]
    for x in itertools.product(range(d), repeat=n):
        for y in itertools.product(range(d), repeat=n):
            x_, y_ = np.array(x), np.array(y)
            m = np.count_nonzero(x_ != y_)
            assert [w for w, _ in _budget_maxima(x_, y_, d)] == by_level[m], (x, y)


def test_marginal_rate_contract():
    # each row block (i, k) has unit row sum, so X(i) changes value at total
    # rate 1 and hits each specific other value at rate 1/(d-1); columns give
    # the same for Y
    d = 5
    x = np.array([0, 1, 2, 3])
    y = np.array([4, 3, 2, 1])
    for strategy in (Strategy.OPTIMAL, Strategy.SYNCHRONOUS):
        q = build_q_matrix(strategy, x, y, d)
        for i in range(4):
            for k in range(d):
                if k != x[i]:
                    assert q[i * d + k].sum() == pytest.approx(1.0, abs=1e-12)
                if k != y[i]:
                    assert q[:, i * d + k].sum() == pytest.approx(1.0, abs=1e-12)
