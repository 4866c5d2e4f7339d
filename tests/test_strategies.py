from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowalk.states import PairConfig, sample_uniform_state, WalkParams
from cowalk.strategies import (
    RateSchedule,
    Regime,
    Strategy,
    build_q_matrix,
    death_chain,
    lump_rates,
    optimal_rates,
    rate_table,
    rates_for,
    regime,
)


# --- regime thresholds ------------------------------------------------------

@pytest.mark.parametrize("m,d,expected", [
    (7, 2, Regime.C3),       # d=2: every odd level
    (3, 3, Regime.C3),       # d=3: levels 1 and 3
    (1, 3, Regime.C3),
    (5, 3, Regime.C2),
    (3, 4, Regime.C2),       # d>=4: only level 1
    (1, 4, Regime.C3),
    (0, 5, Regime.ABSORBED),
])
def test_regime_examples(m, d, expected):
    assert regime(m, d) is expected


@given(st.integers(0, 200), st.integers(2, 40))
@settings(max_examples=300, deadline=None)
def test_regime_threshold_rule(m, d):
    reg = regime(m, d)
    if m == 0:
        assert reg is Regime.ABSORBED
    elif d == 2:
        assert reg is (Regime.C3 if m % 2 == 1 else Regime.C2)
    elif d == 3:
        assert reg is (Regime.C3 if m in (1, 3) else Regime.C2)
    else:
        assert reg is (Regime.C3 if m == 1 else Regime.C2)


# --- optimal rates ----------------------------------------------------------

def test_optimal_rates_examples():
    # d=2 even level: only -2 jumps, rate = level
    assert optimal_rates(4, 2) == RateSchedule(down2=Fraction(4), down1=Fraction(0))
    # d=2 odd level: only -1 jumps, rate 2*level
    assert optimal_rates(3, 2) == RateSchedule(down2=Fraction(0), down1=Fraction(6))
    # single unmatched coordinate for any d: exit rate d/(d-1)
    for d in (2, 3, 4, 17):
        assert optimal_rates(1, d).down1 == Fraction(d, d - 1)
        assert optimal_rates(1, d).down2 == 0
    sched = optimal_rates(6, 10)
    assert sched.down2 == Fraction(6, 9) and sched.down1 == Fraction(48, 9)
    assert (10 - 1) * (sched.down1 + 2 * sched.down2) == 60  # = m*d


@given(st.integers(1, 80), st.integers(2, 20))
@settings(max_examples=300, deadline=None)
def test_optimal_rates_feasible_and_saturating(m, d):
    sched = optimal_rates(m, d)
    assert sched.up1 == 0 and sched.up2 == 0
    assert sched.is_feasible(m, d)
    assert sched.saturates_budget(m, d)
    assert (d - 1) * sched.down2 <= m


def test_zero_level_all_zero():
    assert optimal_rates(0, 5).total == 0


# --- competitor rates -------------------------------------------------------

def test_competitor_rate_examples():
    assert rates_for(Strategy.INDEPENDENT, 1, 2).down1 == 2
    assert rates_for(Strategy.SYNCHRONOUS, 5, 7).total == 0
    sched = rates_for(Strategy.PAIRWISE_CLASSIC, 2, 5)
    assert sched.down2 == Fraction(2, 4) and sched.down1 == Fraction(2 * 3, 4)


def test_pairwise_coincides_with_optimal_at_d2():
    for m in range(1, 12):
        assert rates_for(Strategy.PAIRWISE_CLASSIC, m, 2) == optimal_rates(m, 2)


@given(st.integers(1, 40), st.integers(2, 12),
       st.sampled_from([Strategy.INDEPENDENT, Strategy.SYNCHRONOUS, Strategy.PAIRWISE_CLASSIC]))
@settings(max_examples=200, deadline=None)
def test_competitors_feasible(m, d, strat):
    assert rates_for(strat, m, d).is_feasible(m, d)


def test_rate_table_matches_schedules():
    total, p2 = rate_table(Strategy.OPTIMAL, 4, 6)
    for m in range(1, 7):
        sched = optimal_rates(m, 4)
        assert total[m] == pytest.approx(float(sched.total), abs=1e-15)
        assert p2[m] == pytest.approx(float(sched.down2 / sched.total), abs=1e-15)


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
    for d in (2, 3, 4, 7):
        chain = death_chain(strategy, d, 60)
        c1, c2 = chain.numerators()
        assert all(type(c) is int for c in c1 + c2)
        assert [(c1[m], c2[m]) for m in range(61)] == [
            _level_numerators(strategy, m, d) for m in range(61)]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_rate_table_is_correctly_rounded(strategy):
    # each entry equals float() of the exact rational, bit for bit
    for d in range(2, 13):
        total, p2 = rate_table(strategy, d, 200)
        for m in range(201):
            sched = rates_for(strategy, m, d)
            assert total[m] == float(sched.total)
            assert p2[m] == (float(sched.down2 / sched.total) if sched.total else 0.0)


# --- control matrices -------------------------------------------------------

def _doubly_stochastic(q):
    return (np.abs(q.sum(axis=0) - 1) < 1e-12).all() and (np.abs(q.sum(axis=1) - 1) < 1e-12).all()


def test_q_identity_when_fully_matched():
    x = np.array([0, 1, 2])
    cfg = PairConfig(x, x)
    q = build_q_matrix(Strategy.OPTIMAL, cfg, 4)
    assert (q == np.eye(12)).all()


def test_q_paired_entry_value():
    # two unmatched coordinates: the pairing entry carries weight 1/(N-1) = 1
    x = np.array([0, 0, 0])
    y = np.array([1, 2, 0])
    cfg = PairConfig(x, y)
    q = build_q_matrix(Strategy.OPTIMAL, cfg, 4)
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
    cfg = PairConfig(np.array(x), np.array(y))
    q = build_q_matrix(strategy, cfg, d)
    assert _doubly_stochastic(q)
    assert (q >= 0).all() and (q <= 1 + 1e-15).all()


def test_q_errors():
    cfg = PairConfig(np.array([0, 0]), np.array([1, 0]))
    with pytest.raises(ValueError):
        build_q_matrix(Strategy.PAIRWISE_CLASSIC, cfg, 4)  # odd unmatched count
    with pytest.raises(ValueError):
        build_q_matrix(Strategy.INDEPENDENT, cfg, 4)  # no cheap realization


def test_lump_rates_of_optimal_matches_schedule():
    rng = np.random.default_rng(3)
    for d, n in [(2, 6), (3, 5), (4, 5), (7, 6)]:
        x = rng.integers(0, d, size=n)
        y = rng.integers(0, d, size=n)
        cfg = PairConfig(x, y)
        m = cfg.n_unmatched
        if m == 0:
            continue
        q = build_q_matrix(Strategy.OPTIMAL, cfg, d)
        lumped = lump_rates(q, cfg, d)
        expected = optimal_rates(m, d)
        for s in (-2, -1, 1, 2):
            assert lumped.rate(s) == pytest.approx(float(expected.rate(s)), abs=1e-12)


def test_lump_rates_of_pairwise_matches_schedule():
    x = np.array([0, 0, 1, 4])
    y = np.array([2, 3, 1, 0])   # unmatched count 3... make it even
    y[3] = 4
    cfg = PairConfig(x, y)
    assert cfg.n_unmatched == 2
    q = build_q_matrix(Strategy.PAIRWISE_CLASSIC, cfg, 5)
    lumped = lump_rates(q, cfg, 5)
    expected = rates_for(Strategy.PAIRWISE_CLASSIC, 2, 5)
    assert lumped.down2 == pytest.approx(float(expected.down2), abs=1e-12)
    assert lumped.down1 == pytest.approx(float(expected.down1), abs=1e-12)


def test_lump_rates_identity_matrix_oracle():
    # identity control matrix: same-coordinate synchronized moves; every mark
    # on an unmatched coordinate makes one match, so the four-sum formula
    # gives (d-1) * lam(-1) = m*d and no other transitions.
    d, n = 4, 3
    x = np.array([0, 0, 0])
    y = np.array([1, 2, 0])
    cfg = PairConfig(x, y)
    q = np.eye(n * d)
    lumped = lump_rates(q, cfg, d)
    m = cfg.n_unmatched
    # oracle: the first sum of the level-decrease rate evaluated directly
    first_sum = sum(1.0 for i in cfg.unmatched for k in range(d))
    assert first_sum == m * d
    assert lumped.down1 == pytest.approx(m * d / (d - 1), abs=1e-12)
    assert lumped.down2 == 0 and lumped.up1 == 0 and lumped.up2 == 0


def test_lump_rates_budget_bound_random_doubly_stochastic():
    # any doubly-stochastic control matrix obeys the budget inequality
    rng = np.random.default_rng(11)
    d, n = 3, 4
    x = rng.integers(0, d, size=n)
    y = rng.integers(0, d, size=n)
    cfg = PairConfig(x, y)
    m = cfg.n_unmatched
    for _ in range(20):
        # random doubly stochastic by Sinkhorn iteration
        q = rng.random((n * d, n * d))
        for _ in range(200):
            q /= q.sum(axis=1, keepdims=True)
            q /= q.sum(axis=0, keepdims=True)
        lumped = lump_rates(q, cfg, d)
        assert lumped.down1 + 2 * lumped.down2 <= m * d / (d - 1) + 1e-9


def test_marginal_rate_contract():
    # each row block (i, k) has unit row sum, so X(i) changes value at total
    # rate 1 and hits each specific other value at rate 1/(d-1); columns give
    # the same for Y
    d = 5
    x = np.array([0, 1, 2, 3])
    y = np.array([4, 3, 2, 1])
    cfg = PairConfig(x, y)
    for strategy in (Strategy.OPTIMAL, Strategy.SYNCHRONOUS):
        q = build_q_matrix(strategy, cfg, d)
        for i in range(4):
            for k in range(d):
                if k != x[i]:
                    assert q[i * d + k].sum() == pytest.approx(1.0, abs=1e-12)
                if k != y[i]:
                    assert q[:, i * d + k].sum() == pytest.approx(1.0, abs=1e-12)
