import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cowalk.states import PairConfig, WalkParams, as_state, hamming, sample_uniform_state


def brute_hamming(x, y):
    return sum(1 for a, b in zip(x, y) if a != b)


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(d=1, n=3)
    with pytest.raises(ValueError):
        WalkParams(d=3, n=0)
    WalkParams(d=2, n=1)


def test_as_state_bounds():
    p = WalkParams(d=3, n=4)
    as_state([0, 1, 2, 0], p)
    with pytest.raises(ValueError):
        as_state([0, 1, 3, 0], p)
    with pytest.raises(ValueError):
        as_state([0, 1], p)


def test_hamming_trivial_cases():
    x = np.array([0, 0, 0, 0])
    assert hamming(x, x) == 0
    e1 = np.array([1, 0, 0, 0])
    assert hamming(x, e1) == 1
    with pytest.raises(ValueError):
        hamming(x, np.array([0, 0]))


def test_hamming_matches_coordinate_scan():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.integers(0, 5, size=8)
        y = rng.integers(0, 5, size=8)
        assert hamming(x, y) == brute_hamming(x, y)


coords = st.lists(st.integers(0, 4), min_size=1, max_size=12)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hamming_is_a_metric(data):
    n = data.draw(st.integers(1, 10))
    pick = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    x = np.array(data.draw(pick))
    y = np.array(data.draw(pick))
    z = np.array(data.draw(pick))
    assert hamming(x, y) == hamming(y, x)
    assert (hamming(x, y) == 0) == bool((x == y).all())
    assert hamming(x, z) <= hamming(x, y) + hamming(y, z)


def test_partition_trivial():
    x = np.zeros(6, dtype=int)
    cfg = PairConfig(x, x)
    assert cfg.unmatched.size == 0
    assert list(cfg.matched) == list(range(6))
    y = x.copy()
    y[[1, 4]] = 1  # 0-based positions of the differing coordinates
    cfg = PairConfig(x, y)
    assert list(cfg.unmatched) == [1, 4]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_partition_agrees_with_scan(data):
    n = data.draw(st.integers(1, 10))
    pick = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    x = np.array(data.draw(pick))
    y = np.array(data.draw(pick))
    cfg = PairConfig(x, y)
    assert sorted(list(cfg.unmatched) + list(cfg.matched)) == list(range(n))
    assert set(cfg.unmatched) == {i for i in range(n) if x[i] != y[i]}
    assert cfg.n_unmatched == hamming(x, y)


def test_sampling_deterministic():
    p = WalkParams(d=5, n=7)
    assert (sample_uniform_state(p, 123) == sample_uniform_state(p, 123)).all()
    assert (sample_uniform_state(p, 123) != sample_uniform_state(p, 124)).any()


def test_sampling_binary_frequency():
    p = WalkParams(d=2, n=1)
    draws = np.concatenate([sample_uniform_state(p, (9, i)) for i in range(100_000)])
    freq = (draws == 0).mean()
    assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 100_000)


def test_sampling_chi_square_uniform():
    draws = sample_uniform_state(WalkParams(d=5, n=4 * 100_000), 77).reshape(100_000, 4)
    for col in range(4):
        counts = np.bincount(draws[:, col], minlength=5)
        _, pval = stats.chisquare(counts)
        assert pval > 1e-3


def test_initial_distance_binomial():
    # X_0 fixed, Y_0 uniform: distance is Binomial(n, 1 - 1/d)
    d, n, reps = 3, 6, 100_000
    p = WalkParams(d=d, n=n)
    x0 = np.zeros(n, dtype=int)
    y = sample_uniform_state(WalkParams(d=d, n=n * reps), 5).reshape(reps, n)
    dist = (y != x0).sum(axis=1)
    counts = np.bincount(dist, minlength=n + 1)
    expected = stats.binom.pmf(np.arange(n + 1), n, 1 - 1 / d) * reps
    keep = expected >= 5
    stat, pval = stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
    assert pval > 1e-3
