import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cowalk.states import PairConfig, WalkParams, hamming


def brute_hamming(x, y):
    return sum(1 for a, b in zip(x, y) if a != b)


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(d=1, n=3)
    with pytest.raises(ValueError):
        WalkParams(d=3, n=0)
    WalkParams(d=2, n=1)


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


def test_initial_distance_binomial():
    # X_0 fixed, Y_0 uniform: distance is Binomial(n, 1 - 1/d)
    d, n, reps = 3, 6, 100_000
    x0 = np.zeros(n, dtype=int)
    y = np.random.default_rng(5).integers(0, d, size=(reps, n))
    dist = (y != x0).sum(axis=1)
    counts = np.bincount(dist, minlength=n + 1)
    expected = stats.binom.pmf(np.arange(n + 1), n, 1 - 1 / d) * reps
    keep = expected >= 5
    stat, pval = stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
    assert pval > 1e-3
