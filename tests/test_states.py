import numpy as np
import pytest
from scipy import stats

from cowalk.states import WalkParams


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(d=1, n=3)
    with pytest.raises(ValueError):
        WalkParams(d=3, n=0)
    WalkParams(d=2, n=1)


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
