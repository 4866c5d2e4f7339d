"""The count rule: every count parameter (d, n, m, m_max, m0, replicates,
n_workers, a step k, a schedule count) of the entry points is an int or a numpy integer, and anything
else, bools included, is refused with ValueError naming the parameter.  A
numpy integer gives the bits of the equal Python int."""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import cowalk as cw
from cowalk.exact import expected_tau_float
from cowalk.optimality import sample_feasible_schedules
from cowalk.strategies import death_chain, rate_table

T = [0.5, 1.0]

# (entry point, valid keyword arguments, {count parameter: name in its messages})
CALLS = [
    (death_chain, dict(strategy="optimal", d=4, m_max=5), {"d": "d", "m_max": "m"}),
    (rate_table, dict(strategy="independent", d=4, m_max=5), {"d": "d", "m_max": "m"}),
    (cw.survival_table, dict(d=4, m_max=3, t_grid=T), {"d": "d", "m_max": "m"}),
    (cw.survival_exact, dict(d=4, m=3, t_grid=T), {"d": "d", "m": "m"}),
    (cw.laplace_V, dict(d=4, m=3), {"d": "d", "m": "m"}),
    (cw.laplace_R, dict(d=4, m=3), {"d": "d", "m": "m"}),
    (cw.expected_tau, dict(d=4, m=3), {"d": "d", "m": "m"}),
    (expected_tau_float, dict(d=4, m_max=30), {"d": "d", "m_max": "m"}),
    (cw.mk_bound_mean, dict(k=2, m=5), {"m": "m"}),
    (cw.mk_bound_mean, dict(k=1, m=5), {"k": "k"}),
    (cw.r_diff_table, dict(d=4, m_max=4, t_grid=T), {"d": "d", "m_max": "m_max"}),
    (cw.bellman_gap, dict(d=4, m=3, t=1.0, schedule=cw.RateSchedule()), {"d": "d", "m": "m"}),
    (sample_feasible_schedules, dict(d=4, m=3, count=5, seed=1),
     {"d": "d", "m": "m", "count": "count"}),
    (cw.verify_argmax_grid, dict(d=4, m_max=3, t_grid=T), {"d": "d", "m_max": "m_max"}),
    (cw.dominance_test,
     dict(d=4, m0=3, competitor="independent", t_grid=T, replicates=200, seed=1, n_workers=1),
     {"d": "d", "m0": "m0", "replicates": "replicates", "n_workers": "n_workers"}),
    (cw.WalkParams, dict(d=4, n=3), {"d": "d", "n": "n"}),
    (cw.coordinate_law, dict(d=4, t=1.0), {"d": "d"}),
    (cw.cutoff_time, dict(d=4, n=100), {"d": "d", "n": "n"}),
    (cw.tv_exact, dict(d=4, n=100, t=1.0), {"d": "d", "n": "n"}),
    (cw.cutoff_profile, dict(d=4, n=100, theta_list=[-1.0, 0.0, 1.0]), {"d": "d", "n": "n"}),
    (cw.survival_from_stationary, dict(d=4, n=10, t_grid=T), {"d": "d", "n": "n"}),
    (cw.limit_tail, dict(n=10, t=T), {"n": "n"}),
    (cw.dinfty_convergence, dict(n=5, d_list=[3, 10], t_grid=T), {"n": "n"}),
    (cw.mean_tau_stationary, dict(d=4, n=10), {"d": "d", "n": "n"}),
    (cw.mean_tau_stationary, dict(d=4, n=10, exact=False), {"d": "d", "n": "n"}),
    (cw.sample_coupling_times,
     dict(strategy="optimal", d=4, m0=5, replicates=200, seed=1, n_workers=2),
     {"d": "d", "m0": "m0", "replicates": "replicates", "n_workers": "n_workers"}),
    (cw.estimate_survival,
     dict(strategy="optimal", d=4, start=5, t_grid=T, replicates=200, seed=1, n_workers=1),
     {"d": "d", "start": "m0", "replicates": "replicates", "n_workers": "n_workers"}),
    (cw.validate_marginals,
     dict(strategy="optimal", params=cw.WalkParams(3, 2), horizon=1.0, replicates=50, seed=1),
     {"replicates": "replicates"}),
]

NOT_COUNTS = [2.5, 3.0, True, np.float64(3.0)]


def _bits(x):
    """x as nested tuples, equal only where every value has the same type and bits."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return x.shape, tuple(map(_bits, x.ravel().tolist()))
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return type(x), x.hex()
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(_bits, x))
    if hasattr(type(x), "__slots__"):  # Poly, RationalFn, Fraction
        return type(x), tuple(_bits(getattr(x, s)) for s in type(x).__slots__)
    return type(x), x


@pytest.mark.parametrize("fn, kwargs, param, name, value", [
    pytest.param(fn, kwargs, param, name, value,
                 id=f"{fn.__name__}-{param}-{type(value).__name__}({value})")
    for fn, kwargs, names in CALLS for param, name in names.items() for value in NOT_COUNTS])
def test_a_non_integer_count_is_refused(fn, kwargs, param, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        fn(**{**kwargs, param: value})


@pytest.mark.parametrize("fn, kwargs, names", [
    pytest.param(fn, kwargs, names, id=f"{fn.__name__}-{'-'.join(names)}")
    for fn, kwargs, names in CALLS])
def test_numpy_integer_counts_give_the_python_int_bits(fn, kwargs, names):
    as_numpy = {p: np.int64(kwargs[p]) for p in names}
    assert _bits(fn(**{**kwargs, **as_numpy})) == _bits(fn(**kwargs))


def test_numpy_integer_counts_meet_the_2_53_rule():
    # 2^62 * 3 wraps in int64; as Python ints the product is refused
    with pytest.raises(ValueError, match=r"below 2\^53, got m = 3, d = 4611686018427387904"):
        death_chain("optimal", np.int64(2**62), 3)
    with pytest.raises(ValueError, match=r"must be below 2\^53"):
        cw.sample_coupling_times("optimal", np.int64(2**62), 3, 5, 1)
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        cw.expected_tau(4, np.int64(-1))


def test_cutoff_time_refuses_n_below_1():
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        cw.cutoff_time(5, 0)
    assert cw.cutoff_time(5, 1) == 0.0


def test_mk_bound_mean_steps_are_1_or_2():
    assert cw.mk_bound_mean(np.int64(1), 3) == cw.mk_bound_mean(1, 3) == Fraction(11, 6)
    for k in (0, 3):
        with pytest.raises(ValueError, match=r"^k must be "):
            cw.mk_bound_mean(k, 3)


def test_sample_feasible_schedules_checks_its_counts_before_any_draw(monkeypatch):
    assert len(sample_feasible_schedules(4, 3, 0, 1)) == 4  # the vertices alone

    def no_draws(*args):
        raise AssertionError("a refused input drew")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for bad, message in [(dict(count=2.5), "count must be an integer"),
                         (dict(count=True), "count must be an integer"),
                         (dict(count=-1), "count must be >= 0"),
                         (dict(m=-1), "m must be >= 0"), (dict(d=1), "d must be >= 2")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            sample_feasible_schedules(**{**dict(d=4, m=3, count=5, seed=1), **bad})
