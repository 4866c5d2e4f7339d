import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ndtr

from cowalk import exact
from cowalk.exact import expected_tau, r_diff_table, survival_exact, survival_table
from cowalk.optimality import dominance_test, verify_argmax_grid
from cowalk.simulate import estimate_survival
from cowalk.strategies import Strategy, death_chain
from cowalk.tvcutoff import (
    _binomial_weights,
    _binomial_window,
    coordinate_law,
    cutoff_profile,
    cutoff_time,
    dinfty_convergence,
    limit_tail,
    mean_tau_stationary,
    survival_from_stationary,
    tv_exact,
)


# --- single-coordinate law --------------------------------------------------

def test_coordinate_law_boundaries():
    law = coordinate_law(4, 0.0)
    assert law.a == 1.0 and law.b == 0.0
    law = coordinate_law(4, 1e9)
    assert law.a == pytest.approx(0.25, abs=1e-12)
    assert law.b == pytest.approx(0.25, abs=1e-12)


def test_coordinate_law_invariant():
    for d in (2, 3, 7):
        for t in (0.0, 0.2, 1.5, 4.0):
            law = coordinate_law(d, t)
            assert law.a + (d - 1) * law.b == pytest.approx(1.0, abs=1e-14)
            assert law.b <= 1.0 / d <= law.a


def test_coordinate_law_matrix_exponential_oracle():
    # generator of the rate-1 walk on K_3: off-diagonal 1/2, diagonal -1
    d, t = 3, 1.0
    gen = np.full((d, d), 1.0 / (d - 1)) - np.eye(d) * (1 + 1.0 / (d - 1))
    p = expm(gen * t)
    law = coordinate_law(d, t)
    assert abs(p[0, 0] - law.a) <= 1e-12
    assert abs(p[0, 1] - law.b) <= 1e-12


# --- exact total variation --------------------------------------------------

def test_tv_at_time_zero():
    for d, n in [(2, 5), (3, 1), (7, 4)]:
        assert tv_exact(d, n, 0.0) == pytest.approx(1.0 - d ** (-n), abs=1e-14)


def test_tv_single_coordinate_closed_form():
    # n = 1: direct enumeration over the d states
    for d in (2, 3, 9):
        for t in (0.1, 0.7, 2.0):
            law = coordinate_law(d, t)
            oracle = 0.5 * (abs(law.a - 1 / d) + (d - 1) * abs(law.b - 1 / d))
            assert tv_exact(d, 1, t) == pytest.approx(oracle, abs=1e-14)
            closed = (1 - 1 / d) * math.exp(-d * t / (d - 1))
            assert tv_exact(d, 1, t) == pytest.approx(closed, abs=1e-14)


def test_tv_brute_force_hypercube():
    # full 2^20-state enumeration, no lumping
    d, n = 2, 20
    t = cutoff_time(d, n)
    bits = np.unpackbits(np.arange(2 ** n, dtype=np.uint32).view(np.uint8).reshape(-1, 4),
                         axis=1, bitorder="little")
    pop = bits.sum(axis=1)  # number of coordinates differing from start
    law = coordinate_law(d, t)
    probs = law.a ** (n - pop) * law.b ** pop
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    oracle = np.maximum(probs - 2.0 ** (-n), 0.0).sum()
    assert abs(tv_exact(d, n, t) - oracle) <= 1e-10


def test_tv_monotone_in_t():
    for d, n in [(2, 10), (5, 100)]:
        grid = np.linspace(0.0, 6.0, 25)
        vals = [tv_exact(d, n, t) for t in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tv_large_n_runs_fast():
    assert 0.0 <= tv_exact(10, 10**6, cutoff_time(10, 10**6)) <= 1.0


@pytest.mark.parametrize("n", [10, 50])
def test_tv_matches_high_precision_sum(n):
    # the lumped sum over K, in 40-digit arithmetic, from the same float a
    mpmath = pytest.importorskip("mpmath")
    for d in (2, 3, 5, 10):
        for t in (0.05, 0.3, 1.0, cutoff_time(d, n), 2.5, 6.0):
            with mpmath.workdps(40):
                a = mpmath.mpf(coordinate_law(d, t).a)
                b = (1 - a) / (d - 1)
                unif = mpmath.mpf(d) ** (-n)
                ref = mpmath.fsum(mpmath.binomial(n, k) * (d - 1) ** (n - k)
                                  * max(a**k * b ** (n - k) - unif, 0)
                                  for k in range(n + 1))
            assert abs(tv_exact(d, n, t) - float(ref)) <= 2e-15, (d, n, t)


def _mp_binomial_sf(mpmath, n, p, k):
    """P(K >= k) for K ~ Binomial(n, p) at the working precision: ratio
    recurrence from the mode over 40 sd + 100 levels each way (the mass
    beyond is below 1e-300), normalised by its sum."""
    mode = min(n, int(mpmath.floor((n + 1) * p)))
    half = int(40 * math.sqrt(n * float(p) * float(1 - p))) + 100
    odds = p / (1 - p)
    up, w = [], mpmath.mpf(1)
    for j in range(mode, min(n, mode + half)):
        w = w * (n - j) / (j + 1) * odds
        up.append(w)
    down, w = [], mpmath.mpf(1)
    for j in range(mode, max(0, mode - half), -1):
        w = w * j / (n - j + 1) / odds
        down.append(w)
    # level of up[i] is mode + 1 + i, of down[i] is mode - 1 - i
    tail = (mpmath.fsum(up[max(k - mode - 1, 0):]) + (k <= mode)
            + mpmath.fsum(down[:max(mode - k, 0)]))
    return tail / (mpmath.fsum(up) + 1 + mpmath.fsum(down))


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_tv_meets_stated_bound_at_large_n(n):
    # the 40-digit binomial tails at the same float a; mpmath.betainc does
    # not converge at these n
    mpmath = pytest.importorskip("mpmath")
    from cowalk.tvcutoff import _binomial_window

    u = 2.0**-53
    for d in (2, 3, 5, 10):
        for theta in (-1.0, 0.0, 1.0):
            t = cutoff_time(d, n) + theta
            a = coordinate_law(d, t).a
            with mpmath.workdps(40):
                a_mp, unif = mpmath.mpf(a), mpmath.mpf(1) / d
                b = (1 - a_mp) / (d - 1)
                r1, r2 = mpmath.log(a_mp * d), -mpmath.log(d * b)
                k_star = int(mpmath.floor(n * r2 / (r1 + r2))) + 1
                ref = (_mp_binomial_sf(mpmath, n, a_mp, k_star)
                       - _mp_binomial_sf(mpmath, n, unif, k_star))
            size = sum(hi - lo + 1 for lo, hi in (_binomial_window(n, a),
                                                  _binomial_window(n, 1.0 / d)))
            assert abs(tv_exact(d, n, t) - float(ref)) <= 1e-24 + 4 * u * size, (d, n, theta)


def test_tv_refuses_n_beyond_its_window_budget():
    assert 0.0 < tv_exact(2, 10**10, cutoff_time(2, 10**10)) < 1.0
    with pytest.raises(ValueError, match="n must be in"):
        tv_exact(2, 10**10 + 1, 1.0)


def test_tv_invariant_under_start_relabeling():
    # complete-graph symmetry: the distance from stationarity is the same
    # from every start state; brute-force product law from arbitrary starts
    import itertools

    d, n, t = 3, 3, 0.8
    law = coordinate_law(d, t)
    for start in [(0, 0, 0), (1, 2, 0), (2, 2, 2)]:
        total = 0.0
        for state in itertools.product(range(d), repeat=n):
            p = 1.0
            for s, v in zip(start, state):
                p *= law.a if s == v else law.b
            total += max(0.0, p - d ** (-n))
        assert total == pytest.approx(tv_exact(d, n, t), abs=1e-13)


# --- cutoff profile ---------------------------------------------------------

def test_cutoff_time_formula():
    assert cutoff_time(2, 100) == pytest.approx(0.25 * math.log(100))
    assert cutoff_time(10, 1000) == pytest.approx(0.45 * math.log(1000))


def test_cutoff_profile_values():
    pts = cutoff_profile(2, 10_000, [0.0])
    assert pts[0].tv_asymptotic == pytest.approx(2 * ndtr(0.5) - 1, abs=1e-12)
    # both sides of the erf/erfc split of Phi
    for d, theta in [(2, -3.0), (2, 3.0), (10, -0.5), (50, 0.1)]:
        x = math.sqrt(d - 1) / 2 * math.exp(-d * theta / (d - 1))
        value = cutoff_profile(d, 100, [theta])[0].tv_asymptotic
        assert value == pytest.approx(2 * ndtr(x) - 1, abs=5e-16), (d, theta)
    assert pts[0].tv_asymptotic == pytest.approx(0.3829249225480262, abs=1e-10)
    far = cutoff_profile(3, 1000, [40.0])[0]
    assert far.tv_asymptotic == pytest.approx(0.0, abs=1e-8)


def test_cutoff_profile_clamps_negative_times():
    pts = cutoff_profile(2, 4, [-10.0])
    assert pts[0].clamped and pts[0].t == 0.0
    # a finite negative time is clamped, -inf goes to the time rule like +inf
    pts = cutoff_profile(5, 100, [-cutoff_time(5, 100) - 1.0])
    assert pts[0].clamped and pts[0].t == 0.0 and pts[0].tv_exact == tv_exact(5, 100, 0.0)
    for theta in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            cutoff_profile(5, 100, [theta])


@pytest.mark.parametrize("d, theta", [(5, -567.0), (5, -568.0), (5, -1e300),
                                      (2, -354.0), (2, -355.0), (2, -356.0)])
def test_cutoff_profile_far_below_the_cutoff_is_a_clamped_row(d, theta):
    # exp(-d theta/(d-1)) overflows a float from theta = -568 at d = 5 and
    # -355 at d = 2; the profile value is 2 Phi(inf) - 1 = 1.0 there
    point = cutoff_profile(d, 100, [theta])[0]
    assert point.clamped and point.t == 0.0
    assert (point.tv_exact, point.tv_asymptotic) == (tv_exact(d, 100, 0.0), 1.0)


def test_cutoff_gap_shrinks_with_n():
    for d in (2, 5, 10):
        for theta in (-1.0, 0.0, 1.0):
            gaps = []
            for n in (10**3, 10**4, 10**5):
                p = cutoff_profile(d, n, [theta])[0]
                gaps.append(abs(p.tv_exact - p.tv_asymptotic))
            assert gaps[0] >= gaps[1] >= gaps[2], (d, theta, gaps)


# --- coupling tail from the stationary start --------------------------------

def test_survival_from_stationary_boundaries():
    curve = survival_from_stationary(3, 6, [0.0, 1.0])
    assert curve.value[0] == pytest.approx(1.0 - 3.0 ** (-6), abs=1e-12)
    assert curve.kind == "exact"


def test_survival_from_stationary_n1_closed_form():
    # the far points come after every live level is dropped
    grid = np.append(np.linspace(0.0, 5.0, 21), [300.0, 1e4, 2e4])
    for d in (2, 5, 50):
        curve = survival_from_stationary(d, 1, grid)
        closed = (1 - 1 / d) * np.exp(-d * grid / (d - 1))
        assert np.abs(curve.value - closed).max() <= 1e-12
        tv = np.array([tv_exact(d, 1, t) for t in grid])
        assert np.abs(curve.value - tv).max() <= 1e-12  # tight at n = 1


def _uniformized_stationary_tail(d, n, t_grid):
    """P(tau > t) from a uniform start on t_grid, by plain uniformization in
    long double (64-bit mantissa on x86): every level kept, the rates taken
    from the integer numerators, and the Poisson weights and start law as
    ratio recurrences from their modes, normalised.  Deterministic, unlike
    scipy's expm_multiply, whose randomized norm estimate moved its result by
    6e-13 at n = 2000."""
    ld = np.longdouble
    gen = death_chain(Strategy.OPTIMAL, d, n)
    lam = gen.lam_int
    p1 = gen.c1.astype(ld) / ((d - 1) * lam)
    p2 = gen.c2.astype(ld) / ((d - 1) * lam)
    stay = 1 - p1 - p2
    odds = ld(d - 1)  # p / (1 - p) of the start law Binomial(n, 1 - 1/d)
    mode = (n + 1) * (d - 1) // d
    law = np.zeros(n + 1, dtype=ld)
    law[mode] = 1
    for m in range(mode, n):
        law[m + 1] = law[m] * (n - m) / (m + 1) * odds
    for m in range(mode, 0, -1):
        law[m - 1] = law[m] * m / (n - m + 1) / odds
    law /= law.sum()
    # the Poisson(lam * max t) mass beyond k_max is below 1e-30
    top = lam * max(t_grid)
    k_max = int(top + 20 * math.sqrt(top) + 60)
    tails = np.empty(k_max + 1, dtype=ld)
    for k in range(k_max + 1):
        tails[k] = law[1:].sum()
        law, prev = law * stay, law
        law[:-1] += prev[1:] * p1[1:]
        law[:-2] += prev[2:] * p2[2:]
    ks = np.arange(k_max + 1, dtype=ld)
    out = []
    for t in t_grid:
        mu = ld(lam) * ld(t)
        if mu == 0:
            out.append(float(tails[0]))
            continue
        peak = int(mu)
        w = np.ones(k_max + 1, dtype=ld)
        w[peak + 1:] = np.cumprod(mu / ks[peak + 1:])
        w[:peak] = np.cumprod((ks[1:peak + 1] / mu)[::-1])[::-1]
        out.append(float((w * tails).sum() / w.sum()))
    return np.array(out)


def test_survival_from_stationary_large_n_against_uniformization():
    d, n = 5, 400
    grid = np.linspace(0.0, 12.0, 13)
    curve = survival_from_stationary(d, n, grid)
    assert np.abs(curve.value - _uniformized_stationary_tail(d, n, grid)).max() <= 1e-12


def test_survival_from_stationary_meets_eps_at_n700():
    d, n = 5, 700
    grid = np.linspace(0.0, 12.0, 50)
    curve = survival_from_stationary(d, n, grid)
    assert np.abs(curve.value - _uniformized_stationary_tail(d, n, grid)).max() <= 1e-12


def test_survival_from_stationary_meets_eps_at_n2000():
    d, n = 5, 2000
    grid = np.linspace(0.0, 12.0, 13)
    curve = survival_from_stationary(d, n, grid)
    assert np.abs(curve.value - _uniformized_stationary_tail(d, n, grid)).max() <= 1e-12


def _count_pushes(monkeypatch):
    """Wrap ``exact._push``: the returned list gets one [first law, steps]
    entry per segment."""
    segments, push = [], exact._push

    def counted(stay, p1, p2, law):
        segments.append([law.copy(), 0])
        for step in push(stay, p1, p2, law):
            segments[-1][1] += 1
            yield step

    monkeypatch.setattr(exact, "_push", counted)
    return segments


def test_stationary_tail_steps_follow_the_mass(monkeypatch):
    # one series at the rate of the whole chain needs k_max = 13,334 steps;
    # the windowed segments step at a rate that falls with the top level,
    # also where one grid point lies far beyond the first segment's reach
    d, n, grid = 5, 1000, np.linspace(0.0, 12.0, 50)
    single = exact._truncation_order(death_chain(Strategy.OPTIMAL, d, n).lam_int * 12.0, 1e-12)
    segments = _count_pushes(monkeypatch)
    dense = survival_from_stationary(d, n, grid).value
    assert len(segments) > 1
    assert sum(steps for _, steps in segments) <= single / 3
    segments.clear()
    sparse = survival_from_stationary(d, n, [12.0]).value
    assert len(segments) > 1
    assert sum(steps for _, steps in segments) <= single / 3
    assert abs(sparse[0] - dense[-1]) <= 2e-12


def test_stationary_tail_drop_route_meets_a_loose_eps(monkeypatch):
    # at eps = 1e-6 the first window drops the binomial's upper tail down to
    # 1e-6/128 of mass, far more levels than at 1e-13
    d, n, grid = 5, 300, np.linspace(0.0, 12.0, 50)
    segments = _count_pushes(monkeypatch)
    tight = survival_from_stationary(d, n, grid, eps=1e-13).value
    top_tight = len(segments[0][0])
    segments.clear()
    loose = survival_from_stationary(d, n, grid, eps=1e-6).value
    assert len(segments[0][0]) < top_tight - 10
    assert np.abs(loose - tight).max() <= 1e-6


def test_stationary_tail_small_n_dense_grid_is_one_segment(monkeypatch):
    d, n, eps = 10, 5, 1e-12
    grid = np.linspace(0.0, 12.0, 2000)
    segments = _count_pushes(monkeypatch)
    curve = survival_from_stationary(d, n, grid, eps)
    start = np.array([math.comb(n, m) * (d - 1) ** m / d ** n for m in range(n + 1)])
    assert len(segments) == 1
    assert np.abs(curve.value - start @ survival_table(d, n, grid, eps).values).max() <= 2 * eps


@pytest.mark.parametrize("d, n, points, sha256", [
    (5, 100, 50, "f4fd988fb653b1df1ee0fd78d7c93f7015b5a96b056d89cf1342eb70c26c27ec"),
    (5, 1000, 50, "1d1043ad4f4927d393c8c3d9aa5b4a282399f8f98725a9b2d4faa3af1f8dd51a"),
    (5, 10**4, 50, "9a7c6be354f0487b2acfa7aca9792a78e393f40e4019e348404aa5ed59f089b7"),
    (2, 300, 50, "32c4dbb7a495d8eaf5999b2c9827761eb0f8f601c959d85b48eb713529738adc"),
    (10, 5, 2000, "283c943f5028eb90ff6d34c65a5812d2cb1c1096ce4a4d512567798767045034"),
])
def test_stationary_tail_bits_are_pinned(d, n, points, sha256):
    # sha256 of the float64 tails as first recorded (numpy 2.4, x86-64):
    # the push's buffers and the per-segment Kahan sums round exactly as
    # the step-by-step sums did, so no bit of the tail may move
    value = survival_from_stationary(d, n, np.linspace(0.0, 12.0, points)).value
    assert hashlib.sha256(value.tobytes()).hexdigest() == sha256


def _start_law_tail_per_step(d, start, t_grid, eps):
    """``exact._start_law_tail`` as it first ran: each segment's weights
    built at once, and each step's mass and weighted law taken one at a time."""
    times, at = np.unique(np.atleast_1d(np.asarray(t_grid, dtype=float)), return_inverse=True)
    values = np.zeros(len(times))
    law, t0, j, trunc, drop = start, 0.0, 0, eps, eps / 64
    while j < len(times) and len(law) > 1:
        top = len(law) - 1 - int(np.searchsorted(np.cumsum(law[:0:-1]), drop / 2, "right"))
        drop -= law[top + 1:].sum()
        chain = death_chain(Strategy.OPTIMAL, d, top)
        lam = float(chain.lam_int)
        t1 = t0 + max(math.log(2), 256 / lam)
        j1 = int(np.searchsorted(times, t1, "right"))
        t1 = times[j1 - 1] if j1 > j else t1
        trunc, share = (0.0, trunc) if j1 == len(times) else (trunc / 2, trunc / 2)
        w = exact._poisson_weights(lam * (np.append(times[j:j1], t1) - t0),
                                   exact._truncation_order(lam * (t1 - t0), share))
        p1, p2 = chain.down1 / lam, chain.down2 / lam
        masses, end, tmp = [], np.zeros(len(p1)), np.empty(len(p1))
        for wk, pk in zip(w[:, -1], exact._push(1.0 - p1 - p2, p1, p2, law[:len(p1)])):
            masses.append(pk[1:].sum())
            end += np.multiply(wk, pk, out=tmp)
        values[j:j1] = exact._kahan_columns(np.array(masses)[:, None] * w[:, :-1])
        law, t0, j = end, t1, j1
    return np.clip(values, 0.0, 1.0)[at]


def _segment_sizes(monkeypatch):
    """Wrap ``exact._pushed_sums``: the returned list gets (levels, steps)
    per segment."""
    sizes, pushed_sums = [], exact._pushed_sums

    def recorded(stay, p1, p2, law, weights):
        sizes.append((len(law), len(weights)))
        return pushed_sums(stay, p1, p2, law, weights)

    monkeypatch.setattr(exact, "_pushed_sums", recorded)
    return sizes


@pytest.mark.parametrize("d", [2, 5, 10])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_stationary_tail_tiles_change_no_bit(d, n, monkeypatch):
    # one segment on [0, 1], several on [0, 12], a lone far point and a
    # point between segment ends; then tiles of 1 step, of one fewer step
    # than the first segment (a last tile of 1 step) and of all its steps,
    # the last with column blocks of 2-4 points
    start = _binomial_weights(n, 1.0 - 1.0 / d)
    grids = [np.linspace(0.0, 1.0, 7), np.linspace(0.0, 12.0, 50), [9.0], [0.0, 5.0]]
    sizes = _segment_sizes(monkeypatch)
    for grid in grids:
        assert (exact._start_law_tail(d, start, grid, 1e-12)[1].tobytes()
                == _start_law_tail_per_step(d, start, grid, 1e-12).tobytes())
    levels, steps = sizes[0]
    for rows, block in ((1, exact._BLOCK), (steps - 1, exact._BLOCK), (steps, 1)):
        monkeypatch.setattr(exact, "_PUSH_TILE", 8 * levels * rows)
        monkeypatch.setattr(exact, "_BLOCK", block)
        for grid in grids:
            assert (exact._start_law_tail(d, start, grid, 1e-12)[1].tobytes()
                    == _start_law_tail_per_step(d, start, grid, 1e-12).tobytes()), rows


def test_stationary_tail_memory_is_bounded_in_the_grid(monkeypatch):
    # n = 1000 on [0, 0.6]: one segment holds all 80,000 points, whose
    # weights, built at once, took 1,592 MB (traced); in column blocks of at
    # most 2^21 weights the traced peak is about 69 MB, and smaller blocks
    # change no bit
    grid = np.linspace(0.0, 0.6, 80_000)
    sizes = _segment_sizes(monkeypatch)
    tracemalloc.start()
    try:
        value = survival_from_stationary(5, 1000, grid).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == 1
    assert peak < 100 * 2**20
    monkeypatch.setattr(exact, "_BLOCK", 1 << 18)
    assert survival_from_stationary(5, 1000, grid).value.tobytes() == value.tobytes()


def test_stationary_tail_refuses_n_past_its_bound():
    # n = 5*10^4 takes about 10 s at d = 5; a larger n is refused at once
    for call in (lambda: survival_from_stationary(5, 50_001, [1.0]),
                 lambda: dinfty_convergence(50_001, [10, 100], [1.0])):
        with pytest.raises(ValueError, match="stationary tail runs to n at most 50000"):
            call()


@pytest.mark.parametrize("d", [2, 3, 5, 10])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_survival_from_stationary_is_the_binomial_mixture_of_level_tails(d, n):
    # t = 0, a duplicate point and an unsorted order
    grid = np.array([2.0, 0.0, 0.3, 2.0, 7.5, 1e-3])
    eps = 1e-12
    start = np.array([math.comb(n, m) * (d - 1) ** m / d ** n for m in range(n + 1)])
    mixture = start @ survival_table(d, n, grid, eps).values
    curve = survival_from_stationary(d, n, grid, eps)
    assert np.array_equal(curve.t_grid, grid)
    assert np.abs(curve.value - mixture).max() <= 2 * eps
    assert curve.value[0] == curve.value[3]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_times_are_refused(bad):
    grid = [0.5, bad]
    for call in (lambda: survival_table(3, 3, grid), lambda: r_diff_table(3, 3, grid),
                 lambda: survival_from_stationary(3, 3, grid), lambda: limit_tail(3, grid)):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            call()


GRID_ENTRY_POINTS = {
    "survival_table": lambda grid: survival_table(4, 3, grid),
    "survival_exact": lambda grid: survival_exact(4, 3, grid),
    "r_diff_table": lambda grid: r_diff_table(4, 3, grid),
    "verify_argmax_grid": lambda grid: verify_argmax_grid(4, 3, grid),
    "estimate_survival": lambda grid: estimate_survival("optimal", 4, 3, grid, 100, 1),
    "dominance_test": lambda grid: dominance_test(4, 3, "independent", grid, 100, 1),
    "survival_from_stationary": lambda grid: survival_from_stationary(4, 3, grid),
    "dinfty_convergence": lambda grid: dinfty_convergence(3, [10, 100], grid),
    "limit_tail": lambda grid: limit_tail(3, grid),
}


@pytest.mark.parametrize("grid", [[[0.5, 1.0]], [[0.5, 1.0], [2.0, 3.0]]])
@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
def test_time_grids_of_more_than_one_dimension_are_refused(entry, grid):
    with pytest.raises(ValueError, match="t_grid must be one-dimensional"):
        GRID_ENTRY_POINTS[entry](grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-12])
def test_non_finite_or_nonpositive_eps_is_refused(bad):
    grid = [0.5, 1.0]
    for call in (lambda: survival_table(5, 3, grid, eps=bad),
                 lambda: r_diff_table(5, 3, grid, eps=bad),
                 lambda: survival_from_stationary(5, 3, grid, eps=bad),
                 lambda: verify_argmax_grid(5, 3, grid, eps=bad)):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            call()


def test_bad_n_and_t_are_refused():
    for n in (0, -1, -2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            limit_tail(n, 1.0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            survival_from_stationary(5, n, [1.0])
    for call in (lambda: limit_tail(3, math.nan), lambda: limit_tail(3, [1.0, math.nan])):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            call()
    for t in (math.nan, math.inf):
        for call in (lambda: coordinate_law(5, t), lambda: tv_exact(5, 3, t),
                     lambda: cutoff_profile(5, 10, [0.0, t])):
            with pytest.raises(ValueError, match="t_grid must be finite"):
                call()
    for call in (lambda: coordinate_law(5, -0.5), lambda: tv_exact(5, 3, -0.5),
                 lambda: coordinate_law(5, [1.0, -0.5])):  # the time-grid rule reads first
        with pytest.raises(ValueError, match="t_grid must be nonnegative"):
            call()
    for t in ([1.0, 2.0], [1.0], np.array([1.0])):  # one time, not a grid of them
        for call in (lambda: coordinate_law(5, t), lambda: tv_exact(5, 3, t)):
            with pytest.raises(ValueError, match=r"t must be a scalar, got shape \("):
                call()


@pytest.mark.parametrize("t, message", [
    (math.inf, "t_grid must be finite"),
    (-0.5, "t_grid must be nonnegative"),
    ([], "t_grid must be nonempty"),
])
def test_limit_tail_takes_the_time_grid_rule(t, message):
    with pytest.raises(ValueError, match=message):
        limit_tail(3, t)


def test_limit_tail_of_a_scalar_is_a_float():
    value = limit_tail(3, 1.0)
    assert type(value) is float
    assert value == limit_tail(3, [1.0])[0]
    assert value == pytest.approx(1.0 - (1.0 - math.exp(-1.0)) ** 3, rel=1e-15)


@pytest.mark.parametrize("d", [1, 0, -3])
def test_d_below_2_is_refused(d):
    # K_1 has no move to make; death_chain refuses it too.  The stationary
    # layer refuses it before 1 - 1/d
    for call in (lambda: coordinate_law(d, 0.5), lambda: tv_exact(d, 10, 0.5),
                 lambda: cutoff_time(d, 10), lambda: cutoff_profile(d, 10, [0.0]),
                 lambda: survival_from_stationary(d, 5, [1.0]),
                 lambda: mean_tau_stationary(d, 3000), lambda: mean_tau_stationary(d, 3)):
        with pytest.raises(ValueError, match="d must be >= 2"):
            call()


def test_coupling_inequality_on_grid():
    grid = np.linspace(0.0, 6.0, 31)
    for d in (2, 3, 10):
        curve = survival_from_stationary(d, 8, grid, eps=1e-12)
        tv = np.array([tv_exact(d, 8, t) for t in grid])
        assert (tv <= curve.value + 1e-11).all()


# --- the d -> infinity limit -------------------------------------------------

def test_limit_tail_values():
    assert limit_tail(1, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert limit_tail(7, 0.0) == 1.0
    assert limit_tail(5, math.log(5)) == pytest.approx(1 - (1 - 0.2) ** 5, abs=1e-12)


def test_dinfty_gaps_decrease():
    grid = np.linspace(0.0, 10.0, 60)
    gaps = dinfty_convergence(5, [10, 100, 1000], grid)
    assert gaps[0].sup_gap > gaps[1].sup_gap > gaps[2].sup_gap


def test_dinfty_gap_closed_form_n1():
    grid = np.linspace(0.0, 5.0, 40)
    for d in (10, 100):
        gaps = dinfty_convergence(1, [d], grid)
        closed = np.abs((1 - 1 / d) * np.exp(-d * grid / (d - 1)) - np.exp(-grid))
        assert gaps[0].sup_gap == pytest.approx(closed.max(), abs=1e-12)


def test_dinfty_gap_at_time_zero():
    # pointwise gap at t = 0 is exactly d^-n
    for d, n in [(10, 5), (100, 3)]:
        curve = survival_from_stationary(d, n, [0.0])
        assert abs(curve.value[0] - limit_tail(n, 0.0)) == pytest.approx(d ** (-n), abs=1e-12)


def test_dinfty_requires_increasing_d():
    with pytest.raises(ValueError):
        dinfty_convergence(3, [10, 10], [1.0])


# --- expected coupling time from the stationary start ------------------------

def test_mean_tau_stationary_n1():
    for d in (2, 3, 12):
        expect = Fraction(d - 1, d) * Fraction(d - 1, d)
        assert mean_tau_stationary(d, 1) == expect


def test_mean_tau_stationary_exact_vs_float():
    for d in (2, 5):
        exact_val = float(mean_tau_stationary(d, 60, exact=True))
        float_val = mean_tau_stationary(d, 60, exact=False)
        assert exact_val == pytest.approx(float_val, rel=1e-11)


def test_mean_tau_stationary_monotone_in_n():
    for d in (2, 4):
        vals = [float(mean_tau_stationary(d, n)) for n in (1, 2, 4, 8, 16, 32)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mean_tau_stationary_equals_per_level_sum():
    for d in (2, 3, 5, 10, 50):
        levels = [expected_tau(d, m) for m in range(61)]
        for n in range(1, 61):
            direct = sum((Fraction(math.comb(n, m) * (d - 1) ** m, d**n) * levels[m]
                          for m in range(n + 1)), Fraction(0))
            assert mean_tau_stationary(d, n) == direct


def test_mean_tau_stationary_float_at_n1e6():
    # reference: the level recursion as a plain sequential float loop, and
    # binomial weights by ratio recurrence outward from the mode (kept while
    # above 1e-40 of the mode's), normalised, every sum by math.fsum
    d, n = 5, 10**6
    p = (d - 1) / d
    ratio = p / (1 - p)
    mode = int((n + 1) * p)
    w = {mode: 1.0}
    m = mode
    while w[m] > 1e-40 and m < n:
        w[m + 1] = w[m] * (n - m) / (m + 1) * ratio
        m += 1
    m = mode
    while w[m] > 1e-40 and m > 0:
        w[m - 1] = w[m] * m / (n - m + 1) / ratio
        m -= 1
    top = max(w)
    levels = [0.0] * (top + 1)
    e1 = e2 = 0.0
    for m in range(1, top + 1):
        if m % 2 == 1 and m * (d - 2) < 2 * (d - 1):  # singles mode
            c1, c2 = m * d, 0
        else:
            c1, c2 = m * (d - 2), m
        e1, e2 = ((d - 1) + c1 * e1 + c2 * e2) / (c1 + c2), e1
        levels[m] = e1
    ref = math.fsum(wm * levels[m] for m, wm in w.items()) / math.fsum(w.values())
    value = mean_tau_stationary(d, n, exact=False)
    assert abs(value - ref) <= 1e-12 * ref


def test_mean_tau_stationary_float_is_the_window_of_the_full_scan():
    for d in (2, 5, 10):
        p = 1.0 - 1.0 / d
        for n in (2001, 10**4, 10**5):
            lo, hi = _binomial_window(n, p)
            direct = float(_binomial_weights(n, p, lo, hi) @ exact.expected_tau_float(d, hi)[lo:])
            assert mean_tau_stationary(d, n, exact=False) == direct


def test_mean_tau_stationary_float_working_set_is_the_window():
    # only the window's blocks keep their rows: at the largest accepted n for
    # d = 5 the window is levels 9,966,006..10^7
    assert _binomial_window(12_478_753, 1.0 - 1.0 / 5) == (9_966_006, 10**7)
    for n, bound in ((10**6, 4), (12_478_753, 16)):
        tracemalloc.start()
        try:
            mean_tau_stationary(5, n, exact=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, n


def test_mean_tau_stationary_float_refuses_past_level_cap():
    # the float path steps levels up to its binomial window's top, at most 10^7
    d = 4
    lo, hi = 1, 10**10  # bisect for the first n whose window top passes 10^7
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if _binomial_window(mid, 1 - 1 / d)[1] <= 10**7 else (lo, mid)
    assert _binomial_window(lo - 1, 1 - 1 / d)[1] == 10**7
    with pytest.raises(ValueError):
        mean_tau_stationary(d, lo, exact=False)
    with pytest.raises(ValueError):
        mean_tau_stationary(d, 10**10 + 1, exact=False)


def test_mean_tau_stationary_exact_path_refuses_past_level_2000():
    # the automatic exact path ends at n = 2000, where the level bound is
    assert isinstance(mean_tau_stationary(2, 2000), Fraction)
    assert isinstance(mean_tau_stationary(2, 2001), float)
    with pytest.raises(ValueError, match="exact means run to level at most 2000"):
        mean_tau_stationary(50, 2001, exact=True)


def test_mean_tau_stationary_weights_sum():
    # mixture agrees with direct summation at small n
    d, n = 3, 5
    from scipy.stats import binom

    direct = sum(binom.pmf(m, n, 1 - 1 / d) * float(expected_tau(d, m))
                 for m in range(n + 1))
    assert float(mean_tau_stationary(d, n)) == pytest.approx(direct, rel=1e-12)
