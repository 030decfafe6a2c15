from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kolwave.errors import (
    DivergenceError,
    MomentError,
    PreconditionError,
    SubcriticalSpeedError,
    UnsupportedError,
)
from kolwave import semiwavefront
from kolwave.models import GrowthModel, Kernel, WaveParams, effective_kernel
from kolwave.numerics import Grid
from kolwave.profiles import MONOTONE, Profile
from kolwave.spectral import kpp_roots
from kolwave.semiwavefront import (
    _CHUNK,
    _Carries,
    _GreenOperator,
    _comb_path,
    _convolver,
    _fft_length,
    apriori_bound,
    asymptotic_check,
    default_config,
    iterate_front,
    kpp_upper_solution,
    lower_amplitude,
    lower_solution,
    ramp_cutoff,
)


def kpp_params(c=2.5):
    return WaveParams(GrowthModel.kpp(), Kernel.dirac(), c)


@pytest.fixture(scope="module")
def kpp_run():
    params = kpp_params()
    config = default_config(params, dt=0.005, tol=1e-10)
    res = iterate_front(config, params)
    return params, config, res.bound, res


# -------------------------------------------------------------------- cutoff


def test_work_budget_refusal_names_the_node_count_and_both_spans():
    # the 21/|rho| tail term, not the speed, makes this grid long: the right
    # span is nearly thirty times the left one
    params = WaveParams(GrowthModel.food_limited(40.0), Kernel.weak(9.0), 10.0)
    config = default_config(params)
    grid = config.grid
    with pytest.raises(UnsupportedError) as info:
        iterate_front(config, params)
    msg = str(info.value)
    assert f"n={grid.n} nodes" in msg
    assert f"{-grid.t0:.6g} time units left of t = 0" in msg
    assert f"{grid.t_end:.6g} right of it" in msg
    assert grid.t_end > 25.0 * -grid.t0


def test_ramp_cutoff_branches():
    assert ramp_cutoff(0.5, 2.0) == 0.5
    assert ramp_cutoff(3.0, 2.0) == 1.0
    assert ramp_cutoff(5.0, 2.0) == 0.0
    us = np.linspace(0.0, 6.0, 301)
    vals = ramp_cutoff(us, 2.0)
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)
    assert np.allclose(vals[us <= 2.0], us[us <= 2.0])


def _ramp_cutoff_where(u, beta):
    # oracle: the np.where branch form that the min/max form replaced
    u = np.asarray(u, dtype=float)
    out = np.where(u <= beta, u, np.maximum(0.0, 2.0 * beta - u))
    return out if out.ndim else float(out)


def test_ramp_cutoff_equals_the_branch_form_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta = rng.uniform(1.0, 40.0)
        special = [-1.0, -0.0, 0.0, beta, np.nextafter(beta, 0.0), np.nextafter(beta, 4 * beta),
                   2.0 * beta, np.nextafter(2.0 * beta, 0.0), 3.0 * beta, np.inf, -np.inf, np.nan]
        us = np.concatenate((rng.uniform(-beta, 3.0 * beta, 500), special))
        got, want = ramp_cutoff(us, beta), _ramp_cutoff_where(us, beta)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        for u in special:
            g, w = ramp_cutoff(float(u), beta), _ramp_cutoff_where(float(u), beta)
            assert isinstance(g, float)
            assert np.float64(g).view(np.uint64) == np.float64(w).view(np.uint64)


# -------------------------------------------------------------- a-priori bound


def test_bound_point_mass_at_zero_is_one():
    for c in (2.0, 2.5, 4.0):
        rep = apriori_bound(c, Kernel.dirac(), GrowthModel.kpp())
        assert rep.U == 1.0
        assert rep.branch == "right-mass"


def test_bound_discrete_delay_closed_form():
    tau = 0.5
    rep = apriori_bound(2.0, Kernel.discrete(tau), GrowthModel.kpp())  # mass at c*tau
    assert rep.U == pytest.approx(math.exp(2.0 * tau), rel=1e-12)


def test_bound_left_supported_kernel_uses_lookback_branch():
    s = np.linspace(-3.0, -0.5, 301)
    w = np.exp(-((s + 1.5) ** 2) / 0.1)
    c = 2.5
    rep = apriori_bound(c, Kernel.tabulated(s, w), GrowthModel.kpp())
    assert rep.branch == "left-support"
    assert rep.U >= 2.0
    # the sigma used satisfies the slope-budget inequality
    lam = 0.5 * (c - math.sqrt(c * c - 4.0))
    sigma = math.log(rep.U / 2.0) / lam - math.ceil(3.0 - 1e-9)
    assert sigma > 0
    assert 2.0 * c * math.expm1(lam * sigma) / math.expm1(c * sigma) <= 0.01 + 1e-9


def test_bound_tiny_right_mass_takes_smaller_branch():
    # mass almost entirely on the left with a 5e-4 sliver on [0, 0.1]:
    # both branch formulas apply and the look-back one wins
    s = np.concatenate((np.linspace(-3.0, -0.5, 300), np.linspace(0.0, 0.1, 30)))
    w = np.concatenate((np.exp(-((s[:300] + 1.5) ** 2) / 0.1), np.full(30, 1e-3)))
    kern = Kernel.tabulated(s, w)
    assert 0.0 < kern.laplace_right(0.0, 2.5) < 1e-3
    rep = apriori_bound(2.5, kern, GrowthModel.kpp())
    assert rep.branch == "left-support"
    assert rep.U < 1.0 / kern.laplace_right(0.5, 2.5)


def test_bound_rejects_allee_growth():
    with pytest.raises(PreconditionError):
        apriori_bound(3.0, Kernel.dirac(), GrowthModel.quadratic(1.0, 0.8))


def test_bound_subcritical_speed_error():
    with pytest.raises(SubcriticalSpeedError):
        apriori_bound(1.0, Kernel.dirac(), GrowthModel.kpp())


# ------------------------------------------------------------ upper solution


def test_upper_solution_tail_normalization_and_monotonicity():
    up = kpp_upper_solution(2.5, 1.0, 1.5)
    ts = np.linspace(-30.0, -10.0, 50)
    assert np.max(np.abs(up(ts) / np.exp(up.lam * ts) - 1.0)) < 1e-6
    grid = np.linspace(-20.0, 30.0, 5001)
    vals = up(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(2.0 * 1.5, abs=1e-3)


def test_upper_solution_residual_small_off_junction():
    up = kpp_upper_solution(2.5, 1.0, 1.5)
    ts = np.linspace(-15.0, 20.0, 2001)
    ts = ts[np.abs(ts - up.t_join) > 1e-3]
    assert np.max(np.abs(up.residual(ts))) < 1e-6


def test_upper_solution_samples_stay_finite_for_a_fast_front():
    # at c = 50, mu*t_join is far past 709: the coefficient C of e^(mu t)
    # underflows to 0 while e^(mu t) overflows short of the join
    params = WaveParams(GrowthModel.kpp(), Kernel.discrete(0.5), 50.0)
    config = default_config(params)
    up = kpp_upper_solution(50.0, 1.0, config.beta)
    assert up.coef == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = up(config.grid.nodes())
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) >= -1e-12)
    assert up(up.t_join) == pytest.approx(config.beta, rel=1e-12)


def test_upper_solution_needs_supercritical_speed():
    with pytest.raises(UnsupportedError):
        kpp_upper_solution(2.0, 1.0, 1.5)


# ------------------------------------------------------------ lower solution


def test_lower_solution_clamps_and_sits_below_upper():
    c, g0, beta = 2.5, 1.0, 1.5
    up = kpp_upper_solution(c, g0, beta)
    growth = GrowthModel.kpp()
    mu_lower = 0.45 * min(up.lam, up.mu - up.lam)
    m_amp = lower_amplitude(c, g0, mu_lower, up, Kernel.dirac(), growth)
    grid = Grid(-40.0, 0.01, 9001)
    lo = lower_solution(up.lam, mu_lower, m_amp, grid)
    hi = up(grid.nodes())
    assert np.all(lo >= 0.0)
    assert np.all(lo <= hi + 1e-12)
    t_clamp = -math.log(m_amp) / mu_lower
    assert np.all(lo[grid.nodes() >= t_clamp] == 0.0)
    assert np.any(lo > 0.0)


def test_lower_amplitude_guards_rate_window():
    up = kpp_upper_solution(2.5, 1.0, 1.5)
    with pytest.raises(PreconditionError):
        lower_amplitude(2.5, 1.0, 0.6, up, Kernel.dirac(), GrowthModel.kpp())


def _random_no_hump_law(rng):
    kind = rng.integers(3)
    if kind == 0:
        return GrowthModel.food_limited(rng.uniform(0.0, 50.0))
    if kind == 1:
        a = rng.uniform(0.1, 5.0)
        return GrowthModel.quadratic(a, -rng.uniform(0.0, 0.999) * a)
    return GrowthModel.kpp()


def test_closed_form_shift_and_minorant_match_their_grid_scans():
    # oracles: the grid scans the closed forms replaced, a 2001-point min of G
    # on [0, 2*beta] for the shift b and a 2000-point max of the chord slope
    rng = np.random.default_rng(7)
    for _ in range(300):
        growth = _random_no_hump_law(rng)
        tau = rng.uniform(0.0, 2.0)
        kernel = Kernel.discrete(tau) if tau > 0.05 else Kernel.dirac()
        c = rng.uniform(2.05, 4.0) * math.sqrt(growth.g0)
        config = default_config(WaveParams(growth, kernel, c), dt=0.5)
        us = np.linspace(0.0, 2.0 * config.beta, 2001)
        assert config.b == (growth.g0 - float(np.min(growth.g(us)))) + 1.0

        u_max = 2.0 * config.beta
        p = growth.minorant_slope(u_max)
        us = np.linspace(u_max / 2000, u_max, 2000)
        chords = (growth.g0 - growth.g(us)) / us
        p_grid = max(growth.g0, -float(growth.g_prime(0.0)), float(chords.max()))
        assert p == pytest.approx(p_grid * (1.0 + 1e-12) + 1e-15, rel=1e-13, abs=0.0)
        vs = np.linspace(0.0, u_max, 20001)
        assert np.all(growth.g(vs) >= growth.g0 - p * vs)


def test_shift_covers_the_slope_budget_of_every_no_hump_law():
    # b*u + ramp(u)*G(psi) must be nondecreasing in u for u, psi in [0, 2*beta]:
    # ramp has slope +-1, so b >= max |G| = max(G(0), -G(2*beta)), plus the
    # margin 1; with psi = u (point mass) the term u*G'(u) must be covered too
    rng = np.random.default_rng(11)
    for _ in range(300):
        growth = _random_no_hump_law(rng)
        c = rng.uniform(2.05, 4.0) * math.sqrt(growth.g0)
        config = default_config(WaveParams(growth, Kernel.dirac(), c), dt=0.5)
        b, beta = config.b, config.beta
        us = np.linspace(0.0, 2.0 * beta, 4001)
        assert b >= float(np.max(np.abs(growth.g(us)))) + 1.0
        vals = b * us + ramp_cutoff(us, beta) * growth.g(us)
        assert np.all(np.diff(vals) >= 0.0)


# ------------------------------------------------------------- the iteration


def test_kpp_iteration_converges_with_small_residual(kpp_run):
    _, config, bound, res = kpp_run
    assert res.converged
    assert res.residual < 1e-5
    assert res.profile.shape == MONOTONE
    assert res.profile.sup <= bound.U + res.slack
    assert res.profile.decay_minus == pytest.approx(0.5, rel=0.05)


def test_kpp_iteration_profile_matches_asymptotics(kpp_run):
    params, _, _, res = kpp_run
    rep = asymptotic_check(res.profile, params)
    assert rep.flags == ()
    assert rep.rel_err_minus < 0.05
    assert rep.rel_err_plus < 0.10


def test_iterates_stay_below_upper_solution(kpp_run):
    _, _, _, res = kpp_run
    assert np.all(res.profile.values <= res.upper + 1e-6)
    assert np.all(res.profile.values >= res.lower - 1e-6)


def test_first_iterate_from_upper_descends(kpp_run):
    params, config, _, _ = kpp_run
    from dataclasses import replace

    one = iterate_front(replace(config, max_iters=1), params)
    assert not one.converged
    assert np.all(one.profile.values <= one.upper + 1e-6)


def test_residual_decreases_under_grid_refinement():
    params = kpp_params()
    res_coarse = iterate_front(default_config(params, dt=0.02, tol=1e-9), params)
    res_fine = iterate_front(default_config(params, dt=0.01, tol=1e-9), params)
    assert res_fine.residual < res_coarse.residual


@pytest.mark.parametrize("growth", [GrowthModel.kpp(), GrowthModel.food_limited(2.0),
                                    GrowthModel.quadratic(1.0, -0.5)],
                         ids=["kpp", "food2", "quad"])
def test_green_operator_monotone_on_sandwich_pairs(growth):
    # point-mass kernel at 0: the operator's integrand is nondecreasing in
    # the profile once the shift exceeds the growth-slope budget
    params = WaveParams(growth, Kernel.dirac(), 2.5)
    config = default_config(params, dt=0.02, tol=1e-9)
    grid = config.grid
    ts = grid.nodes()
    up = kpp_upper_solution(params.c, growth.g0, config.beta)
    hi = up(ts)
    z1, z2 = config.green_rates(params.c)

    def a_op(phi):
        r = config.b * phi + ramp_cutoff(phi, config.beta) * growth.g(phi)
        return _GreenOperator(z1, z2, grid.dt, grid.n, up.lam)(r)

    rng = np.random.default_rng(2)
    for _ in range(5):
        cut = rng.uniform(0.2, 0.8)
        psi = hi * np.minimum(1.0, cut + 0.5 * rng.random(len(ts)))
        phi = psi * rng.uniform(0.3, 1.0, len(ts))
        assert np.all(a_op(phi) <= a_op(psi) + 1e-9)


# ------------------------------------------------------------ Green operator


def _sweep(e, g, init):
    """Oracle: the plain recurrence I_0 = init; I_i = e*I_{i-1} + g[i-1]."""
    out = [init]
    for v in g.tolist():
        out.append(e * out[-1] + v)
    return np.array(out)


SWEEP_RATIOS = [math.exp(-0.005), math.exp(-0.1), 0.5, 0.05]
# per-cell rates -log(ratio) of tiny ratios, up to the largest z2*h the
# operator accepts (600)
TINY_RATIO_RATES = [25.0 / 16.0 + 0.01, 62.6, 219.0, 599.0]


def _chunked_carries(rate, y, x0):
    """Oracle: the recurrence x_0 = x0, x_{t+1} = e^rate*x_t + y_t chunk by
    chunk, for y with at most one nonzero value per chunk.  Each chunk's
    values are its head times e^(rate*j) plus the impulse's response; the
    head one past the chunk is one more step from the chunk's last value,
    and the heads run the plain recurrence with ratio e^(rate*_CHUNK)."""
    k, m = _CHUNK, len(y)
    pw = np.exp(rate * np.arange(k)).tolist()  # the operator's in-chunk powers
    ratio, head_ratio = math.exp(rate), math.exp(rate * k)
    out, head = [], x0
    for i in range(0, m, k):
        chunk = np.concatenate((y[i:i + k], np.zeros(i + k - min(m, i + k)))).tolist()
        hit = [l for l, v in enumerate(chunk) if v != 0.0]
        l, v = (hit[0], chunk[hit[0]]) if hit else (k, 0.0)
        response = [v * pw[j - l - 1] if j > l else 0.0 for j in range(k)]
        out.extend(head * pw[j] + response[j] for j in range(k))
        head = head_ratio * head + (ratio * response[-1] + chunk[-1])
    return np.array(out[:m])


@pytest.mark.parametrize("e", SWEEP_RATIOS)
def test_blocked_sweep_equals_chunked_oracle_bitwise(e):
    # one impulse of a power of two per chunk keeps every product in the
    # block matmul exact, so the blocked carries must match the chunk-by-
    # chunk oracle to the bit whatever order the BLAS sums in
    rates = (math.log(e), 0.8 * math.log(e))
    rng = np.random.default_rng(11)
    # from one value past a block; the _CHUNK heads of the last run as the
    # float loop
    for m in [_CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK + 2, _CHUNK * _CHUNK]:
        ys = np.zeros((2, m))
        for y in ys:
            for i in range(0, m, _CHUNK):
                at = i + rng.integers(0, _CHUNK + 1)  # _CHUNK past the chunk: none
                if at < min(m, i + _CHUNK):
                    y[at] = rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-20, 21)
        x0 = (0.7, -1.3)
        got = np.empty((2, m))
        _Carries(rates, m)(ys, x0, got)
        for rate, y, x, row in zip(rates, ys, x0, got):
            assert np.array_equal(row, _chunked_carries(rate, y, x)), m


@pytest.mark.parametrize("rate", [-math.log(e) for e in SWEEP_RATIOS] + TINY_RATIO_RATES + [None],
                         ids=[str(e) for e in SWEEP_RATIOS] + [str(r) for r in TINY_RATIO_RATES]
                         + ["c=50"])
def test_blocked_sweep_matches_plain_loop(rate):
    # the block operator against the plain-loop recurrence of both sweeps:
    # a right sweep of ratio e^-rate (the left one e^(-0.8 rate)) on grids
    # from 2 nodes to past 3 chunks, or the c = 50 grid (105,500 nodes),
    # whose carries run blocked two levels deep
    if rate is None:
        params = WaveParams(GrowthModel.kpp(), Kernel.dirac(), 50.0)
        config = default_config(params)
        (z1, z2), h = config.green_rates(50.0), config.grid.dt
        lam, sizes = kpp_roots(50.0, 1.0)[0], [config.grid.n]
    else:
        h = 0.02
        z1, z2, lam = -0.8 * rate / h, rate / h, 0.3 * rate / h
        sizes = [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 2]
    rng = np.random.default_rng(12)
    for n in sizes:
        r = rng.uniform(0.5, 1e12, n)
        op = _GreenOperator(z1, z2, h, n, lam)
        assert np.isfinite(op._blocks).all()
        want = _two_formula_operator(z1, z2, h, n, lam)(r)
        assert np.allclose(op(r), want, rtol=1e-12, atol=0.0), n


def test_green_operator_refuses_a_ratio_below_the_sweep_range():
    with pytest.raises(PreconditionError, match="z1\\*h"):
        _GreenOperator(-30_000.0, 30_002.5, 0.02, 100, 0.5)


def test_bound_refuses_a_right_moment_that_underflows():
    with pytest.raises(MomentError, match="underflows"):
        apriori_bound(2.5, Kernel.discrete(1e300), GrowthModel.kpp())
    with pytest.raises(MomentError, match="underflows"):  # 1/moment overflows
        apriori_bound(2.5, Kernel.discrete(568.0), GrowthModel.kpp())


@pytest.fixture(scope="module", params=[2.5, 3.2], ids=lambda c: f"c={c}")
def food_dirac_operator(request):
    c = request.param
    params = WaveParams(GrowthModel.food_limited(1.0), Kernel.dirac(), c)
    config = default_config(params)
    z1, z2 = config.green_rates(c)
    lam, _ = kpp_roots(c, params.growth.g0)
    return c, config, lam, z1, z2


def test_green_operator_exact_on_tail_mode(food_dirac_operator):
    c, config, lam, z1, z2 = food_dirac_operator
    grid = config.grid
    mode = np.exp(lam * grid.nodes())
    r = (config.b + c * lam - lam ** 2) * mode
    out = _GreenOperator(z1, z2, grid.dt, grid.n, lam)(r)
    half = grid.n // 2
    assert np.max(np.abs(out[:half] / mode[:half] - 1.0)) < 1e-12


def test_green_operator_with_tail_maps_constant_to_one_off_the_left_end(food_dirac_operator):
    _, config, lam, z1, z2 = food_dirac_operator
    grid = config.grid
    out = _GreenOperator(z1, z2, grid.dt, grid.n, lam)(np.full(grid.n, config.b))
    assert np.max(np.abs(out[grid.n // 4:] - 1.0)) < 1e-13


def _two_formula_operator(z1, z2, h, n, lam):
    """Oracle: the Green operator with a separate right-hand sweep, its own
    mirror cell weights and its own exactness correction."""
    e1 = math.exp(z1 * h)
    b1 = -1.0 / z1 + (e1 - 1.0) / (z1 * z1 * h)
    a1 = (e1 - 1.0) / z1 - b1
    e2 = math.exp(-z2 * h)
    b2 = (1.0 - e2 * (1.0 + z2 * h)) / (z2 * z2 * h)
    a2 = (1.0 - e2) / z2 - b2
    em = math.exp(-lam * h)
    ell = (a1 * em + b1) / (1.0 - e1 * em)
    d1 = (1.0 / (lam - z1) - ell) * (1.0 - e1 * em) / (em - 1.0)
    a1, b1 = a1 + d1, b1 - d1
    ep = math.exp(lam * h)
    rho = (a2 + b2 * ep) / (1.0 - e2 * ep)
    d2 = (1.0 / (z2 - lam) - rho) * (1.0 - e2 * ep) / (1.0 - ep)
    a2, b2 = a2 + d2, b2 - d2

    def apply(r):
        i_left = _sweep(e1, a1 * r[:-1] + b1 * r[1:], r[0] / (lam - z1))
        w = a2 * r[:-1] + b2 * r[1:]
        i_right = _sweep(e2, w[::-1], r[-1] / z2)[::-1]
        return (i_left + i_right) / (z2 - z1)

    return apply


def test_mirrored_green_operator_matches_two_formula_oracle(food_dirac_operator):
    _, config, lam, z1, z2 = food_dirac_operator
    grid = config.grid
    op = _GreenOperator(z1, z2, grid.dt, grid.n, lam)
    oracle = _two_formula_operator(z1, z2, grid.dt, grid.n, lam)
    rng = np.random.default_rng(14)
    for _ in range(3):
        r = rng.uniform(-1.0, 2.0, grid.n)
        want = oracle(r)
        assert np.max(np.abs(op(r) - want)) <= 1e-14 * np.max(np.abs(want))


def test_iteration_requires_beta_above_bound():
    # discrete delay at c=2.5 has U = e^(0.5*1.5) ~ 2.12, so beta = 1.5 is too low
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.discrete(0.6), 2.5)
    config = default_config(params, dt=0.02, tol=1e-9)
    assert apriori_bound(params.c, params.kernel, params.growth).U > 1.5
    from dataclasses import replace

    with pytest.raises(PreconditionError):
        iterate_front(replace(config, beta=1.5), params)


def test_subcritical_speed_is_the_designed_failure():
    params = kpp_params(c=1.5)
    with pytest.raises(SubcriticalSpeedError):
        default_config(params, dt=0.02)


def test_delayed_kernel_iteration_respects_bound():
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.discrete(0.6), 2.5)
    config = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged
    assert res.profile.sup <= res.bound.U + res.slack
    assert res.profile.h == pytest.approx(2.5 * 0.6)


def test_front_with_samples_exactly_on_one_has_finite_crossings():
    # dozens of this front's samples equal 1.0 exactly; each is a crossing
    # at its own time, not a 0/0 interpolation
    params = WaveParams(GrowthModel.food_limited(1.0), Kernel.discrete(1.0), 2.2)
    config = default_config(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = iterate_front(config, params)
    assert np.count_nonzero(res.profile.values == 1.0) > 0
    assert len(res.profile.crossings) > 0
    assert np.all(np.isfinite(res.profile.crossings))


def test_weak_kernel_iteration_decay_rates():
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.weak(0.5), 2.5)
    config = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged
    assert res.profile.decay_minus == pytest.approx(0.5, rel=0.05)
    rep = asymptotic_check(res.profile, params)
    assert rep.rel_err_plus is not None and rep.rel_err_plus < 0.10


def test_asymptotic_check_flags_an_unfitted_left_tail_and_a_rootless_right_one():
    # past the discrete edge (1+gamma)/e the linearization at 1 has no real
    # negative root to match a fitted right tail against
    params = WaveParams(GrowthModel.food_limited(9.0), Kernel.discrete(5.0), 2.5)
    profile = Profile(grid=Grid(0.0, 1.0, 3), values=np.array([0.0, 0.5, 1.0]),
                      shape=MONOTONE, sup=1.0, decay_plus=-0.5, flags=("unconverged",))
    rep = asymptotic_check(profile, params)
    assert rep.flags == ("inconclusive", "asymptotics-mismatch")
    assert rep.rel_err_minus is None and rep.matched_root is None


def test_quadratic_growth_without_hump_iterates():
    params = WaveParams(GrowthModel.quadratic(1.0, -0.5), Kernel.dirac(), 2.5)
    config = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged
    assert res.profile.shape == MONOTONE
    assert res.profile.decay_minus == pytest.approx(0.5, rel=0.05)
    rep = asymptotic_check(res.profile, params)
    assert rep.rel_err_plus is not None and rep.rel_err_plus < 0.10


_TABLE_S = np.linspace(-0.5, 2.1, 261)


@pytest.mark.parametrize("growth, kernel, c, sweeps", [
    (GrowthModel.kpp(), Kernel.dirac(), 3.5, 117),
    (GrowthModel.food_limited(2.0), Kernel.discrete(0.4), 2.5, 160),
    (GrowthModel.food_limited(1.0),
     Kernel.tabulated(_TABLE_S, np.exp(-((_TABLE_S - 0.8) ** 2) / 0.18)), 2.5, 128),
], ids=["kpp-dirac-3.5", "food2-discrete-0.4", "food1-table"])
def test_acceptance_matrix_fronts_keep_their_sweep_counts(growth, kernel, c, sweeps):
    # three fronts of the acceptance iteration matrix, with the sweep counts
    # of the chunked-cumsum operator that the block operator replaced
    params = WaveParams(growth, kernel, c)
    res = iterate_front(default_config(params, dt=0.02, tol=1e-9), params)
    assert res.converged
    assert res.iterations == sweeps


def test_picard_loop_refuses_a_non_finite_sweep(monkeypatch):
    def poisoned(kernel, c, h, n):
        return lambda phi: np.full(n, np.nan)

    monkeypatch.setattr(semiwavefront, "_convolver", poisoned)
    params = kpp_params()
    with pytest.raises(DivergenceError, match="non-finite"):
        iterate_front(default_config(params), params)


def test_work_budget_refuses_a_fast_front_before_sampling_its_grid(monkeypatch):
    def nodes(grid):
        raise AssertionError("grid sampled before the budget check")

    monkeypatch.setattr(Grid, "nodes", nodes)
    params = WaveParams(GrowthModel.kpp(), Kernel.discrete(0.5), 4990.0)
    with pytest.raises(UnsupportedError, match=r"c=4990 on n=6414750 nodes"):
        iterate_front(default_config(params), params)


# ------------------------------------------------------- convolution comb


def _padded_correlate(m0, wts, phi):
    """N_c * phi by np.correlate over phi padded with its end values far
    past either end of the comb: the correlate path, kept as the oracle."""
    m = len(wts)
    pad = abs(m0) + m + 1
    padded = np.concatenate((np.full(pad, phi[0]), phi, np.full(pad, phi[-1])))
    start = pad - m0 - m + 1
    return np.correlate(padded, wts[::-1], mode="valid")[start: start + len(phi)]


def _comb_loop(m0, wts, phi):
    """sum_j w_j phi(t - s_j), s_j = (m0 + j) h, phi frozen past either end."""
    n = len(phi)
    return np.array([sum(w * phi[min(max(i - m0 - j, 0), n - 1)] for j, w in enumerate(wts))
                     for i in range(n)])


def _path_of(kernel, c, h, n):
    m0, wts = effective_kernel(kernel, c).convolve_weights(h)
    m = len(wts)
    return _comb_path(m, n, max(0, m0 + m) + n + max(0, 1 - m0))[0]


def _ramp(n, h):
    ts = -20.0 + h * np.arange(n)
    return 1.2 / (1.0 + np.exp(-ts)) + 0.3 * np.sin(0.7 * ts) * np.exp(-0.05 * ts * ts)


_LONG_COMBS = {
    "weak-0.5": Kernel.weak(0.5),
    "weak-2": Kernel.weak(2.0),
    "table-straddling-0": Kernel.tabulated([-6.0, -1.0, 0.5, 9.0], [0.0, 1.0, 2.0, 0.0]),
    "table-left-of-0": Kernel.tabulated([-14.0, -9.0, -3.0], [0.0, 1.0, 0.0]),
    "table-right-of-0": Kernel.tabulated([2.0, 4.0, 16.0], [0.0, 3.0, 0.0]),
}


@pytest.mark.parametrize("name", list(_LONG_COMBS))
def test_long_comb_by_fft_matches_correlate(name):
    kernel, c, h, n = _LONG_COMBS[name], 2.5, 0.01, 6000
    assert _path_of(kernel, c, h, n) == "fft"
    conv = _convolver(kernel, c, h, n)
    phi = _ramp(n, h)
    m0, wts = effective_kernel(kernel, c).convolve_weights(h)
    want = _padded_correlate(m0, wts, phi)
    scale = np.sum(np.abs(wts)) * np.max(np.abs(phi))
    assert np.max(np.abs(conv(phi) - want)) <= 1e-14 * scale
    # a second sweep reuses the comb's spectrum and padding buffer
    assert np.max(np.abs(conv(2.0 * phi) - 2.0 * want)) <= 2e-14 * scale
    flat = np.full(n, 0.75)
    assert np.max(np.abs(conv(flat) - np.sum(wts) * 0.75)) <= 1e-14 * np.sum(np.abs(wts)) * 0.75


@pytest.mark.parametrize("name", list(_LONG_COMBS))
def test_long_comb_on_a_short_grid_stays_direct(name):
    # 23-255 taps over 60 nodes: the block product, not the FFT
    kernel, c, h, n = _LONG_COMBS[name], 2.5, 0.5, 60
    assert _path_of(kernel, c, h, n) == "block"
    phi = _ramp(n, h)
    want = _padded_correlate(*effective_kernel(kernel, c).convolve_weights(h), phi)
    np.testing.assert_allclose(_convolver(kernel, c, h, n)(phi), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kernel, taps", [(Kernel.dirac(), 1), (Kernel.discrete(0.4), 1),
                                          (Kernel.discrete(0.613), 2)])
def test_atom_combs_stay_direct_and_bitwise(kernel, taps):
    c, h, n = 2.5, 0.02, 200_000
    assert len(effective_kernel(kernel, c).convolve_weights(h)[1]) == taps
    assert _path_of(kernel, c, h, n) == "correlate"
    phi = _ramp(n, h)
    want = _padded_correlate(*effective_kernel(kernel, c).convolve_weights(h), phi)
    np.testing.assert_array_equal(_convolver(kernel, c, h, n)(phi), want)


def test_comb_path_takes_the_block_product_from_3_taps_until_the_fft_wins():
    n = 6000
    assert _comb_path(1, n, n + 2) == ("correlate", 0)
    assert _comb_path(2, n, n + 3) == ("correlate", 0)
    assert _comb_path(3, n, n + 4) == ("block", 0)
    assert _comb_path(11, n, n + 12) == ("block", 0)
    assert _comb_path(197, n, n + 198) == ("block", 0)
    assert _comb_path(1583, n, n + 1584) == ("fft", 7680)
    # past 4,065 taps the matrix would pass 2^17 floats; on 60 nodes the
    # FFT does not pay either
    assert _comb_path(4065, 60, 4126) == ("block", 0)
    assert _comb_path(4066, 60, 4127) == ("correlate", 0)


class _Comb:
    """Stands in for effective_kernel(...): a comb of random positive
    weights summing to 1, starting at offset m0."""

    def __init__(self, m0, taps):
        wts = np.random.default_rng(taps).random(taps) + 0.1
        self.comb = (m0, wts / wts.sum())

    def convolve_weights(self, h):
        return self.comb


def _block_convolver(monkeypatch, m0, taps, n):
    monkeypatch.setattr(semiwavefront, "effective_kernel", lambda kernel, c: _Comb(m0, taps))
    monkeypatch.setattr(semiwavefront, "_comb_path", lambda taps, n, size: ("block", 0))
    return _convolver(Kernel.dirac(), 2.5, 0.02, n), _Comb(m0, taps).comb


@pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 1000])
@pytest.mark.parametrize("taps", [3, 64, 200])
@pytest.mark.parametrize("m0", [-250, -40, -2, 0, 5])
def test_block_comb_matches_correlate_and_the_plain_sum(monkeypatch, n, taps, m0):
    # m0 = -250 puts the whole comb right of t, m0 = 5 left of it; 64 and
    # 200 taps over n = 2 .. 33 nodes make combs longer than the grid.  The
    # samples are positive, as every Picard iterate is, so no sum cancels
    conv, (m0, wts) = _block_convolver(monkeypatch, m0, taps, n)
    phi = _ramp(n, 0.04) + 0.3
    assert phi.min() > 0.0
    got = conv(phi).copy()
    np.testing.assert_allclose(got, _padded_correlate(m0, wts, phi), rtol=1e-13, atol=0)
    np.testing.assert_allclose(got, _comb_loop(m0, wts, phi), rtol=1e-13, atol=0)
    # a constant maps to itself: the weights sum to 1
    assert np.max(np.abs(conv(np.full(n, 0.75)) - 0.75)) <= 1e-15
    # a second sweep overwrites the buffer the first one returned
    np.testing.assert_allclose(conv(2.0 * phi), 2.0 * got, rtol=1e-13, atol=0)


def test_fft_length_is_the_smallest_5_smooth_length():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    for size in range(1, 5001):
        assert _fft_length(size) == next(x for x in itertools.count(size) if smooth(x)), size


def test_fft_path_matches_the_block_path_on_a_weak_comb(monkeypatch):
    kernel, c, h, n = Kernel.weak(0.5), 2.5, 0.02, 3000
    assert _path_of(kernel, c, h, n) == "fft"
    phi = _ramp(n, h)
    by_fft = _convolver(kernel, c, h, n)(phi)
    monkeypatch.setattr(semiwavefront, "_comb_path", lambda taps, n, size: ("block", 0))
    by_block = _convolver(kernel, c, h, n)(phi)
    assert np.max(np.abs(by_block - by_fft)) <= 1e-12 * np.max(np.abs(phi))


def test_long_table_on_a_short_grid_builds_no_block_matrix():
    # 10,001 taps over 60 nodes: a block matrix would hold 10,032 x 32 floats
    s = np.linspace(0.0, 100.0, 201)
    kernel, c, h, n = Kernel.tabulated(s, 1.0 + np.sin(s) ** 2), 2.5, 0.01, 60
    assert len(effective_kernel(kernel, c).convolve_weights(h)[1]) == 10_001
    assert _path_of(kernel, c, h, n) == "correlate"
    phi = _ramp(n, h)
    tracemalloc.start()
    try:
        got = _convolver(kernel, c, h, n)(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_032 * _CHUNK * 8 / 4  # a quarter of that matrix
    want = _padded_correlate(*effective_kernel(kernel, c).convolve_weights(h), phi)
    np.testing.assert_array_equal(got, want)
