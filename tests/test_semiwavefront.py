from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from kolwave.errors import (
    PreconditionError,
    SubcriticalSpeedError,
    UnsupportedError,
)
from kolwave.models import GrowthModel, Kernel, WaveParams
from kolwave.numerics import Grid
from kolwave.profiles import MONOTONE
from kolwave.spectral import kpp_roots
from kolwave.semiwavefront import (
    _GreenOperator,
    _sweep,
    _sweep_tables,
    apriori_bound,
    asymptotic_check,
    critical_speed_probe,
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
    config, bound = default_config(params, dt=0.005, tol=1e-10)
    return params, config, bound, iterate_front(config, params)


# -------------------------------------------------------------------- cutoff


def test_ramp_cutoff_branches():
    assert ramp_cutoff(0.5, 2.0) == 0.5
    assert ramp_cutoff(3.0, 2.0) == 1.0
    assert ramp_cutoff(5.0, 2.0) == 0.0
    us = np.linspace(0.0, 6.0, 301)
    vals = ramp_cutoff(us, 2.0)
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)
    assert np.allclose(vals[us <= 2.0], us[us <= 2.0])


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
    lo = lower_solution(c, g0, mu_lower, m_amp, grid)
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
        config, _ = default_config(WaveParams(growth, kernel, c), dt=0.5)
        us = np.linspace(0.0, 2.0 * config.beta, 2001)
        assert config.b == 2.0 * (growth.g0 - float(np.min(growth.g(us)))) + 1.0

        u_max = 2.0 * config.beta
        p = growth.minorant_slope(u_max)
        us = np.linspace(u_max / 2000, u_max, 2000)
        chords = (growth.g0 - growth.g(us)) / us
        p_grid = max(growth.g0, -float(growth.g_prime(0.0)), float(chords.max()))
        assert p == pytest.approx(p_grid * (1.0 + 1e-12) + 1e-15, rel=1e-13, abs=0.0)
        vs = np.linspace(0.0, u_max, 20001)
        assert np.all(growth.g(vs) >= growth.g0 - p * vs)


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
    res_coarse = iterate_front(default_config(params, dt=0.02, tol=1e-9)[0], params)
    res_fine = iterate_front(default_config(params, dt=0.01, tol=1e-9)[0], params)
    assert res_fine.residual < res_coarse.residual


def test_green_operator_monotone_on_sandwich_pairs():
    # point-mass kernel at 0: the operator's integrand is nondecreasing in
    # the profile once the shift exceeds the growth-slope budget
    params = kpp_params()
    config, _ = default_config(params, dt=0.02, tol=1e-9)
    grid = config.grid
    ts = grid.nodes()
    up = kpp_upper_solution(params.c, 1.0, config.beta)
    hi = up(ts)
    growth = params.growth
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


def _chunk_length(e):
    return max(16, int(25.0 / max(1e-12, -math.log(e))))


def _chunked_recurrence(g, e, init):
    """Oracle: the chunk-by-chunk sweep the blocked one replaced.  I_0 = init;
    I_i = e*I_{i-1} + g_i, with fresh power tables in every chunk."""
    n = len(g)
    out = np.empty(n)
    out[0] = init
    step = _chunk_length(e) if e < 1.0 else n
    carry = init
    i = 1
    while i < n:
        j = min(n, i + step)
        block = g[i:j]
        k = j - i
        pw = e ** np.arange(1, k + 1)
        inv = e ** -np.arange(k)
        out[i:j] = pw * (carry + np.cumsum(block * inv) / e)
        carry = out[j - 1]
        i = j
    return out


SWEEP_RATIOS = [math.exp(-0.005), math.exp(-0.1), 0.5, 0.05]


def _sweep_sizes(e):
    k = _chunk_length(e)
    # n = 2; n - 1 below the chunk length, an exact multiple of it, one past one
    return [2, k // 2 + 1, 3 * k + 1, 3 * k + 2]


@pytest.mark.parametrize("e", SWEEP_RATIOS)
def test_blocked_sweep_equals_chunked_oracle_bitwise(e):
    assert _chunk_length(0.05) == 16
    rng = np.random.default_rng(11)
    for n in _sweep_sizes(e):
        g = rng.uniform(-1.0, 1.0, n)
        g[0] = 0.0
        got = _sweep(_sweep_tables(e, n), g[1:], 0.7)
        assert np.array_equal(got, _chunked_recurrence(g, e, 0.7))


@pytest.mark.parametrize("e", SWEEP_RATIOS)
def test_blocked_sweep_matches_plain_loop(e):
    rng = np.random.default_rng(12)
    for n in _sweep_sizes(e):
        g = rng.random(n)
        want = np.empty(n)
        want[0] = 0.7
        for i in range(1, n):
            want[i] = e * want[i - 1] + g[i]
        got = _sweep(_sweep_tables(e, n), g[1:], 0.7)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module", params=[2.5, 3.2], ids=lambda c: f"c={c}")
def food_dirac_operator(request):
    c = request.param
    params = WaveParams(GrowthModel.food_limited(1.0), Kernel.dirac(), c)
    config, _ = default_config(params)
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


def test_iteration_requires_beta_above_bound():
    # discrete delay at c=2.5 has U = e^(0.5*1.5) ~ 2.12, so beta = 1.5 is too low
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.discrete(0.6), 2.5)
    config, bound = default_config(params, dt=0.02, tol=1e-9)
    assert bound.U > 1.5
    from dataclasses import replace

    with pytest.raises(PreconditionError):
        iterate_front(replace(config, beta=1.5), params)


def test_subcritical_speed_is_the_designed_failure():
    params = kpp_params(c=1.5)
    with pytest.raises(SubcriticalSpeedError):
        default_config(params, dt=0.02)


def test_delayed_kernel_iteration_respects_bound():
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.discrete(0.6), 2.5)
    config, bound = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged
    assert res.profile.sup <= bound.U + res.slack
    assert res.profile.h == pytest.approx(2.5 * 0.6)


def test_front_with_samples_exactly_on_one_has_finite_crossings():
    # dozens of this front's samples equal 1.0 exactly; each is a crossing
    # at its own time, not a 0/0 interpolation
    params = WaveParams(GrowthModel.food_limited(1.0), Kernel.discrete(1.0), 2.2)
    config, _ = default_config(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = iterate_front(config, params)
    assert np.count_nonzero(res.profile.values == 1.0) > 0
    assert len(res.profile.crossings) > 0
    assert np.all(np.isfinite(res.profile.crossings))


def test_weak_kernel_iteration_decay_rates():
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.weak(0.5), 2.5)
    config, bound = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged
    assert res.profile.decay_minus == pytest.approx(0.5, rel=0.05)
    rep = asymptotic_check(res.profile, params)
    assert rep.rel_err_plus is not None and rep.rel_err_plus < 0.10


def test_quadratic_growth_without_hump_iterates():
    params = WaveParams(GrowthModel.quadratic(1.0, -0.5), Kernel.dirac(), 2.5)
    config, bound = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged
    assert res.profile.shape == MONOTONE
    assert res.profile.decay_minus == pytest.approx(0.5, rel=0.05)
    rep = asymptotic_check(res.profile, params)
    assert rep.rel_err_plus is not None and rep.rel_err_plus < 0.10


def test_critical_speed_probe_reports_three_members():
    out = critical_speed_probe(kpp_params())
    assert [round(c, 4) for c, _ in out] == [3.0, 2.5, round(2 + 1 / 3, 4)]
    assert all(res.converged for _, res in out)
    sups = [res.profile.sup for _, res in out]
    assert max(sups) <= 1.0 + 1e-6
