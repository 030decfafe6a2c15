from __future__ import annotations

import json
import math

import numpy as np
import pytest

from kolwave.errors import PreconditionError
from kolwave.models import (
    EffectiveKernel,
    GrowthModel,
    Kernel,
    WaveParams,
    effective_kernel,
    moment_transform,
    params_from_json,
    params_to_json,
)
from kolwave.numerics import quad_adaptive


def weak_kernel_2d_moment(tau, c, lam, n_s=4000, n_y=4000):
    """Direct 2-d quadrature oracle for the exponential moment of the
    gaussian-times-exponential kernel."""
    s = np.linspace(1e-9, 60.0 * tau, n_s)
    total = np.zeros_like(s)
    for i, sv in enumerate(s):
        width = 12.0 * math.sqrt(2.0 * sv)
        y = np.linspace(-width, width, n_y)
        g = np.exp(-(y ** 2) / (4.0 * sv)) / math.sqrt(4.0 * math.pi * sv)
        total[i] = np.trapezoid(g * np.exp(-lam * (c * sv + y)), y) / tau * math.exp(-sv / tau)
    return float(np.trapezoid(total, s))


# ---------------------------------------------------------------- growth laws


def test_food_limited_constants():
    g = GrowthModel.food_limited(9.0)
    assert g.g0 == 1.0
    assert g.gstar == 1.0
    assert g.gp1 == pytest.approx(-0.1)


def test_every_growth_kind_is_monostable_on_grid():
    for g in (
        GrowthModel.food_limited(0.0),
        GrowthModel.food_limited(40.0),
        GrowthModel.quadratic(1.0, -0.5),
        GrowthModel.quadratic(1.0, 0.8),
        GrowthModel.kpp(),
    ):
        assert g.g(1.0) == pytest.approx(0.0, abs=1e-14)
        us = np.linspace(0.0, 3.0, 1000)
        us = us[np.abs(us - 1.0) > 1e-9]
        assert np.all(g.g(us) * (1.0 - us) > 0)


def test_quadratic_allee_constants():
    g = GrowthModel.quadratic(1.0, 0.8)
    assert g.g0 == pytest.approx(1.0)
    assert g.gstar == pytest.approx(1.0 + 0.64 / (4 * 1.8))
    assert g.has_allee
    # G'(1) = b - 2(a+b)
    assert g.gp1 == pytest.approx(0.8 - 2 * 1.8)
    assert g.gp1 < 0


def test_quadratic_no_allee_when_b_nonpositive():
    g = GrowthModel.quadratic(1.0, -0.3)
    assert g.gstar == pytest.approx(1.0)
    assert not g.has_allee


def test_minorant_slope_bounds_growth_from_below():
    for g in (GrowthModel.food_limited(9.0), GrowthModel.quadratic(1.0, -0.5)):
        p = g.minorant_slope(4.0)
        us = np.linspace(1e-6, 4.0, 500)
        assert np.all(g.g(us) >= g.g0 - p * us - 1e-12)
        assert p >= g.g0
    # food-limited minorant slope is 1 + gamma
    assert GrowthModel.food_limited(9.0).minorant_slope(4.0) == pytest.approx(10.0, rel=1e-6)


def test_growth_parameter_guards():
    with pytest.raises(PreconditionError):
        GrowthModel.food_limited(-1.0)
    with pytest.raises(PreconditionError):
        GrowthModel.quadratic(-1.0, 0.5)
    with pytest.raises(PreconditionError):
        GrowthModel.quadratic(1.0, -2.0)


# ------------------------------------------------------------------- kernels


def test_effective_kernel_point_masses():
    nk = effective_kernel(Kernel.discrete(1.5), c=2.0)
    assert nk.is_atom and nk.atom == pytest.approx(3.0)
    nk0 = effective_kernel(Kernel.dirac(), c=2.0)
    assert nk0.is_atom and nk0.atom == 0.0


def test_weak_effective_kernel_mass_mean_shape():
    nk = effective_kernel(Kernel.weak(1.0), c=2.0)
    assert not nk.is_atom
    assert nk.mass() == pytest.approx(1.0, abs=1e-6)
    assert nk.mean() == pytest.approx(2.0, abs=1e-3)
    assert np.all(nk.w >= 0)
    # unimodal: values rise to a single peak then fall
    i_peak = int(np.argmax(nk.w))
    assert np.all(np.diff(nk.w[: i_peak + 1]) >= -1e-12)
    assert np.all(np.diff(nk.w[i_peak:]) <= 1e-12)


def test_weak_effective_kernel_matches_closed_form_density():
    tau, c = 1.0, 2.0
    nk = effective_kernel(Kernel.weak(tau), c)
    half = math.sqrt(c * c / 4.0 + 1.0 / tau)
    closed = np.exp(c * nk.s / 2.0 - np.abs(nk.s) * half) / (2.0 * tau * half)
    assert np.max(np.abs(nk.w - closed)) < 1e-6


def test_weak_mean_matches_2d_quadrature():
    # mean of N_c equals c * tau; cross-check the first moment by direct
    # 2-d quadrature of (c*s + y) K(s, y)
    tau, c = 1.0, 2.0
    s = np.linspace(1e-9, 40.0, 3000)
    vals = c * s * np.exp(-s / tau) / tau  # gaussian y-integral of y vanishes
    assert float(np.trapezoid(vals, s)) == pytest.approx(c * tau, abs=1e-4)
    nk = effective_kernel(Kernel.weak(tau), c)
    assert nk.mean() == pytest.approx(c * tau, abs=1e-3)


def test_moment_transform_normalization_and_cases():
    for k in (Kernel.dirac(), Kernel.discrete(2.0), Kernel.weak(0.7)):
        assert moment_transform(k, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    # delta kernel sifting
    assert moment_transform(Kernel.discrete(1.0), 2.0, 0.3) == pytest.approx(
        math.exp(-0.6), rel=1e-12
    )


def test_weak_moment_closed_form_against_2d_quadrature():
    tau, c = 1.0, 2.0
    for lam in (-0.1, 0.05, 0.2):
        closed = moment_transform(Kernel.weak(tau), c, lam)
        oracle = weak_kernel_2d_moment(tau, c, lam)
        assert closed == pytest.approx(oracle, rel=2e-4)
    assert moment_transform(Kernel.weak(tau), c, -0.1) > 1.0


def test_weak_moment_divergence_marker():
    tau, c = 1.0, 2.0
    lo, hi = Kernel.weak(tau).finite_moment_interval(c)
    assert moment_transform(Kernel.weak(tau), c, lo - 0.01) == math.inf
    assert math.isfinite(moment_transform(Kernel.weak(tau), c, lo + 0.01))
    assert math.isfinite(moment_transform(Kernel.weak(tau), c, hi - 0.01))


def test_moment_transform_log_convex_on_triples():
    for k in (Kernel.weak(1.0), Kernel.discrete(0.5)):
        for lam0, lam1 in ((-0.2, 0.3), (0.0, 0.5), (-0.1, 0.1)):
            mid = 0.5 * (lam0 + lam1)
            f0 = moment_transform(k, 2.0, lam0)
            f1 = moment_transform(k, 2.0, lam1)
            fm = moment_transform(k, 2.0, mid)
            assert math.log(fm) <= 0.5 * (math.log(f0) + math.log(f1)) + 1e-12


def test_effective_kernel_quadrature_integral_is_one():
    nk = effective_kernel(Kernel.weak(1.0), c=2.0)
    val = quad_adaptive(lambda s: float(np.interp(s, nk.s, nk.w, left=0.0, right=0.0)),
                        (nk.s[0], nk.s[-1]), 1e-9)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_tabulated_kernel_roundtrip_and_resampling():
    s = np.linspace(-1.0, 3.0, 401)
    w = np.exp(-((s - 1.0) ** 2))
    k = Kernel.tabulated(s, w)
    nk = effective_kernel(k, c=5.0)
    assert nk.mass() == pytest.approx(1.0, abs=1e-12)
    m0, wts = nk.convolve_weights(0.01)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    # comb mean close to the table mean
    comb_mean = float(np.sum((m0 + np.arange(len(wts))) * 0.01 * wts))
    assert comb_mean == pytest.approx(nk.mean(), abs=1e-3)


def test_dirac_table_projects_to_itself():
    y = np.linspace(-2.0, 2.0, 401)
    k1 = np.exp(-(y ** 2))
    kern = Kernel.dirac_table(y, k1)
    nk = effective_kernel(kern, c=7.0)  # projection is c-independent here
    assert not nk.is_atom
    assert np.allclose(nk.s, y)
    assert nk.mass() == pytest.approx(1.0, abs=1e-12)
    # moment equals the direct y-integral against K1
    lam = 0.3
    direct = np.trapezoid(nk.w * np.exp(-lam * y), y)
    assert kern.laplace(lam, 7.0) == pytest.approx(float(direct), rel=1e-12)


def test_half_line_weighted_kernel_integral_two_routes():
    # integral over (0, inf) of e^(-lam s) N_c(s) ds: adaptive quadrature on
    # the tabulated density vs the closed-form two-sided exponential
    tau, c, lam = 1.0, 2.0, 1.0
    nk = effective_kernel(Kernel.weak(tau), c)
    f = lambda s: float(np.interp(s, nk.s, nk.w, left=0.0, right=0.0)) * math.exp(-lam * s)
    route1 = quad_adaptive(f, (0.0, float(nk.s[-1])), 1e-10)
    half = math.sqrt(c * c / 4.0 + 1.0 / tau)
    rate_right = half - c / 2.0
    route2 = 1.0 / (2.0 * tau * half * (lam + rate_right))
    assert route1 > 0.0
    assert route1 == pytest.approx(route2, rel=1e-4)
    assert nk.laplace_right(lam) == pytest.approx(route2, rel=1e-4)


def test_atom_convolution_weights_split_linearly():
    nk = EffectiveKernel(atom=0.35)
    m0, wts = nk.convolve_weights(0.1)
    assert m0 == 3
    assert np.allclose(wts, [0.5, 0.5])
    assert (m0 + np.argmax(wts >= 0)) * 0.1 <= 0.35 <= (m0 + len(wts) - 1) * 0.1


def test_wave_params_speed_flags():
    food = GrowthModel.food_limited(9.0)
    assert WaveParams(food, Kernel.discrete(1.0), 2.0).speed_flag == "existence-guaranteed"
    assert WaveParams(food, Kernel.discrete(1.0), 1.9).speed_flag == "nonexistence"
    allee = GrowthModel.quadratic(1.0, 0.8)
    mid = 0.5 * (2 * math.sqrt(allee.g0) + 2 * math.sqrt(allee.gstar))
    assert WaveParams(allee, Kernel.dirac(), mid).speed_flag == "undetermined"


def test_params_json_roundtrip():
    p = WaveParams(GrowthModel.food_limited(9.0), Kernel.weak(3.0), 2.5)
    doc = params_to_json(p)
    assert doc == {
        "growth": {"kind": "food-limited", "gamma": 9.0},
        "kernel": {"kind": "weak-generic", "tau": 3.0},
        "c": 2.5,
    }
    q = params_from_json(json.loads(json.dumps(doc)))
    assert q == p

    p2 = WaveParams(GrowthModel.quadratic(1.0, -0.5), Kernel.discrete(0.7), 3.0)
    assert params_from_json(params_to_json(p2)) == p2
