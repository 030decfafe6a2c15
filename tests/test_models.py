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
    params_from_json,
    params_to_json,
)
from kolwave.models import _WEAK_QUAD_TOL, _weak_density, _weak_table
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
    assert float(np.trapezoid(nk.w, nk.s)) == pytest.approx(1.0, abs=1e-6)
    assert float(np.trapezoid(nk.s * nk.w, nk.s)) == pytest.approx(2.0, abs=1e-3)
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
    assert Kernel.weak(tau).mean(c) == pytest.approx(c * tau, rel=1e-15)


def test_moment_transform_normalization_and_cases():
    for k in (Kernel.dirac(), Kernel.discrete(2.0), Kernel.weak(0.7)):
        assert k.laplace(0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    # delta kernel sifting
    assert Kernel.discrete(1.0).laplace(0.3, 2.0) == pytest.approx(
        math.exp(-0.6), rel=1e-12
    )


def test_weak_moment_closed_form_against_2d_quadrature():
    tau, c = 1.0, 2.0
    for lam in (-0.1, 0.05, 0.2):
        closed = Kernel.weak(tau).laplace(lam, c)
        oracle = weak_kernel_2d_moment(tau, c, lam)
        assert closed == pytest.approx(oracle, rel=2e-4)
    assert Kernel.weak(tau).laplace(-0.1, c) > 1.0


def test_weak_moment_divergence_marker():
    tau, c = 1.0, 2.0
    lo, hi = Kernel.weak(tau).finite_moment_interval(c)
    assert Kernel.weak(tau).laplace(lo - 0.01, c) == math.inf
    assert math.isfinite(Kernel.weak(tau).laplace(lo + 0.01, c))
    assert math.isfinite(Kernel.weak(tau).laplace(hi - 0.01, c))


def test_moment_transform_log_convex_on_triples():
    for k in (Kernel.weak(1.0), Kernel.discrete(0.5)):
        for lam0, lam1 in ((-0.2, 0.3), (0.0, 0.5), (-0.1, 0.1)):
            mid = 0.5 * (lam0 + lam1)
            f0 = k.laplace(lam0, 2.0)
            f1 = k.laplace(lam1, 2.0)
            fm = k.laplace(mid, 2.0)
            assert math.log(fm) <= 0.5 * (math.log(f0) + math.log(f1)) + 1e-12


def _bump(lo: float, hi: float, n: int) -> Kernel:
    x = np.linspace(0.0, 1.0, n)
    return Kernel.tabulated(lo + (hi - lo) * x, x ** 1.5 * (1.0 - x) ** 2.2)


@pytest.mark.parametrize("kernel", [Kernel.dirac(), Kernel.discrete(0.4), Kernel.weak(0.35),
                                    _bump(-0.5, 2.0, 161), _bump(-2.0, 40.0, 2000)],
                         ids=["dirac", "discrete", "weak", "table", "long-table"])
def test_moment_derivatives_equal_central_differences(kernel):
    c, h = 2.7, 1e-5
    for lam in (-0.6, -0.2, 0.0, 0.5, 1.5):  # the weak moment is finite above -0.813
        for k in (1, 2, 3):
            diff = (kernel.laplace(lam + h, c, k - 1) - kernel.laplace(lam - h, c, k - 1)) / (2 * h)
            assert kernel.laplace(lam, c, k) == pytest.approx(diff, rel=1e-6, abs=1e-12)


def test_weak_moment_derivatives_equal_those_of_a_fine_table_of_its_density():
    tau, c = 0.35, 2.7
    half = math.sqrt(c * c / 4.0 + 1.0 / tau)
    s = np.linspace(-20.0, 80.0, 400_001)  # a node at 0, where the density has its kink
    table = Kernel.tabulated(s, np.exp(c * s / 2.0 - np.abs(s) * half))
    for lam in (-0.2, 0.0, 0.5):
        for k in (0, 1, 2, 3):
            assert Kernel.weak(tau).laplace(lam, c, k) == pytest.approx(
                table.laplace(lam, c, k), rel=1e-7)


def test_effective_kernel_quadrature_integral_is_one():
    nk = effective_kernel(Kernel.weak(1.0), c=2.0)
    [val] = quad_adaptive(lambda s, k: np.interp(s, nk.s, nk.w, left=0.0, right=0.0),
                          [nk.s[0]], [nk.s[-1]], 1e-9)
    assert val == pytest.approx(1.0, abs=1e-6)


def _simpson_rec(f, a, fa, m, fm, b, fb, whole, tol_abs, depth, budget):
    if depth <= 0:
        raise AssertionError("refinement depth exhausted")
    budget[0] -= 2
    if budget[0] <= 0:
        raise AssertionError("evaluation budget exhausted")
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol_abs:
        return left + right + delta / 15.0
    return (
        _simpson_rec(f, a, fa, lm, flm, m, fm, left, tol_abs / 2, depth - 1, budget)
        + _simpson_rec(f, m, fm, rm, frm, b, fb, right, tol_abs / 2, depth - 1, budget)
    )


def _recursive_simpson(f, a, b, tol):
    """Oracle: the scalar recursive adaptive Simpson, one integral per call,
    with the rule of quad_adaptive (17-point scan, 8 panels, depth 50)."""
    xs = np.linspace(a, b, 17)
    tol_abs = tol * (1.0 + abs(float(np.trapezoid([f(x) for x in xs], xs))))
    budget = [400_000]
    panels = np.linspace(a, b, 9)
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson_rec(f, lo, fa, 0.5 * (lo + hi), fm, hi, fb, whole, tol_abs / 8.0,
                              50, budget)
    return total


def _weak_density_oracle(s, c, tau):
    """The weak kernel's density at one node s by the scalar v-integral."""
    pref = 1.0 / (tau * math.sqrt(math.pi))
    a = c * c / 4.0 + 1.0 / tau

    def integrand(wv):
        if wv == 0.0:
            return 0.0 if s != 0.0 else pref
        v = wv * wv
        return pref * math.exp(-((s - c * v) ** 2) / (4.0 * v) - v / tau)

    w_max = math.sqrt(max(40.0 * tau, 40.0 / a, (abs(s) + 40.0) / max(c, 1e-6)))
    return _recursive_simpson(integrand, 0.0, w_max, _WEAK_QUAD_TOL)


@pytest.mark.parametrize("tau, c", [(0.2066, 2.516029), (0.45, 2.9), (1.0, 2.0)])
def test_weak_density_matches_the_recursive_simpson_oracle(tau, c):
    s, w = _weak_table(tau, c)
    pick = np.unique(np.append(np.arange(0, len(s), 37), len(s) - 1))
    nodes = np.append(s[pick], 0.0)  # s = 0 takes the integrand's other branch at v = 0
    got = _weak_density(nodes, c, tau)
    want = np.array([_weak_density_oracle(float(x), c, tau) for x in nodes])
    assert np.max(np.abs(got - want)) <= 1e-14
    # a node's value does not depend on the batch it shares
    assert np.array_equal(got[:-1], w[pick])


def test_tabulated_kernel_roundtrip_and_resampling():
    s = np.linspace(-1.0, 3.0, 401)
    w = np.exp(-((s - 1.0) ** 2))
    k = Kernel.tabulated(s, w)
    nk = effective_kernel(k, c=5.0)
    assert k.laplace(0.0, 5.0) == pytest.approx(1.0, abs=1e-12)
    m0, wts = nk.convolve_weights(0.01)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    # comb mean close to the table mean
    comb_mean = float(np.sum((m0 + np.arange(len(wts))) * 0.01 * wts))
    assert comb_mean == pytest.approx(k.mean(5.0), abs=1e-3)


def test_dirac_table_projects_to_itself():
    y = np.linspace(-2.0, 2.0, 401)
    k1 = np.exp(-(y ** 2))
    kern = Kernel.dirac_table(y, k1)
    nk = effective_kernel(kern, c=7.0)  # projection is c-independent here
    assert not nk.is_atom
    assert np.allclose(nk.s, y)
    assert float(np.trapezoid(nk.w, nk.s)) == pytest.approx(1.0, abs=1e-12)
    # moment equals the direct y-integral against K1
    lam = 0.3
    direct = np.trapezoid(nk.w * np.exp(-lam * y), y)
    assert kern.laplace(lam, 7.0) == pytest.approx(float(direct), rel=1e-12)


def test_half_line_weighted_kernel_integral_two_routes():
    # integral over (0, inf) of e^(-lam s) N_c(s) ds: adaptive quadrature on
    # the tabulated density vs the closed-form two-sided exponential, and
    # the kernel's own right-half moment against both
    tau, c, lam = 1.0, 2.0, 1.0
    nk = effective_kernel(Kernel.weak(tau), c)
    f = lambda s, k: np.interp(s, nk.s, nk.w, left=0.0, right=0.0) * np.exp(-lam * s)
    [route1] = quad_adaptive(f, [0.0], [nk.s[-1]], 1e-10)
    half = math.sqrt(c * c / 4.0 + 1.0 / tau)
    rate_right = half - c / 2.0
    route2 = 1.0 / (2.0 * tau * half * (lam + rate_right))
    assert route1 > 0.0
    assert route1 == pytest.approx(route2, rel=1e-4)
    assert Kernel.weak(tau).laplace_right(lam, c) == pytest.approx(route2, rel=1e-14)
    assert Kernel.tabulated(nk.s, nk.w).laplace_right(lam, c) == pytest.approx(route1, rel=1e-4)


def test_closed_form_moments_equal_the_tabulated_ones():
    # the weak kernel's closed forms against the same moments of its
    # quadrature table, read as a tabulated kernel (agreement measured:
    # 2.3e-5 relative, 7e-6 absolute in the mean and the window masses)
    for tau, c in ((1.0, 2.0), (0.3, 2.7), (0.45, 2.4)):
        exact = Kernel.weak(tau)
        nk = effective_kernel(exact, c)
        table = Kernel.tabulated(nk.s, nk.w)
        for lam in (0.0, 0.4, 1.0):  # the table cuts the tails, so no lam < 0
            assert exact.laplace(lam, c) == pytest.approx(table.laplace(lam, c), rel=1e-4)
            assert exact.laplace_right(lam, c) == pytest.approx(table.laplace_right(lam, c),
                                                                rel=1e-4)
        assert exact.mean(c) == pytest.approx(table.mean(c), abs=2e-5)
        for lo, hi in ((-1.0, 0.0), (-0.5, 2.0), (1.0, 4.0), (-math.inf, math.inf)):
            assert exact.mass_on(lo, hi, c) == pytest.approx(table.mass_on(lo, hi, c), abs=1e-5)
        half = math.sqrt(c * c / 4.0 + 1.0 / tau)
        assert exact.laplace_right(0.0, c) == pytest.approx(0.5 + c / (4.0 * half), rel=1e-14)
        assert exact.mass_on(0.0, math.inf, c) == pytest.approx(0.5 + c / (4.0 * half),
                                                                 rel=1e-14)


def test_atom_moments():
    k = Kernel.discrete(0.5)
    assert k.mean(3.0) == 1.5 and Kernel.dirac().mean(3.0) == 0.0
    assert k.laplace_right(0.4, 3.0) == pytest.approx(math.exp(-0.6), rel=1e-15)
    assert k.laplace_right(0.0, 3.0) == 1.0 == Kernel.dirac().laplace_right(0.0, 3.0)
    assert k.mass_on(1.0, 2.0, 3.0) == 1.0 and k.mass_on(-1.0, 1.0, 3.0) == 0.0
    assert Kernel.dirac().mass_on(-1.0, 0.0, 3.0) == 1.0


def test_table_window_moments_are_exact_on_the_interpolant():
    # the hat 1 - |s| on three nodes: clipped trapezoids integrate the
    # piecewise-linear density exactly, whatever the window
    k = Kernel.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert k.mass_on(-0.5, 0.25, 2.0) == pytest.approx(0.375 + 0.21875, abs=1e-15)
    assert k.mass_on(-3.0, 3.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert k.mass_on(1.5, 3.0, 2.0) == 0.0
    assert k.laplace_right(0.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert k.mean(2.0) == pytest.approx(0.0, abs=1e-15)
    left = Kernel.tabulated([-2.0, -1.0], [1.0, 1.0])
    assert left.laplace_right(0.0, 2.0) == 0.0 and left.laplace_right(1.0, 2.0) == 0.0


def test_atom_convolution_weights_split_linearly():
    nk = EffectiveKernel(atom=0.35)
    m0, wts = nk.convolve_weights(0.1)
    assert m0 == 3
    assert np.allclose(wts, [0.5, 0.5])
    assert (m0 + np.argmax(wts >= 0)) * 0.1 <= 0.35 <= (m0 + len(wts) - 1) * 0.1


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


@pytest.mark.parametrize("doc, field", [
    ({"kernel": {"kind": "dirac-spatial"}, "c": 2.5}, "growth"),
    ({"growth": [], "kernel": {"kind": "dirac-spatial"}, "c": 2.5}, "growth"),
    ({"growth": {"kind": "quadratic", "a": 1.0}, "kernel": {"kind": "dirac-spatial"},
      "c": 2.5}, "b"),
    ({"growth": {"kind": "kpp"}, "kernel": {"kind": "weak-generic", "tau": "3"}, "c": 2.5},
     "tau"),
    ({"growth": {"kind": "kpp"}, "kernel": {"kind": "tabulated-N", "s": [0.0, 1.0],
                                            "density": [1.0, "x"]}, "c": 2.5}, "density"),
    ({"growth": {"kind": "kpp"}, "kernel": {"kind": "dirac-spatial"}, "c": None}, "c"),
    ([], "growth"),
])
def test_params_json_missing_or_mistyped_field_is_named(doc, field):
    with pytest.raises(PreconditionError, match=f"'{field}'"):
        params_from_json(doc)


def test_table_laplace_equals_numpy_trapezoid_bitwise():
    x = np.linspace(0.0, 1.0, 161)
    kernel = Kernel.tabulated(-0.8 + 3.0 * x, x ** 2.7 * (1 - x) ** 1.3)
    s, w = np.array(kernel.table_s), np.array(kernel.table_w)
    rng = np.random.default_rng(17)
    for lam in rng.uniform(-20.0, 20.0, 1000):
        for order in range(4):
            want = float(np.trapezoid((-s) ** order * w * np.exp(-lam * s), s))
            assert kernel.laplace(lam, 2.6, order) == want, (lam, order)
