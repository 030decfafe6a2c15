from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from kolwave.errors import PreconditionError, SubcriticalSpeedError
from kolwave import spectral
from kolwave.models import GrowthModel, Kernel, WaveParams
from kolwave.spectral import (
    delay_char_roots,
    kpp_roots,
    real_root_boundary,
    roots_at_one,
    weak_char_roots,
)


# ------------------------------------------------------------------ kpp_roots


def test_kpp_roots_critical_speed():
    lam, mu = kpp_roots(2.0, 1.0)
    assert lam == mu == pytest.approx(1.0)


def test_kpp_roots_factorization():
    lam, mu = kpp_roots(2.5, 1.0)
    assert (lam, mu) == (pytest.approx(0.5), pytest.approx(2.0))


def test_kpp_roots_vieta_to_machine_precision():
    for c, g0 in ((2.1, 1.0), (3.7, 1.3), (10.0, 0.25)):
        lam, mu = kpp_roots(c, g0)
        assert lam * mu == pytest.approx(g0, rel=1e-14)
        assert lam + mu == pytest.approx(c, rel=1e-14)
        assert 0 < lam <= mu


def test_kpp_roots_subcritical_error():
    with pytest.raises(SubcriticalSpeedError):
        kpp_roots(1.0, 1.0)


# ------------------------------------------------------- delayed linearization


def test_delay_char_two_roots_below_boundary():
    rep = delay_char_roots(9.0, 3.0, 0.0)
    assert rep.real_negative_count == 2
    z2, z1 = sorted(r.re for r in rep.real_negative_roots())
    # larger root satisfies the defining relation z = -exp(-3z)/10
    assert z1 == pytest.approx(-math.exp(-3.0 * z1) / 10.0, abs=1e-10)
    # tangency point separates them
    assert z2 < -1.0 / 3.0 < z1 < 0


def test_delay_char_no_roots_above_boundary():
    rep = delay_char_roots(9.0, 4.0, 0.0)
    assert rep.real_negative_count == 0


def test_delay_char_double_root_on_boundary():
    gamma = 9.0
    tau = (1.0 + gamma) / math.e
    rep = delay_char_roots(gamma, tau, 0.0)
    doubles = [r for r in rep.roots if r.mult == 2]
    assert len(doubles) == 1
    assert doubles[0].re == pytest.approx(-1.0 / tau, abs=1e-6)
    assert rep.classification == "boundary"


def test_delay_char_small_eps_continuation():
    base = sorted(r.re for r in delay_char_roots(9.0, 3.0, 0.0).real_negative_roots())
    pert = sorted(r.re for r in delay_char_roots(9.0, 3.0, 0.01).real_negative_roots())
    assert len(pert) == 2
    for z0, ze in zip(base, pert):
        assert abs(ze - z0) / abs(z0) < 0.10


def test_delay_char_separation_property_across_parameters():
    for gamma, tau in ((1.0, 0.5), (9.0, 3.0), (40.0, 10.0), (5.0, 2.0)):
        if tau >= (1 + gamma) / math.e:
            continue
        rep = delay_char_roots(gamma, tau, 0.0)
        z2, z1 = sorted(r.re for r in rep.real_negative_roots())
        assert z2 < -1.0 / tau < z1 < 0


def _lambert_w(x: Decimal, w: Decimal) -> Decimal:
    """The branch of Lambert W through Newton's start w: the root of
    w e^w = x, to 60 digits."""
    for _ in range(200):
        e = w.exp()
        step = (w * e - x) / (e * (w + 1))
        w -= step
        if abs(step) < Decimal(10) ** -50:
            return w
    raise AssertionError("Newton did not converge")


@pytest.mark.parametrize("d", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_delay_char_close_pairs_below_the_boundary_equal_lambert_w(d):
    # z = W(-tau/(1+gamma))/tau on both real branches, W_-1 from a start at -2
    # and W_0 from 0, exact for the floating-point tau
    gamma = 9.0
    tau = (1.0 + gamma) / math.e * (1.0 - d)
    rep = delay_char_roots(gamma, tau, 0.0)
    assert [r.mult for r in rep.roots] == [1, 1] and rep.classification is None
    with localcontext() as ctx:
        ctx.prec = 60
        x = -Decimal(tau) / Decimal(1.0 + gamma)
        exact = [float(_lambert_w(x, Decimal(w0)) / Decimal(tau)) for w0 in (0, -2)]
    # the pair's condition number grows as 1/sqrt(d): rounding the equation
    # moves each root by about eps/(2 sqrt(d)) relative
    rel = max(1e-12, 4.0 * sys.float_info.epsilon / math.sqrt(d))
    assert [r.re for r in rep.roots] == [pytest.approx(z, rel=rel) for z in exact]


@pytest.mark.parametrize("eps, tau", [(0.01, 3.0), (0.05, 11.0), (0.1, 1.0)])
@pytest.mark.parametrize("d", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
def test_delay_char_close_pairs_off_a_tangency_are_two_simple_roots(eps, tau, d):
    z, gamma = _tangency(tau, eps)
    rep = delay_char_roots(gamma * (1.0 + d), tau, eps)
    assert [r.mult for r in rep.roots] == [1, 1] and rep.classification is None
    assert rep.roots[1].re < z < rep.roots[0].re


# ------------------------------------------------------------- weak quartic


def test_weak_quartic_known_roots_at_infinite_speed():
    rep = weak_char_roots(40.0, 10.0, 0.0)
    zs = sorted(r.re for r in rep.real_negative_roots())
    assert zs[0] == pytest.approx(-0.057809, abs=1e-6)
    assert zs[1] == pytest.approx(-0.042191, abs=1e-6)
    assert rep.classification == "node"


def test_weak_quartic_boundary_discriminant():
    rep = weak_char_roots(40.0, 10.25, 0.0)
    assert rep.classification == "boundary"
    doubles = [r for r in rep.roots if r.mult == 2]
    assert len(doubles) == 1 and doubles[0].re == pytest.approx(-1.0 / 20.5)


def test_weak_quartic_focus_class():
    rep = weak_char_roots(40.0, 11.0, 0.0)
    assert rep.classification == "focus"
    assert rep.real_negative_count == 0
    assert all(r.im != 0 for r in rep.roots)
    assert all(r.re < 0 for r in rep.roots)  # slow branch at infinite speed


def test_weak_quartic_finite_speed_structure():
    rep = weak_char_roots(40.0, 10.0, 0.04)
    assert len(rep.roots) == 4
    assert rep.real_negative_count == 2
    assert rep.real_positive_count == 2


def test_weak_quartic_focus_finite_speed_has_complex_positive():
    rep = weak_char_roots(40.0, 11.0, 0.04)
    assert rep.has_complex_positive_real_part
    assert sum(1 for r in rep.roots if r.im != 0 and r.re < 0) == 2


def test_weak_quartic_vieta_check():
    gamma, tau, eps = 7.0, 1.5, 0.09
    rep = weak_char_roots(gamma, tau, eps)
    zs = [complex(r.re, r.im) for r in rep.roots for _ in range(r.mult)]
    assert len(zs) == 4
    # expanded quartic: eps^2 z^4 - 2 eps z^3 + (1 - eps/tau) z^2 + z/tau + 1/(tau(1+gamma))
    s = sum(zs)
    p = zs[0] * zs[1] * zs[2] * zs[3]
    assert s.real == pytest.approx(2.0 / eps, rel=1e-9)
    assert abs(s.imag) < 1e-9 * abs(s.real)
    assert p.real == pytest.approx(1.0 / (tau * (1 + gamma) * eps * eps), rel=1e-9)


# -------------------------------------------------- positive-state, any kernel


def test_roots_at_one_dirac_kernel_closed_form():
    params = WaveParams(GrowthModel.kpp(), Kernel.dirac(), 2.5)
    rep = roots_at_one(params)
    # z^2 - 2.5 z - 1 = 0 has one negative root
    expect = (2.5 - math.sqrt(2.5 ** 2 + 4.0)) / 2.0
    assert rep.real_negative_count == 1
    assert rep.dominant_real == pytest.approx(expect, abs=1e-10)


def test_roots_at_one_matches_delay_characteristic_after_scaling():
    gamma, tau, c = 9.0, 3.0, 10.0
    params = WaveParams(GrowthModel.food_limited(gamma), Kernel.discrete(tau), c)
    rep = roots_at_one(params)
    scaled = delay_char_roots(gamma, tau, c ** -2)
    zs = sorted(r.re for r in rep.real_negative_roots())
    ws = sorted(r.re for r in scaled.real_negative_roots())
    assert len(zs) == len(ws) == 2
    for z, w in zip(zs, ws):
        assert z * c == pytest.approx(w, rel=1e-8)


def test_roots_at_one_discrete_boundary_tangency():
    # on the eps = 0 boundary delay, c = 1e6 is no tangency: the c^-2 z^2 term
    # lifts the minimum by 7.4e-14, about 1.4e-13 of the terms, so two simple
    # roots lie there, the same as on the delay route at eps = 1e-12
    gamma, c = 9.0, 1e6
    tau_crit = (1.0 + gamma) / math.e
    rep = roots_at_one(WaveParams(GrowthModel.food_limited(gamma), Kernel.discrete(tau_crit), c))
    delay = delay_char_roots(gamma, tau_crit, c ** -2)
    assert [r.mult for r in rep.roots] == [r.mult for r in delay.roots] == [1, 1]
    for r, w in zip(rep.roots, delay.roots):
        assert r.re * c == pytest.approx(w.re, rel=1e-7)  # c times find_root's 1e-14
    assert rep.roots[0].re * c == pytest.approx(-0.27182798, abs=5e-9)
    assert rep.roots[1].re * c == pytest.approx(-0.27182838, abs=5e-9)


def _tangency(tau: float, eps: float) -> tuple[float, float]:
    """(z, gamma) with z a double root of eps z^2 - z - exp(-z tau)/(1+gamma):
    z solves eps tau z^2 + (2 eps - tau) z - 1 = 0 near -1/tau, taken as
    -1/(eps tau z_big) to avoid cancellation."""
    big = ((tau - 2.0 * eps) + math.sqrt((2.0 * eps - tau) ** 2 + 4.0 * eps * tau)) / (2.0 * eps * tau)
    z = -1.0 / (eps * tau * big)
    return z, tau * math.exp(-z * tau) / (1.0 - 2.0 * eps * z) - 1.0


@pytest.mark.parametrize("c", [3.0, 10.0, 1e3])
def test_exact_tangencies_give_one_double_root(c):
    tau = 3.0
    z, gamma = _tangency(tau, c ** -2)
    delay = delay_char_roots(gamma, tau, c ** -2)
    assert [r.mult for r in delay.roots] == [2] and delay.classification == "boundary"
    assert delay.roots[0].re == pytest.approx(z, rel=1e-7)
    rep = roots_at_one(WaveParams(GrowthModel.food_limited(gamma), Kernel.discrete(tau), c))
    assert [r.mult for r in rep.roots] == [2]
    assert rep.roots[0].re * c == pytest.approx(z, rel=1e-7)


def test_roots_at_one_weak_kernel_truncates_at_divergence():
    params = WaveParams(GrowthModel.food_limited(9.0), Kernel.weak(3.0), 2.0)
    rep = roots_at_one(params)  # its window [-20/(tau*c), 0) reaches past -0.1547
    assert rep.truncated_window is not None
    lo_fin, _ = params.kernel.finite_moment_interval(params.c)
    assert rep.truncated_window[0] >= lo_fin


def test_roots_at_one_long_table_clips_its_window_where_moments_stay_finite():
    x = np.linspace(0.0, 1.0, 2000)
    kernel = Kernel.tabulated(-2.0 + 42.0 * x, x ** 1.5 * (1.0 - x) ** 2.2)
    rep = roots_at_one(WaveParams(GrowthModel.kpp(), kernel, 2.6))
    lo_fin, _ = kernel.finite_moment_interval(2.6)
    assert -20.0 < lo_fin < rep.truncated_window[0] < lo_fin + 1e-6
    for k in range(4):
        assert math.isfinite(kernel.laplace(rep.truncated_window[0], 2.6, k))


def test_roots_at_one_cuts_where_the_third_derivative_changes_sign():
    # a little mass far left makes the second derivative of the left side
    # dip between two negative ends; without the cut at the zero of the third
    # derivative the isolation sees one monotone piece and finds no root
    s = np.linspace(-4.0, 2.0, 1201)
    kernel = Kernel.tabulated(s, np.exp(-((s - 0.155) / 0.02) ** 2)
                              + 0.0073 * np.exp(-((s + 3.5) / 0.02) ** 2))
    params = WaveParams(GrowthModel.quadratic(12.0, 0.0), kernel, 2.9)
    rep = roots_at_one(params)
    zs = np.linspace(-20.0, -1e-12, 2001)
    f = np.array([z * z - 2.9 * z - 24.0 * kernel.laplace(float(z), 2.9) for z in zs])
    flips = zs[1:][np.diff(np.sign(f)) != 0]  # the right end of each sign change
    assert [r.mult for r in rep.roots] == [1, 1] and len(flips) == 2
    assert [r.re for r in rep.roots] == [pytest.approx(z, abs=0.01) for z in flips[::-1]]


_X = np.linspace(0.0, 1.0, 161)
# (growth, kernel, c) -> roots as (re, mult), recorded when Rolle isolation
# replaced the 512-point sign scan; each moved from the scan's value by at
# most 6.8e-15, within find_root's 1e-14, and kept its multiplicity
ROOT_CASES = [
    (GrowthModel.food_limited(1.3), Kernel.dirac(), 2.7, [(-0.15242557509370186, 1)]),
    (GrowthModel.kpp(), Kernel.discrete(0.4), 2.9,
     [(-0.5473364249170096, 1), (-1.9151247677778582, 1)]),
    (GrowthModel.food_limited(0.7), Kernel.discrete(0.15), 3.1,
     [(-0.19548309302612235, 1), (-12.47233939827057, 1)]),
    (GrowthModel.food_limited(0.9), Kernel.weak(0.35), 2.6,
     [(-0.24458076788188837, 1), (-0.6625017474214483, 1)]),
    (GrowthModel.kpp(), Kernel.weak(0.25), 2.8, [(-0.5899748742132433, 2)]),
    (GrowthModel.food_limited(1.1),
     Kernel.tabulated(-0.5 + 2.5 * _X, _X ** 1.5 * (1 - _X) ** 2.2), 2.9,
     [(-0.17236443548224445, 1), (-3.9784695749008137, 1)]),
    (GrowthModel.kpp(), Kernel.tabulated(-0.8 + 3.0 * _X, _X ** 2.7 * (1 - _X) ** 1.3), 2.6,
     [(-0.6436753513531857, 1), (-1.364502785509749, 1)]),
]


@pytest.mark.parametrize("growth, kernel, c, expected", ROOT_CASES,
                         ids=["dirac", "discrete-kpp", "discrete", "weak", "weak-double",
                              "table", "table-kpp"])
def test_roots_at_one_repeats_the_recorded_roots_bitwise(growth, kernel, c, expected):
    rep = roots_at_one(WaveParams(growth, kernel, c))
    assert [(r.re, r.mult) for r in rep.roots] == expected


def test_far_delay_root_stops_bisecting_once_the_bracket_cannot_split(monkeypatch):
    # the root near -147.9 is found to two adjacent floats (wider than the
    # 1e-14 tol) long before find_root's 400 passes; bisecting all of them
    # cost 860 evaluations, with the same roots
    real = spectral.find_root
    calls = []

    def counting(f, bracket, tol=1e-12):
        return real(lambda z: calls.append(z) or f(z), bracket, tol)

    monkeypatch.setattr(spectral, "find_root", counting)
    rep = delay_char_roots(10.0, 0.05, 0.0)
    assert len(calls) == 168
    assert [(r.re.hex(), r.im, r.mult) for r in rep.roots] == [
        ("-0x1.76115d7ab9728p-4", 0.0, 1), ("-0x1.27c611e4490a0p+7", 0.0, 1)]


def test_roots_at_one_max_four_negative_assertion_holds_on_samples():
    for gamma, tau, c in ((9.0, 0.5, 2.5), (2.0, 1.0, 3.0)):
        params = WaveParams(GrowthModel.food_limited(gamma), Kernel.weak(tau), c)
        rep = roots_at_one(params)
        assert rep.real_negative_count <= 4


# ----------------------------------------------------------- critical delays


def test_real_root_boundary_values():
    d = real_root_boundary(9.0)
    assert d.discrete == pytest.approx(10.0 / math.e, rel=1e-12)
    assert d.weak == pytest.approx(2.5)
    d0 = real_root_boundary(0.0)
    assert d0 == (pytest.approx(1.0 / math.e), pytest.approx(0.25))
    d40 = real_root_boundary(40.0)
    assert d40.discrete == pytest.approx(41.0 / math.e, rel=1e-12)
    assert d40.discrete == pytest.approx(15.083, abs=1e-3)
    assert d40.weak == pytest.approx(10.25)


def test_real_root_boundary_guard():
    with pytest.raises(PreconditionError):
        real_root_boundary(-1.0)


@pytest.mark.parametrize("gamma, tau", [(9.0, 1.0), (40.0, 10.0)])
def test_weak_quartic_slow_roots_at_high_speed_match_50_digits(gamma, tau):
    # eps = 1e-12 is c = 1e6: the small roots of eps z^2 - z - w = 0 sit
    # beside w, and (1 - sqrt(1 + 4 eps w))/(2 eps) would lose 12 digits
    eps = 1e-12
    rep = weak_char_roots(gamma, tau, eps)
    assert rep.classification == "node"
    with localcontext() as ctx:
        ctx.prec = 50
        g, t, e = Decimal(gamma), Decimal(tau), Decimal(eps)
        root = (1 - 4 * t / (1 + g)).sqrt()
        exact = sorted(float((1 - (1 + 4 * e * w).sqrt()) / (2 * e))
                       for w in ((1 - root) / (2 * t), (1 + root) / (2 * t)))
    slow = sorted(r.re for r in rep.real_negative_roots())
    assert slow == [pytest.approx(z, rel=1e-12) for z in exact]


@pytest.mark.parametrize("gamma, tau", [(7.3, 1.9), (3.0, 1e-170), (1.0, 1e-300), (40.0, 11.0)])
def test_weak_rates_at_one_solve_the_quadratic_without_overflow(gamma, tau):
    w_slow, w_fast, d = spectral.weak_rates_at_one(gamma, tau)
    assert d == 1.0 - 4.0 * tau / (1.0 + gamma)
    assert w_slow.real > 0 and math.isfinite(w_fast.real)
    # Vieta, each side scaled to be of order one
    assert w_slow * w_fast * tau * (1.0 + gamma) == pytest.approx(1.0, rel=1e-14)
    assert (w_slow + w_fast) * tau == pytest.approx(1.0, rel=1e-14)
    assert (w_slow.imag == w_fast.imag == 0.0) if d > 0 else (
        w_slow == pytest.approx(w_fast.conjugate(), rel=1e-14))


@pytest.mark.parametrize("tau", [1.0 - 1e-13, 1.0, 1.0 + 1e-13])
@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_weak_quartic_boundary_band_is_one_double_root_per_w(tau, eps):
    # at gamma = 3 the node-focus edge is tau = 1; within |d| <= 1e-12 of it
    # the class, the roots and the planar flow all read the boundary
    from kolwave.planarflow import eigen_directions

    w_slow, w_fast, d = spectral.weak_rates_at_one(3.0, tau)
    assert d == 0.0 and w_slow == w_fast == 0.5
    rep = weak_char_roots(3.0, tau, eps)
    assert rep.classification == "boundary"
    assert len(rep.roots) == (1 if eps == 0.0 else 2)
    assert all(r.mult == 2 and r.is_real for r in rep.roots)
    assert rep.real_negative_count == 2
    assert not eigen_directions(3.0, tau).focus


@pytest.mark.parametrize("gamma, tau, c", [
    (3.0, 0.5, 10.0), (3.0, 1.0, 10.0), (40.0, 10.0, 1e6), (3.0, 0.5, 1e200), (9.0, 1.0, 1e200),
])
def test_weak_quartic_real_roots_carry_positive_zero_imaginary_parts(gamma, tau, c):
    # c = 1e200 underflows eps to 0, where -w of a real w has imaginary part -0.0
    rep = weak_char_roots(gamma, tau, c ** -2)
    reals = [r for r in rep.roots if r.is_real]
    assert reals
    assert all(math.copysign(1.0, r.im) == 1.0 for r in reals)
