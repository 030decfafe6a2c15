from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave.errors import (
    DivergenceError,
    NoWindowError,
    PreconditionError,
)
from kolwave.numerics import integrate_ode
from kolwave import planarflow as pf
from kolwave.planarflow import (
    admissible_interval,
    boundary_region,
    eigen_directions,
    finite_speed_profile,
    flow_field,
    heteroclinic,
    lyapunov,
    tau_sharp,
    tau_star,
)
from kolwave.profiles import MONOTONE, NON_MONOTONE, OSCILLATING


# ------------------------------------------------------------------ the field


def test_field_vanishes_at_equilibria():
    f = flow_field(40.0, 10.0)
    assert np.allclose(f.rhs(0.0, np.array([1.0, 1.0])), 0.0)
    assert np.allclose(f.rhs(0.0, np.array([0.0, 0.0])), 0.0)


def test_linearization_char_polys():
    gamma, tau = 40.0, 10.0
    f = flow_field(gamma, tau)
    j0 = f.linearization_at_origin()
    # z^2 - (1 - 1/tau) z - 1/tau
    assert np.trace(j0) == pytest.approx(1.0 - 1.0 / tau)
    assert np.linalg.det(j0) == pytest.approx(-1.0 / tau)
    j1 = f.linearization_at_one()
    # z^2 + z/tau + 1/(tau(1+gamma))
    assert np.trace(j1) == pytest.approx(-1.0 / tau)
    assert np.linalg.det(j1) == pytest.approx(1.0 / (tau * (1.0 + gamma)))


def test_eigen_directions_node_case():
    ed = eigen_directions(40.0, 10.0)
    assert not ed.focus
    assert ed.n1[1] / ed.n1[0] == pytest.approx(1.7298438, abs=1e-6)
    assert ed.n2[1] / ed.n2[0] == pytest.approx(2.3701562, abs=1e-6)
    assert ed.unstable_origin[0] / ed.unstable_origin[1] == pytest.approx(11.0)


def test_eigen_directions_focus_flag():
    ed = eigen_directions(40.0, 11.0)
    assert ed.focus
    assert ed.n1 is None and ed.n2 is None


def test_eigen_directions_are_jacobian_eigenvectors():
    gamma, tau = 12.0, 2.0
    f = flow_field(gamma, tau)
    ed = eigen_directions(gamma, tau)
    j1 = f.linearization_at_one()
    for v in (ed.n1, ed.n2):
        w = j1 @ v
        ratio = w / v
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-9)


# ------------------------------------------------------------------- lyapunov


def test_lyapunov_closed_forms():
    assert lyapunov(40.0, 10.0, (1.0, 1.0)) == (pytest.approx(0.0), pytest.approx(0.0))
    v, vdot = lyapunov(3.0, 2.0, (2.0, 1.0))
    assert v == pytest.approx(1.0 - math.log(2.0))
    assert vdot == 0.0
    # closed form matches numerical quadrature of the psi integral
    gamma, tau, psi = 9.0, 3.0, 2.3
    ys = np.linspace(1.0, psi, 20001)
    ref = float(np.trapezoid((ys - 1.0) / (1.0 + gamma * ys), ys))
    v, _ = lyapunov(gamma, tau, (1.0, psi))
    assert v == pytest.approx(tau * ref, abs=1e-9)


def test_lyapunov_nonincreasing_along_trajectories():
    rng = np.random.default_rng(3)
    for _ in range(10):
        gamma = float(rng.uniform(0.0, 50.0))
        tau = float(rng.uniform(0.05, (1.0 + gamma) / 2.0))
        y0 = rng.uniform(0.05, 3.0, size=2)
        f = flow_field(gamma, tau)
        traj, _ = integrate_ode(f.rhs, y0, (0.0, 25.0), tol=1e-10)
        vals = [lyapunov(gamma, tau, y) for y in traj.ys]
        vs = np.array([v for v, _ in vals])
        vdots = np.array([vd for _, vd in vals])
        assert np.all(np.diff(vs) <= 1e-9)
        assert np.all(vdots <= 0.0)


def test_guard_line_cannot_be_crossed_rightward():
    # slope of the orbit through points of the guard half-line exceeds the
    # line's own slope when gamma > 1 and tau < (1+gamma)/4
    for gamma, tau in ((40.0, 10.0), (9.0, 2.0), (5.0, 1.2)):
        m = (1.0 + gamma) / (2.0 * tau)
        for phi in np.linspace(1.0 + 1e-6, 4.0, 25):
            psi = m * (phi - 1.0) + 1.0
            orbit_slope = (phi - psi) * (1.0 + gamma * psi) / (tau * phi * (1.0 - psi))
            assert m < orbit_slope


# --------------------------------------------------------------- heteroclinic


def test_heteroclinic_overshoot_case():
    r = heteroclinic(40.0, 10.0)
    assert r.shape == NON_MONOTONE
    assert r.phi_max > 1.0
    assert r.captured
    assert len(r.profile.crossings) == 1
    ed = eigen_directions(40.0, 10.0)
    cosang = float(np.clip(np.dot(r.entry_direction, -ed.n1), -1.0, 1.0))
    assert math.degrees(math.acos(cosang)) < 2.0


def test_heteroclinic_monotone_case():
    r = heteroclinic(40.0, 5.0)
    assert r.shape == MONOTONE
    assert r.phi_max <= 1.0 + 1e-6
    assert len(r.profile.crossings) == 0


def test_heteroclinic_focus_case_spirals():
    r = heteroclinic(40.0, 11.0)
    assert r.shape == OSCILLATING
    r_deep = heteroclinic(3.0, 4.0)  # far into the focus regime
    assert r_deep.shape == OSCILLATING
    assert len(r_deep.profile.crossings) >= 2


def test_heteroclinic_level_crossing_event_reported():
    r = heteroclinic(40.0, 10.0)
    assert len(r.profile.crossings) == 1
    t_up = r.profile.crossings[0]
    assert r.profile(t_up) == pytest.approx(1.0, abs=1e-3)


def test_heteroclinic_gamma_zero_focus():
    # gamma = 0, tau past 1/4: the positive state is a focus
    r = heteroclinic(0.0, 0.3)
    assert r.captured
    assert r.shape == OSCILLATING


def test_monotone_branch_enters_parallel_to_slow_direction():
    # approach from below is along +n1; parallel to the slow direction up to sign
    r = heteroclinic(40.0, 5.0)
    ed = eigen_directions(40.0, 5.0)
    cosang = abs(float(np.dot(r.entry_direction, ed.n1)))
    assert math.degrees(math.acos(min(1.0, cosang))) < 2.0


def test_heteroclinic_shape_invariant_under_tol_and_amplitude():
    for gamma, tau in ((40.0, 10.0), (40.0, 5.0)):
        shapes = {
            heteroclinic(gamma, tau, 1e-6, 1e-7).shape,
            heteroclinic(gamma, tau, 5e-7, 1e-7).shape,
            heteroclinic(gamma, tau, 1e-6, 5e-8).shape,
        }
        assert len(shapes) == 1


def test_heteroclinic_amplitude_guard():
    with pytest.raises(PreconditionError):
        heteroclinic(40.0, 10.0, start_amplitude=1e-2)


def test_phi_max_monotone_in_tau_and_gamma():
    maxima_tau = [heteroclinic(40.0, tau).phi_max for tau in (9.0, 9.5, 10.0, 10.25)]
    assert all(a <= b + 1e-9 for a, b in zip(maxima_tau, maxima_tau[1:]))
    maxima_gamma = [heteroclinic(g, 10.0).phi_max for g in (36.0, 38.0, 40.0)]
    assert all(a >= b - 1e-9 for a, b in zip(maxima_gamma, maxima_gamma[1:]))


# ---------------------------------------------------------- test functions


def test_admissible_interval_example_values():
    left, right = admissible_interval(40.0, 10.0)
    assert left == pytest.approx(1.0 / 11.0)
    assert right == pytest.approx(0.31492, abs=1e-4)


def test_certificate_holds_at_reference_point():
    assert pf.test_function_check(40.0, 10.0, pf.TestFunction(0.12)).holds


def test_certificate_fails_below_left_bound():
    rep = pf.test_function_check(40.0, 10.0, pf.TestFunction(0.05))
    assert not rep.holds
    assert "interval-left" in rep.failed


def test_certificate_fails_for_small_tau():
    rep = pf.test_function_check(40.0, 8.0, pf.TestFunction(0.12))
    assert not rep.holds
    # the quartic also dips negative somewhere inside (0, 1)
    assert "quartic" in rep.failed
    assert rep.fail_x is not None and 0.0 < rep.fail_x < 1.0


def test_certificate_requires_cubic_arc():
    with pytest.raises(PreconditionError):
        pf.test_function_check(0.5, 0.1, pf.TestFunction(0.12))


def test_threshold_constants():
    m, gamma_min = pf.test_function_threshold()
    assert m == pytest.approx(4.729, abs=1e-3)
    assert gamma_min == pytest.approx(7.2907, abs=1e-2)


# ------------------------------------------------------------- boundary curves


def test_tau_star_reference_value():
    val = tau_star(40.0, tol=0.05)
    assert 9.3 <= val <= 9.6
    assert val < 10.25


def test_tau_star_no_window_below_threshold():
    with pytest.raises(NoWindowError):
        tau_star(7.0)


def test_tau_star_large_gamma_below_upper_edge():
    val = tau_star(100.0, tol=0.1)
    assert val < 101.0 / 4.0


def test_tau_sharp_reference_value_and_ordering():
    sharp = tau_sharp(40.0, tol=0.05)
    assert 8.6 <= sharp <= 8.9
    assert sharp <= tau_star(40.0, tol=0.05)
    assert sharp < 10.25


def test_tau_sharp_small_gamma_window_closes():
    val = tau_sharp(2.0, tol=0.05)
    assert val == pytest.approx(0.75, abs=0.08)


def test_tau_sharp_nondecreasing_in_gamma():
    vals = [tau_sharp(g, tol=0.1) for g in (20.0, 30.0, 40.0)]
    assert all(a <= b + 0.1 for a, b in zip(vals, vals[1:]))


def test_boundary_region_curve_with_threads():
    curve = boundary_region([30.0, 40.0], tol=0.1, jobs=2)
    assert curve.header() == ["gamma", "tau_sharp", "tau_star", "tau_upper"]
    assert np.allclose(curve.columns["tau_upper"], [(31.0) / 4.0, 41.0 / 4.0])
    assert np.all(curve.columns["tau_sharp"] <= curve.columns["tau_star"] + 0.1)
    assert np.all(curve.columns["tau_star"] < curve.columns["tau_upper"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_boundary_region_propagates_programming_errors(monkeypatch, jobs):
    def broken(gamma, tol):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(pf, "tau_sharp", broken)
    with pytest.raises(TypeError):
        boundary_region([10.0, 20.0], kinds=("tau_sharp",), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_boundary_region_solver_failure_is_a_gap(monkeypatch, jobs):
    def diverging(gamma, tol):
        raise DivergenceError("step size underflow")

    monkeypatch.setattr(pf, "tau_sharp", diverging)
    curve = boundary_region([10.0, 20.0], kinds=("tau_sharp",), jobs=jobs)
    assert np.all(np.isnan(curve.columns["tau_sharp"]))
    assert np.allclose(curve.columns["tau_upper"], [11.0 / 4.0, 21.0 / 4.0])


# ------------------------------------------------------- finite-speed profiles


def test_finite_speed_delegates_at_zero():
    a = finite_speed_profile(40.0, 10.0, 0.0)
    b = heteroclinic(40.0, 10.0)
    assert a.shape == b.shape
    assert a.phi_max == pytest.approx(b.phi_max, rel=1e-12)


def test_finite_speed_eps_guard():
    with pytest.raises(PreconditionError):
        finite_speed_profile(40.0, 10.0, 0.5)


def test_finite_speed_continuation_toward_planar_limit():
    base = heteroclinic(40.0, 10.0)
    d_prev = math.inf
    for eps in (0.02, 0.01):
        r = finite_speed_profile(40.0, 10.0, eps)
        assert r.shape == NON_MONOTONE
        d = r.profile.sup_distance(base.profile)
        assert d < d_prev
        d_prev = d
