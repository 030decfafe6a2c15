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
from kolwave import discretedelay, spectral
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


def test_lyapunov_at_gamma_zero_is_the_limit_of_its_psi_term():
    # (psi-1)/gamma - (1+gamma)/gamma^2 * log((1+gamma*psi)/(1+gamma)) tends
    # to (psi-1)^2/2 as gamma -> 0
    v, vdot = lyapunov(0.0, 2.0, (1.0, 3.0))
    assert v == 4.0  # tau * (psi - 1)^2 / 2, phi at 1
    assert vdot == -4.0  # -(psi - 1)^2
    near, _ = lyapunov(1e-5, 2.0, (1.0, 3.0))
    assert near == pytest.approx(v, rel=1e-4)


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
    val = tau_star(40.0)
    assert 9.3 <= val <= 9.6
    assert val < 10.25


def test_tau_star_no_window_below_threshold():
    with pytest.raises(NoWindowError):
        tau_star(7.0)


def test_tau_star_large_gamma_below_upper_edge():
    val = tau_star(100.0)
    assert val < 101.0 / 4.0


def _dense_edge(gamma: float) -> tuple[float, float]:
    """min over a of max over x in [0, 1] of N/A, the certificate edge, on
    grids: x uniform and x scaled by a (for small a, N/A peaks near x = 3a/4),
    a zoomed in log a.  Returns the edge and its coefficient a."""
    xs = np.linspace(0.0, 1.0, 20001)
    near = np.linspace(0.0, 3.0, 3001)

    def edges(a):
        a = a[:, None]
        b = 1.0 - a
        x = np.hstack([np.broadcast_to(xs, (a.size, xs.size)), np.minimum(a * near, 1.0)])
        den = a + x * (a * b + x * (b * (a + 3.0) + x * (3.0 * b * b + x * 3.0 * b * b)))
        num = b * (1.0 + x * (gamma * a + 1.0 + x * (gamma * a + x * gamma * b * (1.0 + x))))
        return (num / den).max(axis=1)

    lo, hi = math.log(0.5 / gamma), math.log(0.5)
    for _ in range(10):
        s = np.linspace(lo, hi, 51)
        t = edges(np.exp(s))
        k = int(np.argmin(t))
        lo, hi = s[max(k - 2, 0)], s[min(k + 2, 50)]
    return float(t[k]), float(np.exp(s[k]))


@pytest.mark.parametrize("gamma", [8.0, 12.0, 40.0, 100.0, 1e3, 1e6])
def test_tau_star_is_the_edge_of_the_certified_window(gamma):
    star = tau_star(gamma)
    want, a_best = _dense_edge(gamma)
    assert star == pytest.approx(want, rel=1e-6)
    assert pf.test_function_check(gamma, star * (1 + 1e-6), pf.TestFunction(a_best)).holds
    grid = np.geomspace(1.0 / (1.0 + gamma), 0.999, 4001)
    assert not any(pf.test_function_check(gamma, star * (1 - 1e-6), pf.TestFunction(float(a))).holds
                   for a in grid)


def test_certificate_holds_exactly_above_its_arc_edge():
    """For a < 1/2 the quartic's endpoint values are the slope bounds, so the
    arc certifies exactly the delays above T(a) = max of N/A on [0, 1]."""
    rng = np.random.default_rng(21)
    held = 0
    for _ in range(2000):
        gamma = math.exp(rng.uniform(math.log(1.5), math.log(1e3)))
        a = rng.uniform(0.0, 1.0)
        top = (1.0 + gamma) / 4.0
        edge = pf._certified_above(gamma, a)
        tau = min(top, edge * math.exp(rng.uniform(-0.05, 0.05))) if rng.uniform() < 0.5 \
            else rng.uniform(0.0, top)
        holds = pf.test_function_check(gamma, tau, pf.TestFunction(a)).holds
        assert holds == (a < 0.5 and tau > edge), (gamma, tau, a)
        held += holds
    assert held > 100


def test_tau_star_window_opens_at_the_threshold():
    gamma_min = pf.test_function_threshold()[1]
    with pytest.raises(NoWindowError):
        tau_star(gamma_min - 1e-3)
    for gamma in (gamma_min + 1e-3, 7.3):
        assert tau_star(gamma) < (1.0 + gamma) / 4.0
    # at gamma = 7.3 the window is [2.0749997, 2.075]
    assert any(pf.test_function_check(7.3, 2.075, pf.TestFunction(float(a))).holds
               for a in np.linspace(0.499, 0.5, 1001))


def test_tau_sharp_reference_value_and_ordering():
    sharp = tau_sharp(40.0, tol=0.05)
    assert 8.6 <= sharp <= 8.9
    assert sharp <= tau_star(40.0)
    assert sharp < 10.25


def test_tau_sharp_small_gamma_window_closes():
    val = tau_sharp(2.0, tol=0.05)
    assert val == pytest.approx(0.75, abs=0.08)


def test_tau_sharp_nondecreasing_in_gamma():
    vals = [tau_sharp(g, tol=0.1) for g in (20.0, 30.0, 40.0)]
    assert all(a <= b + 0.1 for a, b in zip(vals, vals[1:]))


def test_boundary_region_curve_with_threads():
    curve = boundary_region([30.0, 40.0], tol=0.1)
    assert curve.header() == ["gamma", "tau_sharp", "tau_star", "tau_upper"]
    assert np.allclose(curve.columns["tau_upper"], [(31.0) / 4.0, 41.0 / 4.0])
    assert np.all(curve.columns["tau_sharp"] <= curve.columns["tau_star"] + 0.1)
    assert np.all(curve.columns["tau_star"] < curve.columns["tau_upper"])


# each sweep: the module and solver a test replaces, the sweep, its solved
# column and the divisor of its edge tau_upper = (1+gamma)/divisor
_SWEEPS = {
    "boundary_region": (pf, "tau_sharp", lambda gs: boundary_region(gs, kinds=("tau_sharp",)),
                        "tau_sharp", 4.0),
    "overshoot_region": (discretedelay, "overshoot_bound", discretedelay.overshoot_region,
                         "tau_lower", math.e),
}


@pytest.mark.parametrize("sweep", list(_SWEEPS))
def test_region_sweep_propagates_programming_errors(monkeypatch, sweep):
    module, solver, run, _, _ = _SWEEPS[sweep]

    def broken(*args):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(module, solver, broken)
    with pytest.raises(TypeError):
        run([10.0, 20.0])


@pytest.mark.parametrize("sweep", list(_SWEEPS))
def test_region_sweep_solver_failure_is_a_gap(monkeypatch, sweep):
    module, solver, run, column, edge = _SWEEPS[sweep]

    def diverging(*args):
        raise DivergenceError("step size underflow")

    monkeypatch.setattr(module, solver, diverging)
    curve = run([10.0, 20.0])
    assert np.all(np.isnan(curve.columns[column]))
    assert np.allclose(curve.columns["tau_upper"], [11.0 / edge, 21.0 / edge])


def test_boundary_region_over_an_empty_grid_is_an_empty_curve():
    curve = boundary_region([])
    assert curve.header() == ["gamma", "tau_sharp", "tau_star", "tau_upper"]
    assert curve.gamma.shape == (0,)
    assert all(col.shape == (0,) for col in curve.columns.values())
    assert list(curve.rows()) == []


# ------------------------------------------------------- finite-speed profiles


def test_finite_speed_delegates_at_zero():
    a = finite_speed_profile(40.0, 10.0, 0.0)
    b = heteroclinic(40.0, 10.0)
    assert a.shape == b.shape
    assert a.phi_max == pytest.approx(b.phi_max, rel=1e-12)


def test_finite_speed_eps_guard():
    with pytest.raises(PreconditionError):
        finite_speed_profile(40.0, 10.0, 0.5)


def test_cramer_rule_matches_linalg_solve():
    # both solutions carry an error of order eps*cond(m): 1e-13 relative up
    # to condition number 100, growing with it beyond
    rng = np.random.default_rng(5)
    checked = 0
    for m, b in zip(rng.uniform(-1.0, 1.0, (2000, 2, 2)), rng.uniform(-1.0, 1.0, (2000, 2))):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-3:
            continue
        want = np.linalg.solve(m, b)
        scale = max(1.0, np.linalg.cond(m) / 100.0) * np.abs(want).max()
        assert np.abs(pf._cramer(m, b, det) - want).max() <= 1e-13 * scale
        checked += 1
    assert checked > 1900


def test_finite_speed_continuation_toward_planar_limit():
    base = heteroclinic(40.0, 10.0)
    d_prev = math.inf
    for eps in (0.02, 0.01):
        r = finite_speed_profile(40.0, 10.0, eps)
        assert r.shape == NON_MONOTONE
        d = r.profile.sup_distance(base.profile)
        assert d < d_prev
        d_prev = d


@pytest.mark.parametrize("gamma", [0.0, 1.5, 7.3, 40.0])
@pytest.mark.parametrize("share", [0.01, 0.5, 0.99, 1.0, 1.01, 4.0, 100.0])
def test_contraction_matrix_solves_the_lyapunov_equation(gamma, share):
    # tau = share * (1+gamma)/4 runs through the node range, the node-focus
    # edge and the focus range
    tau = share * (1.0 + gamma) / 4.0
    j = flow_field(gamma, tau).linearization_at_one()
    p = pf._contraction_matrix(gamma, tau)
    assert np.allclose(j.T @ p + p @ j, -np.eye(2), rtol=0.0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(p) > 0)


# the CLI refuses non-finite numbers as it parses them; API callers get the same error
@pytest.mark.parametrize("call", [
    lambda: heteroclinic(2.0, math.inf),
    lambda: finite_speed_profile(2.0, math.inf, 0.01),
    lambda: eigen_directions(2.0, math.inf),
    lambda: eigen_directions(math.inf, 1.0),
    lambda: flow_field(math.nan, 1.0),
    lambda: tau_sharp(math.inf),
    lambda: tau_star(math.inf),
    lambda: discretedelay.overshoot_bound(math.inf, 1.0),
    lambda: discretedelay.limit_profile(9.0, math.inf),
    lambda: discretedelay.limit_profile(math.inf, 1.0),
    lambda: discretedelay.finite_speed_profile(9.0, math.inf, 0.01),
    lambda: spectral.weak_char_roots(math.inf, 1.0, 0.0),
], ids=["heteroclinic-tau", "finite-speed-tau", "eigen-tau", "eigen-gamma", "field-nan",
        "tau-sharp", "tau-star", "overshoot-gamma", "limit-tau", "limit-gamma",
        "delay-finite-speed-tau", "weak-roots-gamma"])
def test_entry_points_refuse_non_finite_gamma_and_tau(call):
    with pytest.raises(PreconditionError):
        call()
