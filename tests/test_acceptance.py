"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers (run with -v -s to watch them).  Tolerances are pinned
here and nowhere else."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from kolwave import discretedelay, planarflow, semiwavefront, spectral
from kolwave.models import GrowthModel, Kernel, WaveParams
from kolwave.numerics import integrate_ode
from kolwave.profiles import MONOTONE, NON_MONOTONE, write_csv

GAMMAS_EDGE = (1.0, 9.0, 40.0)

MATRIX_TABLE_S = np.linspace(-0.5, 2.1, 261)
MATRIX_TABLE_W = np.exp(-((MATRIX_TABLE_S - 0.8) ** 2) / 0.18)
MATRIX = [
    ("kpp dirac c=2.5", GrowthModel.kpp(), Kernel.dirac(), 2.5, 0.005),
    ("kpp dirac c=3.5", GrowthModel.kpp(), Kernel.dirac(), 3.5, 0.02),
    ("food(2) dirac c=2.5", GrowthModel.food_limited(2.0), Kernel.dirac(), 2.5, 0.02),
    ("food(2) discrete(0.4) c=2.5", GrowthModel.food_limited(2.0), Kernel.discrete(0.4), 2.5, 0.02),
    ("food(2) discrete(0.4) c=3.5", GrowthModel.food_limited(2.0), Kernel.discrete(0.4), 3.5, 0.02),
    ("food(2) discrete(0.6) c=2.5", GrowthModel.food_limited(2.0), Kernel.discrete(0.6), 2.5, 0.02),
    ("food(2) weak(0.5) c=2.5", GrowthModel.food_limited(2.0), Kernel.weak(0.5), 2.5, 0.02),
    ("food(2) weak(0.5) c=3.5", GrowthModel.food_limited(2.0), Kernel.weak(0.5), 3.5, 0.02),
    ("food(2) weak(1.0) c=3.0", GrowthModel.food_limited(2.0), Kernel.weak(1.0), 3.0, 0.02),
    ("food(1) tabulated c=2.5", GrowthModel.food_limited(1.0),
     Kernel.tabulated(MATRIX_TABLE_S, MATRIX_TABLE_W), 2.5, 0.02),
]


@pytest.fixture(scope="module")
def limit_9_3():
    return discretedelay.limit_profile(9.0, 3.0)


@pytest.fixture(scope="module")
def het_40_10():
    return planarflow.heteroclinic(40.0, 10.0)


@pytest.fixture(scope="module")
def matrix_runs():
    out = []
    for name, growth, kernel, c, dt in MATRIX:
        params = WaveParams(growth, kernel, c)
        config = semiwavefront.default_config(params, dt=dt, tol=1e-9)
        res = semiwavefront.iterate_front(config, params)
        out.append((name, params, config, res.bound, res))
    return out


def _report(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_certificate_constants():
    m, gamma_min = planarflow.test_function_threshold()
    assert abs(m - 4.729) <= 1e-3
    assert abs(gamma_min - 7.2907) <= 1e-2
    _report(1, f"barrier min {m:.6f}, gamma threshold {gamma_min:.6f}")


def test_criterion_02_boundary_values_at_gamma_40():
    sharp = planarflow.tau_sharp(40.0, tol=0.05)
    star = planarflow.tau_star(40.0)
    assert 8.6 <= sharp <= 8.9
    assert 9.3 <= star <= 9.6
    assert sharp < 10.25 and star < 10.25
    _report(2, f"tau_sharp(40)={sharp:.3f}, tau_star(40)={star:.3f}")


def test_criterion_03_certificate_instance():
    rep = planarflow.test_function_check(40.0, 10.0, planarflow.TestFunction(0.12))
    assert rep.holds
    _report(3, "gamma=40 tau=10 a=0.12 certificate holds")


def test_criterion_04_planar_connection_shape(het_40_10):
    r = het_40_10
    assert r.shape == NON_MONOTONE
    assert r.phi_max > 1.0
    ed = planarflow.eigen_directions(40.0, 10.0)
    angle = math.degrees(math.acos(float(np.clip(np.dot(r.entry_direction, -ed.n1), -1, 1))))
    assert angle < 2.0
    _report(4, f"shape={r.shape}, phi_max={r.phi_max:.6f}, entry angle {angle:.3f} deg")


def test_criterion_05_limit_profile_shape(limit_9_3):
    p = limit_9_3
    zeta = discretedelay.overshoot_bound(9.0, 3.0)
    rep = discretedelay.classify_oscillation(p, h=3.0)
    assert p.shape == NON_MONOTONE
    assert rep.eventually_monotone
    assert p.sup >= zeta > 1.0
    _report(5, f"shape={p.shape}, sup={p.sup:.6f} >= bound {zeta:.6f}")


def test_criterion_06_characteristic_boundaries():
    for gamma in GAMMAS_EDGE:
        tau_d = (1.0 + gamma) / math.e
        assert spectral.delay_char_roots(gamma, 0.98 * tau_d, 0.0).real_negative_count == 2
        assert spectral.delay_char_roots(gamma, 1.02 * tau_d, 0.0).real_negative_count == 0
        rep = spectral.delay_char_roots(gamma, tau_d, 0.0)
        doubles = [r for r in rep.roots if r.mult == 2]
        assert len(doubles) == 1
        assert abs(doubles[0].re + 1.0 / tau_d) <= 1e-6

        tau_w = (1.0 + gamma) / 4.0
        assert spectral.weak_char_roots(gamma, 0.98 * tau_w, 0.0).classification == "node"
        assert spectral.weak_char_roots(gamma, 1.02 * tau_w, 0.0).classification == "focus"
    _report(6, f"real-spectrum edges verified at gamma in {GAMMAS_EDGE}")


def test_criterion_07_lyapunov_suite():
    rng = np.random.default_rng(2024)
    worst_rise = -math.inf
    for _ in range(100):
        gamma = float(rng.uniform(0.0, 50.0))
        tau = float(rng.uniform(1e-2, (1.0 + gamma) / 2.0))
        y0 = rng.uniform(0.05, 3.0, size=2)
        field = planarflow.flow_field(gamma, tau)
        traj, _ = integrate_ode(field.rhs, y0, (0.0, 20.0), tol=1e-10)
        vals = [planarflow.lyapunov(gamma, tau, y) for y in traj.ys]
        vs = np.array([v for v, _ in vals])
        vdots = np.array([vd for _, vd in vals])
        worst_rise = max(worst_rise, float(np.max(np.diff(vs))))
        assert np.all(np.diff(vs) <= 1e-9)
        assert np.all(vdots <= 0.0)
    _report(7, f"100 trajectories, worst V increase {worst_rise:.2e} <= 1e-9")


def test_criterion_08_overshoot_bound_identities():
    rng = np.random.default_rng(77)
    for g in rng.uniform(0.05, 60.0, size=20):
        assert discretedelay.overshoot_bound(float(g), 0.0) == 1.0
    assert discretedelay.overshoot_bound(9.0, 3.0) > 1.0
    worst = 0.0
    for _ in range(10):
        gamma = float(rng.uniform(0.5, 15.0))
        tau = float(rng.uniform(0.05, 0.95 * (1.0 + gamma) / math.e))
        a = np.linspace(1e-9, 1.0, 100_001)
        dense = a * np.exp(tau + (1.0 - a) * tau / (1.0 + gamma * a)) * (
            (1.0 + a * gamma) / (1.0 + a * gamma * math.exp(tau))
        ) ** (1.0 + 1.0 / gamma)
        diff = abs(discretedelay.overshoot_bound(gamma, tau) - float(dense.max()))
        worst = max(worst, diff)
        assert diff <= 1e-6
    _report(8, f"exact at tau=0 (20 draws); dense-scan gap {worst:.2e} <= 1e-6")


def test_criterion_09_envelope_margins(limit_9_3):
    worst = math.inf
    for a in (0.3, 0.5, 0.7):
        rep = discretedelay.envelope_margins(9.0, 3.0, a, limit_9_3, tol=1e-6)
        assert rep.passed
        worst = min(worst, rep.margin_lower_pre, rep.margin_upper_pre,
                    rep.margin_lower_post)
        assert min(rep.margin_lower_pre, rep.margin_upper_pre,
                   rep.margin_lower_post) >= -1e-6
    _report(9, f"anchors 0.3/0.5/0.7 pass, worst margin {worst:.2e} >= -1e-6")


def test_criterion_10_iteration_matrix(matrix_runs):
    name0, params0, config0, bound0, res0 = matrix_runs[0]
    assert res0.converged
    assert res0.residual < 1e-5
    assert abs(res0.profile.decay_minus - 0.5) / 0.5 <= 0.05
    assert np.all(res0.profile.values <= res0.upper + 1e-6)
    assert np.all(res0.profile.values >= res0.lower - 1e-6)
    # the sup check allows the measured discretization slack on top of the
    # iteration tol; at bound-tight cases (U = 1) the plateau carries an
    # O(dt^2) offset that no iteration tolerance can remove
    for name, params, config, bound, res in matrix_runs:
        assert res.converged, name
        assert res.profile.sup <= bound.U + res.slack, name
    _report(10, f"KPP residual {res0.residual:.2e} < 1e-5, decay "
               f"{res0.profile.decay_minus:.4f}; 10/10 runs converged with "
               f"sup <= U + slack and the sandwich intact")


def test_criterion_11_eps_continuation(het_40_10, limit_9_3):
    planar = [planarflow.finite_speed_profile(40.0, 10.0, e).profile
              .sup_distance(het_40_10.profile) for e in (0.02, 0.01, 0.005)]
    assert planar[0] > planar[1] > planar[2]
    delayed = [discretedelay.finite_speed_profile(9.0, 3.0, e)
               .sup_distance(limit_9_3) for e in (0.02, 0.01, 0.005)]
    assert delayed[0] > delayed[1] > delayed[2]
    _report(11, "sup distances strictly decreasing: planar "
                + "->".join(f"{d:.4f}" for d in planar) + ", delayed "
                + "->".join(f"{d:.4f}" for d in delayed))


def test_criterion_12_asymptotics_consistency(matrix_runs):
    picks = (0, 1, 2, 3, 6)
    worst_minus = worst_plus = 0.0
    for i in picks:
        name, params, config, bound, res = matrix_runs[i]
        rep = semiwavefront.asymptotic_check(res.profile, params)
        assert rep.rel_err_minus is not None and rep.rel_err_minus <= 0.05, name
        assert rep.rel_err_plus is not None and rep.rel_err_plus <= 0.10, name
        worst_minus = max(worst_minus, rep.rel_err_minus)
        worst_plus = max(worst_plus, rep.rel_err_plus)
    _report(12, f"5 fronts: worst rel err {worst_minus:.2e} (left, <=5%) "
                f"/ {worst_plus:.2e} (right, <=10%)")


def _emit_items_1_to_6(out_dir: Path) -> list[Path]:
    """Recompute acceptance items 1-6 from scratch and freeze their outputs
    as CSV files; used twice by the determinism criterion."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    m, gamma_min = planarflow.test_function_threshold()
    p = out_dir / "item1.csv"
    write_csv(p, ("barrier_min", "gamma_threshold"), [(m, gamma_min)])
    paths.append(p)

    p = out_dir / "item2.csv"
    write_csv(p, ("tau_sharp_40", "tau_star_40"),
              [(planarflow.tau_sharp(40.0, tol=0.05), planarflow.tau_star(40.0))])
    paths.append(p)

    rep = planarflow.test_function_check(40.0, 10.0, planarflow.TestFunction(0.12))
    p = out_dir / "item3.csv"
    write_csv(p, ("holds",), [(1.0 if rep.holds else 0.0,)])
    paths.append(p)

    het = planarflow.heteroclinic(40.0, 10.0)
    p = out_dir / "item4.csv"
    het.profile.to_csv(p)
    paths.append(p)

    prof = discretedelay.limit_profile(9.0, 3.0)
    p = out_dir / "item5.csv"
    prof.to_csv(p)
    paths.append(p)

    rows = []
    for gamma in GAMMAS_EDGE:
        rep6 = spectral.delay_char_roots(gamma, 0.98 * (1 + gamma) / math.e, 0.0)
        for r in rep6.roots:
            rows.append((gamma, r.re, r.im, float(r.mult)))
    p = out_dir / "item6.csv"
    write_csv(p, ("gamma", "re", "im", "mult"), rows)
    paths.append(p)
    return paths


def test_criterion_13_determinism(tmp_path):
    first = _emit_items_1_to_6(tmp_path / "run1")
    second = _emit_items_1_to_6(tmp_path / "run2")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    _report(13, "items 1-6 reproduce byte-identical CSV outputs")
