from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave import discretedelay as dd
from kolwave.discretedelay import (
    classify_oscillation,
    envelope_margins,
    finite_speed_profile,
    limit_profile,
    overshoot_bound,
    overshoot_region,
)
from kolwave.errors import PreconditionError, UnsupportedError
from kolwave.numerics import Grid
from kolwave.profiles import MONOTONE, NON_MONOTONE, OSCILLATING, Profile, crossings_of_one
from kolwave.spectral import delay_char_roots


@pytest.fixture(scope="module")
def limit_9_3():
    return limit_profile(9.0, 3.0)


# -------------------------------------------------------------- limit profile


def test_limit_profile_reference_shape(limit_9_3):
    p = limit_9_3
    assert p.shape == NON_MONOTONE
    assert p.sup > 1.0
    assert len(p.crossings) == 1
    assert "unresolved-tail" not in p.flags


def test_limit_profile_dominates_overshoot_bound(limit_9_3):
    assert limit_9_3.sup >= overshoot_bound(9.0, 3.0) > 1.0


def test_limit_profile_left_decay_is_unit_rate(limit_9_3):
    # the growth law has G(0) = 1 and the kinetics linearized at 0 is
    # lag-free, so the profile leaves 0 at unit exponential rate
    assert limit_9_3.decay_minus == pytest.approx(1.0, rel=0.05)


def test_limit_profile_right_decay_matches_characteristic_root(limit_9_3):
    roots = delay_char_roots(9.0, 3.0, 0.0).real_negative_roots()
    dominant = max(r.re for r in roots)
    assert limit_9_3.decay_plus == pytest.approx(dominant, rel=0.05)


def test_limit_profile_tiny_delay_monotone():
    p = limit_profile(5.0, 1e-3, span_length=200.0)
    assert p.shape == MONOTONE
    assert p.sup <= 1.0 + 1e-3


def test_limit_profile_eventually_monotone_tail(limit_9_3):
    rep = classify_oscillation(limit_9_3, h=3.0)
    assert rep.shape == NON_MONOTONE
    assert rep.eventually_monotone
    assert not rep.inconclusive


def test_limit_profile_chunk_end_after_lag_breakpoint():
    # tau > 2 makes the chunk 5*tau long; the step clipped to the lag
    # breakpoint 30*tau lands one ulp short of the chunk end 88.2, and the
    # 1-ulp remainder used to stop the run with "step size underflow"
    p = limit_profile(9.0, 2.94)
    assert p.flags == ()
    assert p.shape == NON_MONOTONE
    assert p.sup == pytest.approx(1.628, abs=1e-3)


def test_limit_profile_parameter_guards():
    with pytest.raises(PreconditionError):
        limit_profile(-1.0, 3.0)
    with pytest.raises(PreconditionError):
        limit_profile(9.0, 0.0)


# ------------------------------------------------------------ overshoot bound


def test_overshoot_bound_is_one_at_zero_delay():
    rng = np.random.default_rng(11)
    for g in rng.uniform(0.05, 60.0, size=20):
        assert overshoot_bound(float(g), 0.0) == 1.0


def test_overshoot_bound_reference_values():
    assert overshoot_bound(9.0, 3.0) > 1.0
    assert overshoot_bound(9.0, 0.1) <= 1.0


def test_overshoot_bound_matches_dense_scan():
    rng = np.random.default_rng(5)
    for _ in range(6):
        gamma = float(rng.uniform(0.5, 15.0))
        tau = float(rng.uniform(0.05, 0.95 * (1.0 + gamma) / math.e))
        e_tau = math.exp(tau)
        a = np.linspace(1e-9, 1.0, 100_001)
        vals = a * np.exp(tau + (1.0 - a) * tau / (1.0 + gamma * a)) * (
            (1.0 + a * gamma) / (1.0 + a * gamma * e_tau)
        ) ** (1.0 + 1.0 / gamma)
        assert overshoot_bound(gamma, tau) == pytest.approx(float(vals.max()), abs=1e-6)


def test_overshoot_bound_rejects_gamma_zero():
    with pytest.raises(UnsupportedError):
        overshoot_bound(0.0, 1.0)


def test_overshoot_region_triangular_corner():
    curve = overshoot_region([1.0, 9.0])
    tau_low = curve.columns["tau_lower"]
    tau_up = curve.columns["tau_upper"]
    assert math.isnan(tau_low[0])  # no window at gamma = 1 below (1+g)/e
    assert not math.isnan(tau_low[1])
    assert 0.0 < tau_low[1] < tau_up[1]
    assert overshoot_bound(9.0, tau_low[1] + 5e-3) > 1.0
    assert overshoot_bound(9.0, tau_low[1] - 5e-3) <= 1.0


def _scan_then_bisect_edge(g: float, tol: float) -> float:
    """The edge search overshoot_region used before lower_edge: a 64-point
    scan of the window, then bisection of the first bracket that certifies."""
    hi = (1.0 + g) / math.e * (1.0 - 1e-9)
    prev = 0.0
    for t in np.linspace(hi / 64.0, hi, 64):
        if dd.overshoot_bound(g, float(t)) > 1.0:
            lo_b, hi_b = prev, float(t)
            while hi_b - lo_b > tol:
                mid = 0.5 * (lo_b + hi_b)
                if dd.overshoot_bound(g, mid) > 1.0:
                    hi_b = mid
                else:
                    lo_b = mid
            return 0.5 * (lo_b + hi_b)
        prev = float(t)
    return math.nan


def test_overshoot_region_matches_scan_with_fewer_bound_calls(monkeypatch):
    calls = [0]
    bound = dd.overshoot_bound

    def counted(gamma, tau):
        calls[0] += 1
        return bound(gamma, tau)

    monkeypatch.setattr(dd, "overshoot_bound", counted)
    rng = np.random.default_rng(17)
    for g in [1.0, 10.0, *rng.uniform(1.0, 10.0, size=4)]:
        calls[0] = 0
        expected = _scan_then_bisect_edge(float(g), 1e-3)
        scan_calls = calls[0]
        calls[0] = 0
        (edge,) = overshoot_region([g], tol=1e-3).columns["tau_lower"]
        assert calls[0] < scan_calls
        if math.isnan(expected):
            assert math.isnan(edge)
        else:
            assert edge == pytest.approx(expected, abs=1e-12)


def test_overshoot_bound_rejects_a_delay_whose_exponential_overflows():
    assert overshoot_bound(9.0, dd._TAU_MAX) > 1.0
    with pytest.raises(PreconditionError):
        overshoot_bound(9.0, 710.0)


# ------------------------------------------------------------------ envelopes


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_envelope_margins_pass(limit_9_3, a):
    rep = envelope_margins(9.0, 3.0, a, limit_9_3)
    assert rep.passed
    assert rep.margin_lower_pre >= -1e-6
    assert rep.margin_upper_pre >= -1e-6
    assert rep.margin_lower_post >= -1e-6


def test_envelope_upper_bound_at_anchor_plus_tau(limit_9_3):
    # value at local time 0 stays below a * e^tau
    a, tau = 0.5, 3.0
    rep = envelope_margins(9.0, tau, a, limit_9_3)
    u_mid = float(limit_9_3(rep.anchor_time + tau))
    assert u_mid <= a * math.exp(tau) + 1e-9


def test_envelope_post_lower_at_tau_equals_bound_maximand():
    gamma, tau, a = 9.0, 3.0, 0.5
    denom = 1.0 + gamma * a
    val = (a * math.exp(tau)
           * ((1.0 + a * gamma) / (1.0 + a * gamma * math.exp(tau))) ** (1.0 + 1.0 / gamma)
           * math.exp((1.0 - a) * tau / denom))
    maximand = a * math.exp(tau + (1.0 - a) * tau / denom) * (
        (1.0 + a * gamma) / (1.0 + a * gamma * math.exp(tau))
    ) ** (1.0 + 1.0 / gamma)
    assert val == pytest.approx(maximand, rel=1e-12)


def test_envelope_margins_guard_non_monotone_prefix():
    ts = np.linspace(0.0, 10.0, 401)
    wiggle = 0.5 - 0.3 * np.sin(ts)  # dips before first reaching 0.7
    prof = Profile(grid=Grid(0.0, ts[1] - ts[0], len(ts)), values=wiggle,
                   shape=MONOTONE, sup=float(wiggle.max()))
    with pytest.raises(PreconditionError):
        envelope_margins(9.0, 1.0, 0.7, prof)


# -------------------------------------------------------------- oscillation


def _synthetic_profile(ts, values, crossings=()):
    return Profile(grid=Grid(float(ts[0]), float(ts[1] - ts[0]), len(ts)),
                   values=np.asarray(values), shape=MONOTONE,
                   sup=float(np.max(values)), crossings=tuple(crossings))


def _crossings_loop(ts, values):
    """The per-interval crossing loop crossings_of_one replaced."""
    out = []
    for i in range(len(ts) - 1):
        v0, v1 = values[i] - 1.0, values[i + 1] - 1.0
        if v0 == 0.0:
            out.append(float(ts[i]))
        elif (v0 < 0) != (v1 < 0):
            out.append(float(ts[i] - v0 * (ts[i + 1] - ts[i]) / (v1 - v0)))
    return out


def test_crossings_of_one_equals_the_loop_and_takes_samples_on_one():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 17, 400):
        for _ in range(25):
            ts = np.cumsum(rng.uniform(0.01, 1.0, size=n))
            vals = 1.0 + rng.normal(scale=0.1, size=n)
            vals[rng.random(n) < 0.3] = 1.0  # single samples and runs on the level
            got = crossings_of_one(ts, vals)
            assert got == _crossings_loop(ts, vals)
            assert not np.any(np.isnan(got))
    assert crossings_of_one([0.0, 1.0, 2.0, 3.0], [0.5, 1.0, 1.0, 1.5]) == [1.0, 1.0, 2.0]


def test_classify_synthetic_decayed_oscillation():
    ts = np.linspace(0.0, 14.0, 8001)
    vals = 1.0 + np.exp(-ts) * np.sin(ts)
    prof = _synthetic_profile(ts, vals, crossings_of_one(ts, vals))
    rep = classify_oscillation(prof, h=2.0)
    assert rep.shape == OSCILLATING
    assert rep.spacing_ok  # crossings pi apart, so Q_{j+2} - Q_j = 2 pi >= 2
    assert rep.single_extremum_ok
    assert rep.certified_slow
    qs = rep.crossings
    for j in range(len(qs) - 2):
        assert qs[j + 2] - qs[j] >= 2.0 - 1e-9
        assert qs[j + 2] - qs[j] == pytest.approx(2.0 * math.pi, abs=1e-3)


def test_classify_synthetic_fast_oscillation_fails_spacing():
    ts = np.linspace(0.0, 14.0, 8001)
    vals = 1.0 + np.exp(-0.3 * ts) * np.sin(4.0 * ts)
    prof = _synthetic_profile(ts, vals, crossings_of_one(ts, vals))
    rep = classify_oscillation(prof, h=2.0)
    assert rep.shape == OSCILLATING
    assert rep.spacing_ok is False  # spacing pi/2 < h
    assert not rep.certified_slow


def test_classify_synthetic_monotone():
    ts = np.linspace(-10.0, 10.0, 2001)
    vals = 0.5 * (1.0 + np.tanh(ts))
    prof = _synthetic_profile(ts, vals)
    rep = classify_oscillation(prof, h=2.0)
    assert rep.shape == MONOTONE


def test_classify_marks_unresolved_tail_inconclusive():
    ts = np.linspace(0.0, 10.0, 1001)
    vals = 1.0 + 0.3 * np.sin(ts)
    prof = _synthetic_profile(ts, vals, crossings_of_one(ts, vals))
    prof.flags = ("unresolved-tail",)
    rep = classify_oscillation(prof, h=1.0)
    assert rep.inconclusive


def test_limit_profile_slowly_oscillating_regime():
    # past the real-spectrum edge (1+gamma)/e the connection rings around 1;
    # crossing spacing must respect the lag window and each gap holds exactly
    # one critical point
    p = limit_profile(9.0, 6.0, span_length=700.0)
    rep = classify_oscillation(p, h=6.0)
    assert rep.shape == OSCILLATING
    assert rep.certified_slow
    qs = rep.crossings
    assert len(qs) >= 4
    assert all(qs[j + 2] - qs[j] >= 6.0 for j in range(len(qs) - 2))
    assert rep.eventually_monotone  # the numerical tail settles monotonically


def test_limit_profile_just_past_edge_still_oscillating():
    p = limit_profile(9.0, 3.9, span_length=500.0)
    rep = classify_oscillation(p, h=3.9)
    assert rep.shape == OSCILLATING
    assert len(rep.crossings) >= 2


# -------------------------------------------------------- finite-speed profile


def test_finite_speed_profile_delegates_at_zero(limit_9_3):
    p = finite_speed_profile(9.0, 3.0, 0.0)
    assert p.shape == limit_9_3.shape
    assert p.sup == pytest.approx(limit_9_3.sup, rel=1e-9)


def test_finite_speed_profile_structure():
    p = finite_speed_profile(9.0, 3.0, 0.01)
    assert p.shape == NON_MONOTONE
    rep = classify_oscillation(p, h=3.0)
    assert rep.eventually_monotone


def test_finite_speed_decay_matches_perturbed_root():
    p = finite_speed_profile(9.0, 3.0, 0.01)
    roots = delay_char_roots(9.0, 3.0, 0.01).real_negative_roots()
    dominant = max(r.re for r in roots)
    assert p.decay_plus == pytest.approx(dominant, rel=0.10)


def test_finite_speed_continuation_is_monotone_in_eps(limit_9_3):
    dists = [finite_speed_profile(9.0, 3.0, e).sup_distance(limit_9_3)
             for e in (0.02, 0.01, 0.005)]
    assert dists[0] > dists[1] > dists[2]


def test_finite_speed_profile_chunk_end_after_lag_breakpoint():
    # the same one-ulp chunk-end remainder as the limit-profile case above
    p = finite_speed_profile(10.6763, 2.0546, 0.0043)
    assert p.flags == ()


def test_finite_speed_eps_guard():
    with pytest.raises(PreconditionError):
        finite_speed_profile(9.0, 3.0, 0.7)
