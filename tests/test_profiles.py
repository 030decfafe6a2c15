"""fit_decay's one-pass search for the monotone tail stretch gives what the
backward walk it replaced gives, bit for bit; read backwards, it fits the
left tail as the growth fit it replaced did."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave import discretedelay, numerics, planarflow, profiles, semiwavefront
from kolwave.cli import main
from kolwave.errors import DivergenceError
from kolwave.models import GrowthModel, Kernel, WaveParams
from kolwave.profiles import RegionCurve, fit_decay, significant_crossings


def _fit_decay_walk(ts, dist, lo, hi):
    """The tail fit as a backward walk over the monotone stretch, one
    sample at a time."""
    ts = np.asarray(ts, dtype=float)
    dist = np.asarray(dist, dtype=float)
    live = np.nonzero(dist >= lo)[0]
    if len(live) == 0:
        return 0.0, False
    i_end = int(live[-1])
    i = i_end
    while i > 0 and dist[i - 1] >= dist[i] * (1.0 - 1e-3):
        i -= 1
    sel = np.arange(i, i_end + 1)
    sel = sel[(dist[sel] >= lo) & (dist[sel] <= hi) & (dist[sel] > 0)]
    if len(sel) < 8:
        return 0.0, False
    span = math.log10(dist[sel].max() / dist[sel].min())
    slope = float(np.polyfit(ts[sel], np.log(dist[sel]), 1)[0])
    return slope, span >= profiles._FIT_DECADES


def _assert_same_fit(ts, dist, lo, hi):
    got = fit_decay(ts, dist, lo, hi)
    want = _fit_decay_walk(ts, dist, lo, hi)
    assert got[1] is want[1]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


def _tails(seed):
    """Decaying tails with jitter, plateaus, steps right at the 0.1 %
    jitter allowance, NaNs and a noise floor."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 3000))
    ts = np.linspace(0.0, float(rng.uniform(5.0, 60.0)), n)
    dist = np.exp(-rng.uniform(0.1, 2.0) * ts) * rng.uniform(0.1, 2.0)
    dist *= 1.0 + rng.uniform(0.0, 3e-3) * rng.normal(size=n)  # jitter around the allowance
    a, b = sorted(rng.integers(0, n, size=2))
    dist[a:b] = dist[a]  # a plateau
    k = int(rng.integers(1, n))
    dist[k - 1] = dist[k] * (1.0 - 1e-3)  # exactly at the allowance
    if rng.random() < 0.5:
        dist[rng.integers(0, n, size=3)] = math.nan
    dist[n - int(rng.integers(0, n // 4 + 1)):] = 1e-14  # noise floor past the window
    return ts, dist


@pytest.mark.parametrize("seed", range(40))
def test_fit_decay_equals_the_backward_walk_on_random_tails(seed):
    ts, dist = _tails(seed)
    for lo, hi in ((1e-8, 1e-3), (1e-6, 1.0), (1e-12, 10.0)):
        _assert_same_fit(ts, dist, lo, hi)


@pytest.mark.parametrize("dist", [
    [0.5, 1e-9, 1e-9],  # i_end = 0
    [1e-9] * 12,  # nothing at or above lo
    [1e-3] * 12,  # one plateau: the stretch is the whole array
    [math.nan] * 12,
    [math.nan] + [10.0 ** -k for k in range(2, 12)],  # NaN ends the walk
    [10.0 ** -k for k in range(2, 8)] + [math.nan] + [10.0 ** -k for k in range(8, 14)],
    [1e-2 * 0.999 ** k for k in range(40)],  # steps right at the 0.1 % allowance
    [1e-3 * 2.0 ** -k for k in range(40)] + [1e-3 * 2.0 ** -39 * 1.002],  # a last upturn
])
def test_fit_decay_equals_the_backward_walk_on_edge_cases(dist):
    ts = np.arange(len(dist), dtype=float) * 0.5
    for d in (dist, dist[::-1]):
        for lo, hi in ((1e-8, 1e-3), (1e-12, 1.0)):
            _assert_same_fit(ts, np.array(d), lo, hi)


@pytest.mark.parametrize("argv", [
    ["heteroclinic", "--gamma", "40", "--tau", "10"],
    ["limit-profile", "--gamma", "9", "--tau", "3"],
    ["iterate", "--model", "kpp", "--c", "2.5"],
], ids=lambda argv: argv[0])
def test_fit_decay_equals_the_backward_walk_on_real_profiles(tmp_path, monkeypatch, argv):
    calls = []

    def recording(ts, dist, lo, hi):
        calls.append((np.array(ts), np.array(dist), lo, hi))
        return fit_decay(ts, dist, lo, hi)

    monkeypatch.setattr(profiles, "fit_decay", recording)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert calls
    for ts, dist, lo, hi in calls:
        _assert_same_fit(ts, dist, lo, hi)


def _growth_fit(ts, values, amplitude: float):
    """The left-tail fit build_profile used before both tails shared
    fit_decay: the slope of log(values) over every sample in
    (5 * amplitude, 5e-3), with at least 8 samples over 1.5 decades."""
    v = np.asarray(values)
    sel = (v > 5.0 * amplitude) & (v < 5e-3)
    if np.count_nonzero(sel) < 8:
        return None
    t = np.asarray(ts)[sel]
    y = np.log(v[sel])
    span = math.log10(v[sel].max() / v[sel].min())
    if span < 1.5:
        return None
    return float(np.polyfit(t, y, 1)[0])


def _acceptance_front():
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.dirac(), 2.5)
    config = semiwavefront.default_config(params, dt=0.02, tol=1e-9)
    return semiwavefront.iterate_front(config, params).profile


@pytest.mark.parametrize("module, make", [
    (discretedelay, lambda: discretedelay.limit_profile(9.0, 3.0)),
    (planarflow, lambda: planarflow.heteroclinic(40.0, 10.0).profile),
    (semiwavefront, _acceptance_front),
], ids=["limit-9-3", "heteroclinic-40-10", "food-2-dirac-2.5"])
def test_left_decay_fit_equals_the_growth_fit_it_replaced(monkeypatch, module, make):
    calls = []

    def recording(grid, values, **kwargs):
        calls.append((grid.nodes(), np.array(values), kwargs["amplitude"]))
        return profiles.build_profile(grid, values, **kwargs)

    monkeypatch.setattr(module, "build_profile", recording)
    profile = make()
    (ts, values, amplitude), = calls
    want = _growth_fit(ts, values, amplitude)
    assert want is not None and profile.decay_minus is not None
    assert profile.decay_minus == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("make", [
    lambda: discretedelay.limit_profile(9.0, 1.4),
    lambda: discretedelay.finite_speed_profile(9.0, 1.4, 0.05),
    lambda: planarflow.heteroclinic(4.0, 4.0).profile,
    lambda: planarflow.finite_speed_profile(40.0, 10.0, 0.05).profile,
], ids=["limit-9-1.4", "delay-eps-0.05", "heteroclinic-4-4", "planar-eps-0.05"])
def test_shot_profile_times_are_the_sampled_times_bitwise(monkeypatch, make):
    # a delay shot and a planar connection sample their dense output once at
    # every node of the profile's grid; a grid rebuilt from the samples as
    # (t_end/m)*k ended one ulp off t_end on the first three
    sampled = []
    sample = numerics.Trajectory.sample

    def recording(self, ts):
        sampled.append(np.array(ts, dtype=float))
        return sample(self, ts)

    monkeypatch.setattr(numerics.Trajectory, "sample", recording)
    profile = make()
    ts, = [t for t in sampled if len(t) == profile.grid.n]
    assert ts.tobytes() == profile.ts.tobytes()


def test_front_profile_times_are_the_iteration_grid_bitwise():
    # the food(2) dirac front's grid from t = -42 at dt = 0.02: rebuilt from
    # its own samples, its last node read 175.480000000034
    params = WaveParams(GrowthModel.food_limited(2.0), Kernel.dirac(), 2.5)
    config = semiwavefront.default_config(params, dt=0.02, tol=1e-9)
    profile = semiwavefront.iterate_front(config, params).profile
    assert profile.grid == config.grid
    assert profile.ts.tobytes() == config.grid.nodes().tobytes()


def test_significant_crossing_at_the_last_sample_has_no_excursion_to_keep():
    # an integrator's refined event can fall on the run's last node, where
    # no sample follows to show an excursion
    ts = np.arange(6.0)
    values = np.array([0.0, 0.5, 1.2, 1.3, 1.2, 1.0])
    up = 1 + 0.5 / 0.7
    assert significant_crossings(ts, values, [up, 5.0]) == [up]


def test_region_sweep_runs_each_column_at_one_gamma_after_another():
    calls = []

    def column(name, fail_at=None):
        def fn(g):
            calls.append((name, g))
            if g == fail_at:
                raise DivergenceError("step size underflow")
            return 10.0 * g
        return fn

    curve = RegionCurve.sweep(np.array([1.0, 2.0]), {"a": column("a", fail_at=2.0),
                                                     "b": column("b")})
    assert calls == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0)]
    assert all(type(g) is float for _, g in calls)
    assert curve.header() == ["gamma", "a", "b"]
    np.testing.assert_array_equal(curve.columns["a"], [10.0, np.nan])
    np.testing.assert_array_equal(curve.columns["b"], [10.0, 20.0])
