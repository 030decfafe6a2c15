"""fit_decay's one-pass search for the monotone tail stretch gives what the
backward walk it replaced gives, bit for bit; read backwards, it fits the
left tail as the growth fit it replaced did."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave import discretedelay, planarflow, profiles, semiwavefront
from kolwave.cli import main
from kolwave.models import GrowthModel, Kernel, WaveParams
from kolwave.profiles import fit_decay


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

    def recording(ts, values, **kwargs):
        calls.append((np.array(ts), np.array(values), kwargs["amplitude"]))
        return profiles.build_profile(ts, values, **kwargs)

    monkeypatch.setattr(module, "build_profile", recording)
    profile = make()
    (ts, values, amplitude), = calls
    want = _growth_fit(ts, values, amplitude)
    assert want is not None and profile.decay_minus is not None
    assert profile.decay_minus == pytest.approx(want, rel=1e-13, abs=0)
