"""Dual-route consistency: the same wavefront computed by two independent
solvers must coincide.

Route A solves the profile equation in the wave variable by Green-operator
iteration against the projected kernel.  Route B integrates the slow-manifold
reduction of the scaled-time equations and maps back through t -> t/c.  The
routes share no numerical machinery beyond elementary arithmetic, so
agreement bounds the combined error of the kernel projection, the operator
discretization, and the reduced integration (the reduction itself is not
exact: its profile gap, measured at gamma = 2 for c = 4 to 12, is
0.05-0.11 eps^2)."""

from __future__ import annotations

import numpy as np
import pytest

from kolwave import discretedelay, planarflow
from kolwave.models import GrowthModel, Kernel, WaveParams
from kolwave.semiwavefront import default_config, iterate_front


def shift_to_half(ts, vs):
    idx = np.nonzero((vs[:-1] < 0.5) & (vs[1:] >= 0.5))[0]
    i = int(idx[0])
    th = ts[i] + (0.5 - vs[i]) * (ts[i + 1] - ts[i]) / (vs[i + 1] - vs[i])
    return ts - th


def sup_gap(t_a, v_a, t_b, v_b):
    lo, hi = max(t_a[0], t_b[0]), min(t_a[-1], t_b[-1])
    grid = np.linspace(lo, hi, 3001)
    return float(np.max(np.abs(np.interp(grid, t_a, v_a) - np.interp(grid, t_b, v_b))))


def test_weak_kernel_routes_agree():
    gamma, tau, c = 2.0, 0.5, 4.0
    params = WaveParams(GrowthModel.food_limited(gamma), Kernel.weak(tau), c)
    config = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged

    reduced = planarflow.finite_speed_profile(gamma, tau, c ** -2)
    gap = sup_gap(
        shift_to_half(res.profile.ts, res.profile.values), res.profile.values,
        shift_to_half(reduced.profile.ts, reduced.profile.values) * c,
        reduced.profile.values,
    )
    assert gap < 2e-3  # measured ~2.6e-4; eps^2 budget is 3.9e-3


def test_discrete_kernel_routes_agree():
    gamma, tau, c = 2.0, 0.4, 4.0
    params = WaveParams(GrowthModel.food_limited(gamma), Kernel.discrete(tau), c)
    config = default_config(params, dt=0.02, tol=1e-9)
    res = iterate_front(config, params)
    assert res.converged

    reduced = discretedelay.finite_speed_profile(gamma, tau, c ** -2)
    gap = sup_gap(
        shift_to_half(res.profile.ts, res.profile.values), res.profile.values,
        shift_to_half(reduced.ts, reduced.values) * c, reduced.values,
    )
    assert gap < 2e-3  # measured ~2.9e-4
