from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave.errors import (
    BracketError,
    FieldEvaluationError,
    PreconditionError,
    QuadratureError,
)
from kolwave.numerics import (
    _DP_A,
    _DP_B,
    _DP_C,
    _DP_E,
    DdeTrajectory,
    Grid,
    cubic_real_roots,
    find_root,
    integrate_dde,
    integrate_ode,
    lower_edge,
    maximize_scalar,
    quad_adaptive,
)
from kolwave import numerics
from kolwave.numerics import _QUAD_BLOCK, _dp_step, _hermite, _hermite_lag


def test_grid_nodes_and_invariants():
    g = Grid(t0=-1.0, dt=0.5, n=5)
    assert g.t_end == pytest.approx(1.0)
    assert np.allclose(g.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(PreconditionError):
        Grid(0.0, -0.1, 5)
    with pytest.raises(PreconditionError):
        Grid(0.0, 0.1, 1)


def test_grid_caps_its_node_count_before_allocating():
    assert Grid(0.0, 1e-6, 10_000_000).n == 10_000_000  # nodes() is never called
    with pytest.raises(PreconditionError, match=r"n=10000001 .*dt=1e-06"):
        Grid(0.0, 1e-6, 10_000_001)
    with pytest.raises(PreconditionError, match=r"n=100000000000000 .*dt=1e-12"):
        Grid(0.0, 1e-12, 10 ** 14)


def test_exponential_solution():
    traj, _ = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), tol=1e-10)
    assert traj(1.0)[0] == pytest.approx(math.e, rel=1e-9)


def test_dense_output_matches_nodes_exactly():
    traj, _ = integrate_ode(lambda t, y: np.array([-y[0]]), [2.0], (0.0, 3.0), tol=1e-8)
    for i in range(len(traj.ts)):
        assert traj(traj.ts[i])[0] == traj.ys[i][0]


def test_halving_tol_does_not_worsen_exponential_error():
    errs = []
    for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        traj, _ = integrate_ode(lambda t, y: y, [1.0], (0.0, 2.0), tol=tol)
        errs.append(abs(traj(2.0)[0] - math.e ** 2))
    assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))


def test_field_evaluation_error_on_nan():
    def bad(t, y):
        return np.array([math.nan])

    with pytest.raises(FieldEvaluationError):
        integrate_ode(bad, [0.0], (0.0, 1.0), tol=1e-8)


@pytest.mark.parametrize("where", ["field", "gauge"])
@pytest.mark.parametrize("fn, cause", [
    (lambda t, y: [1.0 / (1.0 - y[0])], ZeroDivisionError),
    (lambda t, y: [math.exp(1000.0 * t)], OverflowError),  # overflows past t = 0.7098
], ids=["zero-division", "overflow"])
def test_float_arithmetic_error_on_a_runaway_state_is_a_field_evaluation_error(where, fn, cause):
    if where == "field":
        field, events = fn, []
    else:
        field, events = (lambda t, y: [1.0]), [lambda t, y: fn(t, y)[0]]
    with pytest.raises(FieldEvaluationError) as info:
        integrate_ode(field, [1.0], (0.0, 1.0), tol=1e-8, events=events)
    assert isinstance(info.value.__cause__, cause)


@pytest.mark.parametrize("out", [[1.0], [1.0, 2.0, 3.0]], ids=["too-short", "too-long"])
def test_field_output_of_the_wrong_length_raises(out):
    with pytest.raises(FieldEvaluationError, match=f"{len(out)} components for a state of 2"):
        integrate_ode(lambda t, y: out, [1.0, 0.0], (0.0, 1.0), tol=1e-8)
    with pytest.raises(FieldEvaluationError, match=f"{len(out)} components for a state of 2"):
        integrate_dde(lambda t, y, lag: out, 1.0, lambda t: [1.0, 0.0], (0.0, 1.0),
                      history_deriv=lambda t: [0.0, 0.0])


def test_tol_domain_guard():
    with pytest.raises(PreconditionError):
        integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), tol=0.5)


def test_level_crossing_event_on_logistic():
    # y' = y(1-y) from 0.01 crosses 1/2 at t = ln(99)
    traj, (half,) = integrate_ode(
        lambda t, y: [y[0] * (1.0 - y[0])], [0.01], (0.0, 12.0), tol=1e-10,
        events=[lambda t, y: y[0] - 0.5],
    )
    assert len(half) == 1
    assert half[0] == pytest.approx(math.log(99.0), abs=1e-7)


@pytest.mark.parametrize("center", [1e3, -1e3, 1000.3])
def test_event_time_far_from_zero_keeps_the_relative_tolerance(center):
    # the logistic shifted to cross 1/2 at t = center: the event time is refined
    # to within _EVENT_TIME_TOL * |t|, which at |t| ~ 1e3 is far above one ulp
    y0 = 1.0 / (1.0 + math.exp(12.0))
    _, (half,) = integrate_ode(
        lambda t, y: [y[0] * (1.0 - y[0])], [y0], (center - 12.0, center + 12.0),
        tol=1e-12, events=[lambda t, y: y[0] - 0.5],
    )
    assert len(half) == 1
    assert abs(half[0] - center) <= numerics._EVENT_TIME_TOL * abs(center)


def test_event_times_are_reproducible_bitwise():
    times = []
    for _ in range(2):
        _, (half,) = integrate_ode(
            lambda t, y: [y[0] * (1.0 - y[0])], [0.01], (0.0, 12.0), tol=1e-10,
            events=[lambda t, y: y[0] - 0.5],
        )
        times.append(half[0])
    assert times[0] == times[1]


def test_extremum_event_on_sine():
    # y = sin t has derivative sign change at pi/2
    def f(t, y):
        return np.array([math.cos(t)])

    _, (extrema,) = integrate_ode(f, [0.0], (0.0, 3.0), tol=1e-10,
                                  events=[lambda t, y: f(t, y)[0]])
    assert len(extrema) == 1
    assert extrema[0] == pytest.approx(math.pi / 2, abs=1e-8)


def test_terminal_event_truncates():
    traj, (stop,) = integrate_ode(lambda t, y: y, [1.0], (0.0, 5.0), tol=1e-10,
                                  stop=lambda t, y: y[0] - 2.0)
    assert traj.t_end == pytest.approx(math.log(2.0), abs=1e-8)
    assert stop == [traj.t_end]


def test_stop_drops_later_zeros_of_the_same_step():
    # y = t: the stop gauge's zero at 1 and the other gauge's at 1.5 fall in
    # one step, so the run ends at 1 and the zero at 1.5 is dropped
    field = lambda t, y: np.array([1.0])
    late = lambda t, y: y[0] - 1.5
    full, (late_full,) = integrate_ode(field, [0.0], (0.0, 5.0), events=[late])
    i = int(np.searchsorted(full.ts, 1.0))
    assert full.ts[i - 1] < 1.0 and full.ts[i] > 1.5
    assert late_full == [pytest.approx(1.5, abs=1e-12)]

    traj, (late_zeros, stop) = integrate_ode(field, [0.0], (0.0, 5.0), events=[late],
                                             stop=lambda t, y: y[0] - 1.0)
    assert stop == [pytest.approx(1.0, abs=1e-12)]
    assert traj.t_end == stop[0]
    assert late_zeros == []


def test_each_gauge_gets_its_own_ascending_zero_list():
    # y = sin t: y = 0 at pi, 2pi, 3pi (the start t = 0 is a zero, not a sign
    # change); y = 1/2 at pi/6, 5pi/6, 13pi/6, 17pi/6
    _, (zero, half) = integrate_ode(
        lambda t, y: np.array([math.cos(t)]), [0.0], (0.0, 10.0), tol=1e-10,
        events=[lambda t, y: y[0], lambda t, y: y[0] - 0.5],
    )
    assert zero == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-7)
    assert half == pytest.approx([k * math.pi / 6 for k in (1, 5, 13, 17)], abs=1e-7)
    assert zero == sorted(zero) and half == sorted(half)


def test_sign_change_across_exact_zeros_is_one_zero_at_its_first_node():
    # down is positive, exactly 0 on [0.5, 1], then negative; up is its
    # mirror; touch returns to its sign after the zeros, so it has no zero
    down = lambda t, y: max(0.0, 0.5 - t) - max(0.0, t - 1.0)
    up = lambda t, y: -down(t, y)
    touch = lambda t, y: max(0.0, 0.5 - t) + max(0.0, t - 1.0)
    field = lambda t, y: np.array([math.sin(10.0 * t)])
    traj, (zd, zu, zt) = integrate_ode(field, [0.0], (0.0, 2.0), tol=1e-10,
                                       events=[down, up, touch])
    first = float(traj.ts[traj.ts >= 0.5][0])
    assert first < 1.0
    assert zd == zu == [first]
    assert zt == []

    # as the stop gauge, the run ends on that node
    stopped, (zs,) = integrate_ode(field, [0.0], (0.0, 2.0), tol=1e-10, stop=down)
    assert zs == [first] and stopped.t_end == first
    n = len(stopped.ts)
    assert np.array_equal(stopped.ts, traj.ts[:n]) and np.array_equal(stopped.ys, traj.ys[:n])


@pytest.mark.parametrize("nan_at", [0.0, 0.5])
def test_non_finite_gauge_raises(nan_at):
    def gauge(t, y):
        return math.nan if t >= nan_at else y[0] - 10.0

    with pytest.raises(FieldEvaluationError):
        integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), tol=1e-8, events=[gauge])


def test_dde_cosine_fixture():
    # y'(t) = -y(t - pi/2) with history cos keeps the solution cos.
    tau = math.pi / 2
    traj, _ = integrate_dde(
        lambda t, y, lag: [-lag.value[0]],
        tau,
        lambda t: np.array([math.cos(t)]),
        (0.0, 4 * math.pi),
        tol=1e-9,
        history_deriv=lambda t: np.array([-math.sin(t)]),
    )
    ts = np.linspace(0.0, 4 * math.pi, 200)
    err = max(abs(traj(t)[0] - math.cos(t)) for t in ts)
    assert err < 1e-4


def test_dde_continued_run_is_one_flat_dense_output():
    tau = math.pi / 2
    kwargs = dict(tol=1e-9, history_deriv=lambda t: np.array([-math.sin(t)]))
    field = lambda t, y, lag: [-lag.value[0]]
    history = lambda t: np.array([math.cos(t)])
    first, _ = integrate_dde(field, tau, history, (0.0, 2 * math.pi), **kwargs)
    traj, _ = integrate_dde(field, tau, history, (first.t_end, 4 * math.pi),
                            prior=first, **kwargs)
    assert len(traj.segments) == 2
    assert not isinstance(traj.history, DdeTrajectory)
    ts = np.linspace(0.0, 4 * math.pi, 200)
    err = max(abs(traj(t)[0] - math.cos(t)) for t in ts)
    assert err < 1e-4


def test_dde_continued_run_must_start_at_prior_end():
    field = lambda t, y, lag: [-lag.value[0]]
    flat = dict(history_deriv=lambda t: [0.0])
    first, _ = integrate_dde(field, 1.0, lambda t: [1.0], (0.0, 2.0), **flat)
    with pytest.raises(PreconditionError):
        integrate_dde(field, 1.0, lambda t: [1.0], (1.0, 3.0), prior=first, **flat)


def test_dde_halving_tol_does_not_worsen_cosine_error():
    tau = math.pi / 2

    def run(tol):
        traj, _ = integrate_dde(
            lambda t, y, lag: [-lag.value[0]],
            tau,
            lambda t: np.array([math.cos(t)]),
            (0.0, 2 * math.pi),
            tol=tol,
            history_deriv=lambda t: np.array([-math.sin(t)]),
        )
        ts = np.linspace(0.0, 2 * math.pi, 100)
        return max(abs(traj(t)[0] - math.cos(t)) for t in ts)

    e1, e2 = run(1e-6), run(5e-7)
    assert e2 <= e1 + 1e-12


def test_dde_vector_system_rotation():
    # y1' = y2(t - 2pi), y2' = -y1(t - 2pi) keeps (cos t, -sin t) rotating
    tau = 2 * math.pi

    def field(t, y, lag):
        return np.array([lag.value[1], -lag.value[0]])

    traj, _ = integrate_dde(
        field, tau,
        lambda t: np.array([math.cos(t), -math.sin(t)]),
        (0.0, 6 * math.pi), tol=1e-9,
        history_deriv=lambda t: np.array([-math.sin(t), -math.cos(t)]),
    )
    for t in np.linspace(0.0, 6 * math.pi, 60):
        y = traj(t)
        assert abs(y[0] - math.cos(t)) < 1e-5
        assert abs(y[1] + math.sin(t)) < 1e-5


def test_dde_rejects_nonpositive_lag():
    with pytest.raises(PreconditionError):
        integrate_dde(lambda t, y, lag: -lag.value, 0.0, lambda t: [1.0], (0.0, 1.0),
                      history_deriv=lambda t: [0.0])


def test_dp_tableau_invariants():
    for row, c in zip(_DP_A, _DP_C):
        assert abs(sum(row) - c) <= 1e-15
    assert abs(sum(_DP_B) - 1.0) <= 1e-15
    assert abs(sum(_DP_E)) <= 1e-15
    for k in range(5):  # the 5th-order quadrature conditions
        assert abs(sum(b * c ** k for b, c in zip(_DP_B, _DP_C)) - 1.0 / (k + 1)) <= 1e-15


def _dp_step_oracle(field, t, y, f, h, tol):
    """The Dormand-Prince step with one array per stage, summed term by term."""
    k = [f]
    for i in range(1, 6):
        yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
        k.append(np.asarray(field(t + _DP_C[i] * h, yi), dtype=float))
    y_new = y + h * sum(b * k[j] for j, b in enumerate(_DP_B))
    k.append(np.asarray(field(t + h, y_new), dtype=float))
    err_vec = h * sum(e * k[j] for j, e in enumerate(_DP_E))
    sc = tol * 1e-3 + tol * np.maximum(np.abs(y), np.abs(y_new))
    return y_new, k[-1], float(np.sqrt(np.mean((err_vec / sc) ** 2))), sc


@pytest.mark.parametrize("d, field", [
    (1, lambda t, y: [y[0] * (1.0 - y[0]) + math.sin(t)]),
    (2, lambda t, y: np.array([y[1], -np.sin(y[0]) - 0.3 * y[1] + 0.5 * np.cos(t)])),
], ids=["1d", "2d"])
def test_dp_step_matches_list_of_stages_oracle(d, field):
    rng = np.random.default_rng(13)
    for _ in range(300):
        t, h, tol = rng.uniform(0.0, 10.0), rng.uniform(1e-3, 0.5), 10 ** rng.uniform(-10, -6)
        y = rng.uniform(-2.0, 2.0, d)
        f = np.asarray(field(t, y), dtype=float)
        y_new, f_new, err, sc = _dp_step(field, t, tuple(y.tolist()), tuple(f.tolist()), h, tol)
        y_o, f_o, err_o, sc_o = _dp_step_oracle(field, t, y, f, h, tol)
        assert all(type(v) is float for v in (*y_new, *f_new, *sc, err))
        assert np.array_equal(y_new, y_o)
        assert np.array_equal(f_new, f_o)
        assert np.array_equal(sc, sc_o)
        assert err == err_o


def test_fused_lag_read_equals_separate_formulas_bitwise():
    def slope(t, t0, t1, y0, y1, f0, f1):
        h = t1 - t0
        th = (t - t0) / h
        th2 = th * th
        return ((6 * th2 - 6 * th) * (y0 - y1) / h + (3 * th2 - 4 * th + 1) * f0
                + (3 * th2 - 2 * th) * f1)

    rng = np.random.default_rng(17)
    for d in (None, 1, 3):  # Python floats, then 1-d states
        for _ in range(500):
            t0 = rng.uniform(-5.0, 5.0)
            t1 = t0 + rng.uniform(1e-6, 2.0)
            t = rng.uniform(t0, t1)
            ys = [rng.normal(size=d) if d else float(rng.normal()) for _ in range(4)]
            seg = (t, t0, t1, *ys)
            lag = _hermite_lag(*seg)
            assert np.array_equal(lag.value, _hermite(*seg))
            assert np.array_equal(lag.slope, slope(*seg))


def _hermite_oracle(traj, t):
    """Trajectory.__call__ spelled out: node values at and beyond the ends
    and on nodes, else the cubic Hermite in this exact float-operation
    order (the order every byte-compared output depends on)."""
    ts, ys, fs = traj.ts, traj.ys, traj.fs
    if t <= ts[0]:
        return ys[0]
    if t >= ts[-1]:
        return ys[-1]
    i = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), len(ts) - 2)
    if t == ts[i]:
        return ys[i]
    h = ts[i + 1] - ts[i]
    th = (t - ts[i]) / h
    th2 = th * th
    th3 = th2 * th
    return ((2 * th3 - 3 * th2 + 1) * ys[i] + (th3 - 2 * th2 + th) * h * fs[i]
            + (-2 * th3 + 3 * th2) * ys[i + 1] + (th3 - th2) * h * fs[i + 1])


def _probe_points(ts, lo, hi, rng):
    """Every node, its neighbouring floats, the midpoints, both ends, points
    outside [lo, hi] and random interior points."""
    return np.concatenate([
        ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf),
        0.5 * (ts[:-1] + ts[1:]),
        [lo, hi, lo - 1.0, hi + 1.0, lo - 1e-9, hi + 1e-9],
        rng.uniform(lo, hi, 2000),
    ])


def test_trajectory_sample_equals_scalar_reads_bitwise():
    def field(t, y):
        return np.array([y[1], -y[0] - 0.3 * y[1] + 0.5 * math.sin(t)])

    traj, _ = integrate_ode(field, [1.0, 0.0], (0.0, 20.0), tol=1e-9)
    ts = _probe_points(traj.ts, traj.t0, traj.t_end, np.random.default_rng(7))
    scalar = np.array([traj(t) for t in ts])
    assert scalar.shape == (len(ts), 2)
    assert np.array_equal(traj.sample(ts), scalar)
    assert np.array_equal(scalar, np.array([_hermite_oracle(traj, t) for t in ts]))
    assert traj.sample([]).shape == (0, 2)


def test_dde_sample_equals_scalar_reads_bitwise():
    tau = 2 * math.pi

    def field(t, y, lag):
        return np.array([lag.value[1], -lag.value[0]])

    kwargs = dict(tol=1e-9,
                  history_deriv=lambda t: np.array([-math.sin(t), -math.cos(t)]))
    history = lambda t: np.array([math.cos(t), -math.sin(t)])
    traj = None
    for lo, hi in ((0.0, 5.0), (5.0, 11.0), (11.0, 20.0)):
        lo = traj.t_end if traj is not None else lo
        traj, _ = integrate_dde(field, tau, history, (lo, hi), prior=traj, **kwargs)
    assert len(traj.segments) == 3
    nodes = np.concatenate([seg.ts for seg in traj.segments])
    ts = _probe_points(nodes, traj.t_start, traj.t_end, np.random.default_rng(11))
    ts = np.concatenate([ts, [seg.t_end for seg in traj.segments], [-3.0, -1e-12]])
    scalar = np.array([traj(t) for t in ts])
    assert np.array_equal(traj.sample(ts), scalar)

    # the segment rule: the first segment ending at or after t, else the last
    def first_ending_after(t):
        return next((seg for seg in traj.segments if t <= seg.t_end), traj.segments[-1])

    for t in ts:
        if t > traj.t_start:
            assert np.array_equal(traj(t), _hermite_oracle(first_ending_after(t), t))
        else:
            assert np.array_equal(traj(t), history(t))


def test_every_committed_lag_read_equals_the_returned_dense_output_bitwise():
    # lag 2*pi is longer than every step, so no read falls in the step being
    # built; run one reads only the history, runs two and three read their
    # start-up lags from the prior runs, and run three also its own nodes;
    # value and slope both follow one rule, also on a run boundary
    tau = 2 * math.pi
    reads = []

    def field(t, y, lag):
        reads.append((t - tau, lag))
        return [lag.value[1], -lag.value[0]]

    kwargs = dict(tol=1e-9,
                  history_deriv=lambda t: np.array([-math.sin(t), -math.cos(t)]))
    history = lambda t: np.array([math.cos(t), -math.sin(t)])
    traj = None
    for lo, hi in ((0.0, 5.0), (5.0, 11.0), (11.0, 20.0)):
        lo = traj.t_end if traj is not None else lo
        traj, _ = integrate_dde(field, tau, history, (lo, hi), prior=traj, **kwargs)
    assert len(reads) > 1000 and min(s for s, _ in reads) < 0.0
    ends = [seg.t_end for seg in traj.segments]
    assert sum(ends[0] < s < ends[1] for s, _ in reads) > 100
    assert sum(s > ends[1] for s, _ in reads) > 100
    assert any(s in ends[:2] for s, _ in reads)
    for s, lag in reads:
        assert all(type(v) is float for v in lag.value + lag.slope)
        assert lag.value == tuple(traj(s).tolist()), s
        assert lag.slope == tuple(traj.derivative(s).tolist()), s


def test_find_root_identity():
    assert find_root(lambda z: z, (-1.0, 1.0), 1e-14) == pytest.approx(0.0, abs=1e-13)


def test_find_root_double_root_reports_bracket_error():
    f = lambda z: z * z - 2 * z + 1
    with pytest.raises(BracketError):
        find_root(f, (0.9 + 1e-6, 1.1 - 1e-6), 1e-12)


def test_find_root_delay_characteristic_value():
    # larger real root of z + exp(-3z)/10 = 0, checked against a plain fine
    # bisection; [-1/3, 0] brackets exactly one sign change
    f = lambda z: z + math.exp(-3.0 * z) / 10.0
    root = find_root(f, (-1.0 / 3.0, 0.0), 1e-13)
    lo, hi = -1.0 / 3.0, 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (f(lo) < 0) != (f(mid) < 0):
            hi = mid
        else:
            lo = mid
    assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)
    assert abs(f(root)) < 1e-12


def test_lower_edge_finds_a_threshold_within_half_tol():
    rng = np.random.default_rng(8)
    for hi, tol in ((1.0, 1e-3), (12.5, 0.05), (3.7, 1e-9)):
        for x0 in rng.uniform(0.0, hi, size=25):
            edge = lower_edge(lambda t: t > x0, hi, tol)
            assert abs(edge - x0) <= tol / 2


def test_lower_edge_of_an_always_true_predicate_is_below_the_floor():
    for hi in (1.0, 12.5):
        assert 0.0 < lower_edge(lambda t: True, hi, 1e-3) < 1e-6 * hi


@pytest.mark.parametrize("tol", [1e-300, 0.0, -1.0])
def test_lower_edge_stops_when_the_bracket_cannot_be_split(tol):
    # a tol below float resolution ends at adjacent floats around the edge
    edge = lower_edge(lambda t: t > 0.3, 1.0, tol)
    assert abs(edge - 0.3) <= 2.0 * math.ulp(0.3)


def test_maximize_parabola():
    x, v = maximize_scalar(lambda a: a * (1 - a), (0.0, 1.0), 1e-10)
    assert x == pytest.approx(0.5, abs=1e-8)
    assert v == pytest.approx(0.25, abs=1e-12)


def test_maximize_barrier_function_constant():
    # min over (0,1) of x^2 + 2x + 2/x equals 4.729..., via the negated max
    x, v = maximize_scalar(lambda x: -(x * x + 2 * x + 2 / x), (1e-8, 1.0), 1e-10)
    assert -v == pytest.approx(4.729, abs=1e-3)
    # the minimiser solves x^3 + x^2 = 1
    assert x ** 3 + x ** 2 == pytest.approx(1.0, abs=1e-6)


def test_maximize_never_below_scan():
    rng = np.random.default_rng(7)
    for _ in range(5):
        coeffs = rng.normal(size=4)

        def f(x):
            return coeffs[0] * math.sin(3 * x) + coeffs[1] * x + coeffs[2] * x * x + coeffs[3]

        xs = np.linspace(-2.0, 2.0, 64)
        _, v = maximize_scalar(f, (-2.0, 2.0), 1e-9)
        assert v >= max(f(x) for x in xs) - 1e-14


def test_quad_finite_polynomial():
    [val] = quad_adaptive(lambda s, k: s * s, [0.0], [1.0], 1e-12)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quad_needs_a_finite_domain():
    # one bad domain refuses the whole batch
    for domain in ((0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0)):
        lo, hi = [0.0, domain[0], -1.0], [1.0, domain[1], 2.0]
        with pytest.raises(PreconditionError):
            quad_adaptive(lambda s, k: np.exp(-np.abs(s)), lo, hi, 1e-10)


@pytest.mark.parametrize("open_cap", [None, 64], ids=["default", "split-often"])
def test_quad_batch_across_blocks_equals_each_integral_alone(monkeypatch, open_cap):
    if open_cap is not None:  # blocks then refine in halves by integral, down to one
        monkeypatch.setattr(numerics, "_QUAD_OPEN", open_cap)
    m = 2 * _QUAD_BLOCK + 5
    rng = np.random.default_rng(3)
    q = rng.uniform(0.5, 40.0, m)
    lo = rng.uniform(-2.0, 0.0, m)
    hi = lo + rng.uniform(0.1, 3.0, m)

    def f(x, k):
        return q[k] * np.cos(q[k] * x)

    batch = quad_adaptive(f, lo, hi, 1e-10)
    alone = [quad_adaptive(lambda x, k, j=j: f(x, k + j), lo[j:j + 1], hi[j:j + 1], 1e-10)[0]
             for j in range(m)]
    assert np.array_equal(batch, alone)
    assert np.allclose(batch, np.sin(q * hi) - np.sin(q * lo), rtol=0.0, atol=1e-8)


def test_quad_fails_at_once_on_a_non_finite_integrand():
    calls = []

    def nan_everywhere(x, k):
        calls.append(len(x))
        return np.full(len(x), np.nan)

    with pytest.raises(QuadratureError, match="nan"):
        quad_adaptive(nan_everywhere, [0.0, 1.0], [1.0, 2.0], 1e-10)
    assert len(calls) == 1  # the coarse scan

    def nan_at_a_refined_node(x, k):  # 1/32 is first sampled at the first refinement
        calls.append(len(x))
        return np.where(x == 1.0 / 32.0, np.nan, x * x)

    calls.clear()
    with pytest.raises(QuadratureError, match="0.03125"):
        quad_adaptive(nan_at_a_refined_node, [0.0], [1.0], 1e-10)
    assert len(calls) == 3  # scan, panels, first refinement


def test_quad_exhausts_its_depth_on_a_step_at_a_tiny_tolerance():
    with pytest.raises(QuadratureError, match="depth"):
        quad_adaptive(lambda x, k: (x > 1.0 / 3.0).astype(float), [0.0], [1.0], 1e-300)


def test_quad_exhausts_its_budget_on_an_unresolved_oscillation():
    with pytest.raises(QuadratureError, match="budget"):
        quad_adaptive(lambda x, k: np.sin(1e9 * x), [0.0], [1.0], 1e-12)


def test_quad_memory_stays_bounded_when_a_whole_block_cannot_converge():
    # one such integral alone peaks near 17 MB before its budget runs out; a
    # block of them refined level by level together would hold 64 times that
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="budget"):
            quad_adaptive(lambda x, k: np.sin(1e9 * x), np.zeros(_QUAD_BLOCK),
                          np.ones(_QUAD_BLOCK), 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_cubic_roots_three_real():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    roots = cubic_real_roots(1.0, -6.0, 11.0, -6.0)
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-10)


def test_cubic_roots_single_real():
    roots = cubic_real_roots(1.0, 0.0, 1.0, 0.0)  # x(x^2+1)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.0, abs=1e-12)


def test_cubic_degenerates_to_quadratic_and_linear():
    assert np.allclose(cubic_real_roots(0.0, 1.0, -3.0, 2.0), [1.0, 2.0])
    assert np.allclose(cubic_real_roots(0.0, 0.0, 2.0, -4.0), [2.0])


@pytest.mark.parametrize("x0", [0.3, 0.1, 0.01])
def test_lower_edge_bisects_below_the_last_point_that_held(x0):
    # after k halvings the edge lies in [hi/2^(k+1), hi/2^k]: a bracket of
    # width 2^-(k+1), so eight bisections reach tol = 1e-3 whatever k is
    calls = []

    def pred(t):
        calls.append(t)
        return t > x0

    assert abs(lower_edge(pred, 1.0, 1e-3) - x0) <= 5e-4
    assert len(calls) == 10
