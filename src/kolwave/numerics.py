"""Shared numerical engine.

Explicit Dormand-Prince 5(4) stepping with cubic-Hermite dense output and
event location, delay integration by the method of steps, bracketing root
solving, lower-edge search, scalar maximisation, and adaptive quadrature of
many integrals over finite domains at once.  Everything here is
deterministic: fixed inputs give bit-identical outputs.

The stepping core works on tuples of Python floats: states of one or two
components are far cheaper that way than as numpy arrays, and float
arithmetic raises (ZeroDivisionError, OverflowError) where numpy would
only warn.  The dense output of a finished run is built into numpy arrays
once; a delay run keeps its float node lists too, for the run that
continues it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BracketError,
    DivergenceError,
    FieldEvaluationError,
    PreconditionError,
    QuadratureError,
)

__all__ = [
    "Grid",
    "Trajectory",
    "DdeTrajectory",
    "Lag",
    "integrate_ode",
    "integrate_dde",
    "find_root",
    "lower_edge",
    "maximize_scalar",
    "quad_adaptive",
    "cubic_real_roots",
]

_EVENT_TIME_TOL = 1e-12  # bisection tolerance for event times, relative to max(1, |t|)
_MAX_STEPS = 1_000_000  # step attempts of one integration before it counts as divergent
MAX_GRID_NODES = 10_000_000  # nodes of one Grid or points of a CLI range: 80 MB per array

Gauge = Callable[[float, tuple], float]  # an event is a sign change of g(t, y)


@dataclass(frozen=True)
class Grid:
    """Uniform grid t0 + k*dt for k in [0, n)."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if not self.dt > 0:
            raise PreconditionError(f"grid step must be positive, got {self.dt}")
        if self.n < 2:
            raise PreconditionError(f"grid needs at least 2 nodes, got {self.n}")
        if self.n > MAX_GRID_NODES:
            raise PreconditionError(
                f"grid of n={self.n} nodes at dt={self.dt} exceeds the cap of "
                f"{MAX_GRID_NODES} nodes")

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


class Lag(NamedTuple):
    """Lagged state y(t - tau) and its derivative, one float per component."""

    value: tuple
    slope: tuple


def _hermite(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    th = (t - t0) / h
    th2 = th * th
    th3 = th2 * th
    return (
        (2 * th3 - 3 * th2 + 1) * y0
        + (th3 - 2 * th2 + th) * h * f0
        + (-2 * th3 + 3 * th2) * y1
        + (th3 - th2) * h * f1
    )


def _hermite_lag(t, t0, t1, y0, y1, f0, f1) -> Lag:
    """Value and slope of the cubic Hermite at t from one theta; the value
    equals `_hermite`'s bitwise."""
    h = t1 - t0
    th = (t - t0) / h
    th2 = th * th
    th3 = th2 * th
    return Lag((2 * th3 - 3 * th2 + 1) * y0 + (th3 - 2 * th2 + th) * h * f0
               + (-2 * th3 + 3 * th2) * y1 + (th3 - th2) * h * f1,
               (6 * th2 - 6 * th) * (y0 - y1) / h + (3 * th2 - 4 * th + 1) * f0
               + (3 * th2 - 2 * th) * f1)


def _lag_state(t, t0, t1, y0, y1, f0, f1) -> Lag:
    """`_hermite_lag` at t, one component of the state tuples at a time."""
    reads = [_hermite_lag(t, t0, t1, a, b, c, d) for a, b, c, d in zip(y0, y1, f0, f1)]
    return Lag(tuple([r.value for r in reads]), tuple([r.slope for r in reads]))


class Trajectory:
    """Dense output of one integration: exact at accepted nodes, cubic
    Hermite in between; the node arrays are built once from the node lists
    of a finished run."""

    def __init__(self, ts: np.ndarray, ys: np.ndarray, fs: np.ndarray):
        self.ts = ts
        self.ys = ys
        self.fs = fs

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t: float) -> np.ndarray:
        return Trajectory.sample(self, (t,))[0]

    def derivative(self, t: float) -> np.ndarray:
        t = min(max(t, self.ts[0]), self.ts[-1])
        i = int(np.searchsorted(self.ts, t, side="right") - 1)
        i = min(max(i, 0), len(self.ts) - 2)
        return _hermite_lag(t, self.ts[i], self.ts[i + 1], self.ys[i], self.ys[i + 1],
                            self.fs[i], self.fs[i + 1]).slope

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """y at every point of ts, as one array operation: the state at a
        node or outside [t0, t_end], else the Hermite cell around the point."""
        t = np.asarray(ts, dtype=float)
        i = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[i], self.ts[i + 1]
        out = _hermite(t[:, None], t0[:, None], t1[:, None], self.ys[i], self.ys[i + 1],
                       self.fs[i], self.fs[i + 1])
        # node states override the cell, lowest precedence first
        on_node = t == t0
        out[on_node] = self.ys[i[on_node]]
        out[t >= self.ts[-1]] = self.ys[-1]
        out[t <= self.ts[0]] = self.ys[0]
        return out


# Dormand-Prince 5(4) tableau; the 5th-order result propagates (FSAL).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _check_span(span, tol: float) -> tuple[float, float]:
    if not (1e-13 < tol < 1e-2):
        raise PreconditionError(f"tol must lie in (1e-13, 1e-2), got {tol}")
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise PreconditionError("span must be increasing")
    return t0, t1


def _floats(v) -> tuple:
    """A state given as a number, sequence or array, as a tuple of floats."""
    return tuple(np.atleast_1d(np.asarray(v, dtype=float)).tolist())


def _eval_field(field_fn, t, y) -> tuple:
    """field_fn(t, y) as a tuple of finite floats, one per component of y."""
    try:
        f = tuple(map(float, field_fn(t, y)))
    except (ZeroDivisionError, OverflowError) as exc:  # a runaway state
        raise FieldEvaluationError(f"field failed at t={t}: {exc}") from exc
    if len(f) != len(y):
        raise FieldEvaluationError(
            f"field returned {len(f)} components for a state of {len(y)} at t={t}")
    if not all(map(math.isfinite, f)):
        raise FieldEvaluationError(f"field returned non-finite value at t={t}")
    return f


_STEP_FLOOR = 16 * np.finfo(float).eps  # relative floor under which a step underflows


def _min_step(t: float) -> float:
    return _STEP_FLOOR * max(1.0, abs(t))


def _rms(xs) -> float:
    acc = 0.0
    for x in xs:
        acc += x * x
    return math.sqrt(acc / len(xs))


# The tableau entries by name.  `_dp_step` writes each stage sum out left to
# right (not with `sum()`, whose float sums are compensated from Python 3.12,
# so steps would depend on the Python version) and leaves out the zero
# weights of stage 2 in _DP_B and _DP_E.
_, _C2, _C3, _C4, _C5, _ = _DP_C
((), (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = _DP_A
_B1, _, _B3, _B4, _B5, _B6 = _DP_B
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP_E


def _dp_step(field, t, y, f, h, tol):
    """One Dormand-Prince trial step from (t, y) with f = field(t, y), all
    tuples of floats; each stage sum runs left to right over its tableau row.

    Returns (y_new, f_new, err, scale): the 5th-order state, the field
    there, the scaled RMS error norm (accept when <= 1) and the per-component
    error scale."""
    k1 = f
    k2 = _eval_field(field, t + _C2 * h, tuple([v + h * (_A21 * a) for v, a in zip(y, k1)]))
    k3 = _eval_field(field, t + _C3 * h, tuple([
        v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)]))
    k4 = _eval_field(field, t + _C4 * h, tuple([
        v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)]))
    k5 = _eval_field(field, t + _C5 * h, tuple([
        v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
        for v, a, b, c, d in zip(y, k1, k2, k3, k4)]))
    k6 = _eval_field(field, t + h, tuple([
        v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
        for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
    y_new = tuple([v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                   for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)])
    k7 = _eval_field(field, t + h, y_new)
    sc = tuple([tol * 1e-3 + tol * max(abs(v), abs(w)) for v, w in zip(y, y_new)])
    err = _rms([h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * q) / w
                for a, c, d, e, g, q, w in zip(k1, k3, k4, k5, k6, k7, sc)])
    return y_new, k7, err, sc


def _checked_gauge(gauge: Gauge) -> Gauge:
    def checked(t, y):
        try:
            g = gauge(t, y)
        except (ZeroDivisionError, OverflowError) as exc:  # a runaway state
            raise FieldEvaluationError(f"event gauge failed at t={t}: {exc}") from exc
        if not math.isfinite(g):
            raise FieldEvaluationError(f"event gauge returned non-finite value at t={t}")
        return g
    return checked


def _march(attempt, field, ts, ys, fs, t1, h, events, stop, breakpoints=()):
    """The adaptive stepping loop shared by both integrators.

    Extends the accepted nodes `ts`, `ys`, `fs` (field values) in place up to
    t1 or the first zero of `stop`, and returns one ascending list of zero
    times per gauge in `events`, then the stop gauge's list when it is given;
    zeros past the stop time are dropped.
    `attempt(t, y, f, h)` makes one trial step and returns what `_dp_step`
    does, with err None when the step must be halved.
    Steps are clipped to t1 and the next breakpoint; a step that would leave
    a sliver shorter than the step floor before t1 ends at t1.
    """
    gauges = [_checked_gauge(g) for g in events]
    if stop is not None:
        gauges.append(_checked_gauge(stop))
    t, y, f = ts[-1], ys[-1], fs[-1]
    # per gauge: its last nonzero value at a node (0.0 before the first) and
    # the first node of the run of exact zeros since then, if any
    g_last = [g(t, y) for g in gauges]
    zero_run: list[float | None] = [None for _ in gauges]
    times: list[list[float]] = [[] for _ in gauges]
    steps = 0
    while t < t1:
        steps += 1
        if steps > _MAX_STEPS:
            raise DivergenceError("step budget exhausted", time=t, state=y)
        h = min(h, t1 - t)
        floor = _min_step(t)
        for bp in breakpoints:
            if t < bp - floor and t + h > bp:
                h = bp - t
                break
        if 0.0 < t1 - (t + h) < _min_step(t + h):
            h = t1 - t
        if h < floor:
            raise DivergenceError("step size underflow", time=t, state=y)

        y_new, f_new, err, _ = attempt(t, y, f, h)
        if err is None or err > 1.0:
            h *= 0.5 if err is None else max(0.2, 0.9 * err ** (-0.2))
            continue

        t_new = t + h
        ts.append(t_new)
        ys.append(y_new)
        fs.append(f_new)
        seg_eval = lambda tt: _lag_state(tt, t, t_new, y, y_new, f, f_new).value
        for i, g in enumerate(gauges):
            g0, g1, z = g_last[i], g(t_new, y_new), zero_run[i]
            if g1 == 0.0:
                zero_run[i] = t_new if z is None else z
            else:  # a sign change across a run of zeros is one zero, at its first node
                if g0 != 0.0 and (g0 < 0) != (g1 < 0):
                    # the Hermite cell reads the node states bitwise at its ends,
                    # so find_root sees g0 and g1 there again
                    times[i].append(z if z is not None else find_root(
                        lambda s: g(s, seg_eval(s)), (t, t_new),
                        _EVENT_TIME_TOL * max(1.0, abs(t_new))))
                g_last[i], zero_run[i] = g1, None
        if stop is not None and times[-1]:
            # truncate the run at the stop time: at a node, or inside the last step
            te = times[-1][0]
            for zeros in times[:-1]:
                zeros[:] = [z for z in zeros if z <= te + _EVENT_TIME_TOL]
            j = bisect.bisect_left(ts, te)
            del ts[j + 1:], ys[j + 1:], fs[j + 1:]
            if ts[j] != te:
                ts[j], ys[j] = te, seg_eval(te)
                fs[j] = _eval_field(field, te, ys[j])
            break
        t, y, f = t_new, ys[-1], fs[-1]
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** (-0.2)))
    return times


def integrate_ode(
    field,
    state0,
    span,
    tol: float = 1e-8,
    events: Sequence[Gauge] = (),
    stop: Gauge | None = None,
):
    """Integrate y' = field(t, y) over span with adaptive 5(4) stepping.

    `field` and the gauges receive the state y as a tuple of floats; the
    field returns any sequence of floats of the same length.  A ZeroDivision
    or Overflow error it raises, or a non-finite value it returns, is a
    FieldEvaluationError.

    Returns (trajectory, times): the dense output, and one ascending list of
    refined sign-change times per gauge g(t, y) in `events`, followed by the
    list of `stop` when it is given.  The first sign change of `stop`
    truncates the trajectory there.
    """
    t0, t1 = _check_span(span, tol)
    y = _floats(state0)
    f = _eval_field(field, t0, y)

    # initial step from the scaled size of y and f
    sc = [tol * 1e-3 + tol * abs(v) for v in y]
    d0 = _rms([v / w for v, w in zip(y, sc)])
    d1 = _rms([v / w for v, w in zip(f, sc)])
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6

    attempt = lambda t, y, f, h: _dp_step(field, t, y, f, h, tol)
    ts, ys, fs = [t0], [y], [f]
    times = _march(attempt, field, ts, ys, fs, t1, min(h, t1 - t0), events, stop)
    return Trajectory(np.array(ts), np.array(ys), np.array(fs)), times


def _node_lag(ts, ys, fs, s: float) -> Lag:
    """y(s) and y'(s) on node lists with ts[0] < s: the cell that ends at s,
    so a run boundary, whose time the lists hold twice, reads the run that
    ends there; past the last node, that node."""
    i = bisect.bisect_left(ts, s)
    if i == len(ts):
        return Lag(ys[-1], fs[-1])
    return _lag_state(s, ts[i - 1], ts[i], ys[i - 1], ys[i], fs[i - 1], fs[i])


class DdeTrajectory(Trajectory):
    """Dense output of a delay integration and of the runs that continued
    it: the history at or before t_start, then the accepted nodes of every
    run.  A continued run's first node repeats its prior's last one with
    its own field value.  `nodes` holds the float lists (ts, ys, fs) a
    continued run copies and extends; `starts` the index of each run's
    first node.  A continued run passes its `prior`, whose node arrays it
    extends by its own nodes, so a shot converts each node once."""

    def __init__(self, t_start, history, history_deriv, nodes, starts, prior=None):
        kept = 0 if prior is None else len(prior.ts)
        arrays = [np.array(v[kept:]) for v in nodes]
        if prior is not None:
            arrays = [np.concatenate(pair) for pair in zip((prior.ts, prior.ys, prior.fs), arrays)]
        super().__init__(*arrays)
        self.t_start = t_start
        self.history = history
        self.history_deriv = history_deriv
        self.nodes = nodes
        self.starts = starts

    @property
    def segments(self) -> list[Trajectory]:
        """One Trajectory view per run."""
        ends = self.starts[1:] + [len(self.ts)]
        return [Trajectory(self.ts[a:b], self.ys[a:b], self.fs[a:b])
                for a, b in zip(self.starts, ends)]

    def __call__(self, t: float) -> np.ndarray:
        if t <= self.t_start:
            return np.atleast_1d(np.asarray(self.history(t), dtype=float))
        return super().__call__(t)

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """`__call__` at every point of ts: one `Trajectory.sample`, and the
        history at or before t_start."""
        t = np.asarray(ts, dtype=float)
        out = super().sample(t)
        for n in np.flatnonzero(t <= self.t_start):
            out[n] = self(t[n])
        return out

    def derivative(self, t: float) -> np.ndarray:
        """y'(t) by the rule of the run's lag reads."""
        if t <= self.t_start:
            return np.atleast_1d(np.asarray(self.history_deriv(t), dtype=float))
        return np.array(_node_lag(*self.nodes, t).slope)


def integrate_dde(
    field,
    tau: float,
    history,
    span,
    tol: float = 1e-8,
    events: Sequence[Gauge] = (),
    *,
    history_deriv,
    prior: DdeTrajectory | None = None,
):
    """Method-of-steps integration of y'(t) = field(t, y(t), lag) with a
    single constant lag tau.

    `field` receives the state y(t) and `lag = Lag(value, slope)` holding
    y(t - tau) and its derivative, each a tuple of floats; the lag is read
    from `history` and `history_deriv` at or below the first run's start,
    else from the accepted nodes, and the field returns any sequence of floats, as for
    `integrate_ode`.  Pass `prior` to continue a previous delay integration
    from its end: `history` and `history_deriv` are then prior's, and the
    result is one dense output over prior's nodes and the new ones.
    Returns (trajectory, times), times one list per gauge in `events`.

    Steps are aligned to the first few multiples of the lag, where the
    propagated kinks live, save those within the step floor of a step's
    start; the first trial step is 0.1*tau, at least that floor.  Steps
    longer than the lag are allowed: the lag then reaches into the step
    being built and is resolved by fixed-point sweeps on the provisional
    Hermite interpolant (the sweep contracts at rate O(h * d(field)/d(lag))),
    so tiny lags do not force tiny steps.
    """
    if not tau > 0:
        raise PreconditionError(f"lag must be positive, got {tau}")
    t0, t1 = _check_span(span, tol)

    if prior is not None:
        if t0 != prior.t_end:
            raise PreconditionError("a continued delay run must start where prior ends")
        t_start, history, history_deriv = prior.t_start, prior.history, prior.history_deriv
        ts, ys, fs = map(list, prior.nodes)
        starts = prior.starts + [len(ts)]
        base = ts[prior.starts[-1]]
        y0 = ys[-1]
    else:
        t_start = base = t0
        ts, ys, fs, starts = [], [], [], [0]
        y0 = _floats(history(t0))
    ts.append(t0)
    ys.append(y0)

    def lag_at(s: float) -> Lag:
        """y(s) and y'(s) from the history or the nodes accepted so far."""
        if s <= t_start:
            return Lag(_floats(history(s)), _floats(history_deriv(s)))
        return _node_lag(ts, ys, fs, s)

    def committed_field(t: float, y: tuple):
        return field(t, y, lag_at(t - tau))

    fs.append(_eval_field(committed_field, t0, y0))

    # steps align to lag multiples counted from this run's start, or from the
    # previous run's start when continuing one (not from the first run's: the
    # step sequence, and so the result, depends on that base); after a few
    # multiples the solution is smooth enough for free stepping
    k0 = max(0, math.ceil((t0 - base) / tau - 1e-9))
    breakpoints = [base + k * tau for k in range(k0, k0 + 8)
                   if base + k * tau > t0 + _min_step(t0)]

    def attempt(t, y, f, h):
        t_new = t + h
        overlap = (t_new - tau) > t - 1e-14
        if not overlap:
            return _dp_step(committed_field, t, y, f, h, tol)

        # the lag reaches into the step: sweep on the provisional interpolant,
        # starting from an Euler predictor
        y_prov, f_prov = tuple([v + h * d for v, d in zip(y, f)]), f

        def step_field(tt: float, yy: tuple):
            s = tt - tau
            lag = lag_at(s) if s <= t + 1e-14 else _lag_state(s, t, t_new, y, y_prov, f, f_prov)
            return field(tt, yy, lag)

        for _ in range(8):
            y_new, f_new, err, sc = _dp_step(step_field, t, y, f, h, tol)
            drift = max([abs(a - b) / w for a, b, w in zip(y_new, y_prov, sc)])
            y_prov, f_prov = y_new, f_new
            if drift < 0.05:
                return y_new, f_new, err, sc
        return y_new, f_new, None, sc

    times = _march(attempt, committed_field, ts, ys, fs, t1,
                   min(max(0.1 * tau, _min_step(t0)), t1 - t0), events, None, breakpoints)
    return DdeTrajectory(t_start, history, history_deriv, (ts, ys, fs), starts, prior), times


def find_root(f, bracket, tol: float = 1e-12) -> float:
    """Bisection root of a continuous sign-changing f on bracket, to a
    bracket of width tol or until its midpoint no longer splits it."""
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise PreconditionError("bracket must be increasing")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0) == (fb < 0):
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa:.3g}, {fb:.3g}")
    for _ in range(400):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        if not a < m < b:  # a and b are adjacent floats: the bracket cannot split
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def lower_edge(pred, hi: float, tol: float) -> float:
    """Lower edge of {t in (0, hi] : pred(t)} for a predicate that holds at
    hi and stays true above its edge: halve down from hi/2 while pred holds,
    the last point where it held becoming the top (a value below 1e-6*hi is
    returned as the edge), then bisect to a bracket of width tol, or until
    its midpoint no longer splits it, and return that midpoint."""
    floor, lo = 1e-6 * hi, hi / 2.0
    while pred(lo):
        hi, lo = lo, lo / 2.0
        if lo < floor:
            return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 64  # uniform scan that seeds the golden-section search


def maximize_scalar(f, interval, tol: float = 1e-9):
    """Golden-section maximisation seeded by a uniform scan.

    Returns (argmax, max).  The returned max is never below any scanned
    value; argmax is within tol of a local maximiser of the refined bracket.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PreconditionError("interval must be increasing")
    xs = np.linspace(a, b, _SCAN_POINTS).tolist()  # Python floats: overflow gives inf silently
    vals = [f(x) for x in xs]
    i_best = int(np.argmax(vals))
    best_x, best_v = float(xs[i_best]), vals[i_best]

    lo = xs[max(i_best - 1, 0)]
    hi = xs[min(i_best + 1, _SCAN_POINTS - 1)]
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(400):
        if hi - lo <= tol:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
            if f2 > best_v:
                best_x, best_v = x2, f2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
            if f1 > best_v:
                best_x, best_v = x1, f1
    return best_x, best_v


_QUAD_BLOCK = 64  # integrals started together: bounds the scan and the first levels
_QUAD_OPEN = 1 << 15  # open intervals refined together: bounds the arrays of a level
_QUAD_DEPTH = 50  # refinement levels below the 8 panels before an integral fails
_QUAD_BUDGET = 400_000  # integrand evaluations of one integral's refinement


def quad_adaptive(f, lo, hi, tol: float = 1e-10) -> np.ndarray:
    """Adaptive Simpson quadrature of m integrals at once: integral k of
    f(x, k) over the finite domain [lo[k], hi[k]], with
    |error| <= tol*(1 + |value|) each.

    f gets arrays of abscissae x and integral indices k and returns the
    integrand values there.  A coarse 17-point scan fixes each integral's
    absolute tolerance, shared by 8 panels; every refinement level is one
    call of f over the open intervals of a block of integrals, and a block
    whose open intervals outgrow _QUAD_OPEN refines its halves in turn, so
    memory stays bounded.  Each sum accumulates in level order on its own
    index, so a value does not depend on which other integrals share the
    call."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise PreconditionError("quadrature needs matching 1-d arrays of domain ends")
    if not np.all((hi > lo) & np.isfinite(lo) & np.isfinite(hi)):
        raise PreconditionError("quadrature needs a finite, non-empty domain")
    out = np.empty(len(lo))
    for start in range(0, len(lo), _QUAD_BLOCK):
        block = slice(start, start + _QUAD_BLOCK)
        out[block] = _simpson_block(f, lo[block], hi[block], start, tol)
    return out


def _finite_values(f, x, k) -> np.ndarray:
    fx = np.asarray(f(x, k), dtype=float)
    if not np.isfinite(fx).all():
        bad = np.flatnonzero(~np.isfinite(fx))[0]
        raise QuadratureError(
            f"integrand of integral {k[bad]} is {fx[bad]} at x = {float(x[bad])!r}")
    return fx


def _simpson_block(f, lo, hi, first, tol):
    m = len(lo)

    # rough magnitude from a coarse scan fixes each absolute budget
    xs = np.linspace(lo, hi, 17, axis=1)
    fx = _finite_values(f, xs.ravel(), first + np.repeat(np.arange(m), 17)).reshape(m, 17)
    tol_abs = tol * (1.0 + np.abs(np.trapezoid(fx, xs, axis=1))) / 8.0

    # the 8 panels, as intervals (a, mid, b) with their Simpson estimates
    panels = np.linspace(lo, hi, 9, axis=1)
    a, b = panels[:, :-1].ravel(), panels[:, 1:].ravel()
    mid = 0.5 * (a + b)
    kid = np.repeat(np.arange(m), 8)
    n = len(kid)
    fab = _finite_values(f, np.concatenate((a, mid, b)), first + np.tile(kid, 3))
    fa, fm, fb = fab[:n], fab[n:2 * n], fab[2 * n:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    # each level refines one block of open intervals; a block of more than
    # _QUAD_OPEN intervals of several integrals splits in two by integral,
    # the low half first, and each half keeps its integrals' interval order
    total = np.zeros(m)
    used = np.zeros(m, dtype=np.int64)
    pending = [(0, [a, mid, b, fa, fm, fb, whole, kid])]
    while pending:
        level, state = pending.pop()
        kid = state[-1]
        if len(kid) > _QUAD_OPEN and kid.min() < kid.max():
            low = kid < (kid.min() + kid.max() + 1) // 2
            pending += [(level, [x[~low] for x in state]), (level, [x[low] for x in state])]
        elif level == _QUAD_DEPTH:
            raise QuadratureError("refinement depth exhausted")
        else:
            used += 2 * np.bincount(kid, minlength=m)
            if np.any(used >= _QUAD_BUDGET):
                raise QuadratureError("evaluation budget exhausted")
            state = _simpson_level(f, state, 15.0 * tol_abs * 0.5 ** level, total, first)
            if state is not None:
                pending.append((level + 1, state))
    return total


def _simpson_level(f, state, accept, total, first):
    """One refinement level of the open intervals state = [a, mid, b, fa,
    fm, fb, whole, kid]: adds every accepted estimate into total[kid] and
    returns the halves of the rest, left halves first, or None."""
    a, mid, b, fa, fm, fb, whole, kid = state
    n = len(kid)
    lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
    flr = _finite_values(f, np.concatenate((lm, rm)), first + np.concatenate((kid, kid)))
    flm, frm = flr[:n], flr[n:]
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    done = np.abs(delta) <= accept[kid]
    np.add.at(total, kid[done], left[done] + right[done] + delta[done] / 15.0)
    keep = ~done
    if not keep.any():
        return None
    return [np.concatenate((left_half[keep], right_half[keep])) for left_half, right_half in
            ((a, mid), (lm, rm), (mid, b), (fa, fm), (flm, frm), (fm, fb), (left, right),
             (kid, kid))]


def cubic_real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, ascending.

    Closed form (trigonometric/Cardano); degenerates gracefully to the
    quadratic and linear cases.
    """
    if abs(c3) < 1e-300:
        if abs(c2) < 1e-300:
            if abs(c1) < 1e-300:
                return []
            return [-c0 / c1]
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            return []
        r = math.sqrt(disc)
        return sorted([(-c1 - r) / (2 * c2), (-c1 + r) / (2 * c2)])

    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        v = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        return [u + v + shift]
    if p == 0.0:  # triple root
        return [shift]
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
    theta = math.acos(arg) / 3.0
    return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift for k in range(3))
