"""Shared numerical engine.

Explicit Dormand-Prince 5(4) stepping with cubic-Hermite dense output and
event location, delay integration by the method of steps, bracketing root
solving, lower-edge search, scalar maximisation, and adaptive quadrature on
finite or semi-infinite domains.  Everything here is deterministic: fixed
inputs give bit-identical outputs.
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
    "Event",
    "EventSpec",
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

_EVENT_TIME_TOL = 1e-12  # absolute bisection tolerance for event times
_MAX_STEPS = 1_000_000  # step attempts of one integration before it counts as divergent


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

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class Event:
    kind: str  # "level-crossing" | "derivative-sign-change"
    time: float
    direction: str  # "up" | "down"


@dataclass(frozen=True)
class EventSpec:
    """What to watch for during integration.

    kind "level-crossing" fires when the first component crosses `level`;
    kind "derivative-sign-change" fires when the first field component
    changes sign (a local extremum of that component).  `direction` filters
    to "up" (- to +), "down", or "any".  A terminal event stops the
    integration at the refined event time.
    """

    kind: str
    level: float = 0.0
    direction: str = "any"
    terminal: bool = False
    fn: Callable[[float, np.ndarray], float] | None = None  # custom scalar g(t, y)

    def gauge(self, field_fn) -> Callable[[float, np.ndarray], float]:
        if self.fn is not None:
            return self.fn
        if self.kind == "level-crossing":
            lvl = self.level
            return lambda t, y: y[0] - lvl
        if self.kind == "derivative-sign-change":
            return lambda t, y: field_fn(t, y)[0]
        raise PreconditionError(f"unknown event kind {self.kind!r}")


class Lag(NamedTuple):
    """Lagged state y(t - tau) and its derivative."""

    value: np.ndarray
    slope: np.ndarray


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


def _hermite_deriv(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    th = (t - t0) / h
    th2 = th * th
    return (
        (6 * th2 - 6 * th) * (y0 - y1) / h
        + (3 * th2 - 4 * th + 1) * f0
        + (3 * th2 - 2 * th) * f1
    )


class Trajectory:
    """Dense output of one integration: exact at accepted nodes, cubic
    Hermite in between."""

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

    def _segment(self, t: float) -> int:
        i = int(np.searchsorted(self.ts, t, side="right") - 1)
        return min(max(i, 0), len(self.ts) - 2)

    def __call__(self, t: float) -> np.ndarray:
        if t <= self.ts[0]:
            return self.ys[0].copy()
        if t >= self.ts[-1]:
            return self.ys[-1].copy()
        i = self._segment(t)
        if t == self.ts[i]:
            return self.ys[i].copy()
        return _hermite(t, self.ts[i], self.ts[i + 1], self.ys[i], self.ys[i + 1],
                        self.fs[i], self.fs[i + 1])

    def derivative(self, t: float) -> np.ndarray:
        i = self._segment(min(max(t, self.ts[0]), self.ts[-1]))
        return _hermite_deriv(min(max(t, self.ts[0]), self.ts[-1]),
                              self.ts[i], self.ts[i + 1], self.ys[i], self.ys[i + 1],
                              self.fs[i], self.fs[i + 1])

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """`__call__` at every point of ts, as one array operation with the
        same float operations, so each row equals the scalar read bitwise."""
        t = np.asarray(ts, dtype=float)
        i = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[i], self.ts[i + 1]
        out = _hermite(t[:, None], t0[:, None], t1[:, None], self.ys[i], self.ys[i + 1],
                       self.fs[i], self.fs[i + 1])
        # __call__'s overrides, lowest precedence first
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


def _eval_field(field_fn, t, y):
    f = np.asarray(field_fn(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise FieldEvaluationError(f"field returned non-finite value at t={t}")
    return f


_STEP_FLOOR = 16 * np.finfo(float).eps  # relative floor under which a step underflows


def _min_step(t: float) -> float:
    return _STEP_FLOOR * max(1.0, abs(t))


def _dp_step(field, t, y, f, h, tol):
    """One Dormand-Prince trial step from (t, y) with f = field(t, y).

    Returns (y_new, f_new, err, scale): the 5th-order state, the field
    there, the scaled RMS error norm (accept when <= 1) and the per-component
    error scale."""
    k = [f]
    for i in range(1, 6):
        yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
        k.append(_eval_field(field, t + _DP_C[i] * h, yi))
    y_new = y + h * sum(b * k[j] for j, b in enumerate(_DP_B))
    f_new = _eval_field(field, t + h, y_new)
    k.append(f_new)
    err_vec = h * sum(e * k[j] for j, e in enumerate(_DP_E))
    sc = tol * 1e-3 + tol * np.maximum(np.abs(y), np.abs(y_new))
    return y_new, f_new, float(np.sqrt(np.mean((err_vec / sc) ** 2))), sc


def _refine_event(gauge, traj_eval, lo, hi, glo, ghi):
    """Bisect a sign change of gauge(t, y(t)) down to _EVENT_TIME_TOL."""
    for _ in range(200):
        if hi - lo <= _EVENT_TIME_TOL * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        gm = gauge(mid, traj_eval(mid))
        if gm == 0.0:
            return mid
        if (glo < 0) != (gm < 0):
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def _scan_events(events, gauges, g_prev, found, seg_eval, t, t_new, y_new):
    """Record the events of the accepted step [t, t_new] in `found`.

    Returns the earliest terminal event time, with `found` trimmed to it,
    or None."""
    first_terminal: float | None = None
    for idx, (ev, g) in enumerate(zip(events, gauges)):
        g0 = g_prev[idx]
        g1 = g_prev[idx] = g(t_new, y_new)
        if g0 == 0.0 or (g0 < 0) == (g1 < 0):
            continue
        direction = "up" if g0 < 0 else "down"
        if ev.direction != "any" and ev.direction != direction:
            continue
        te = _refine_event(g, seg_eval, t, t_new, g0, g1)
        found.append(Event(ev.kind, te, direction))
        if ev.terminal:
            first_terminal = te if first_terminal is None else min(first_terminal, te)
    if first_terminal is not None:
        found[:] = [e for e in found if e.time <= first_terminal + _EVENT_TIME_TOL]
    return first_terminal


def _march(attempt, field, ts, ys, fs, t1, h, events, breakpoints=()):
    """The adaptive stepping loop shared by both integrators.

    Extends the accepted nodes `ts`, `ys`, `fs` (field values) in place up to
    t1 or a terminal event, and returns the time-sorted events.
    `attempt(t, y, f, h)` makes one trial step and returns what `_dp_step`
    does, with err None when the step must be halved.
    Steps are clipped to t1 and the next breakpoint; a step that would leave
    a sliver shorter than the step floor before t1 ends at t1.
    """
    checked = lambda tt, yy: _eval_field(field, tt, yy)
    gauges = [ev.gauge(checked) for ev in events]
    t, y, f = ts[-1], ys[-1], fs[-1]
    g_prev = [g(t, y) for g in gauges]
    found: list[Event] = []
    steps = 0
    while t < t1:
        steps += 1
        if steps > _MAX_STEPS:
            raise DivergenceError("step budget exhausted", time=t, state=y.copy())
        h = min(h, t1 - t)
        for bp in breakpoints:
            if t < bp - 1e-14 and t + h > bp:
                h = bp - t
                break
        if 0.0 < t1 - (t + h) < _min_step(t + h):
            h = t1 - t
        if h < _min_step(t):
            raise DivergenceError("step size underflow", time=t, state=y.copy())

        y_new, f_new, err, _ = attempt(t, y, f, h)
        if err is None or err > 1.0:
            h *= 0.5 if err is None else max(0.2, 0.9 * err ** (-0.2))
            continue

        t_new = t + h
        ts.append(t_new)
        ys.append(y_new.copy())
        fs.append(f_new.copy())
        seg_eval = lambda tt: _hermite(tt, t, t_new, y, y_new, f, f_new)
        te = _scan_events(events, gauges, g_prev, found, seg_eval, t, t_new, y_new)
        if te is not None:
            # truncate the step at the earliest terminal event
            ts[-1] = te
            ys[-1] = seg_eval(te)
            fs[-1] = checked(te, ys[-1])
            break
        t, y, f = t_new, ys[-1], fs[-1]
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** (-0.2)))
    return sorted(found, key=lambda e: e.time)


def integrate_ode(
    field,
    state0,
    span,
    tol: float = 1e-8,
    events: Sequence[EventSpec] = (),
):
    """Integrate y' = field(t, y) over span with adaptive 5(4) stepping.

    Returns (trajectory, events) where trajectory is dense output and events
    are the refined, time-sorted crossings requested by `events`.  A terminal
    event truncates the trajectory at the event time.
    """
    t0, t1 = _check_span(span, tol)
    y = np.atleast_1d(np.asarray(state0, dtype=float)).copy()
    f = _eval_field(field, t0, y)

    # initial step from the scaled size of y and f
    sc = tol * 1e-3 + tol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6

    attempt = lambda t, y, f, h: _dp_step(field, t, y, f, h, tol)
    ts, ys, fs = [t0], [y], [f]
    found = _march(attempt, field, ts, ys, fs, t1, min(h, t1 - t0), events)
    return Trajectory(np.array(ts), np.array(ys), np.array(fs)), found


class DdeTrajectory:
    """Dense output of a delay integration: the history to the left of the
    first start time, then one Trajectory per run (a continued run adds one
    segment)."""

    def __init__(self, t_start, history, history_deriv, segments):
        self.t_start = t_start
        self.history = history
        self.history_deriv = history_deriv
        self.segments: list[Trajectory] = segments
        self.seg_ends = [seg.t_end for seg in segments]

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    def _locate(self, t: float) -> Trajectory:
        """The first segment ending at or after t, else the last."""
        return self.segments[min(bisect.bisect_left(self.seg_ends, t), len(self.segments) - 1)]

    def __call__(self, t: float) -> np.ndarray:
        if t <= self.t_start:
            return np.atleast_1d(np.asarray(self.history(t), dtype=float))
        return self._locate(t)(t)

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """`__call__` at every point of ts: one `Trajectory.sample` per
        segment, picked by `_locate`'s rule, and the history at or before
        t_start."""
        t = np.asarray(ts, dtype=float)
        k = np.minimum(np.searchsorted(self.seg_ends, t, side="left"), len(self.segments) - 1)
        k[t <= self.t_start] = -1
        out = np.empty((len(t), self.segments[0].ys.shape[1]))
        for j, seg in enumerate(self.segments):
            sel = k == j
            if sel.any():
                out[sel] = seg.sample(t[sel])
        for n in np.flatnonzero(k < 0):
            out[n] = self(t[n])
        return out

    def derivative(self, t: float) -> np.ndarray:
        if t <= self.t_start:
            return np.atleast_1d(np.asarray(self.history_deriv(t), dtype=float))
        return self._locate(t).derivative(t)


def integrate_dde(
    field,
    tau: float,
    history,
    span,
    tol: float = 1e-8,
    events: Sequence[EventSpec] = (),
    *,
    history_deriv,
    prior: DdeTrajectory | None = None,
):
    """Method-of-steps integration of y'(t) = field(t, y(t), lag) with a
    single constant lag tau.

    `field` receives `lag = Lag(value, slope)` holding y(t - tau) and its
    derivative read from the stored dense output (or from `history` and
    `history_deriv` for t - tau below the start).  Pass `prior` to continue
    a previous delay integration from its end: `history` and
    `history_deriv` are then ignored and the result is one flat dense
    output holding prior's history and segments plus the new one, so
    lookups never recurse through earlier runs.

    Steps are aligned to the first few multiples of the lag, where the
    propagated kinks live.  Steps longer than the lag are allowed: the lag
    then reaches into the step being built and is resolved by fixed-point
    sweeps on the provisional Hermite interpolant (the sweep contracts at
    rate O(h * d(field)/d(lag))), so tiny lags do not force tiny steps.
    """
    if not tau > 0:
        raise PreconditionError(f"lag must be positive, got {tau}")
    t0, t1 = _check_span(span, tol)

    if prior is not None:
        if t0 != prior.t_end:
            raise PreconditionError("a continued delay run must start where prior ends")
        hist, hist_d = prior, prior.derivative
    else:
        hist = lambda t: np.atleast_1d(np.asarray(history(t), dtype=float))
        hist_d = lambda t: np.atleast_1d(np.asarray(history_deriv(t), dtype=float))

    ts = [t0]
    ys = [hist(t0).astype(float).copy()]

    def lag_at(s: float) -> Lag:
        """y(s) and y'(s) from the history or the nodes accepted so far."""
        if s <= t0:
            return Lag(hist(s), hist_d(s))
        if len(ts) == 1 or s >= ts[-1]:
            return Lag(ys[-1].copy(), fs[-1].copy())
        i = bisect.bisect_right(ts, s) - 1  # ts[0] < s < ts[-1]: an interior node
        seg = (s, ts[i], ts[i + 1], ys[i], ys[i + 1], fs[i], fs[i + 1])
        return Lag(_hermite(*seg), _hermite_deriv(*seg))

    def committed_field(t: float, y: np.ndarray) -> np.ndarray:
        return np.asarray(field(t, y, lag_at(t - tau)), dtype=float)

    fs = [_eval_field(committed_field, t0, ys[0])]

    # steps align to lag multiples counted from this run's start, or from the
    # previous run's start when continuing one (not from the first run's: the
    # step sequence, and so the result, depends on that base); after a few
    # multiples the solution is smooth enough for free stepping
    base = prior.segments[-1].t0 if prior is not None else t0
    k0 = max(0, math.ceil((t0 - base) / tau - 1e-9))
    breakpoints = [base + k * tau for k in range(k0, k0 + 8) if base + k * tau > t0 + 1e-14]

    def attempt(t, y, f, h):
        t_new = t + h
        overlap = (t_new - tau) > t - 1e-14
        if not overlap:
            return _dp_step(committed_field, t, y, f, h, tol)

        # the lag reaches into the step: sweep on the provisional interpolant,
        # starting from an Euler predictor
        y_prov, f_prov = y + h * f, f.copy()

        def step_field(tt: float, yy: np.ndarray) -> np.ndarray:
            s = tt - tau
            if s <= t + 1e-14:
                lag = lag_at(s)
            else:
                lag = Lag(_hermite(s, t, t_new, y, y_prov, f, f_prov),
                          _hermite_deriv(s, t, t_new, y, y_prov, f, f_prov))
            return np.asarray(field(tt, yy, lag), dtype=float)

        for _ in range(8):
            y_new, f_new, err, sc = _dp_step(step_field, t, y, f, h, tol)
            drift = float(np.max(np.abs(y_new - y_prov) / sc))
            y_prov, f_prov = y_new, f_new
            if drift < 0.05:
                return y_new, f_new, err, sc
        return y_new, f_new, None, sc

    found = _march(attempt, committed_field, ts, ys, fs, t1, min(0.1 * tau, t1 - t0),
                   events, breakpoints)
    traj = Trajectory(np.array(ts), np.array(ys), np.array(fs))
    if prior is not None:
        return DdeTrajectory(prior.t_start, prior.history, prior.history_deriv,
                             prior.segments + [traj]), found
    return DdeTrajectory(t0, hist, hist_d, [traj]), found


def find_root(f, bracket, tol: float = 1e-12) -> float:
    """Bisection root of a continuous sign-changing f on bracket."""
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
    hi and stays true above its edge: halve down from hi/2 while pred holds
    (a value below 1e-6*hi is returned as the edge), then bisect to a
    bracket of width tol and return its midpoint."""
    lo = hi / 2.0
    while pred(lo):
        lo /= 2.0
        if lo < 1e-6 * hi:
            return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(f, interval, tol: float = 1e-9, scan_points: int = 64):
    """Golden-section maximisation seeded by a uniform scan.

    Returns (argmax, max).  The returned max is never below any scanned
    value; argmax is within tol of a local maximiser of the refined bracket.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PreconditionError("interval must be increasing")
    xs = np.linspace(a, b, scan_points).tolist()  # Python floats: overflow gives inf silently
    vals = [f(x) for x in xs]
    i_best = int(np.argmax(vals))
    best_x, best_v = float(xs[i_best]), vals[i_best]

    lo = xs[max(i_best - 1, 0)]
    hi = xs[min(i_best + 1, scan_points - 1)]
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


def _adaptive_simpson(f, a, b, tol_abs, budget):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, fa, 0.5 * (a + b), fm, b, fb, whole, tol_abs, 50, budget)


def _simpson_rec(f, a, fa, m, fm, b, fb, whole, tol_abs, depth, budget):
    if depth <= 0:
        raise QuadratureError("refinement depth exhausted")
    budget[0] -= 2
    if budget[0] <= 0:
        raise QuadratureError("evaluation budget exhausted")
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol_abs:
        return left + right + delta / 15.0
    return (
        _simpson_rec(f, a, fa, lm, flm, m, fm, left, tol_abs / 2, depth - 1, budget)
        + _simpson_rec(f, m, fm, rm, frm, b, fb, right, tol_abs / 2, depth - 1, budget)
    )


def quad_adaptive(f, domain, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature over a finite domain with
    |error| <= tol*(1 + |value|)."""
    a, b = float(domain[0]), float(domain[1])
    if not (b > a and math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError("quadrature needs a finite, non-empty domain")

    # rough magnitude from a coarse scan fixes the absolute budget
    xs = np.linspace(a, b, 17)
    rough = float(np.trapezoid([f(x) for x in xs], xs))
    tol_abs = tol * (1.0 + abs(rough))

    budget = [400_000]
    panels = np.linspace(a, b, 9)
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        total += _adaptive_simpson(f, lo, hi, tol_abs / 8.0, budget)
    return total


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
