"""Discrete-delay food-limited model: the infinite-speed limit profile, its
finite-speed (slow-manifold) deformation, the closed-form overshoot lower
bound and its parameter region, analytic envelope checks around an anchor
level, and slow-oscillation classification.

The limit kinetics is the scalar delay equation

    phi'(t) = phi(t) * (1 - phi(t - tau)) / (1 + gamma * phi(t - tau)),

whose connection from 0 to 1 is unique up to translation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    FieldEvaluationError,
    PreconditionError,
    StiffShootingError,
    UnsupportedError,
)
from .models import GrowthModel
from .numerics import find_root, integrate_dde, lower_edge
from .profiles import (
    EPS_MAX,
    OSCILLATING,
    OVERSHOOT_EPS,
    Profile,
    RegionCurve,
    build_profile,
    classify_shape,
    crossings_of_one,
    significant_crossings,
)

__all__ = [
    "limit_profile",
    "finite_speed_profile",
    "overshoot_bound",
    "overshoot_region",
    "EnvelopeReport",
    "envelope_margins",
    "OscillationReport",
    "classify_oscillation",
]

_AMPLITUDE = 1e-6  # size of the launch history at t = 0
_TAU_MAX = math.log(sys.float_info.max)  # largest tau whose e^tau is a float


def _shoot(gamma: float, tau: float, eps: float, span_length: float,
           tol: float) -> Profile:
    """Connection from 0 to 1 of the delay kinetics at eps = 1/c^2 (eps = 0
    is the limit kinetics), by a chunked method-of-steps run from the
    history A*e^(lam*t) until the solution settles within cap_eps of 1 over
    a whole chunk; a run that exhausts the span is flagged
    "unresolved-tail".  lam is the slow root of eps*z^2 - z + 1 = 0, the
    growth rate of the kinetics linearised at 0 (1 at eps = 0)."""
    if not 0.0 <= eps <= EPS_MAX:
        raise PreconditionError(f"eps must lie in [0, {EPS_MAX}]")
    if not (0 <= gamma < math.inf and 0 < tau < math.inf):
        raise PreconditionError("need finite gamma >= 0 and tau > 0")
    if not span_length > 0:
        raise PreconditionError(f"span must be positive, got {span_length}")
    growth = GrowthModel.food_limited(gamma)
    lam = 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * eps))
    cap_eps = max(10.0 * tol, 1e-9)

    def history(t):
        return (_AMPLITUDE * math.exp(lam * t),)

    def history_deriv(t):
        return (lam * _AMPLITUDE * math.exp(lam * t),)

    if eps == 0.0:
        def field(t, y, lag):
            return (y[0] * growth.g(lag.value[0]),)
    else:
        def field(t, y, lag):
            g = growth.g(lag.value[0])
            gp = growth.g_prime(lag.value[0])
            denom = 1.0 - eps * g
            if denom < 0.5:
                raise FieldEvaluationError("slow-manifold slaving lost dominance")
            return ((y[0] * g + eps * y[0] * gp * lag.slope[0]) / denom,)

    chunk = max(5.0 * tau, 10.0)
    t_lo = 0.0
    composite = None
    crossings: list[float] = []
    captured = False
    try:
        while t_lo < span_length and not captured:
            t_hi = min(t_lo + chunk, span_length)
            composite, (level,) = integrate_dde(
                field, tau, history, (t_lo, t_hi), tol, [lambda t, y: y[0] - 1.0],
                history_deriv=history_deriv, prior=composite,
            )
            crossings += level
            probe = np.linspace(t_lo, composite.t_end, 257)
            captured = bool(np.max(np.abs(composite.sample(probe)[:, 0] - 1.0)) < cap_eps)
            t_lo = composite.t_end
    except (DivergenceError, FieldEvaluationError) as exc:
        if eps == 0.0:
            raise
        raise StiffShootingError(
            f"slow-manifold shooting failed at eps={eps}; "
            f"try smaller eps or tighter tol ({exc})") from exc

    t_end = composite.t_end
    dt = max(t_end / 20000.0, min(tau / 64.0, 0.05))
    ts = np.linspace(0.0, t_end, int(t_end / dt) + 1)
    return build_profile(
        ts, composite.sample(ts)[:, 0], crossings=crossings, h=tau,
        flags=() if captured else ("unresolved-tail",),
        amplitude=_AMPLITUDE,
        plus_window=(max(30.0 * cap_eps, 1e-8), 1e-3),
    )


def limit_profile(gamma: float, tau: float, span_length: float = 400.0,
                  tol: float = 1e-10) -> Profile:
    """Connection from 0 to 1 of the limit kinetics, launched from a small
    exponential history and integrated until capture at 1.

    The profile carries fitted decay exponents at both ends, refined
    level-1 crossing times, and the lag length h = tau for slow-oscillation
    spacing checks.  A run that exhausts the span is flagged
    "unresolved-tail".
    """
    return _shoot(gamma, tau, 0.0, span_length, tol)


def finite_speed_profile(gamma: float, tau: float, eps: float,
                         span_length: float = 400.0, tol: float = 1e-10) -> Profile:
    """Finite-speed wave profile of the discrete-delay model, eps = 1/c^2,
    by shooting on the slow manifold of the second-order delayed equation.

    Each derivative evaluation solves the first-order-in-eps slaving
    relation v*(1 - eps*G) = phi*G + eps*phi*G'*v_lag, which matches the
    exact profile equation through O(eps^2); the lagged slope v_lag is read
    from the stored dense output.  At eps = 0 this is the limit kinetics.
    """
    if eps == 0.0:
        return limit_profile(gamma, tau, span_length, tol)
    return _shoot(gamma, tau, eps, span_length, tol)


def overshoot_bound(gamma: float, tau: float) -> float:
    """Closed-form lower bound for the maximum of the limit profile:

        max over a in (0, 1] of
        a * exp(tau + (1-a)*tau/(1+gamma*a))
          * ((1+a*gamma)/(1+a*gamma*e^tau))^(1+1/gamma).

    A value above 1 certifies a non-monotone connection.  Exactly 1 at
    tau = 0.  In x = gamma*a, with s = e^-tau and k = 1 + 1/gamma, the
    derivative of the log maximand has the sign of the monic cubic

        Q(x) = (1+x)^2 (s+x) - tau*k*x*(s+x) + k*(s-1)*x*(1+x).

    Q(0) = s > 0 and its roots multiply to -s, so at most two are positive,
    one on each side of the local minimum of Q.  The maximum is taken at
    a = 1 or at the smaller positive root, found by bisection in log x (at
    large tau it lies far below 1e-300).  The maximand is evaluated in log
    space and in x, where a may underflow.  A gamma that is not finite and
    positive or whose 1/gamma overflows is rejected, and so is a tau whose
    e^tau overflows.
    """
    if not math.isfinite(gamma):
        raise PreconditionError(f"overshoot bound needs a finite gamma, got {gamma!r}")
    if not gamma > 0 or 1.0 / gamma == math.inf:
        raise UnsupportedError(f"overshoot bound needs gamma > 0 with a finite 1/gamma, "
                               f"got {gamma!r}")
    if not 0 <= tau <= _TAU_MAX:
        raise PreconditionError(f"tau must lie in [0, {_TAU_MAX:.6g}]")
    s, rise, growth = math.exp(-tau), -math.expm1(-tau), math.expm1(tau)
    k, log_gamma = 1.0 + 1.0 / gamma, math.log(gamma)
    c2 = 2.0 + s - k * (tau + rise)
    c1 = 1.0 + 2.0 * s - k * (tau * s + rise)

    def log_maximand(x: float) -> float:
        # log((1+x)/(1+x*e^tau)) as -log1p((e^tau - 1)*x/(1+x)), which cannot overflow
        return (math.log(x) - log_gamma + tau + (1.0 - x / gamma) * tau / (1.0 + x)
                - k * math.log1p(growth * (x / (1.0 + x))))

    def cubic(u: float) -> float:  # Q(e^u)
        x = math.exp(u)
        return ((x + c2) * x + c1) * x + s

    best = log_maximand(gamma)  # a = 1
    disc = c2 * c2 - 3.0 * c1  # of Q'(x) = 3x^2 + 2*c2*x + c1; inf when c2 is huge
    if disc < 0 or min(c1, c2) >= 0:  # Q' > 0 for x > 0, so Q > Q(0) > 0
        return math.exp(best)
    # the larger zero of Q', the local minimum of Q
    top = min(gamma, (math.sqrt(disc) - c2) / 3.0 if c2 < 0 else -c1 / (c2 + math.sqrt(disc)))
    # Q(lo) >= s/2, unless lo underflows and is clamped to the smallest float
    lo = max(s / (2.0 * (1.0 + abs(c2) + abs(c1))), math.ulp(0.0))
    if lo < top and cubic(math.log(lo)) > 0.0 > cubic(math.log(top)):
        best = max(best, log_maximand(math.exp(find_root(cubic, (math.log(lo), math.log(top)),
                                                         1e-14))))
    return math.exp(best)


def overshoot_region(gammas, tol: float = 1e-3) -> RegionCurve:
    """For each gamma, the smallest tau with overshoot bound above 1 (NaN
    when the bound stays at or below 1 at the top of the window), together
    with the edge tau_upper = (1+gamma)/e.  The window stops just below
    tau_upper, and at the largest tau the bound accepts."""
    gammas = np.asarray(list(gammas), dtype=float)
    lower = np.full(len(gammas), math.nan)
    upper = (1.0 + gammas) / math.e
    for i, g in enumerate(gammas):
        hi = min(float(upper[i]) * (1.0 - 1e-9), _TAU_MAX)

        def certified(tau: float) -> bool:
            return overshoot_bound(float(g), tau) > 1.0

        if certified(hi):
            lower[i] = lower_edge(certified, hi, tol)
    return RegionCurve(gamma=gammas, columns={"tau_lower": lower, "tau_upper": upper})


@dataclass(frozen=True)
class EnvelopeReport:
    anchor_time: float
    margin_lower_pre: float   # profile above the pre-anchor lower envelope
    margin_upper_pre: float   # profile below the pre-anchor upper envelope
    margin_lower_post: float  # profile above the post-anchor lower envelope
    passed: bool


def envelope_margins(gamma: float, tau: float, a: float, profile: Profile,
                     tol: float = 1e-6) -> EnvelopeReport:
    """Check the analytic envelopes around the anchor point where the rising
    profile equals `a` (anchor shifted to local time -tau):

      on [-tau, 0]:  a*exp((1-a)(t+tau)/(1+gamma*a)) <= u <= a*exp(t+tau)
      on [0, tau]:   u >= a*e^t*((1+a*gamma)/(1+a*gamma*e^t))^(1+1/gamma)
                          * exp((1-a)*tau/(1+gamma*a))

    Margins are evaluated at the profile's own sample nodes (plus the
    interpolated anchor), so interpolation error cannot masquerade as an
    envelope violation.  The post-anchor lower envelope at t = tau is the
    overshoot-bound maximand at this `a`.
    """
    if not 0.0 < a < 1.0:
        raise PreconditionError("anchor level must lie in (0, 1)")
    ts, vs = profile.ts, profile.values
    above = np.nonzero(vs >= a)[0]
    if len(above) == 0:
        raise PreconditionError("profile never reaches the anchor level")
    i = int(above[0])
    if i == 0:
        raise PreconditionError("profile starts above the anchor level")
    if np.any(np.diff(vs[: i + 1]) < -1e-12):
        raise PreconditionError("profile is not monotone before the anchor")
    t_anchor = ts[i - 1] + (a - vs[i - 1]) * profile.grid.dt / (vs[i] - vs[i - 1])
    if t_anchor + 2.0 * tau > ts[-1]:
        raise PreconditionError("profile too short past the anchor")

    denom = 1.0 + gamma * a
    expo = 1.0 + 1.0 / gamma
    boost = math.exp((1.0 - a) * tau / denom)

    def lower_pre(th):
        return a * np.exp((1.0 - a) * (th + tau) / denom)

    def upper_pre(th):
        return a * np.exp(th + tau)

    def lower_post(th):
        return (a * np.exp(th)
                * ((1.0 + a * gamma) / (1.0 + a * gamma * np.exp(th))) ** expo
                * boost)

    node_sel = (ts > t_anchor) & (ts <= t_anchor + 2.0 * tau)
    th_all = np.concatenate(([-tau], ts[node_sel] - t_anchor - tau))
    u_all = np.concatenate(([a], vs[node_sel]))

    pre = th_all <= 0.0
    post = th_all >= 0.0
    m_low_pre = float(np.min(u_all[pre] - lower_pre(th_all[pre])))
    m_up_pre = float(np.min(upper_pre(th_all[pre]) - u_all[pre]))
    m_low_post = float(np.min(u_all[post] - lower_post(th_all[post])))
    passed = min(m_low_pre, m_up_pre, m_low_post) >= -tol
    return EnvelopeReport(
        anchor_time=float(t_anchor),
        margin_lower_pre=m_low_pre,
        margin_upper_pre=m_up_pre,
        margin_lower_post=m_low_post,
        passed=passed,
    )


@dataclass(frozen=True)
class OscillationReport:
    shape: str
    eventually_monotone: bool
    inconclusive: bool
    crossings: tuple[float, ...]
    spacing_ok: bool | None          # Q_{j+2} - Q_j >= h for all j (None unless oscillating)
    single_extremum_ok: bool | None  # one critical point per crossing gap

    @property
    def certified_slow(self) -> bool:
        return bool(self.shape == OSCILLATING and self.spacing_ok
                    and self.single_extremum_ok)


def _extrema_times(ts, values):
    """Sample-level extrema whose deviation from 1 exceeds OVERSHOOT_EPS/2
    (prunes integrator wiggle right at the crossings)."""
    d = np.diff(values)
    out = []
    for i in range(len(d) - 1):
        if (d[i] > 0) != (d[i + 1] > 0):
            if abs(values[i + 1] - 1.0) > 0.5 * OVERSHOOT_EPS:
                out.append(float(ts[i + 1]))
    return out


def classify_oscillation(profile: Profile, h: float) -> OscillationReport:
    """Shape of a profile around the positive state 1 with slow-oscillation
    certificate: two or more genuine level crossings make it oscillating,
    certified slow when every window of length h contains at most two
    crossings (Q_{j+2} - Q_j >= h) and exactly one critical point separates
    consecutive crossings."""
    ts, vs = profile.ts, profile.values
    sig = significant_crossings(ts, vs, list(profile.crossings) or crossings_of_one(ts, vs))
    shape = classify_shape(sig, float(np.max(vs)))

    tail_start = sig[-1] if sig else ts[0]
    tail = vs[ts >= tail_start]
    dist = np.abs(tail - 1.0)
    drops = np.diff(dist) <= max(1e-12, OVERSHOOT_EPS * 1e-3)
    eventually_monotone = bool(len(dist) > 4 and np.all(drops[len(drops) // 2:]))

    spacing_ok = single_ok = None
    if shape == OSCILLATING:
        spacing_ok = all(sig[j + 2] - sig[j] >= h - 1e-9 for j in range(len(sig) - 2))
        gaps = ((ts > q0) & (ts < q1) for q0, q1 in zip(sig[:-1], sig[1:]))
        single_ok = all(len(_extrema_times(ts[m], vs[m])) == 1 for m in gaps)
    return OscillationReport(
        shape=shape, eventually_monotone=eventually_monotone,
        inconclusive="unresolved-tail" in profile.flags, crossings=tuple(sig),
        spacing_ok=spacing_ok, single_extremum_ok=single_ok,
    )
