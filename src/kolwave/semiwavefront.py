"""Semi-wavefront construction for general kernels by fixed-point iteration
of the Green-function integral operator, sandwiched between closed-form
upper and lower solutions.

The profile equation phi'' - c phi' + phi*G(N_c * phi) = 0 is rewritten with
a shift b > 0 as phi'' - c phi' - b phi + r(phi) = 0,
r(phi) = b*phi + ramp_cutoff(phi)*G(N_c * phi), and inverted through the
two-sided exponential Green kernel with rates z1 < 0 < z2 solving
z^2 - c z - b = 0.  On a uniform grid both exponential convolutions reduce
to one-pass recurrences that are exact for piecewise-linear integrands; the
half-infinite tails are closed analytically with the integrand frozen at the
boundary values.  Each front builds one Green operator: its cell weights and
the power tables of both sweeps are computed once, and every sweep runs in
blocks (one cumsum over the full chunks, a scalar carry across them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvarianceBreachError,
    KolwaveError,
    MomentError,
    PreconditionError,
    UnsupportedError,
)
from .models import GrowthModel, Kernel, WaveParams, effective_kernel, json_field
from .numerics import Grid, find_root
from .profiles import Profile, build_profile, crossings_of_one
from .spectral import kpp_roots, roots_at_one

__all__ = [
    "ramp_cutoff",
    "BoundReport",
    "apriori_bound",
    "UpperSolution",
    "kpp_upper_solution",
    "lower_amplitude",
    "lower_solution",
    "IterationConfig",
    "config_from_json",
    "config_to_json",
    "default_config",
    "IterationResult",
    "iterate_front",
    "AsymptoticsReport",
    "asymptotic_check",
    "critical_speed_probe",
]


def ramp_cutoff(u, beta: float):
    """Identity below beta, linear descent to zero at 2*beta, zero beyond."""
    u = np.asarray(u, dtype=float)
    out = np.where(u <= beta, u, np.maximum(0.0, 2.0 * beta - u))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoundReport:
    """A-priori sup bound for every semi-wavefront at the given speed/kernel."""

    U: float
    branch: str  # "right-mass" | "left-support"


def _sigma_for_left_branch(c: float, lam: float) -> float:
    """sigma > 0 solving 2c(e^(lam*sigma)-1)/(e^(c*sigma)-1) = 0.01; the ratio
    starts at 2*lam and decreases to 0."""

    def q(s: float) -> float:
        return 2.0 * c * math.expm1(lam * s) / math.expm1(c * s) - 0.01

    lo = 1e-9
    if q(lo) <= 0.0:
        return lo
    hi = 1.0
    while q(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise KolwaveError("sigma search failed to bracket")
    return find_root(q, (lo, hi), 1e-12)


def apriori_bound(c: float, kernel: Kernel, growth: GrowthModel) -> BoundReport:
    """Uniform bound U >= 1 on all semi-wavefronts, from the projected
    kernel's exponential moment on the right half-line, or (for kernels
    concentrated on the left) from a finite look-back window plus a slope
    budget.  Requires the no-hump growth property G(s) < G(0) for s > 0."""
    if growth.has_allee:
        raise PreconditionError("bound needs G(s) < G(0) = max G for s > 0")
    lam, _ = kpp_roots(c, growth.g0)

    right = kernel.laplace_right(0.0, c)
    candidates: list[tuple[float, str]] = []
    if right > 0.0:
        candidates.append((1.0 / kernel.laplace_right(lam, c), "right-mass"))
    if right < 0.001:
        r = 1
        while kernel.mass_on(-float(r), 0.0, c) <= 0.99:
            r += 1
            if r > 10_000:
                raise KolwaveError("kernel mass does not concentrate on a finite window")
        sigma = _sigma_for_left_branch(c, lam)
        candidates.append((2.0 * math.exp(lam * (r + sigma)), "left-support"))
    if not candidates:
        raise KolwaveError("no bound branch applies")
    u, branch = min(candidates)
    return BoundReport(U=max(u, 1.0), branch=branch)


@dataclass(frozen=True)
class UpperSolution:
    """Monotone front of the truncated local equation
    phi'' - c phi' + G(0)*ramp_cutoff(phi) = 0, normalized to tail e^(lam*t).

    Below the cutoff level the front is exactly e^(lam*t) - C e^(mu*t); past
    the join it relaxes to the plateau 2*beta along the stable rate of the
    upper linear branch.
    """

    c: float
    g0: float
    beta: float
    lam: float
    mu: float
    coef: float
    t_join: float
    zhat: float

    def __call__(self, t):
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        left = t <= self.t_join
        out[left] = np.exp(self.lam * t[left]) - self.coef * np.exp(self.mu * t[left])
        out[~left] = 2.0 * self.beta - self.beta * np.exp(self.zhat * (t[~left] - self.t_join))
        return float(out[0]) if scalar else out

    def residual(self, t):
        """Finite-difference defect in its own equation (oracle hook).

        The step balances truncation against cancellation in the second
        difference at plateau values of order beta."""
        t = np.asarray(t, dtype=float)
        h = 1e-4
        d2 = (self(t + h) - 2.0 * self(t) + self(t - h)) / (h * h)
        d1 = (self(t + h) - self(t - h)) / (2.0 * h)
        return d2 - self.c * d1 + self.g0 * ramp_cutoff(self(t), self.beta)


def kpp_upper_solution(c: float, g0: float, beta: float) -> UpperSolution:
    if beta <= 1.0:
        raise PreconditionError("cutoff level must exceed 1")
    lam, mu = kpp_roots(c, g0)
    if mu - lam < 1e-12:
        raise UnsupportedError(
            "closed form needs c > 2*sqrt(G(0)); approach the critical speed "
            "through c + 1/j instead")
    zhat = 0.5 * (c - math.sqrt(c * c + 4.0 * g0))  # stable rate of the upper branch
    a_join = beta * (mu + zhat) / (mu - lam)  # mu - |zhat|
    t_join = math.log(a_join) / lam
    coef = (a_join - beta) * math.exp(-mu * t_join)
    return UpperSolution(c=c, g0=g0, beta=beta, lam=lam, mu=mu, coef=coef,
                         t_join=t_join, zhat=zhat)


def lower_amplitude(c: float, g0: float, mu_lower: float, upper: UpperSolution,
                    kernel: Kernel, growth: GrowthModel) -> float:
    """Smallest safe M for the lower solution max(0, e^(lam t)(1 - M e^(mu_lower t))).

    M must beat L*p*moment / (-chi(lam+mu_lower)) where L = sup phi_+ e^(-mu_lower t),
    p is the linear-minorant slope of G at 0 on [0, 2*beta], and the moment is
    the kernel's exponential weight at rate mu_lower."""
    lam, mu = upper.lam, upper.mu
    if not 0.0 < mu_lower < lam or lam + mu_lower >= mu:
        raise PreconditionError("need 0 < mu_lower < lam and lam + mu_lower < mu")
    chi = (lam + mu_lower) ** 2 - c * (lam + mu_lower) + g0
    if chi >= 0.0:
        raise PreconditionError("shifted rate escaped the unstable interval")
    moment = kernel.laplace(mu_lower, c)
    if not math.isfinite(moment):
        raise MomentError(f"kernel moment diverges at rate {mu_lower}")
    ts = np.linspace(upper.t_join - 40.0 / lam, upper.t_join + 40.0 / max(-upper.zhat, 1e-6), 4001)
    big_l = float(np.max(upper(ts) * np.exp(-mu_lower * ts)))
    p = growth.minorant_slope(2.0 * upper.beta)
    m_min = big_l * p * moment / (-chi)
    return max(1.05 * m_min, upper.coef + 1.0, 2.0)


def lower_solution(c: float, g0: float, mu_lower: float, amplitude: float,
                   grid: Grid) -> np.ndarray:
    """Samples of the clamped lower solution; vanishes past
    t = -ln(amplitude)/mu_lower."""
    lam, _ = kpp_roots(c, g0)
    ts = grid.nodes()
    vals = np.exp(lam * ts) * (1.0 - amplitude * np.exp(mu_lower * ts))
    return np.maximum(0.0, vals)


@dataclass(frozen=True)
class IterationConfig:
    b: float
    beta: float
    grid: Grid
    max_iters: int = 1500
    tol: float = 1e-9

    def __post_init__(self):
        if not self.b > 0:
            raise PreconditionError("shift b must be positive")
        if not self.beta > 1:
            raise PreconditionError("cutoff level beta must exceed 1")

    def green_rates(self, c: float) -> tuple[float, float]:
        root = math.sqrt(c * c + 4.0 * self.b)
        return 0.5 * (c - root), 0.5 * (c + root)


def config_from_json(doc: dict) -> IterationConfig:
    """IterationConfig from its JSON document:
    {"b": .., "beta": .., "grid": {"t0": .., "dt": .., "n": ..},
     "max_iters": .., "tol": ..}; a missing or mistyped field raises
    PreconditionError naming it."""
    g = json_field(doc, "grid", dict)
    return IterationConfig(
        b=json_field(doc, "b"),
        beta=json_field(doc, "beta"),
        grid=Grid(json_field(g, "t0"), json_field(g, "dt"), json_field(g, "n", int)),
        max_iters=json_field(doc, "max_iters", int, 1500),
        tol=json_field(doc, "tol", float, 1e-9),
    )


def config_to_json(config: IterationConfig) -> dict:
    return {
        "b": config.b,
        "beta": config.beta,
        "grid": {"t0": config.grid.t0, "dt": config.grid.dt, "n": config.grid.n},
        "max_iters": config.max_iters,
        "tol": config.tol,
    }


def default_config(params: WaveParams, dt: float = 0.02,
                   tol: float = 1e-9) -> tuple[IterationConfig, BoundReport]:
    """Config with the spelled-out defaults: cutoff level 1.5x the a-priori
    bound, shift b = 2*(G(0) - min G on [0, 2*beta]) + 1, and a grid wide
    enough that both end states are resolved to ~1e-9.  Every law the bound
    accepts (no hump) falls on [0, inf), so that minimum is G(2*beta)."""
    growth, c = params.growth, params.c
    bound = apriori_bound(c, params.kernel, growth)
    beta = 1.5 * bound.U
    b = 2.0 * (growth.g0 - growth.g(2.0 * beta)) + 1.0

    lam, _ = kpp_roots(c, growth.g0)
    rep = roots_at_one(params)
    negs = rep.real_negative_roots()
    rate_plus = max((r.re for r in negs), default=-abs(growth.gp1) / c)
    t_lo = -21.0 / lam
    t_hi = 21.0 / max(-rate_plus, 1e-3) + max(params.kernel.mean(c), 0.0) + 10.0
    grid = Grid(t_lo, dt, int((t_hi - t_lo) / dt) + 1)
    return IterationConfig(b=b, beta=beta, grid=grid, tol=tol), bound


def _cell_weights_left(alpha: float, h: float) -> tuple[float, float, float]:
    """One-cell weights of the exact convolution with e^(alpha * .) (alpha < 0)
    against a linear segment: I_i = E*I_{i-1} + A*r_{i-1} + B*r_i."""
    e = math.exp(alpha * h)
    b = -1.0 / alpha + (e - 1.0) / (alpha * alpha * h)
    a = (e - 1.0) / alpha - b
    return e, a, b


def _cell_weights_right(beta: float, h: float) -> tuple[float, float, float]:
    """Mirror weights for the decaying right sweep with e^(-beta * .)
    (beta > 0): I_i = E*I_{i+1} + A*r_i + B*r_{i+1}."""
    e = math.exp(-beta * h)
    bq = (1.0 - e * (1.0 + beta * h)) / (beta * beta * h)
    aq = (1.0 - e) / beta - bq
    return e, aq, bq


def _sweep_tables(e: float, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Ratio and power tables e**(1..k), e**-(0..k-1) of a sweep over n nodes,
    with the chunk length k short enough that e**-k cannot overflow."""
    k = max(16, int(25.0 / max(1e-12, -math.log(e)))) if e < 1.0 else n
    k = max(1, min(k, n - 1))
    return e, e ** np.arange(1, k + 1), e ** -np.arange(k)


def _sweep(tables: tuple[float, np.ndarray, np.ndarray], g: np.ndarray,
           init: float) -> np.ndarray:
    """I_0 = init; I_i = e*I_{i-1} + g[i-1] for i >= 1, in chunks of k: one
    cumsum over the full chunks, a scalar carry across them, one broadcast
    multiply, then the remainder chunk."""
    e, pw, inv = tables
    k = len(pw)
    m = len(g) // k
    out = np.empty(len(g) + 1)
    out[0] = init
    s = np.cumsum(g[:m * k].reshape(m, k) * inv, axis=1) / e
    carries = np.empty(m)
    carry = init
    for i in range(m):
        carries[i] = carry
        carry = pw[-1] * (carry + s[i, -1])
    out[1:m * k + 1] = (pw * (carries[:, None] + s)).ravel()
    rest = g[m * k:]
    out[m * k + 1:] = pw[:len(rest)] * (carry + np.cumsum(rest * inv[:len(rest)]) / e)
    return out


class _GreenOperator:
    """(1/(z2-z1)) * [int_-inf^t e^(z1(t-s)) r + int_t^inf e^(z2(t-s)) r] on
    a grid of n nodes with step h, applied to the samples r.

    The right tail is closed with r frozen at the boundary (exact on the
    plateau), the left tail as r[0]*e^(lam(s-t0)), and each sweep's cell
    weights get an antisymmetric O(h^2) split so that the discrete operator
    is exact on constants AND on e^(lam t).  Both marginal modes of the
    front iteration (the plateau and the translation tail) are then
    preserved to rounding, which keeps the fixed point from drifting off the
    grid.  The weights and sweep tables are built once.
    """

    def __init__(self, z1: float, z2: float, h: float, n: int, lam: float):
        e1, a1, b1 = _cell_weights_left(z1, h)
        e2, a2, b2 = _cell_weights_right(z2, h)
        em = math.exp(-lam * h)
        ell = (a1 * em + b1) / (1.0 - e1 * em)
        d1 = (1.0 / (lam - z1) - ell) * (1.0 - e1 * em) / (em - 1.0)
        a1, b1 = a1 + d1, b1 - d1
        ep = math.exp(lam * h)
        rho = (a2 + b2 * ep) / (1.0 - e2 * ep)
        d2 = (1.0 / (z2 - lam) - rho) * (1.0 - e2 * ep) / (1.0 - ep)
        a2, b2 = a2 + d2, b2 - d2
        self.left_rate = lam - z1
        self.z1, self.z2 = z1, z2
        self.a1, self.b1, self.a2, self.b2 = a1, b1, a2, b2
        self.left, self.right = _sweep_tables(e1, n), _sweep_tables(e2, n)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        i_left = _sweep(self.left, self.a1 * r[:-1] + self.b1 * r[1:], r[0] / self.left_rate)
        w = self.a2 * r[:-1] + self.b2 * r[1:]
        i_right = _sweep(self.right, w[::-1], r[-1] / self.z2)[::-1]
        return (i_left + i_right) / (self.z2 - self.z1)


def _convolver(kernel: Kernel, c: float, h: float, n: int):
    """phi -> N_c * phi on the grid, through the comb of effective_kernel."""
    m0, wts = effective_kernel(kernel, c).convolve_weights(h)
    m = len(wts)
    pad_l = max(0, m0 + m)
    pad_r = max(0, -m0 + 1)
    wrev = wts[::-1]
    base = pad_l - m0 - m + 1

    def conv(phi: np.ndarray) -> np.ndarray:
        padded = np.concatenate((
            np.full(pad_l, phi[0]),
            phi,
            np.full(pad_r, phi[-1]),
        ))
        full = np.correlate(padded, wrev, mode="valid")
        return full[base: base + n]

    return conv


@dataclass
class IterationResult:
    profile: Profile
    residual_history: list
    iterations: int
    converged: bool
    residual: float
    bound: BoundReport
    upper: np.ndarray
    lower: np.ndarray
    config: IterationConfig
    slack: float = 0.0  # iteration tol plus the measured discretization defect


def iterate_front(config: IterationConfig, params: WaveParams) -> IterationResult:
    """Iterate the Green-operator map from the upper solution to its fixed
    point inside the upper/lower sandwich; every iterate is checked against
    the sandwich and a breach beyond 10*tol aborts (mis-chosen b, beta, or
    grid truncation).

    Returns the profile with decay fits plus the defect of the profile
    equation under central differences on the trimmed interior.
    """
    growth, kernel, c = params.growth, params.kernel, params.c
    grid = config.grid
    h = grid.dt
    ts = grid.nodes()
    n = grid.n

    bound = apriori_bound(c, kernel, growth)
    if config.beta <= bound.U:
        raise PreconditionError("cutoff level must exceed the a-priori bound")

    upper = kpp_upper_solution(c, growth.g0, config.beta)
    phi_plus = upper(ts)
    lam, mu = upper.lam, upper.mu
    mu_lower = 0.45 * min(lam, mu - lam)
    m_amp = lower_amplitude(c, growth.g0, mu_lower, upper, kernel, growth)
    phi_minus = lower_solution(c, growth.g0, mu_lower, m_amp, grid)
    if np.any(phi_minus > phi_plus + 1e-12):
        raise KolwaveError("lower solution escaped above the upper solution")

    z1, z2 = config.green_rates(c)
    green = _GreenOperator(z1, z2, h, n, lam)
    conv = _convolver(kernel, c, h, n)

    # the discrete Green image of the upper solution's own right-hand side
    # measures the O(h^2) defect of the discretization; the sandwich slack
    # must sit above it, otherwise pure discretization error reads as a breach
    r_upper = config.b * phi_plus + growth.g0 * ramp_cutoff(phi_plus, config.beta)
    defect = float(np.max(np.abs(green(r_upper) - phi_plus)))
    slack = 10.0 * config.tol + 3.0 * defect
    floor, ceiling = phi_minus - slack, phi_plus + slack

    phi = phi_plus.copy()
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        r = config.b * phi + ramp_cutoff(phi, config.beta) * growth.g(conv(phi))
        phi_next = green(r)
        if np.any(phi_next < floor) or np.any(phi_next > ceiling):
            raise InvarianceBreachError(
                "iterate escaped the sandwich; revisit b, beta, or the grid span")
        delta = float(np.max(np.abs(phi_next - phi)))
        history.append(delta)
        phi = phi_next
        if delta < config.tol:
            converged = True
            break

    # defect of the profile equation on the trimmed interior
    margin_l = 12.0 / min(-z1, lam)
    margin_r = 12.0 / z2 + max(kernel.mean(c), 0.0) + (0.0 if kernel.is_atom else 5.0)
    i0 = max(1, int(margin_l / h))
    i1 = min(n - 1, n - 1 - int(margin_r / h))
    if i1 - i0 < 10:
        raise PreconditionError("grid too short for an interior residual check")
    gvals = growth.g(conv(phi))
    d2 = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / (h * h)
    d1 = (phi[2:] - phi[:-2]) / (2.0 * h)
    res = d2 - c * d1 + phi[1:-1] * gvals[1:-1]
    residual = float(np.max(np.abs(res[i0 - 1: i1 - 1])))

    lag = c * kernel.tau if kernel.kind == "discrete-delay" else None
    tail_floor = max(abs(phi[-1] - 1.0) * 30.0, 1e-8)
    profile = build_profile(ts, phi, crossings=crossings_of_one(ts, phi), h=lag,
                            flags=() if converged else ("unconverged",),
                            amplitude=max(float(phi[0]), 1e-300) * 2.0,
                            plus_window=(tail_floor, 1e-3))
    return IterationResult(
        profile=profile, residual_history=history, iterations=iterations,
        converged=converged, residual=residual, bound=bound,
        upper=phi_plus, lower=phi_minus, config=config, slack=slack,
    )


@dataclass(frozen=True)
class AsymptoticsReport:
    rate_minus_expected: float
    rate_minus_fit: float | None
    rel_err_minus: float | None
    rate_plus_fit: float | None
    matched_root: float | None
    rel_err_plus: float | None
    flags: tuple[str, ...]


def asymptotic_check(profile: Profile, params: WaveParams) -> AsymptoticsReport:
    """Compare fitted tail exponents against the characteristic rates: the
    left tail against the slow rate at 0, the right tail against the nearest
    real negative root of the linearization at 1."""
    lam, _ = kpp_roots(params.c, params.growth.g0)
    flags: list[str] = []
    if "unconverged" in profile.flags or "unresolved-tail" in profile.flags:
        flags.append("inconclusive")

    rel_minus = None
    if profile.decay_minus is not None:
        rel_minus = abs(profile.decay_minus - lam) / lam
    else:
        flags.append("inconclusive")

    matched = None
    rel_plus = None
    if profile.decay_plus is not None:
        negs = roots_at_one(params).real_negative_roots()
        if negs:
            matched = min((r.re for r in negs), key=lambda z: abs(z - profile.decay_plus))
            rel_plus = abs(profile.decay_plus - matched) / abs(matched)
        else:
            flags.append("asymptotics-mismatch")
    flags = list(dict.fromkeys(flags))
    return AsymptoticsReport(
        rate_minus_expected=lam,
        rate_minus_fit=profile.decay_minus,
        rel_err_minus=rel_minus,
        rate_plus_fit=profile.decay_plus,
        matched_root=matched,
        rel_err_plus=rel_plus,
        flags=tuple(flags),
    )


def critical_speed_probe(params: WaveParams) -> list[tuple[float, IterationResult]]:
    """Approach the critical speed 2*sqrt(G(0)) through c + 1/j, j = 1, 2, 3,
    and report the runs; the caller inspects the drift rather than claiming
    the limit."""
    c_star = 2.0 * math.sqrt(params.growth.g0)
    out = []
    for j in (1, 2, 3):
        pj = WaveParams(params.growth, params.kernel, c_star + 1.0 / j)
        config, _ = default_config(pj)
        out.append((pj.c, iterate_front(config, pj)))
    return out
