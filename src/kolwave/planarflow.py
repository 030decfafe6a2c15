"""Weak-kernel limit of the food-limited model: the planar kinetics system,
its heteroclinic connection and shape classification, polynomial
test-function certificates for the non-monotone regime, the boundary curves
tau_sharp(gamma) and tau_star(gamma), and the finite-speed (slow-manifold)
deformation of the connection.

The planar system is

    phi' = phi * (1 - psi) / (1 + gamma * psi),
    psi' = (phi - psi) / tau,

with a saddle at the origin (unstable tangent (1+tau, 1)) and a globally
stable positive equilibrium at (1, 1).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    FieldEvaluationError,
    KolwaveError,
    NoWindowError,
    PreconditionError,
    StiffShootingError,
)
from .numerics import EventSpec, cubic_real_roots, integrate_ode, lower_edge
from .profiles import EPS_MAX, OSCILLATING, OVERSHOOT_EPS, Profile, RegionCurve, build_profile

__all__ = [
    "FlowField",
    "flow_field",
    "EigenDirections",
    "eigen_directions",
    "lyapunov",
    "HeteroclinicResult",
    "heteroclinic",
    "finite_speed_profile",
    "TestFunction",
    "TestFunctionReport",
    "admissible_interval",
    "test_function_check",
    "test_function_threshold",
    "tau_star",
    "tau_sharp",
    "boundary_region",
]

_N_SAMPLES = 4000  # uniform samples of a connection's profile
_N_GRID = 256  # interior coefficients a tried per delay by the certificate search


@dataclass(frozen=True)
class FlowField:
    gamma: float
    tau: float

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        phi, psi = y
        g1 = (1.0 - psi) / (1.0 + self.gamma * psi)
        return np.array([phi * g1, (phi - psi) / self.tau])

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        phi, psi = y
        denom = 1.0 + self.gamma * psi
        g1 = (1.0 - psi) / denom
        g1p = -(1.0 + self.gamma) / (denom * denom)
        return np.array([[g1, phi * g1p], [1.0 / self.tau, -1.0 / self.tau]])

    def linearization_at_origin(self) -> np.ndarray:
        return self.jacobian(np.array([0.0, 0.0]))

    def linearization_at_one(self) -> np.ndarray:
        return self.jacobian(np.array([1.0, 1.0]))


def flow_field(gamma: float, tau: float) -> FlowField:
    if gamma < 0 or not tau > 0:
        raise PreconditionError("need gamma >= 0 and tau > 0")
    return FlowField(gamma=float(gamma), tau=float(tau))


@dataclass(frozen=True)
class EigenDirections:
    """Approach directions at the positive equilibrium (node case) and the
    unstable tangent at the origin.  n1 is the generic (slow) direction,
    n2 the exceptional (fast) one."""

    n1: np.ndarray | None
    n2: np.ndarray | None
    unstable_origin: np.ndarray
    focus: bool


def eigen_directions(gamma: float, tau: float) -> EigenDirections:
    flow_field(gamma, tau)
    u = np.array([1.0 + tau, 1.0])
    u = u / np.linalg.norm(u)
    mid = (1.0 + gamma) / (2.0 * tau)
    rad = mid * mid - (1.0 + gamma) / tau
    if rad < 0:
        return EigenDirections(n1=None, n2=None, unstable_origin=u, focus=True)
    root = math.sqrt(rad)
    n1 = np.array([1.0, mid - root])
    n2 = np.array([1.0, mid + root])
    return EigenDirections(n1=n1 / np.linalg.norm(n1), n2=n2 / np.linalg.norm(n2),
                           unstable_origin=u, focus=False)


def lyapunov(gamma: float, tau: float, state) -> tuple[float, float]:
    """Energy-style functional decreasing along planar trajectories and its
    orbital derivative, both in closed form.  Requires phi, psi > 0."""
    phi, psi = float(state[0]), float(state[1])
    if not (phi > 0 and psi > 0):
        raise PreconditionError("lyapunov functional needs phi, psi > 0")
    v_phi = phi - 1.0 - math.log(phi)
    if gamma == 0.0:
        v_psi = 0.5 * (psi - 1.0) ** 2
    else:
        v_psi = (psi - 1.0) / gamma - (1.0 + gamma) / (gamma * gamma) * (
            math.log1p(gamma * psi) - math.log1p(gamma)
        )
    v = v_phi + tau * v_psi
    vdot = -((psi - 1.0) ** 2) / (1.0 + gamma * psi)
    return v, vdot


@dataclass
class HeteroclinicResult:
    profile: Profile
    psi_profile: Profile
    shape: str
    phi_max: float
    entry_direction: np.ndarray
    captured: bool


def _slow_rate_at_one(gamma: float, tau: float) -> float:
    """|Re| of the slowest eigenvalue at (1, 1)."""
    mid = -1.0 / (2.0 * tau)
    rad = 1.0 / (4.0 * tau * tau) - 1.0 / (tau * (1.0 + gamma))
    if rad < 0:
        return abs(mid)
    return abs(mid + math.sqrt(rad))


def _contraction_matrix(jac: np.ndarray) -> np.ndarray:
    """P solving J^T P + P J = -I for a 2x2 Hurwitz J."""
    j11, j12 = jac[0]
    j21, j22 = jac[1]
    a = np.array(
        [
            [2 * j11, 2 * j21, 0.0],
            [j12, j11 + j22, j21],
            [0.0, 2 * j12, 2 * j22],
        ]
    )
    p11, p12, p22 = np.linalg.solve(a, np.array([-1.0, 0.0, -1.0]))
    return np.array([[p11, p12], [p12, p22]])


def _run_connection(rhs, jac_at_one, gamma, tau, start_amplitude, tol):
    """Integrate from the origin's unstable tangent until capture at (1, 1).

    Capture is a terminal event at distance 10*tol from the equilibrium,
    certified by the contraction quadratic form of the linearization.

    In the focus regime (tau > (1+gamma)/4) successive crossing excursions
    shrink by exp(-pi*Re/Im) per half-turn, which near the boundary is far
    below any workable noise floor; the spiral is then certified from the
    complex spectrum once a first genuine crossing is seen, not by counting.
    """
    if not (1e-10 < start_amplitude < 1e-3):
        raise PreconditionError("start amplitude must lie in (1e-10, 1e-3)")
    e = np.array([1.0, 1.0])
    direction = np.array([1.0 + tau, 1.0])
    y0 = start_amplitude * direction / np.linalg.norm(direction)
    r_cap = 10.0 * tol

    rate = _slow_rate_at_one(gamma, tau)
    max_span = 1.5 * (math.log(2.0 / start_amplitude) + math.log(2.0 / r_cap) / rate) + 50.0

    events = [
        EventSpec("level-crossing", level=1.0),
        EventSpec("derivative-sign-change"),
        EventSpec("custom-capture", fn=lambda t, y: float(np.linalg.norm(y - e)) - r_cap,
                  direction="down", terminal=True),
    ]
    traj, evs = integrate_ode(rhs, y0, (0.0, max_span), tol, events=events)

    captured = False
    capture_time = None
    for ev in evs:
        if ev.kind == "custom-capture":
            captured = True
            capture_time = ev.time
    if captured:
        p = _contraction_matrix(jac_at_one)
        x = traj(capture_time) - e
        if 2.0 * x @ p @ rhs(capture_time, traj(capture_time)) >= 0:
            captured = False  # not yet inside the contraction basin

    t_end = capture_time if captured else traj.t_end
    ts = np.linspace(0.0, t_end, _N_SAMPLES)
    samples = traj.sample(ts)
    phi, psi = samples[:, 0], samples[:, 1]

    cross_times = [ev.time for ev in evs if ev.kind == "level-crossing" and ev.time <= t_end]
    extrema = [ev.time for ev in evs if ev.kind == "derivative-sign-change" and ev.time <= t_end]
    phi_max = float(max([phi.max(), *traj.sample(extrema)[:, 0]]))

    tail = samples[-(_N_SAMPLES // 20):]
    mean_dev = np.mean(e - tail, axis=0)
    norm = np.linalg.norm(mean_dev)
    entry = mean_dev / norm if norm > 0 else np.array([0.0, 0.0])

    flags = () if captured else ("no-capture",)
    prof = build_profile(ts, phi, crossings=cross_times, flags=flags,
                         amplitude=start_amplitude,
                         plus_window=(max(3.0 * r_cap, 1e-7), 1e-3))
    psi_prof = build_profile(ts, psi, crossings=(), flags=flags,
                             amplitude=start_amplitude,
                             plus_window=(max(3.0 * r_cap, 1e-7), 1e-3))
    focus = tau > (1.0 + gamma) / 4.0
    return HeteroclinicResult(
        profile=prof,
        psi_profile=psi_prof,
        shape=OSCILLATING if focus and prof.crossings else prof.shape,
        phi_max=phi_max,
        entry_direction=entry,
        captured=captured,
    )


def heteroclinic(gamma: float, tau: float, start_amplitude: float = 1e-6,
                 tol: float = 1e-7) -> HeteroclinicResult:
    """The unique connection from (0, 0) to (1, 1) of the planar kinetics.

    Launched along the one-dimensional unstable tangent of the origin; the
    launch error is O(start_amplitude^2).
    """
    field = flow_field(gamma, tau)
    try:
        return _run_connection(field.rhs, field.linearization_at_one(),
                               gamma, tau, start_amplitude, tol)
    except DivergenceError as exc:  # globally stable: should not happen
        raise DivergenceError(
            f"planar connection left the basin unexpectedly: {exc}",
            time=exc.time, state=exc.state) from exc


def finite_speed_profile(gamma: float, tau: float, eps: float,
                         start_amplitude: float = 1e-6,
                         tol: float = 1e-7) -> HeteroclinicResult:
    """Finite-speed wave connection of the two-component weak-kernel system,
    eps = 1/c^2, by shooting on the slow manifold.

    The fast variables of the four-dimensional first-order form are slaved:
    each derivative evaluation solves (I - eps*J(y)) v = F(y), which agrees
    with the exact slow-manifold reduction through first order in eps.  At
    eps = 0 this is the planar connection itself, and the sup-distance to it
    shrinks linearly with eps.
    """
    if eps == 0.0:
        return heteroclinic(gamma, tau, start_amplitude, tol)
    if not (0.0 < eps <= EPS_MAX):
        raise PreconditionError(f"eps must lie in (0, {EPS_MAX}]")
    field = flow_field(gamma, tau)
    eye = np.eye(2)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        m = eye - eps * field.jacobian(y)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-10:
            raise FieldEvaluationError("slow-manifold projection singular")
        return np.linalg.solve(m, field.rhs(t, y))

    try:
        return _run_connection(rhs, field.linearization_at_one(), gamma, tau,
                               start_amplitude, tol)
    except (DivergenceError, FieldEvaluationError) as exc:
        raise StiffShootingError(
            f"slow-manifold shooting failed at eps={eps}; "
            f"try smaller eps or tighter tol ({exc})") from exc


# --------------------------------------------------------------- certificates


@dataclass(frozen=True)
class TestFunction:
    """Monotone comparison arc psi = a*phi + (1-a)*phi^3 on [0, 1]."""

    a: float

    @property
    def b(self) -> float:
        return 1.0 - self.a


@dataclass(frozen=True)
class TestFunctionReport:
    holds: bool
    failed: tuple[str, ...] = ()
    fail_x: float | None = None


def admissible_interval(gamma: float, tau: float) -> tuple[float, float]:
    """Open interval of coefficients `a` allowed by the slope conditions at
    the two endpoints of the comparison arc."""
    if not tau <= (1.0 + gamma) / 4.0:
        raise PreconditionError("need tau <= (1+gamma)/4")
    left = 1.0 / (tau + 1.0)
    rad = (1.0 + gamma) ** 2 / (16.0 * tau * tau) - (1.0 + gamma) / (4.0 * tau)
    right = 1.5 - (1.0 + gamma) / (4.0 * tau) - math.sqrt(max(rad, 0.0))
    return left, right


def _quartic_coeffs(gamma: float, tau: float, a: float) -> tuple[float, ...]:
    b = 1.0 - a
    c0 = tau * a - b
    c1 = tau * a * b - b * (gamma * a + 1.0)
    c2 = tau * (a * b + 3.0 * b) - b * gamma * a
    c3 = b * b * (3.0 * tau - gamma)
    c4 = c3
    return c0, c1, c2, c3, c4


def test_function_check(gamma: float, tau: float, tf: TestFunction) -> TestFunctionReport:
    """Certify the cubic comparison arc: endpoint slope bounds checked
    directly, the interior barrier inequality reduced to positivity of a
    quartic on (0, 1) and certified through the closed-form critical points
    of its cubic derivative plus the endpoint values."""
    if not gamma > 1:
        raise PreconditionError("hypotheses need gamma > 1")
    if not tau <= (1.0 + gamma) / 4.0:
        raise PreconditionError("hypotheses need tau <= (1+gamma)/4")

    left, right = admissible_interval(gamma, tau)
    failed: list[str] = []
    fail_x: float | None = None
    if not tf.a > left:
        failed.append("interval-left")
    if not tf.a < right:
        failed.append("interval-right")

    c0, c1, c2, c3, c4 = _quartic_coeffs(gamma, tau, tf.a)
    scale = max(abs(v) for v in (c0, c1, c2, c3, c4)) or 1.0

    def p4(x: float) -> float:
        return c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))

    checkpoints = [x for x in cubic_real_roots(4 * c4, 3 * c3, 2 * c2, c1) if 0 < x < 1]
    checkpoints += [0.0, 1.0]
    for x in sorted(checkpoints):
        if p4(x) < -1e-12 * scale or (0 < x < 1 and p4(x) <= 0):
            failed.append("quartic")
            fail_x = x
            break

    return TestFunctionReport(holds=not failed, failed=tuple(failed), fail_x=fail_x)


def test_function_threshold() -> tuple[float, float]:
    """Smallest barrier constant min over (0,1) of x^2 + 2x + 2/x and the
    induced lower gamma threshold (13 + 3m)/(m - 1) above which some delay
    window admits a certificate.  The minimiser is the real root of
    x^3 + x^2 - 1 = 0, where the derivative 2x + 2 - 2/x^2 vanishes."""
    (x,) = cubic_real_roots(1.0, 1.0, 0.0, -1.0)
    m = x * x + 2.0 * x + 2.0 / x
    return m, (13.0 + 3.0 * m) / (m - 1.0)


def _has_admissible_a(gamma: float, tau: float) -> bool:
    left, right = admissible_interval(gamma, tau)
    if not right > left:
        return False
    grid = np.linspace(left, right, _N_GRID + 2)[1:-1]
    return any(test_function_check(gamma, tau, TestFunction(a=float(a))).holds
               for a in grid)


def tau_star(gamma: float, tol: float = 0.05) -> float:
    """Lower edge of the delay window where the cubic-arc certificate applies,
    found by bisection (the admissible set is an upward interval in tau)."""
    if not gamma > 1:
        raise PreconditionError("need gamma > 1")
    hi = (1.0 + gamma) / 4.0
    if not _has_admissible_a(gamma, hi - 1e-9):
        raise NoWindowError(f"no admissible coefficient at any tau for gamma={gamma}")
    return lower_edge(lambda tau: _has_admissible_a(gamma, tau), hi, tol)


def tau_sharp(gamma: float, tol: float = 0.05) -> float:
    """Exact onset delay of the overshooting connection, by bisection on the
    overshoot predicate (the profile maximum grows with tau).  Returns the
    upper edge (1+gamma)/4 when no delay in the node range overshoots."""
    if not gamma > 1:
        raise PreconditionError("need gamma > 1")
    hi = (1.0 + gamma) / 4.0

    def overshoots(tau: float) -> bool:
        return heteroclinic(gamma, tau).phi_max > 1.0 + OVERSHOOT_EPS

    if not overshoots(hi):
        return hi
    return lower_edge(overshoots, hi, tol)


def boundary_region(gammas, tol: float = 0.05, kinds=("tau_sharp", "tau_star"),
                    jobs: int = 1) -> RegionCurve:
    """Boundary curves over a gamma grid; a point whose solver raises a
    KolwaveError becomes a NaN gap, any other exception propagates.

    Columns: tau_sharp, tau_star (NaN when not requested or not defined) and
    the node-to-focus edge tau_upper = (1+gamma)/4.
    """
    gammas = np.asarray(list(gammas), dtype=float)
    # looked up per call, so a replaced module attribute is the one that runs
    solvers = {"tau_sharp": tau_sharp, "tau_star": tau_star}

    def one(g: float) -> list[float]:
        row = []
        for kind, solver in solvers.items():
            try:
                row.append(solver(g, tol) if kind in kinds else math.nan)
            except KolwaveError:
                row.append(math.nan)
        return row + [(1.0 + g) / 4.0]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, gammas))
    else:
        results = [one(g) for g in gammas]

    results = np.array(results)
    return RegionCurve(
        gamma=gammas,
        columns={
            "tau_sharp": results[:, 0],
            "tau_star": results[:, 1],
            "tau_upper": results[:, 2],
        },
    )
