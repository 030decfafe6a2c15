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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    FieldEvaluationError,
    KolwaveError,
    NoWindowError,
    PreconditionError,
    StiffShootingError,
    UnsupportedError,
)
from .numerics import cubic_real_roots, integrate_ode, lower_edge, maximize_scalar
from .profiles import EPS_MAX, OSCILLATING, OVERSHOOT_EPS, Profile, RegionCurve, build_profile
from .spectral import weak_rates_at_one

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
# w_fast/w_slow at (1, 1) past which a planar connection is refused: the
# explicit stepper needs about 4.5 steps per unit of the ratio to capture, so
# from about 2.2e5 on it spends its 10^6 step budget (exit 3 after ~15 s).
# The slow-manifold field of finite_speed_profile caps its fast rate near
# 1/eps, so only the eps = 0 connection is refused.
_MAX_STIFFNESS = 4e5


@dataclass(frozen=True)
class FlowField:
    gamma: float
    tau: float

    def rhs(self, t: float, y) -> tuple[float, float]:
        phi, psi = y
        g1 = (1.0 - psi) / (1.0 + self.gamma * psi)
        return phi * g1, (phi - psi) / self.tau

    def jacobian(self, y) -> tuple[tuple[float, float], tuple[float, float]]:
        """The Jacobian of `rhs` at y, as two rows of floats."""
        phi, psi = y
        denom = 1.0 + self.gamma * psi
        g1 = (1.0 - psi) / denom
        g1p = -(1.0 + self.gamma) / (denom * denom)
        return (g1, phi * g1p), (1.0 / self.tau, -1.0 / self.tau)

    def linearization_at_one(self) -> np.ndarray:
        return np.array(self.jacobian((1.0, 1.0)))


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
    """The eigenvector of the eigenvalue -w at (1, 1) has slope (1+gamma) w."""
    flow_field(gamma, tau)
    u = np.array([1.0 + tau, 1.0])
    u = u / np.linalg.norm(u)
    w_slow, w_fast, d = weak_rates_at_one(gamma, tau)
    if d < 0:
        return EigenDirections(n1=None, n2=None, unstable_origin=u, focus=True)
    n1 = np.array([1.0, (1.0 + gamma) * w_slow.real])
    n2 = np.array([1.0, (1.0 + gamma) * w_fast.real])
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
    psi: np.ndarray  # psi samples on the grid of profile
    shape: str
    phi_max: float
    entry_direction: np.ndarray
    captured: bool


def _contraction_matrix(gamma: float, tau: float) -> np.ndarray:
    """P solving J^T P + P J = -I for the Jacobian
    J = [[0, -1/(1+gamma)], [1/tau, -1/tau]] of the planar flow at (1, 1)."""
    return np.array([[1.0 + gamma + tau / 2.0, -tau / 2.0],
                     [-tau / 2.0, tau * (1.0 + tau / (1.0 + gamma)) / 2.0]])


def _cramer(m, b, det: float) -> tuple[float, float]:
    """Solution of the 2x2 system m v = b by Cramer's rule, det = det(m);
    m is indexed m[row][column]."""
    return ((m[1][1] * b[0] - m[0][1] * b[1]) / det,
            (m[0][0] * b[1] - m[1][0] * b[0]) / det)


def _run_connection(rhs, gamma, tau, start_amplitude, tol):
    """Integrate from the origin's unstable tangent until capture at (1, 1).

    Capture stops the run at distance 10*tol from the equilibrium,
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

    w_slow, _, d = weak_rates_at_one(gamma, tau)
    rate = w_slow.real  # of the slowest eigenvalue at (1, 1)
    max_span = 1.5 * (math.log(2.0 / start_amplitude) + math.log(2.0 / r_cap) / rate) + 50.0

    traj, (crossings, extrema, capture) = integrate_ode(
        rhs, y0, (0.0, max_span), tol,
        events=[lambda t, y: y[0] - 1.0, lambda t, y: rhs(t, y)[0]],
        stop=lambda t, y: math.hypot(y[0] - 1.0, y[1] - 1.0) - r_cap,
    )

    t_end = traj.t_end
    captured = bool(capture)
    if captured:
        p = _contraction_matrix(gamma, tau)
        x = traj(t_end) - e
        if 2.0 * x @ p @ rhs(t_end, traj(t_end)) >= 0:
            captured = False  # not yet inside the contraction basin

    ts = np.linspace(0.0, t_end, _N_SAMPLES)
    samples = traj.sample(ts)
    phi, psi = samples[:, 0], samples[:, 1]

    cross_times = [s for s in crossings if s <= t_end]
    phi_max = float(max([phi.max(), *traj.sample(extrema)[:, 0]]))

    tail = samples[-(_N_SAMPLES // 20):]
    mean_dev = np.mean(e - tail, axis=0)
    norm = np.linalg.norm(mean_dev)
    entry = mean_dev / norm if norm > 0 else np.array([0.0, 0.0])

    flags = () if captured else ("no-capture",)
    prof = build_profile(ts, phi, crossings=cross_times, flags=flags,
                         amplitude=start_amplitude,
                         plus_window=(max(3.0 * r_cap, 1e-7), 1e-3))
    return HeteroclinicResult(
        profile=prof,
        psi=psi,
        shape=OSCILLATING if d < 0 and prof.crossings else prof.shape,
        phi_max=phi_max,
        entry_direction=entry,
        captured=captured,
    )


def heteroclinic(gamma: float, tau: float, start_amplitude: float = 1e-6,
                 tol: float = 1e-7) -> HeteroclinicResult:
    """The unique connection from (0, 0) to (1, 1) of the planar kinetics.

    Launched along the one-dimensional unstable tangent of the origin; the
    launch error is O(start_amplitude^2).  A node whose fast rate at (1, 1)
    exceeds _MAX_STIFFNESS times its slow one is refused before stepping.
    """
    field = flow_field(gamma, tau)
    w_slow, w_fast, _ = weak_rates_at_one(gamma, tau)
    if abs(w_fast) > _MAX_STIFFNESS * abs(w_slow):
        raise UnsupportedError(
            f"stiffness ratio w_fast/w_slow at (1, 1) exceeds {_MAX_STIFFNESS:.0e} "
            f"(w_fast = {abs(w_fast):.3g}, w_slow = {abs(w_slow):.3g}): "
            f"too stiff for the explicit stepper")
    try:
        return _run_connection(field.rhs, gamma, tau, start_amplitude, tol)
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

    def rhs(t: float, y) -> tuple[float, float]:
        (j11, j12), (j21, j22) = field.jacobian(y)
        m = ((1.0 - eps * j11, -eps * j12), (-eps * j21, 1.0 - eps * j22))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if abs(det) < 1e-10:
            raise FieldEvaluationError("slow-manifold projection singular")
        return _cramer(m, field.rhs(t, y), det)

    try:
        return _run_connection(rhs, gamma, tau, start_amplitude, tol)
    except (DivergenceError, FieldEvaluationError) as exc:
        raise StiffShootingError(
            f"slow-manifold shooting failed at eps={eps}; "
            f"try smaller eps or tighter tol ({exc})") from exc


# --------------------------------------------------------------- certificates


@dataclass(frozen=True)
class TestFunction:
    """Monotone comparison arc psi = a*phi + (1-a)*phi^3 on [0, 1]."""

    a: float


@dataclass(frozen=True)
class TestFunctionReport:
    holds: bool
    failed: tuple[str, ...] = ()
    fail_x: float | None = None


def admissible_interval(gamma: float, tau: float) -> tuple[float, float]:
    """Open interval of coefficients `a` allowed by the slope conditions at
    the two endpoints of the comparison arc."""
    if not 0 < tau <= (1.0 + gamma) / 4.0:
        raise PreconditionError("need 0 < tau <= (1+gamma)/4")
    k = (1.0 + gamma) / (4.0 * tau)
    return 1.0 / (tau + 1.0), 1.5 - k - math.sqrt(max(k * k - k, 0.0))


def _arc_quartics(gamma: float, a: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A and N, constant term first: the arc's barrier quartic is tau*A - N."""
    b = 1.0 - a
    return ((a, a * b, b * (a + 3.0), 3.0 * b * b, 3.0 * b * b),
            (b, b * (gamma * a + 1.0), b * gamma * a, b * gamma * b, b * gamma * b))


def _horner(c, x: float) -> float:
    return c[0] + x * (c[1] + x * (c[2] + x * (c[3] + x * c[4])))


def _checkpoints(c) -> list[float]:
    """0, 1 and the critical points in (0, 1) of the quartic c, ascending."""
    roots = cubic_real_roots(4 * c[4], 3 * c[3], 2 * c[2], c[1])
    return sorted([x for x in roots if 0 < x < 1] + [0.0, 1.0])


def test_function_check(gamma: float, tau: float, tf: TestFunction) -> TestFunctionReport:
    """Certify the cubic comparison arc: endpoint slope bounds checked
    directly, and the barrier inequality as positivity of the quartic
    tau*A - N at its closed-form checkpoints."""
    if not gamma > 1:
        raise PreconditionError("hypotheses need gamma > 1")
    left, right = admissible_interval(gamma, tau)  # which needs 0 < tau <= (1+gamma)/4
    failed: list[str] = []
    if not tf.a > left:
        failed.append("interval-left")
    if not tf.a < right:
        failed.append("interval-right")

    c = [tau * u - v for u, v in zip(*_arc_quartics(gamma, tf.a))]
    scale = max(map(abs, c)) or 1.0
    fail_x = next((x for x in _checkpoints(c) if _horner(c, x) < -1e-12 * scale
                   or (0 < x < 1 and _horner(c, x) <= 0)), None)
    if fail_x is not None:
        failed.append("quartic")

    return TestFunctionReport(holds=not failed, failed=tuple(failed), fail_x=fail_x)


def test_function_threshold() -> tuple[float, float]:
    """Smallest barrier constant min over (0,1) of x^2 + 2x + 2/x and the
    induced lower gamma threshold (13 + 3m)/(m - 1) above which some delay
    window admits a certificate.  The minimiser is the real root of
    x^3 + x^2 - 1 = 0, where the derivative 2x + 2 - 2/x^2 vanishes."""
    (x,) = cubic_real_roots(1.0, 1.0, 0.0, -1.0)
    m = x * x + 2.0 * x + 2.0 / x
    return m, (13.0 + 3.0 * m) / (m - 1.0)


def _certified_above(gamma: float, a: float) -> float:
    """T(a) = max of N/A on [0, 1] (A, N > 0 there): for a < 1/2 the quartic's
    end values are the slope bounds, so the arc certifies exactly the delays
    T(a) < tau <= (1+gamma)/4.  Each pass raises tau to the largest N/A at the
    checkpoints of tau*A - N; that quartic has a double zero at the maximiser,
    so passes converge quadratically, and none rises once tau*A >= N."""
    den, num = _arc_quartics(gamma, a)
    tau, best = -1.0, 0.0
    while best > tau:  # tau rises strictly, so in finitely many passes
        tau = best
        best = max(_horner(num, x) / _horner(den, x)
                   for x in _checkpoints([tau * u - v for u, v in zip(den, num)]))
    return tau


def tau_star(gamma: float) -> float:
    """Lower edge of the delay window of the cubic-arc certificate: the minimum
    of T(a) over 4/(5+gamma) < a < 1/2 (at both ends T(a) >= (1+gamma)/4, the
    window's top), searched in log a, as the minimiser nears 4.5/gamma."""
    if not gamma > 1:
        raise PreconditionError("need gamma > 1")
    gamma, lo_a, star = float(gamma), 4.0 / (5.0 + gamma), math.inf
    if lo_a < 0.5:
        star = -maximize_scalar(lambda s: -_certified_above(gamma, math.exp(s)),
                                (math.log(lo_a), math.log(0.5)), 1e-12)[1]
    if not star < (1.0 + gamma) / 4.0:
        raise NoWindowError(f"no admissible coefficient at any tau for gamma={gamma}")
    return star


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


def boundary_region(gammas, tol: float = 0.05,
                    kinds=("tau_sharp", "tau_star")) -> RegionCurve:
    """Boundary curves over a gamma grid, one point after another; a point
    whose solver raises a KolwaveError becomes a NaN gap, any other
    exception propagates.

    Columns: tau_sharp, tau_star (NaN when not requested or not defined) and
    the node-to-focus edge tau_upper = (1+gamma)/4.  `tol` is tau_sharp's
    bisection width; tau_star is a minimum, not a bisection.
    """
    gammas = np.asarray(list(gammas), dtype=float)
    # looked up per call, so a replaced module attribute is the one that runs
    solvers = {"tau_sharp": lambda g: tau_sharp(g, tol), "tau_star": tau_star}
    results = np.empty((len(gammas), 3))
    for row, g in zip(results, gammas):
        for i, (kind, solver) in enumerate(solvers.items()):
            try:
                row[i] = solver(g) if kind in kinds else math.nan
            except KolwaveError:
                row[i] = math.nan
        row[2] = (1.0 + g) / 4.0
    return RegionCurve(
        gamma=gammas,
        columns={
            "tau_sharp": results[:, 0],
            "tau_star": results[:, 1],
            "tau_upper": results[:, 2],
        },
    )
