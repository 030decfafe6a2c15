"""Growth laws G and averaging kernels K, with their derived constants.

Single home for all model symbols: per-capita growth G (food-limited,
quadratic, plain logistic/KPP), the spatiotemporal kernel K, the
speed-projected one-dimensional kernel N_c with its moments, the comb
layout of N_c for convolution, and the JSON wire format for model
descriptions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MomentError, PreconditionError
from .numerics import quad_adaptive

__all__ = [
    "GrowthModel",
    "Kernel",
    "WaveParams",
    "EffectiveKernel",
    "effective_kernel",
    "json_field",
    "params_to_json",
    "params_from_json",
]


@dataclass(frozen=True)
class GrowthModel:
    """Per-capita growth law G with G(1) = 0 and G(u)(1-u) > 0 off equilibrium.

    Kinds:
      food-limited  G(u) = (1-u)/(1+gamma*u),       gamma >= 0
      quadratic     G(u) = a + b*u - (a+b)*u**2,    a > 0, a+b > 0
      kpp           G(u) = 1 - u
    The quadratic closing coefficient is forced to a+b so the positive
    equilibrium sits at 1.  b > 0 raises the maximal growth above G(0)
    (Allee-type hump).
    """

    kind: str
    gamma: float = 0.0
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind == "food-limited":
            if self.gamma < 0:
                raise PreconditionError("food-limited needs gamma >= 0")
        elif self.kind == "quadratic":
            if not (self.a > 0 and self.a + self.b > 0):
                raise PreconditionError("quadratic needs a > 0 and a + b > 0")
        elif self.kind != "kpp":
            raise PreconditionError(f"unknown growth kind {self.kind!r}")

    @classmethod
    def food_limited(cls, gamma: float) -> "GrowthModel":
        return cls("food-limited", gamma=float(gamma))

    @classmethod
    def quadratic(cls, a: float, b: float) -> "GrowthModel":
        return cls("quadratic", a=float(a), b=float(b))

    @classmethod
    def kpp(cls) -> "GrowthModel":
        return cls("kpp")

    def g(self, u):
        """G(u); a float stays a Python float, anything else is an array."""
        u = u if type(u) is float else np.asarray(u, dtype=float)
        if self.kind == "food-limited":
            out = (1.0 - u) / (1.0 + self.gamma * u)
        elif self.kind == "quadratic":
            out = self.a + self.b * u - (self.a + self.b) * u * u
        else:
            out = 1.0 - u
        return out if type(out) is float or out.ndim else float(out)

    def g_prime(self, u):
        """G'(u), with floats and arrays as in `g`."""
        u = u if type(u) is float else np.asarray(u, dtype=float)
        if self.kind == "food-limited":
            d = 1.0 + self.gamma * u
            out = -(1.0 + self.gamma) / (d * d)
        elif self.kind == "quadratic":
            out = self.b - 2.0 * (self.a + self.b) * u
        else:
            out = -np.ones_like(u)
        return out if type(out) is float or out.ndim else float(out)

    @property
    def g0(self) -> float:
        return float(self.g(0.0))

    @property
    def gstar(self) -> float:
        """Maximal per-capita growth over u >= 0."""
        if self.kind == "quadratic" and self.b > 0:
            return self.a + self.b * self.b / (4.0 * (self.a + self.b))
        return self.g0

    @property
    def gp1(self) -> float:
        return float(self.g_prime(1.0))

    @property
    def has_allee(self) -> bool:
        return self.gstar > self.g0 + 1e-14

    def minorant_slope(self, u_max: float) -> float:
        """Smallest p >= G(0) with G(u) >= G(0) - p*u on [0, u_max].

        The chord slope (G(0) - G(u))/u is monotone in u for every kind (it
        falls for food-limited, is constant for kpp and rises for quadratic),
        so its supremum is at an end: -G'(0) as u -> 0, or the chord to u_max.
        """
        chord = (self.g0 - self.g(u_max)) / u_max
        p = max(self.g0, -float(self.g_prime(0.0)), chord)
        return p * (1.0 + 1e-12) + 1e-15


def _normalize_table(s, w):
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    if s.ndim != 1 or s.shape != w.shape or len(s) < 2:
        raise PreconditionError("kernel table needs matching 1-d arrays, length >= 2")
    if np.any(np.diff(s) <= 0):
        raise PreconditionError("kernel table nodes must be increasing")
    if np.any(w < 0):
        raise PreconditionError("kernel density must be non-negative")
    mass = float(np.trapezoid(w, s))
    if mass <= 0:
        raise PreconditionError("kernel table has zero mass")
    return s, w / mass


_EXP_CAP = math.log(sys.float_info.max) / 2.0  # exponent bound of table moment sums


@dataclass(frozen=True)
class Kernel:
    """Normalized averaging kernel K(s, y) in one of four shapes, and the
    moments of its speed projection N_c(s) = integral K(v, s - c*v) dv.

    dirac-spatial   K = K1(y) * delta(s); K1 a delta at 0 by default, or a
                    tabulated density over y.
    discrete-delay  K = delta(s - tau) * delta(y).
    weak-generic    gaussian-in-space times exponential-in-time density
                    exp(-y^2/4s)/sqrt(4 pi s) * exp(-s/tau)/tau on s > 0.
    tabulated-N     the speed-projected density N_c given directly as samples
                    (then independent of c).

    N_c is a point mass at c*tau for the delta kernels (tau is 0 for
    dirac-spatial), the two-sided exponential
    exp(c*s/2 - |s|*sqrt(A)) / (2*tau*sqrt(A)), A = c^2/4 + 1/tau, for the
    weak kernel, and the piecewise-linear table otherwise; every moment below
    is closed-form except on tables, which use the trapezoid rule on their nodes.
    """

    kind: str
    tau: float = 0.0
    table_s: tuple = ()
    table_w: tuple = ()

    def __post_init__(self):
        if self.kind not in ("dirac-spatial", "discrete-delay", "weak-generic", "tabulated-N"):
            raise PreconditionError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def dirac(cls) -> "Kernel":
        return cls("dirac-spatial")

    @classmethod
    def dirac_table(cls, y, density) -> "Kernel":
        s, w = _normalize_table(y, density)
        return cls("dirac-spatial", table_s=tuple(s), table_w=tuple(w))

    @classmethod
    def discrete(cls, tau: float) -> "Kernel":
        if not tau > 0:
            raise PreconditionError("discrete-delay needs tau > 0")
        return cls("discrete-delay", tau=float(tau))

    @classmethod
    def weak(cls, tau: float) -> "Kernel":
        if not tau > 0:
            raise PreconditionError("weak-generic needs tau > 0")
        return cls("weak-generic", tau=float(tau))

    @classmethod
    def tabulated(cls, s, density) -> "Kernel":
        s, w = _normalize_table(s, density)
        return cls("tabulated-N", table_s=tuple(s), table_w=tuple(w))

    @property
    def has_table(self) -> bool:
        return len(self.table_s) > 0

    @property
    def is_atom(self) -> bool:
        """N_c is a point mass, at c*tau."""
        return not self.has_table and self.kind != "weak-generic"

    def _weak_rates(self, c: float) -> tuple[float, float]:
        """Decay rates (right, left) of the weak kernel's N_c: it is
        exp(-right*s) for s > 0 and exp(left*s) for s < 0, over tau*(right+left)."""
        half = math.sqrt(c * c / 4.0 + 1.0 / self.tau)
        return half - c / 2.0, half + c / 2.0

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.table_s), np.array(self.table_w)

    @cached_property
    def _steps(self) -> np.ndarray:
        """np.diff of the table nodes, the cell widths of its trapezoid sums."""
        return np.diff(self._arrays[0])

    def _clipped(self, lo: float, hi: float):
        """Nodes and density of the table restricted to [lo, hi], the cut ends
        interpolated (whole-line moments read the stored arrays instead)."""
        s, w = self._arrays
        lo, hi = max(lo, s[0]), min(hi, s[-1])
        if not hi > lo:
            return s[:0], w[:0]
        keep = (s > lo) & (s < hi)
        ends = np.interp([lo, hi], s, w)
        return (np.concatenate(([lo], s[keep], [hi])),
                np.concatenate((ends[:1], w[keep], ends[1:])))

    def laplace(self, lam: float, c: float, order: int = 0) -> float:
        """Derivative of order `order` in lam of the whole-line moment
        integral exp(-lam*s) N_c(s) ds (the integral of exp(-lam*(c*s + y))
        against K), i.e. the integral of (-s)^order exp(-lam*s) N_c(s) ds;
        +inf past the abscissa."""
        if self.is_atom:
            try:
                return (-c * self.tau) ** order * math.exp(-lam * c * self.tau)
            except OverflowError:
                raise MomentError(f"moment of order {order} of the point mass at "
                                  f"{c * self.tau:.6g} overflows at rate {lam:.6g}") from None
        if self.kind == "weak-generic":
            denom = 1.0 + self.tau * (c * lam - lam * lam)
            if not denom > 0.0:
                return math.inf
            if order == 0:
                return 1.0 / denom
            # 1/denom = (1/(lam + right) + 1/(left - lam)) / (tau*(right + left))
            right, left = self._weak_rates(c)
            return (math.factorial(order) / (self.tau * (right + left))
                    * ((-1.0 / (lam + right)) ** order / (lam + right)
                       + (1.0 / (left - lam)) ** order / (left - lam)))
        s, w = self._arrays
        if order:
            w = (-s) ** order * w
        with np.errstate(over="ignore"):
            y = w * np.exp(-lam * s)
            # np.trapezoid's own expression, without its per-call np.diff
            val = float((self._steps * (y[1:] + y[:-1]) / 2.0).sum())
        return val if math.isfinite(val) else math.inf

    def finite_moment_interval(self, c: float) -> tuple[float, float]:
        """(lo, hi) open interval of lam where the moment is finite; for a
        table, where every exp(-lam*s) on its nodes stays below the square
        root of the largest float, so that its moment sums stay finite."""
        if self.kind == "weak-generic":
            right, left = self._weak_rates(c)
            return (-right, left)
        if self.has_table:
            first, last = float(self.table_s[0]), float(self.table_s[-1])
            return (-_EXP_CAP / last if last > 0.0 else -math.inf,
                    _EXP_CAP / -first if first < 0.0 else math.inf)
        return (-math.inf, math.inf)

    def laplace_right(self, lam: float, c: float) -> float:
        """Right-half moment integral over [0, +inf) of exp(-lam*s) N_c(s) ds;
        at lam = 0 the right mass (an atom at 0 counts as right mass)."""
        if self.is_atom:  # at c*tau, rounded as effective_kernel places the atom
            return math.exp(-lam * (c * self.tau))
        if self.kind == "weak-generic":
            right, left = self._weak_rates(c)
            return 1.0 / (self.tau * (right + left) * (right + lam)) if lam > -right else math.inf
        s, w = self._clipped(0.0, math.inf)
        return float(np.trapezoid(w * np.exp(-lam * s), s))

    def mean(self, c: float) -> float:
        if self.has_table:
            s, w = self._arrays
            return float(np.trapezoid(s * w, s))
        return c * self.tau

    def mass_on(self, lo: float, hi: float, c: float) -> float:
        """Mass of N_c on the window [lo, hi]."""
        if self.is_atom:
            return 1.0 if lo <= c * self.tau <= hi else 0.0
        if self.kind == "weak-generic":
            right, left = self._weak_rates(c)

            def below(x: float) -> float:  # mass of N_c on (-inf, x]
                return (right * math.exp(left * x) if x <= 0.0
                        else right + left - left * math.exp(-right * x)) / (right + left)

            return below(hi) - below(lo)
        s, w = self._clipped(lo, hi)
        return float(np.trapezoid(w, s))


@dataclass(frozen=True)
class WaveParams:
    growth: GrowthModel
    kernel: Kernel
    c: float

    def __post_init__(self):
        if self.c < 0:
            raise PreconditionError("wave speed must be non-negative")
        if not math.isfinite(self.c * self.kernel.tau):
            raise PreconditionError("c * tau, where the kernel's mass sits, must be finite")


@dataclass(frozen=True, eq=False)
class EffectiveKernel:
    """The projected kernel N_c laid out for the convolution comb: a single
    point mass at `atom`, or a piecewise-linear density w on the nodes s.
    Its moments are on Kernel."""

    atom: float | None = None
    s: np.ndarray | None = None
    w: np.ndarray | None = None

    @property
    def is_atom(self) -> bool:
        return self.atom is not None

    def convolve_weights(self, h: float) -> tuple[int, np.ndarray]:
        """Quadrature weights on an h-spaced comb for the convolution
        (N*phi)(t) = sum_j w_j phi(t - s_j), s_j = (m0 + j)*h.

        Atoms are split linearly between the two neighbouring comb points,
        so shifted evaluation stays exact for piecewise-linear profiles.
        """
        if self.is_atom:
            x = self.atom / h
            m = math.floor(x)
            theta = x - m
            if theta < 1e-12:
                return m, np.array([1.0])
            return m, np.array([1.0 - theta, theta])
        lo = math.floor(self.s[0] / h)
        hi = math.ceil(self.s[-1] / h)
        offs = np.arange(lo, hi + 1)
        vals = np.interp(offs * h, self.s, self.w, left=0.0, right=0.0)
        wts = vals * h
        total = wts.sum()
        if total <= 0:
            raise PreconditionError("kernel resampling lost all mass; refine the grid")
        return int(lo), wts / total


_WEAK_QUAD_TOL = 1e-9  # quadrature tolerance of each weak-kernel density sample


def _weak_density(s: np.ndarray, c: float, tau: float) -> np.ndarray:
    """Projected density of the weak-generic kernel at the nodes s, one
    v-integral per node (the v = w**2 substitution removes the endpoint
    singularity), all in one batched quadrature."""
    pref = 1.0 / (tau * math.sqrt(math.pi))
    a = c * c / 4.0 + 1.0 / tau

    def integrand(wv: np.ndarray, k: np.ndarray) -> np.ndarray:
        sk = s[k]
        v = wv * wv
        with np.errstate(divide="ignore", invalid="ignore"):  # v == 0 is taken below
            expo = -((sk - c * v) ** 2) / (4.0 * v) - v / tau
        return np.where(wv == 0.0, np.where(sk == 0.0, pref, 0.0), pref * np.exp(expo))

    w_max = np.sqrt(np.maximum(max(40.0 * tau, 40.0 / a), (np.abs(s) + 40.0) / max(c, 1e-6)))
    return quad_adaptive(integrand, np.zeros_like(s), w_max, _WEAK_QUAD_TOL)


def _weak_table(tau: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    half = math.sqrt(c * c / 4.0 + 1.0 / tau)
    rate_right = half - c / 2.0
    rate_left = half + c / 2.0
    # cover all but ~1e-8 of the mass on both exponential tails
    t_right = 22.0 / rate_right
    t_left = -22.0 / rate_left
    scale = min(1.0 / rate_right, 1.0 / rate_left)
    n = int(min(4001, max(1201, round((t_right - t_left) / (scale / 30.0)))))
    s = np.linspace(t_left, t_right, n)
    return s, _weak_density(s, c, tau)


def effective_kernel(kernel: Kernel, c: float) -> EffectiveKernel:
    """N_c laid out for the convolution comb.

    Point-mass kernels project to point masses and tables to themselves; the
    weak-generic kernel is tabulated on an adaptive grid covering all but
    < 1e-8 of its mass.
    """
    if kernel.is_atom:
        return EffectiveKernel(atom=c * kernel.tau)
    if kernel.has_table:
        return EffectiveKernel(s=np.array(kernel.table_s), w=np.array(kernel.table_w))
    if not c > 0:
        raise PreconditionError("weak-generic projection needs c > 0")
    s, w = _weak_table(kernel.tau, float(c))
    return EffectiveKernel(s=s, w=w)


def growth_to_json(growth: GrowthModel) -> dict:
    if growth.kind == "food-limited":
        return {"kind": "food-limited", "gamma": growth.gamma}
    if growth.kind == "quadratic":
        return {"kind": "quadratic", "a": growth.a, "b": growth.b}
    return {"kind": "kpp"}


def kernel_to_json(kernel: Kernel) -> dict:
    doc: dict = {"kind": kernel.kind}
    if kernel.kind in ("discrete-delay", "weak-generic"):
        doc["tau"] = kernel.tau
    if kernel.has_table:
        doc["s"] = list(kernel.table_s)
        doc["density"] = list(kernel.table_w)
    return doc


def params_to_json(params: WaveParams) -> dict:
    return {
        "growth": growth_to_json(params.growth),
        "kernel": kernel_to_json(params.kernel),
        "c": params.c,
    }


_JSON_KINDS = {float: "a number", int: "a number", dict: "an object", list: "a list of numbers"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def json_field(doc: dict, key: str, kind: type = float, default=None):
    """doc[key] as a float, an int, an object (dict) or a list of numbers; a
    field that is missing (and has no default), holds another type or holds
    a non-finite number (json.loads reads NaN and Infinity) raises
    PreconditionError naming it."""
    if not isinstance(doc, dict) or key not in doc:
        if default is None:
            raise PreconditionError(f"JSON field {key!r} is missing")
        return default
    value = doc[key]
    if kind is dict:
        ok = isinstance(value, dict)
    elif kind is list:
        ok = isinstance(value, list) and all(map(_is_number, value))
    else:
        ok = _is_number(value)
    if not ok:
        raise PreconditionError(f"JSON field {key!r} must be {_JSON_KINDS[kind]}, "
                                f"not {type(value).__name__}")
    if kind is not dict and not all(map(_is_finite, value if kind is list else [value])):
        raise PreconditionError(f"JSON field {key!r} holds a non-finite number")
    return kind(value) if kind in (float, int) else value


def growth_from_json(doc: dict) -> GrowthModel:
    kind = doc.get("kind")
    if kind == "food-limited":
        return GrowthModel.food_limited(json_field(doc, "gamma"))
    if kind == "quadratic":
        return GrowthModel.quadratic(json_field(doc, "a"), json_field(doc, "b"))
    if kind == "kpp":
        return GrowthModel.kpp()
    raise PreconditionError(f"unknown growth kind {kind!r}")


def kernel_from_json(doc: dict) -> Kernel:
    kind = doc.get("kind")
    if kind == "dirac-spatial":
        if "s" in doc:
            return Kernel.dirac_table(json_field(doc, "s", list), json_field(doc, "density", list))
        return Kernel.dirac()
    if kind == "discrete-delay":
        return Kernel.discrete(json_field(doc, "tau"))
    if kind == "weak-generic":
        return Kernel.weak(json_field(doc, "tau"))
    if kind == "tabulated-N":
        return Kernel.tabulated(json_field(doc, "s", list), json_field(doc, "density", list))
    raise PreconditionError(f"unknown kernel kind {kind!r}")


def params_from_json(doc: dict) -> WaveParams:
    """WaveParams from its JSON document (see params_to_json); a missing or
    mistyped field raises PreconditionError naming it."""
    return WaveParams(
        growth=growth_from_json(json_field(doc, "growth", dict)),
        kernel=kernel_from_json(json_field(doc, "kernel", dict)),
        c=json_field(doc, "c"),
    )
