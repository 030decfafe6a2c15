"""Growth laws G and averaging kernels K, with their derived constants.

Single home for all model symbols: per-capita growth G (food-limited,
quadratic, plain logistic/KPP), the spatiotemporal kernel K, the
speed-projected one-dimensional kernel N_c, the exponential moment
transform of N_c, and the JSON wire format for model descriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .numerics import quad_adaptive

__all__ = [
    "GrowthModel",
    "Kernel",
    "WaveParams",
    "EffectiveKernel",
    "effective_kernel",
    "moment_transform",
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
        u = np.asarray(u, dtype=float)
        if self.kind == "food-limited":
            out = (1.0 - u) / (1.0 + self.gamma * u)
        elif self.kind == "quadratic":
            out = self.a + self.b * u - (self.a + self.b) * u * u
        else:
            out = 1.0 - u
        return out if out.ndim else float(out)

    def g_prime(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "food-limited":
            out = -(1.0 + self.gamma) / (1.0 + self.gamma * u) ** 2
        elif self.kind == "quadratic":
            out = self.b - 2.0 * (self.a + self.b) * u
        else:
            out = -np.ones_like(u)
        return out if out.ndim else float(out)

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

    def minorant_slope(self, u_max: float, n: int = 2000) -> float:
        """Smallest grid-valid p >= G(0) with G(u) >= G(0) - p*u on [0, u_max].

        The chord slope (G(0) - G(u))/u peaks at u -> 0 for concave laws, so
        -G'(0) anchors the grid maximum.
        """
        us = np.linspace(u_max / n, u_max, n)
        slopes = (self.g0 - self.g(us)) / us
        p = max(self.g0, -float(self.g_prime(0.0)), float(slopes.max()))
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


@dataclass(frozen=True)
class Kernel:
    """Normalized averaging kernel K(s, y) in one of four shapes.

    dirac-spatial   K = K1(y) * delta(s); K1 a delta at 0 by default, or a
                    tabulated density over y.
    discrete-delay  K = delta(s - tau) * delta(y).
    weak-generic    gaussian-in-space times exponential-in-time density
                    exp(-y^2/4s)/sqrt(4 pi s) * exp(-s/tau)/tau on s > 0.
    tabulated-N     the speed-projected density N_c given directly as samples
                    (then independent of c).
    """

    kind: str
    tau: float = 0.0
    table_s: tuple = ()
    table_w: tuple = ()

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

    def laplace(self, lam: float, c: float) -> float:
        """Exponential moment of the projected kernel,
        integral of exp(-lam*(c*s + y)) against K; +inf past the abscissa."""
        if self.kind == "dirac-spatial":
            if not self.has_table:
                return 1.0
            s = np.array(self.table_s)
            w = np.array(self.table_w)
            val = float(np.trapezoid(w * np.exp(-lam * s), s))
            return val
        if self.kind == "discrete-delay":
            return math.exp(-lam * c * self.tau)
        if self.kind == "weak-generic":
            denom = 1.0 + self.tau * (c * lam - lam * lam)
            if denom <= 0.0:
                return math.inf
            return 1.0 / denom
        s = np.array(self.table_s)
        w = np.array(self.table_w)
        with np.errstate(over="ignore"):
            val = float(np.trapezoid(w * np.exp(-lam * s), s))
        return val if math.isfinite(val) else math.inf

    def laplace_deriv(self, lam: float, c: float) -> float:
        if self.kind == "dirac-spatial":
            if not self.has_table:
                return 0.0
            s = np.array(self.table_s)
            w = np.array(self.table_w)
            return float(np.trapezoid(-s * w * np.exp(-lam * s), s))
        if self.kind == "discrete-delay":
            return -c * self.tau * math.exp(-lam * c * self.tau)
        if self.kind == "weak-generic":
            denom = 1.0 + self.tau * (c * lam - lam * lam)
            if denom <= 0.0:
                return math.inf
            return -self.tau * (c - 2.0 * lam) / (denom * denom)
        s = np.array(self.table_s)
        w = np.array(self.table_w)
        return float(np.trapezoid(-s * w * np.exp(-lam * s), s))

    def finite_moment_interval(self, c: float) -> tuple[float, float]:
        """(lo, hi) open interval of lam where the moment is finite."""
        if self.kind == "weak-generic":
            half = math.sqrt(c * c / 4.0 + 1.0 / self.tau)
            return (c / 2.0 - half, c / 2.0 + half)
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class WaveParams:
    growth: GrowthModel
    kernel: Kernel
    c: float

    def __post_init__(self):
        if self.c < 0:
            raise PreconditionError("wave speed must be non-negative")

    @property
    def eps_speed(self) -> float:
        """1/c^2, the slow-speed parameter of the large-c scalings."""
        return self.c ** -2

    @property
    def speed_flag(self) -> str:
        if self.c >= 2.0 * math.sqrt(self.growth.gstar) - 1e-12:
            return "existence-guaranteed"
        if self.c < 2.0 * math.sqrt(self.growth.g0):
            return "nonexistence"
        return "undetermined"


class EffectiveKernel:
    """Speed-projected kernel N_c: either a single point mass or a
    piecewise-linear tabulated density with unit mass."""

    def __init__(self, atom: float | None = None, s: np.ndarray | None = None,
                 w: np.ndarray | None = None):
        self.atom = atom
        if atom is None:
            mass = float(np.trapezoid(w, s))
            self.s = np.asarray(s, dtype=float)
            self.w = np.asarray(w, dtype=float) / mass
        else:
            self.s = None
            self.w = None

    @property
    def is_atom(self) -> bool:
        return self.atom is not None

    def mass(self) -> float:
        if self.is_atom:
            return 1.0
        return float(np.trapezoid(self.w, self.s))

    def mean(self) -> float:
        if self.is_atom:
            return self.atom
        return float(np.trapezoid(self.s * self.w, self.s))

    def right_mass(self) -> float:
        """Mass on [0, +inf); an atom exactly at 0 counts as right mass."""
        if self.is_atom:
            return 1.0 if self.atom >= 0 else 0.0
        s, w = self.s, self.w
        if s[0] >= 0:
            return self.mass()
        if s[-1] <= 0:
            return 0.0
        i = int(np.searchsorted(s, 0.0))
        w0 = np.interp(0.0, s, w)
        ss = np.concatenate(([0.0], s[i:]))
        ww = np.concatenate(([w0], w[i:]))
        return float(np.trapezoid(ww, ss))

    def mass_on(self, lo: float, hi: float) -> float:
        if self.is_atom:
            return 1.0 if lo <= self.atom <= hi else 0.0
        grid = np.linspace(max(lo, self.s[0]), min(hi, self.s[-1]), 2001)
        if grid[-1] <= grid[0]:
            return 0.0
        return float(np.trapezoid(np.interp(grid, self.s, self.w), grid))

    def laplace(self, lam: float) -> float:
        """integral exp(-lam*s) N(s) ds over the whole line."""
        if self.is_atom:
            return math.exp(-lam * self.atom)
        with np.errstate(over="ignore"):
            val = float(np.trapezoid(self.w * np.exp(-lam * self.s), self.s))
        return val if math.isfinite(val) else math.inf

    def laplace_right(self, lam: float) -> float:
        """integral over [0, +inf) of exp(-lam*s) N(s) ds."""
        if self.is_atom:
            return math.exp(-lam * self.atom) if self.atom >= 0 else 0.0
        s, w = self.s, self.w
        if s[-1] <= 0:
            return 0.0
        if s[0] < 0:
            i = int(np.searchsorted(s, 0.0))
            w0 = np.interp(0.0, s, w)
            s = np.concatenate(([0.0], s[i:]))
            w = np.concatenate(([w0], w[i:]))
        return float(np.trapezoid(w * np.exp(-lam * s), s))

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


def _weak_density(s: float, c: float, tau: float, tol: float) -> float:
    """Pointwise projected density of the weak-generic kernel via the
    v-integral (v = w**2 substitution removes the endpoint singularity)."""
    pref = 1.0 / (tau * math.sqrt(math.pi))
    a = c * c / 4.0 + 1.0 / tau

    def integrand(wv: float) -> float:
        if wv == 0.0:
            return 0.0 if s != 0.0 else pref
        v = wv * wv
        expo = -((s - c * v) ** 2) / (4.0 * v) - v / tau
        return pref * math.exp(expo)

    w_max = math.sqrt(max(40.0 * tau, 40.0 / a, (abs(s) + 40.0) / max(c, 1e-6)))
    return quad_adaptive(integrand, (0.0, w_max), tol)


@lru_cache(maxsize=32)
def _weak_table(tau: float, c: float, tol: float) -> tuple:
    half = math.sqrt(c * c / 4.0 + 1.0 / tau)
    rate_right = half - c / 2.0
    rate_left = half + c / 2.0
    # cover all but ~1e-8 of the mass on both exponential tails
    t_right = 22.0 / rate_right
    t_left = -22.0 / rate_left
    scale = min(1.0 / rate_right, 1.0 / rate_left)
    n = int(min(4001, max(1201, round((t_right - t_left) / (scale / 30.0)))))
    s = np.linspace(t_left, t_right, n)
    w = np.array([_weak_density(float(x), c, tau, tol * 1e-1) for x in s])
    return tuple(s), tuple(w)


def effective_kernel(kernel: Kernel, c: float, tol: float = 1e-8) -> EffectiveKernel:
    """Project K onto the wave variable: N_c(s) = integral K(v, s - c*v) dv.

    Point-mass kernels project to point masses; the weak-generic kernel is
    tabulated on an adaptive grid covering all but < 1e-8 of its mass and
    renormalized to unit mass.
    """
    if kernel.kind == "discrete-delay":
        return EffectiveKernel(atom=c * kernel.tau)
    if kernel.kind == "dirac-spatial":
        if not kernel.has_table:
            return EffectiveKernel(atom=0.0)
        return EffectiveKernel(s=np.array(kernel.table_s), w=np.array(kernel.table_w))
    if kernel.kind == "tabulated-N":
        return EffectiveKernel(s=np.array(kernel.table_s), w=np.array(kernel.table_w))
    if kernel.kind == "weak-generic":
        if not c > 0:
            raise PreconditionError("weak-generic projection needs c > 0")
        s, w = _weak_table(kernel.tau, float(c), float(tol))
        return EffectiveKernel(s=np.array(s), w=np.array(w))
    raise PreconditionError(f"unknown kernel kind {kernel.kind!r}")


def moment_transform(kernel: Kernel, c: float, lam: float) -> float:
    """Exponential moment of the projected kernel at decay rate lam.

    Equals 1 at lam = 0 for every normalized kernel; returns math.inf past
    the finiteness abscissa instead of raising.
    """
    return kernel.laplace(lam, c)


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


def growth_from_json(doc: dict) -> GrowthModel:
    kind = doc.get("kind")
    if kind == "food-limited":
        return GrowthModel.food_limited(doc["gamma"])
    if kind == "quadratic":
        return GrowthModel.quadratic(doc["a"], doc["b"])
    if kind == "kpp":
        return GrowthModel.kpp()
    raise PreconditionError(f"unknown growth kind {kind!r}")


def kernel_from_json(doc: dict) -> Kernel:
    kind = doc.get("kind")
    if kind == "dirac-spatial":
        if "s" in doc:
            return Kernel.dirac_table(doc["s"], doc["density"])
        return Kernel.dirac()
    if kind == "discrete-delay":
        return Kernel.discrete(doc["tau"])
    if kind == "weak-generic":
        return Kernel.weak(doc["tau"])
    if kind == "tabulated-N":
        return Kernel.tabulated(doc["s"], doc["density"])
    raise PreconditionError(f"unknown kernel kind {kind!r}")


def params_from_json(doc: dict) -> WaveParams:
    return WaveParams(
        growth=growth_from_json(doc["growth"]),
        kernel=kernel_from_json(doc["kernel"]),
        c=float(doc["c"]),
    )
