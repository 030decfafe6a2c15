"""Root solvers and structural classifiers for the characteristic equations.

Covers the quadratic at the zero state (KPP rates lambda(c) <= mu(c)), the
transcendental linearization about the positive state for a general kernel,
the quartic of the two-component weak-kernel wave system (through the rates
at (1, 1) of its planar kinetics, which planarflow reads too), the delayed
characteristic of the discrete-delay profile equation, and the closed-form
critical delays separating real from complex spectra.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import PreconditionError, SubcriticalSpeedError
from .models import WaveParams
from .numerics import find_root

__all__ = [
    "Root",
    "RootReport",
    "kpp_roots",
    "roots_at_one",
    "weak_rates_at_one",
    "weak_char_roots",
    "delay_char_roots",
    "real_root_boundary",
    "CriticalDelays",
]

# |f| at a critical point within this share of its terms' magnitude is a double root
_ROUNDING = 16 * sys.float_info.epsilon


@dataclass(frozen=True)
class Root:
    re: float
    im: float = 0.0
    mult: int = 1

    @property
    def is_real(self) -> bool:
        return self.im == 0.0


@dataclass
class RootReport:
    """Roots of one characteristic equation plus structural classification."""

    roots: list[Root]
    classification: str | None = None  # "node" | "focus" | "boundary" | None
    truncated_window: tuple[float, float] | None = None

    def __post_init__(self):
        self.roots = sorted(self.roots, key=lambda r: (-r.re, -abs(r.im)))

    @property
    def real_negative_count(self) -> int:
        return sum(r.mult for r in self.roots if r.is_real and r.re < 0)

    @property
    def real_positive_count(self) -> int:
        return sum(r.mult for r in self.roots if r.is_real and r.re > 0)

    @property
    def has_complex_positive_real_part(self) -> bool:
        return any(r.im != 0.0 and r.re > 0 for r in self.roots)

    @property
    def dominant_real(self) -> float | None:
        reals = [r.re for r in self.roots if r.is_real]
        return max(reals) if reals else None

    def real_negative_roots(self) -> list[Root]:
        return [r for r in self.roots if r.is_real and r.re < 0]

    def to_json(self) -> dict:
        return {
            "roots": [{"re": r.re, "im": r.im, "mult": r.mult} for r in self.roots],
            "class": self.classification,
            "real_negative_count": self.real_negative_count,
            "real_positive_count": self.real_positive_count,
            "has_complex_positive_real_part": self.has_complex_positive_real_part,
            "dominant_real": self.dominant_real,
        }


def kpp_roots(c: float, g0: float) -> tuple[float, float]:
    """Decay/growth rates at the zero state: the two positive roots of
    z^2 - c z + G(0) = 0, returned as (lambda, mu) with lambda <= mu."""
    if g0 <= 0:
        raise PreconditionError("growth at zero must be positive")
    disc = c * c - 4.0 * g0
    if disc < 0:
        raise SubcriticalSpeedError(
            f"speed {c} below linear threshold {2.0 * math.sqrt(g0):.6g}"
        )
    r = math.sqrt(disc)
    return 0.5 * (c - r), 0.5 * (c + r)


def _rolle_roots(derivs: list[Callable[[float], float]], lo: float, hi: float,
                 terms: Callable[[float], float]) -> list[Root]:
    """Real roots on [lo, hi] of f = derivs[0], given its derivatives up to
    one, derivs[-1], that is monotone on [lo, hi].

    Each derivative is monotone on the pieces cut by the zeros of the one
    above it, so a piece whose ends differ in sign holds exactly one zero,
    which bisection finds.  A critical point of f where |f| is within the
    rounding of `terms(z)`, the summed magnitude of f's terms, is a double
    root; it replaces the simple roots that rounding leaves beside it.
    """
    cuts = [lo, hi]
    for fn in derivs[:0:-1]:  # from the monotone derivative down to f'
        cuts = [lo, *_piece_zeros(fn, cuts), hi]
    f = derivs[0]
    vals = [f(z) for z in cuts]
    double = [0 < i < len(cuts) - 1 and abs(v) <= _ROUNDING * terms(z)
              for i, (z, v) in enumerate(zip(cuts, vals))]
    roots = [Root(re=z, mult=2) for z, d in zip(cuts, double) if d]
    for i in range(len(cuts) - 1):
        if not (double[i] or double[i + 1]) and (vals[i] < 0) != (vals[i + 1] < 0):
            roots.append(Root(re=find_root(f, (cuts[i], cuts[i + 1]), 1e-14)))
    return roots


def _piece_zeros(fn: Callable[[float], float], cuts: list[float]) -> list[float]:
    """The zero of fn on each piece between consecutive cuts whose ends
    differ in sign; fn must be monotone on each piece."""
    vals = [fn(z) for z in cuts]
    return [find_root(fn, (a, b), 1e-14)
            for a, b, fa, fb in zip(cuts, cuts[1:], vals, vals[1:]) if (fa < 0) != (fb < 0)]


def roots_at_one(params: WaveParams) -> RootReport:
    """Real roots of the linearization about the positive state,
    z^2 - c z + G'(1) * M(z), with M the kernel's exponential moment.

    The search window is [-20/L, 0) with L the kernel's lag scale,
    clipped to the moment's finiteness interval (clipping is reported via
    `truncated_window`).  G'(1) < 0 for every growth law and the fourth
    derivative of M is positive, so the third derivative G'(1) M''' of the
    left side is monotone and Rolle isolation (`_rolle_roots`) finds every
    root: at most four, counted with multiplicity.
    """
    c = params.c
    gp1 = params.growth.gp1
    kern = params.kernel

    lag_scale = max(kern.tau * c, 1.0)  # 1 for the dirac and table kernels, whose tau is 0
    lo_fin, _ = kern.finite_moment_interval(c)
    truncated = None
    lo = -20.0 / lag_scale
    if lo <= lo_fin:
        lo = lo_fin + 1e-9 * max(1.0, abs(lo_fin)) + 1e-12
        truncated = (lo, 0.0)
    hi = -1e-12

    def terms(z: float) -> float:
        return z * z + abs(c * z) + abs(gp1 * kern.laplace(z, c))

    roots = _rolle_roots([lambda z: z * z - c * z + gp1 * kern.laplace(z, c),
                          lambda z: 2.0 * z - c + gp1 * kern.laplace(z, c, 1),
                          lambda z: 2.0 + gp1 * kern.laplace(z, c, 2),
                          lambda z: gp1 * kern.laplace(z, c, 3)], lo, hi, terms)
    return RootReport(roots=roots, truncated_window=truncated)


def weak_rates_at_one(gamma: float, tau: float) -> tuple[complex, complex, float]:
    """The roots w of tau w^2 - w + 1/(1+gamma) = 0, whose negatives are the
    eigenvalues of the weak-kernel planar kinetics at (1, 1), as
    (w_slow, w_fast, d) with d = 1 - 4 tau/(1+gamma): a node for d > 0, a
    focus (a conjugate pair) for d < 0.  The one place that decides the
    class: |d| <= 1e-12 is the boundary, d = 0.0 with both rates the double
    root 2/(1+gamma).  Written so that neither 1/tau^2 is formed nor
    near-equal terms are subtracted."""
    d = 1.0 - 4.0 * tau / (1.0 + gamma)
    if abs(d) <= 1e-12:
        w = complex(2.0 / (1.0 + gamma))
        return w, w, 0.0
    root = 1.0 + cmath.sqrt(d)
    return 2.0 / (1.0 + gamma) / root, root / (2.0 * tau), d


def weak_char_roots(gamma: float, tau: float, eps: float) -> RootReport:
    """All roots of the weak-kernel wave quartic
    (eps z^2 - z)^2 - (eps z^2 - z)/tau + 1/(tau(1+gamma)) = 0.

    Solved exactly through the intermediate quadratic in w = eps z^2 - z
    (`weak_rates_at_one`), then eps z^2 - z - w = 0 for each w, its small
    root taken as -2w/(1 + sqrt(1 + 4 eps w)) so that nothing cancels.
    Classification by the sign of its d: 'node' for two simple real roots
    with negative part (tau < (1+gamma)/4), 'focus' past that delay,
    'boundary' (every root double) on the curve.  For d >= 0 all are real.
    """
    if not (0 < gamma < math.inf and 0 < tau < math.inf):
        raise PreconditionError("gamma and tau must be positive and finite")
    if eps < 0:
        raise PreconditionError("eps must be non-negative")

    w_slow, w_fast, d = weak_rates_at_one(gamma, tau)
    # |w_fast| is about 1/tau, and the roots of eps z^2 - z - w need 4 eps w
    if not (math.isfinite(abs(w_fast)) and math.isfinite(4.0 * eps * abs(w_fast))):
        raise PreconditionError(f"at tau={tau:.6g}, eps={eps:.6g} the fast roots are not floats")
    if d == 0.0:
        classification, rates, mult = "boundary", (w_slow,), 2
    else:
        classification, rates, mult = ("node" if d > 0 else "focus"), (w_fast, w_slow), 1

    roots: list[Root] = []
    for w in rates:
        if eps == 0.0:  # the quadratic in z degenerates; one branch escapes to infinity
            zs = [-w]
        else:
            s = cmath.sqrt(1.0 + 4.0 * eps * w)
            zs = [(1.0 + s) / (2.0 * eps), -2.0 * w / (1.0 + s)]
        roots += [Root(z.real, z.imag if d < 0 else 0.0, mult) for z in zs]
    return RootReport(roots=roots, classification=classification)


def delay_char_roots(gamma: float, tau: float, eps: float) -> RootReport:
    """Real roots in [-20/tau, 0) of the delayed characteristic
    eps z^2 - z - exp(-z tau)/(1+gamma) = 0.

    Its third derivative is positive, so its second is monotone and Rolle
    isolation (`_rolle_roots`) finds every root.  For eps = 0 and
    tau < (1+gamma)/e there are exactly two simple negative roots
    z2 < -1/tau < z1; on the boundary delay, where the minimum of the left
    side is zero within rounding, they are one double root at -1/tau,
    classified 'boundary', and beyond it they vanish.
    """
    if gamma < 0 or not tau > 0 or eps < 0:
        raise PreconditionError("need gamma >= 0, tau > 0, eps >= 0")
    denom = 1.0 + gamma

    def terms(z: float) -> float:
        return eps * z * z + abs(z) + math.exp(-z * tau) / denom

    roots = _rolle_roots([lambda z: eps * z * z - z - math.exp(-z * tau) / denom,
                          lambda z: 2.0 * eps * z - 1.0 + tau * math.exp(-z * tau) / denom,
                          lambda z: 2.0 * eps - tau * tau * math.exp(-z * tau) / denom],
                         -20.0 / tau, -1e-12, terms)
    classification = "boundary" if any(r.mult == 2 for r in roots) else None
    return RootReport(roots=roots, classification=classification)


class CriticalDelays(NamedTuple):
    discrete: float  # real spectrum at the positive state up to (1+gamma)/e
    weak: float      # node-to-focus switch of the weak-kernel system at (1+gamma)/4


def real_root_boundary(gamma: float) -> CriticalDelays:
    """Critical delays below which the linearization about the positive state
    keeps real negative roots, for the two delay models."""
    if gamma < 0:
        raise PreconditionError("gamma must be non-negative")
    return CriticalDelays(discrete=(1.0 + gamma) / math.e, weak=(1.0 + gamma) / 4.0)
