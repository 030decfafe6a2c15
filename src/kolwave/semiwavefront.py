"""Semi-wavefront construction for general kernels by fixed-point iteration
of the Green-function integral operator, sandwiched between closed-form
upper and lower solutions.

The profile equation phi'' - c phi' + phi*G(N_c * phi) = 0 is rewritten with
a shift b > 0 as phi'' - c phi' - b phi + r(phi) = 0,
r(phi) = b*phi + ramp_cutoff(phi)*G(N_c * phi), and inverted through the
two-sided exponential Green kernel with rates z1 < 0 < z2 solving
z^2 - c z - b = 0.  Its two one-sided convolutions are one-pass
recurrences, run forwards and backwards, exact for piecewise-linear
integrands, with the half-infinite tail closed analytically.  Together
they are semiseparable: in chunks of 32 nodes, the image of a chunk is
one row (its samples and the two sums carried in from either side) times
one fixed matrix built once per front, so a sweep is two matrix products
and a carry recurrence over the chunks.  The Picard loop runs on buffers
allocated once per front.  N_c * phi runs through the comb of
effective_kernel: np.correlate for atoms; for longer combs the same "rows
times one fixed matrix" form as the Green sweep, each row the padded
samples one block of 32 outputs reads and the matrix the comb's Toeplitz
band; and a product with the comb's rFFT for combs long enough that the
block product's work outweighs the FFT.  The
matrix, the spectrum and the buffers are built once per front.  A front
whose grid nodes times max_iters exceeds a fixed work budget is refused
before its grid is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    DivergenceError,
    InvarianceBreachError,
    MomentError,
    PreconditionError,
    UnsupportedError,
)
from .models import GrowthModel, Kernel, WaveParams, effective_kernel, json_field
from .numerics import Grid, find_root
from .profiles import Profile, build_profile, crossings_of_one
from .spectral import RootReport, kpp_roots, roots_at_one

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
]


def ramp_cutoff(u, beta: float):
    """Identity below beta, linear descent to zero at 2*beta, zero beyond."""
    u = np.asarray(u, dtype=float)
    out = np.minimum(u, np.maximum(0.0, 2.0 * beta - u))
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
            raise BracketError("sigma search failed to bracket")
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
        moment = kernel.laplace_right(lam, c)
        u = 1.0 / moment if moment > 0.0 else math.inf
        if not math.isfinite(u):
            raise MomentError(f"right-half kernel moment at rate {lam:.6g} underflows "
                              f"({moment:.3g}), so the bound 1/moment is not finite")
        candidates.append((u, "right-mass"))
    if right < 0.001:
        r = 1
        while kernel.mass_on(-float(r), 0.0, c) <= 0.99:
            r += 1
            if r > 10_000:
                raise MomentError("kernel mass does not concentrate on a finite window")
        sigma = _sigma_for_left_branch(c, lam)
        candidates.append((2.0 * math.exp(lam * (r + sigma)), "left-support"))
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
    jump: float  # C e^(mu t_join): the gap between e^(lam t) and the front at the join
    t_join: float
    zhat: float

    @property
    def coef(self) -> float:
        """C, which underflows to 0 for fast fronts (large mu*t_join)."""
        return self.jump * math.exp(-self.mu * self.t_join)

    def __call__(self, t):
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        left = t <= self.t_join
        # C e^(mu t) as jump*e^(mu (t - t_join)): at most jump on the left
        # branch, where C*e^(mu t) would form 0*inf once C underflows
        out[left] = (np.exp(self.lam * t[left])
                     - self.jump * np.exp(self.mu * (t[left] - self.t_join)))
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
    return UpperSolution(c=c, g0=g0, beta=beta, lam=lam, mu=mu, jump=a_join - beta,
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


def lower_solution(lam: float, mu_lower: float, amplitude: float,
                   grid: Grid) -> np.ndarray:
    """Samples of the clamped lower solution max(0, e^(lam t)(1 - M e^(mu_lower t)))
    for the slow KPP rate lam; vanishes past t = -ln(amplitude)/mu_lower."""
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
        if not 0 < self.b < math.inf:
            raise PreconditionError(f"shift b must be positive and finite, got {self.b}")
        if not 1 < self.beta < math.inf:
            raise PreconditionError(f"cutoff level beta must exceed 1 and be finite, got {self.beta}")
        if self.max_iters < 1:
            raise PreconditionError("max_iters must be at least 1")
        if not self.tol > 0:
            raise PreconditionError("tol must be positive")

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


def default_config(params: WaveParams, dt: float = 0.02, tol: float = 1e-9,
                   roots: RootReport | None = None) -> IterationConfig:
    """Config with the spelled-out defaults: cutoff level 1.5x the a-priori
    bound, shift b = G(0) - min G on [0, 2*beta] + 1, and a grid wide
    enough that both end states are resolved to ~1e-9.  Every law the bound
    accepts (no hump) falls on [0, inf), so that minimum is G(2*beta) < 0.

    The iteration is monotone when b*u + ramp_cutoff(u)*G(psi) is
    nondecreasing in u for u, psi in [0, 2*beta]; ramp_cutoff has slope +-1,
    so that needs b >= max(G(0), -G(2*beta)), which G(0) - G(2*beta) covers
    with a margin of 1.  `roots` is roots_at_one(params) when the caller
    already has it."""
    growth, c = params.growth, params.c
    bound = apriori_bound(c, params.kernel, growth)
    beta = 1.5 * bound.U
    b = growth.g0 - growth.g(2.0 * beta) + 1.0

    lam, _ = kpp_roots(c, growth.g0)
    if roots is None:
        roots = roots_at_one(params)
    negs = roots.real_negative_roots()
    rate_plus = max((r.re for r in negs), default=-abs(growth.gp1) / c)
    t_lo = -21.0 / lam
    t_hi = 21.0 / max(-rate_plus, 1e-3) + max(params.kernel.mean(c), 0.0) + 10.0
    grid = Grid(t_lo, dt, int((t_hi - t_lo) / dt) + 1)
    return IterationConfig(b=b, beta=beta, grid=grid, tol=tol)


_SWEEP_SPAN = 600.0  # largest z2*h: a larger shift is refused as too large for the grid step
_CHUNK = 32  # nodes per block of the Green operator and the comb product; 16 and 64 run alike


def _cell_weights(alpha: float, h: float, lam: float) -> tuple[float, float]:
    """Weights (far, near) on r[i-1] and r[i] of one cell of the one-sided
    convolution int_-inf^t e^(alpha(t-s)) r(s) ds (alpha < 0), r linear on
    the cell.  The exact one-cell weights get an antisymmetric O(h^2) split
    that makes the recurrence I_i = e^(alpha h) I_{i-1} + far*r[i-1] +
    near*r[i] exact on e^(lam t) as well as on constants."""
    e = math.exp(alpha * h)
    near = -1.0 / alpha + (e - 1.0) / (alpha * alpha * h)
    far = (e - 1.0) / alpha - near
    em = math.exp(-lam * h)
    ell = (far * em + near) / (1.0 - e * em)
    d = (1.0 / (lam - alpha) - ell) * (1.0 - e * em) / (em - 1.0)
    return far + d, near - d


def _powers(rate: float, count: int) -> np.ndarray:
    """e^(rate*j) for j < count (rate <= 0).  Powers below 2**-500 are
    zero: next to a chunk's own terms they add nothing, and they would put
    subnormal products, which the CPU runs far slower, into the sums."""
    out = np.exp(rate * np.arange(count))
    out[out < 2.0 ** -500] = 0.0
    return out


class _Carries:
    """x_0 = x0, x_{i+1} = e^rate * x_i + y_i over m values, for two
    sequences at once: `rates`, `x0`, the inputs `y` and the outputs `out`
    hold one entry per sequence.

    A sequence that fits one block of _CHUNK values runs as a float loop;
    longer sequences run in the blocked form of the Green operator: one
    product with a fixed _CHUNK x _CHUNK matrix gives every block's partial
    sums, and the block heads are the same recurrence, m/_CHUNK long, with
    ratio e^(rate*_CHUNK)."""

    def __init__(self, rates: tuple[float, float], m: int):
        self.ratios = [math.exp(rate) for rate in rates]
        self.heads = None
        if m > _CHUNK:
            k = _CHUNK
            pw = np.array([_powers(rate, k) for rate in rates])
            ahead = np.arange(k) - np.arange(k)[:, None]  # j - l
            self.steps = np.where(ahead > 0, pw[:, np.maximum(ahead - 1, 0)], 0.0)
            self.powers = pw[:, None, :]
            self.last = np.array(self.ratios)[:, None]
            self.padded = np.zeros((2, -(-m // k) * k))
            self.heads = _Carries(tuple(rate * k for rate in rates), -(-m // k))

    def __call__(self, y, x0, out) -> None:
        if self.heads is None:
            for ratio, x, ys, o in zip(self.ratios, x0, y, out):
                xs = [x]
                for v in ys[:-1].tolist():
                    x = ratio * x + v
                    xs.append(x)
                o[:] = xs
            return
        m, k = len(y[0]), _CHUNK
        for row, ys in zip(self.padded, y):
            row[:m] = ys
        blocks = self.padded.reshape(2, -1, k)
        sums = np.matmul(blocks, self.steps)  # x - ratio^j * head at each block's j-th value
        feeds = self.last * sums[:, :, -1] + blocks[:, :, -1]  # the same one past the block
        heads = np.empty(feeds.shape)
        self.heads(feeds, x0, heads)
        sums += heads[:, :, None] * self.powers
        for o, row in zip(out, sums.reshape(2, -1)):
            o[:] = row[:m]


class _GreenOperator:
    """(1/(z2-z1)) * [int_-inf^t e^(z1(t-s)) r + int_t^inf e^(z2(t-s)) r] on
    a grid of n nodes with step h, applied to the samples r.

    The left term is the recurrence of _cell_weights(z1, h, lam) with the
    tail r[0]*e^(lam(s-t0)); the right one runs the mirrored recurrence
    backwards with r frozen at r[-1].  Both cell rules are exact on
    constants and on e^(lam t), so the two marginal modes of the front
    iteration (the plateau and the translation tail) are preserved to
    rounding, which keeps the fixed point from drifting off the grid.

    Both recurrences are semiseparable: cut into chunks of k = _CHUNK
    nodes, the image of chunk i is one row times one fixed (k + 5) x k
    matrix.  The row holds r[ik-1 .. ik+k] less c_i = r[ik] (r continued
    by its tail left of the grid and frozen at r[-1] right of it), the left
    sum just before the chunk less its value on the constant c_i, the right
    sum just after it less its value on c_{i+1}, and c_i/shift, the image
    of the constant c_i (shift = -z1*z2).  A constant stretch of r thus
    maps to exactly r/shift.  The two sums are first-order recurrences over the chunks,
    fed by one product of the rows with two columns; a sweep is those two
    products and the recurrences.  The operator holds its buffers: a
    caller writes r into `self.r` and calls `image`.
    """

    def __init__(self, z1: float, z2: float, h: float, n: int, lam: float):
        if not z2 * h < _SWEEP_SPAN:  # z2 > -z1, so the right sweep's ratio is the smaller
            raise PreconditionError(
                f"Green rates z1*h = {z1 * h:.6g}, z2*h = {z2 * h:.6g} put a sweep ratio "
                f"below exp(-{_SWEEP_SPAN:g}): the shift b is too large for the grid step {h:g}")
        k = _CHUNK
        m = -(-n // k)
        far1, near1 = _cell_weights(z1, h, lam)
        far2, near2 = _cell_weights(-z2, h, -lam)
        pw1, pw2 = _powers(z1 * h, k + 2), _powers(-z2 * h, k + 2)
        # row p of a chunk's window is r[ik + p - 1]; column j is node ik + j
        p, j = np.arange(k + 2)[:, None], np.arange(k)[None, :]
        left = (np.where(p <= j, far1 * pw1[np.clip(j - p, 0, k)], 0.0)
                + np.where((1 <= p) & (p <= j + 1), near1 * pw1[np.clip(j - p + 1, 0, k)], 0.0))
        right = (np.where(p >= j + 2, far2 * pw2[np.clip(p - j - 2, 0, k)], 0.0)
                 + np.where((j + 1 <= p) & (p <= k), near2 * pw2[np.clip(p - j - 1, 0, k)], 0.0))
        self._feeds = np.column_stack((left[:, k - 1], right[:, 0]))
        # the left sum before chunk i runs less c_i/(-z1), the right sum
        # after it less c_{i+1}/z2; the window's last entry less c_i is
        # c_{i+1} - c_i, so the change of constant folds into its row
        self._feeds[k + 1] += (1.0 / z1, pw2[k] / z2)
        right[k + 1] += pw2[k:0:-1] / z2
        width = z2 - z1
        self._blocks = np.vstack(((left + right) / width, pw1[1:k + 1] / width,
                                  pw2[k:0:-1] / width, np.ones(k)))
        self._carries = _Carries((z1 * h * k, -z2 * h * k), m)
        self._z1, self.shift = z1, -z1 * z2
        # the left tail r[0]*e^(lam(s-t0)) one node before t0, and its sum
        self._tail_step = math.exp(-lam * h)
        self._tail_sum = 1.0 / (lam - z1)
        self.n = n
        self.size = m * k
        self._padded = np.empty(m * k + 2)
        self.r = self._padded[1:n + 1]
        self._windows = np.lib.stride_tricks.sliding_window_view(self._padded, k + 2)[::k]
        self._refs = self._padded[1:m * k + 1:k]
        self._rows = np.empty((m, k + 5))
        self._fed = np.empty((m, 2))

    def image(self, out: np.ndarray) -> np.ndarray:
        """Image of the samples in `self.r`, written to `out` (`self.size`
        floats); returns its first n."""
        n, k = self.n, _CHUNK
        padded, refs, rows, fed = self._padded, self._refs, self._rows, self._fed
        padded[0] = self._tail_step * padded[1]
        padded[n + 1:] = padded[n]
        np.subtract(self._windows, refs[:, None], out=rows[:, :k + 2])
        np.matmul(rows[:, :k + 2], self._feeds, out=fed)
        # the right sums run backwards from the chunk after the grid, where
        # r is frozen at r[-1] and its sum is r[-1]/z2
        self._carries((fed[:, 0], fed[::-1, 1]),
                      (self._tail_sum * padded[0] + refs[0] / self._z1, 0.0),
                      (rows[:, k + 2], rows[::-1, k + 3]))
        np.divide(refs, self.shift, out=rows[:, k + 4])
        np.matmul(rows, self._blocks, out=out.reshape(-1, k))
        return out[:n]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        self.r[:] = r
        return self.image(np.empty(self.size))


# The comb runs on one of three paths (_comb_path).  np.correlate costs
# taps*n multiply-adds in a plain loop, the block path (taps + k - 1)*n
# (k = _CHUNK outputs per row) in matrix products, which BLAS runs 3-8x
# faster per multiply-add.
_BLOCK_FLOATS = 1 << 17  # most floats in the block path's matrix (1 MiB)
# Floats of the row chunk that one product takes (128 KiB): over whole
# table fronts of the bench pool, 2^13 to 2^17 ran alike and 2^11 took
# twice as long per sweep.
_ROW_FLOATS = 1 << 14
# Work ratio (taps + k - 1)*n / (nfft*log2(nfft)) above which the comb is
# applied by FFT: the block product costs (taps + k - 1)*n multiply-adds,
# one FFT sweep (rfft, product, irfft) about nfft*log2(nfft).  The two
# cost alike at ratios of 25-40 (the upper end for a thousand nodes, the
# lower for 30k-100k): at 6,000 nodes the product takes 26 us for 100 taps
# (ratio 10), 117 us for 400 (32) and 434 us for 1,600 (99), the FFT
# 91-143 us for all three.  30 sits inside that crossover.
_FFT_GAIN = 30.0


def _fft_length(size: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= size: pocketfft runs such lengths about
    as fast as powers of two, and they lie far closer to the padded size
    (10,800 in place of 16,384 for 10,5xx samples)."""
    best = 1 << max(size - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < size:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _comb_path(taps: int, n: int, size: int) -> tuple[str, int]:
    """("correlate", 0), ("block", 0) or ("fft", nfft): the path that
    applies a comb of `taps` over n nodes padded to `size` samples.  Atoms
    (one or two taps: a point mass on a node or between two) take
    np.correlate, long combs the FFT once the block product's work
    outweighs it _FFT_GAIN-fold, the rest the block product.  A comb whose
    block matrix would pass _BLOCK_FLOATS (over 4,000 taps, only on a grid
    too short for the FFT rule) stays on np.correlate."""
    if taps <= 2:
        return "correlate", 0
    width = taps + _CHUNK - 1
    nfft = _fft_length(size)
    if width * n > _FFT_GAIN * nfft * math.log2(nfft):
        return "fft", nfft
    if width * _CHUNK > _BLOCK_FLOATS:
        return "correlate", 0
    return "block", 0


def _convolver(kernel: Kernel, c: float, h: float, n: int):
    """phi -> N_c * phi on the grid, through the comb of effective_kernel,
    with phi frozen at phi[0] left of the grid and at phi[-1] right of it.

    The comb runs on the path of _comb_path; everything a path needs is
    built once per front.  np.correlate slides the reversed weights over
    the padded samples.  The block path cuts the n outputs into blocks of
    k = _CHUNK nodes: the k + taps - 1 padded samples that block b
    reads are row b of a buffer, and the buffer times one (k + taps - 1) x k
    Toeplitz matrix of the reversed weights gives every block at once, in
    row chunks of at most _ROW_FLOATS.  The FFT path is one rfft of the
    padded samples, one product with the comb's rFFT and one irfft; the
    padded samples fit in nfft, so the slice read back never wraps.  On the
    block path the returned array is a view of a buffer that the next call
    overwrites."""
    m0, wts = effective_kernel(kernel, c).convolve_weights(h)
    m = len(wts)
    pad_l = max(0, m0 + m)
    pad_r = max(0, -m0 + 1)
    base = pad_l - m0 - m + 1
    size = pad_l + n + pad_r
    path, nfft = _comb_path(m, n, size)
    wrev = wts[::-1]
    if path == "block":
        k, width = _CHUNK, m + _CHUNK - 1
        blocks = -(-n // k)
        # row p, column j: the weight on padded[base + bk + p] of node bk + j
        band = np.concatenate((np.zeros(k - 1), wrev, np.zeros(k - 1)))
        matrix = np.lib.stride_tricks.sliding_window_view(band, k)[:, ::-1].copy()
        padded = np.empty(max(size, base + blocks * k + m - 1))
        windows = np.lib.stride_tricks.sliding_window_view(padded[base:], width)[::k]
        step = max(1, _ROW_FLOATS // width)
        rows = np.empty((min(blocks, step), width))
        out = np.empty((blocks, k))
    else:
        padded = np.zeros(nfft or size)  # the FFT reads zeros past size
    filled = len(padded) if path == "block" else size
    if path == "fft":
        spectrum = np.fft.rfft(wts, nfft)
        lo = base + m - 1  # the correlate's valid index k is the convolution's k + m - 1

    def conv(phi: np.ndarray) -> np.ndarray:
        padded[:pad_l] = phi[0]
        padded[pad_l: pad_l + n] = phi
        padded[pad_l + n: filled] = phi[-1]
        if path == "correlate":
            return np.correlate(padded, wrev, mode="valid")[base: base + n]
        if path == "fft":
            return np.fft.irfft(np.fft.rfft(padded) * spectrum, nfft)[lo: lo + n]
        for a in range(0, blocks, step):
            chunk = rows[:min(step, blocks - a)]
            np.copyto(chunk, windows[a: a + len(chunk)])
            np.matmul(chunk, matrix, out=out[a: a + len(chunk)])
        return out.reshape(-1)[:n]

    return conv


# Largest grid nodes x max_iters one front may sweep: about 5 s at the
# 1.7e-8 s per node-sweep of the traced fronts-atom bench run, and 11 s at
# the 3.5e-8 of fronts-weak (median of 8 seeds; 5.1e-8 before the block
# comb product), where the kernel comb is still the larger part of a sweep
# (2-core Xeon, numpy 2.4).  It admits the c = 50 KPP front (106,729 nodes
# x 1,500 sweeps) and refuses c = 500 (1.06M nodes).
_WORK_BUDGET = 300_000_000


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
    slack: float  # iteration tol plus the measured discretization defect


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
    n = grid.n
    if n * config.max_iters > _WORK_BUDGET:
        raise UnsupportedError(
            f"a front at c={c:g} on n={n} nodes may take {config.max_iters} sweeps, "
            f"past the budget of {_WORK_BUDGET:.0e} node-sweeps; the grid spans "
            f"{max(-grid.t0, 0.0):.6g} time units left of t = 0 and "
            f"{max(grid.t_end, 0.0):.6g} right of it")
    ts = grid.nodes()

    bound = apriori_bound(c, kernel, growth)
    if config.beta <= bound.U:
        raise PreconditionError("cutoff level must exceed the a-priori bound")

    upper = kpp_upper_solution(c, growth.g0, config.beta)
    lam, mu = upper.lam, upper.mu
    z1, z2 = config.green_rates(c)
    green = _GreenOperator(z1, z2, h, n, lam)  # first: it refuses a shift too large for h
    phi_plus = upper(ts)
    mu_lower = 0.45 * min(lam, mu - lam)
    m_amp = lower_amplitude(c, growth.g0, mu_lower, upper, kernel, growth)
    phi_minus = lower_solution(lam, mu_lower, m_amp, grid)
    if np.any(phi_minus > phi_plus + 1e-12):
        raise InvarianceBreachError("lower solution escaped above the upper solution")
    conv = _convolver(kernel, c, h, n)

    # the discrete Green image of the upper solution's own right-hand side
    # measures the O(h^2) defect of the discretization; the sandwich slack
    # must sit above it, otherwise pure discretization error reads as a breach
    r_upper = green.shift * phi_plus + growth.g0 * ramp_cutoff(phi_plus, config.beta)
    defect = float(np.max(np.abs(green(r_upper) - phi_plus)))
    slack = 10.0 * config.tol + 3.0 * defect
    floor, ceiling = phi_minus - slack, phi_plus + slack

    # phi and phi_next swap between two buffers; r is the operator's own
    # buffer, and every n-sized step of the sweep writes in place.  The
    # shift is the operator's own -z1*z2 (config.b to rounding), the one
    # constant r that it maps to exactly 1, so a plateau at 1 stays at 1
    b, two_beta = green.shift, 2.0 * config.beta
    buf, spare = np.empty(green.size), np.empty(green.size)
    phi = buf[:n]
    phi[:] = phi_plus
    r, scratch, breach = green.r, np.empty(n), np.empty(n, dtype=bool)
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        gvals = growth.g(conv(phi))
        np.subtract(two_beta, phi, out=scratch)  # ramp_cutoff(phi, beta)
        np.maximum(0.0, scratch, out=scratch)
        np.minimum(phi, scratch, out=scratch)
        np.multiply(scratch, gvals, out=scratch)
        np.multiply(b, phi, out=r)
        np.add(r, scratch, out=r)
        phi_next = green.image(spare)
        if (np.less(phi_next, floor, out=breach).any()
                or np.greater(phi_next, ceiling, out=breach).any()):
            raise InvarianceBreachError(
                "iterate escaped the sandwich; revisit b, beta, or the grid span")
        np.subtract(phi_next, phi, out=scratch)
        delta = float(np.abs(scratch, out=scratch).max())
        if not math.isfinite(delta):
            raise DivergenceError(f"Picard sweep {iterations} left non-finite samples")
        history.append(delta)
        phi, buf, spare = phi_next, spare, buf
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
    profile = build_profile(grid, phi, crossings=crossings_of_one(ts, phi), h=lag,
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


def asymptotic_check(profile: Profile, params: WaveParams,
                     roots: RootReport | None = None) -> AsymptoticsReport:
    """Compare fitted tail exponents against the characteristic rates: the
    left tail against the slow rate at 0, the right tail against the nearest
    real negative root of the linearization at 1.  `roots` is
    roots_at_one(params) when the caller already has it."""
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
        if roots is None:
            roots = roots_at_one(params)
        negs = roots.real_negative_roots()
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
