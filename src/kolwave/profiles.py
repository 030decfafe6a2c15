"""Shared wave-profile containers: sampled profiles with shape class, decay
fits and crossing lists, parameter-plane boundary curves, and their CSV/JSON
serialization.

CSV floats are printed exactly as `"%.17g" % x` prints them, so re-runs are
byte-identical.  Large tables go through an exact vectorised formatter: it
scales each value to a 17-digit integer in double-double arithmetic, and hands
every value it cannot decide (ties, values within 2**-40 of a rounding or
exponent boundary, zeros, non-finite values, magnitudes outside
[1e-270, 1e270]) to `%` itself.  Tables of a few hundred values or fewer are
%-formatted whole, which is cheaper there."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import KolwaveError, PreconditionError
from .numerics import Grid

__all__ = [
    "MONOTONE",
    "NON_MONOTONE",
    "OSCILLATING",
    "Profile",
    "RegionCurve",
    "classify_shape",
    "crossings_of_one",
    "significant_crossings",
    "fit_decay",
    "fmt_float",
    "format_rows",
    "write_csv",
]

MONOTONE = "monotone"
NON_MONOTONE = "non-monotone-non-oscillating"
OSCILLATING = "oscillating"

OVERSHOOT_EPS = 1e-6  # relative excursion above 1 that counts as genuine
EPS_MAX = 0.2  # largest eps = 1/c^2 of a finite-speed profile
_FIT_DECADES = 2.0  # decades a tail decay fit must span


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")  # any NaN, signed or not, prints as "nan"


_BLOCK_ROWS = 1024  # rows per %-operation: bounds the float objects alive at once


def format_rows(template: str, table, sep: str = "") -> str:
    """Every row of a 2-D float table %-formatted with `template`, joined by
    `sep`.  %-formatting and format() share one float formatter, so a value
    prints as format() prints it."""
    table = np.asarray(table, dtype=float)
    blocks = (table[lo:lo + _BLOCK_ROWS] for lo in range(0, len(table), _BLOCK_ROWS))
    return sep.join(sep.join([template] * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


# ---- exact vectorised "%.17g": x = n * 10**(k-16) with n a 17-digit integer

_FAST_RANGE = (1e-270, 1e270)  # 10**(16-k) and Dekker's split stay normal and finite
_UNDECIDED = 2.0 ** -40  # the product errs by under 1e-14: closer to .5 goes to %
_E16 = 10 ** 16
_CSV_BLOCK_VALUES = 4096  # values per formatter block: its temporaries take ~250 bytes each
_MIN_FAST_VALUES = 384  # below it, %-formatting a block beats the formatter's fixed cost
_B8, _B32, _B56 = np.uint64(8), np.uint64(32), np.uint64(56)


@functools.cache
def _pow10(j: int) -> tuple[float, float]:
    """10**j as a double-double (hi, lo), both correctly rounded from the
    exact integer or fraction."""
    if j >= 0:
        exact = 10 ** j
        hi = float(exact)
        return hi, float(exact - int(hi))
    m = 10 ** -j
    hi = 1 / m  # int / int rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * m) / (den * m)


@functools.cache
def _format_tables():
    """ASCII of 0..9999 as 4-byte words; trailing zeros of each (4 for 0);
    and the byte masks of each layout, 12 rows of 64-bit words by
    (layout exponent + 4) * 18 + digits kept.

    A field is 32 bytes; NUL bytes are dropped when the CSV is joined.  Byte 0
    is the sign.  Bytes 3..23 hold "0000" + the 17 digits (the unshifted
    copy), bytes 4..24 the same one byte later (the shifted copy).  A layout
    with point after digit q of that string keeps the unshifted copy up to q,
    a '.' in byte q + 4 and the shifted copy past it; blanked are the prefix
    zeros a fixed layout below 1 does not print and the trailing zeros."""
    g = np.arange(10_000, dtype=np.int16)  # small dtypes keep the heap it leaves behind small
    four = (g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    trailing = (g % 10 == 0).astype(np.int8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    kk = np.arange(-4, 17)[:, None, None]  # fixed layouts; 0 also serves scientific
    kept = np.arange(18)[None, :, None]
    b = np.arange(32)[None, None, :]
    q = kk + 4

    def shown(i):  # index i of "0000" + digits is printed
        return (i >= 0) & (i <= 20) & (i - 4 >= np.minimum(kk, 0)) & (i - 4 < kept)

    masks = np.stack([shown(b - 3) & (b - 3 <= q),
                      shown(b - 4) & (b - 4 > q),
                      (b == q + 4) & (kept > np.maximum(kk + 1, 0))])
    masks = masks * np.array([255, 255, 46], np.uint8)[:, None, None, None]
    masks = masks.reshape(3, 21 * 18, 4, 8).transpose(0, 2, 1, 3).copy()
    return (four.view("<u4").ravel().astype(np.uint64), trailing,
            masks.view("<u8").reshape(12, 21 * 18))


def _split(a):
    """Dekker's split: a = hi + lo exactly, each half with 26 significant bits."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a, k):
    """floor, round-half-even and decidedness of a * 10**(16-k): the product
    a * hi + a * lo in double-double arithmetic, exact in its integer part
    (at least 2**53 whenever the product lies in [10**16, 10**17)).  Within
    1e-14 of an integer the floor may be one low, but the rounding is that
    integer either way, so only a near-tie is undecided."""
    j = 16 - k
    j0 = int(j.min())
    his, los = np.array([_pow10(i) for i in range(j0, int(j.max()) + 1)]).T
    hi, lo = his.take(j - j0), los.take(j - j0)
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    r = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo
    fl = np.floor(r)
    frac = r - fl
    whole = p.astype(np.int64) + fl.astype(np.int64)
    return whole, whole + (frac > 0.5), np.abs(frac - 0.5) > _UNDECIDED


def _fields(x: np.ndarray) -> np.ndarray:
    """Each value of the 1-D float array as `"%.17g" % x` prints it, in a
    (len(x), 4) array of 64-bit words: 32 bytes per value, NUL-padded, byte
    31 left free for a separator."""
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)  # may be one off near a power of ten
    whole, n, ok = _scaled(a, k)
    off = (whole < _E16) | (n >= 10 * _E16)  # below 10**16, or 17 digits carry to 18
    if off.any():
        k[off] += np.where(n[off] >= 10 * _E16, 1, -1)
        _, n[off], ok[off] = _scaled(a[off], k[off])
    slow = ~(fast & ok & (n >= _E16) & (n < 10 * _E16))
    n[slow] = _E16

    four, trailing, masks = _format_tables()
    hi9 = n // 10 ** 8
    lo8 = n - hi9 * 10 ** 8
    d0 = hi9 // 10 ** 8
    g1 = (hi9 - d0 * 10 ** 8) // 10 ** 4
    g2 = hi9 - d0 * 10 ** 8 - g1 * 10 ** 4
    g3 = lo8 // 10 ** 4
    g4 = lo8 - g3 * 10 ** 4
    zeros = trailing.take(g1)  # trailing zeros of the 17 digits; d0 is never 0
    for g in (g2, g3, g4):
        zeros = trailing.take(g) + (g == 0) * zeros
    sci = (k < -4) | (k > 16)
    kk = np.where(sci, 0, k)  # the digit before the point is digit kk of 17, or the 0 of "0."
    kept = np.maximum(17 - zeros, np.maximum(kk + 1, 0))
    key = (kk + 4) * 18 + kept
    w = [np.uint64(0x30303030) | (four.take(d0) << _B32),  # "0000000" + d0
         four.take(g1) | (four.take(g2) << _B32),
         four.take(g3) | (four.take(g4) << _B32),
         np.zeros(len(x), np.uint64)]
    f = np.empty((len(x), 4), "<u8")  # byte i of a word is bits 8i..8i+7
    for i in range(4):  # unshifted copy | copy shifted one byte on | point
        shifted = (w[i] << _B8) | (w[i - 1] >> _B56) if i else w[0] << _B8
        f[:, i] = ((w[i] & masks[i].take(key)) | (shifted & masks[4 + i].take(key))
                   | masks[8 + i].take(key))
    f[:, 0] |= (x < 0) * np.uint64(45)
    s = np.flatnonzero(sci & ~slow)
    if len(s):  # "e", the exponent's sign and 2 or 3 digits in bytes 25..29
        e = np.abs(k[s])
        f[s, 3] |= ((101 << 8) | (np.where(k[s] < 0, 45, 43) << 16)
                    | (np.where(e >= 100, 48 + e // 100, 0) << 24)
                    | ((48 + e // 10 % 10) << 32) | ((48 + e % 10) << 40)).astype(np.uint64)
    s = np.flatnonzero(slow)
    if len(s):
        text = np.zeros((len(s), 32), np.uint8)
        text[:, :24] = np.array([fmt_float(v) for v in x[s].tolist()],
                                dtype="S24").view(np.uint8).reshape(-1, 24)
        f[s] = text.view("<u8")
    return f


def write_csv(path: Path | str, header: Sequence[str], rows) -> None:
    """Header line, then one line per row of the table `rows` (a 2-D array
    or a list of equal-length rows), each value as fmt_float renders it."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    seps = np.full(len(header), 44 << 56, np.uint64)  # ',' in byte 31, '\n' ending a row
    seps[-1] = 10 << 56
    step = max(1, _CSV_BLOCK_VALUES // len(header))
    parts = [",".join(header) + "\n"]
    for lo in range(0, len(table), step):
        block = table[lo:lo + step]
        if block.size < _MIN_FAST_VALUES:
            parts.append(format_rows(line, block))
            continue
        f = _fields(block.ravel()).reshape(*block.shape, 4)
        f[:, :, 3] |= seps
        b = f.view(np.uint8).ravel()
        parts.append(b[b != 0].tobytes().decode("ascii"))
    Path(path).write_text("".join(parts))


def crossings_of_one(ts, values) -> list[float]:
    """Times where the sampled values cross the level 1, linearly
    interpolated within the sample interval; a sample exactly on 1 is a
    crossing at its own time."""
    ts = np.asarray(ts, dtype=float)
    d = np.asarray(values, dtype=float) - 1.0
    i = np.flatnonzero((d[:-1] == 0.0) | ((d[:-1] < 0) != (d[1:] < 0)))
    d0 = d[i]
    rise = np.where(d0 == 0.0, 1.0, d[i + 1] - d0)  # on the level the step is 0 anyway
    return (ts[i] - d0 * (ts[i + 1] - ts[i]) / rise).tolist()


def significant_crossings(ts, values, crossings) -> list[float]:
    """Filter crossing times of the level 1: between consecutive crossings
    (and after the last) the excursion away from 1 must exceed
    OVERSHOOT_EPS, otherwise the pair is integrator noise around the level."""
    if len(crossings) == 0:
        return []
    ts = np.asarray(ts)
    values = np.asarray(values)
    kept = []
    bounds = list(crossings) + [ts[-1]]
    for i, tc in enumerate(crossings):
        seg = (ts > tc) & (ts <= bounds[i + 1])
        if not np.any(seg):
            continue
        if np.max(np.abs(values[seg] - 1.0)) > OVERSHOOT_EPS:
            kept.append(float(tc))
    return kept


def classify_shape(sig, sup: float) -> str:
    """Shape taxonomy of a connection from 0 to the level-1 state, from its
    significant crossings `sig` and its maximum `sup`.

    monotone: never exceeds the level beyond noise and no significant
    crossing pair; non-monotone-non-oscillating: a genuine excursion above
    the level with at most one significant crossing; oscillating: two or
    more significant crossings.
    """
    if len(sig) >= 2:
        return OSCILLATING
    if sup > 1.0 + OVERSHOOT_EPS:
        return NON_MONOTONE
    return MONOTONE


def fit_decay(ts, dist, lo: float, hi: float):
    """Least-squares slope of log(dist) over the final stretch where dist
    lies in [lo, hi] and decreases monotonically toward the end.

    The stretch ends at i_end, the last sample with dist >= lo (the noise
    floor past it is skipped), and starts at the last index i <= i_end
    where dist[i - 1] >= dist[i] * (1 - 1e-3) fails (0 if it never
    fails), so an upward jitter of up to 0.1 % per step stays inside; a
    NaN fails that comparison.

    Returns (slope, ok).  ok is False when the window spans fewer than
    two decades (_FIT_DECADES) or has fewer than 8 samples.
    """
    ts = np.asarray(ts, dtype=float)
    dist = np.asarray(dist, dtype=float)
    live = np.nonzero(dist >= lo)[0]
    if len(live) == 0:
        return 0.0, False
    i_end = int(live[-1])
    head = dist[:i_end + 1]
    breaks = np.flatnonzero(~(head[:-1] >= head[1:] * (1.0 - 1e-3)))
    i = int(breaks[-1]) + 1 if len(breaks) else 0
    sel = np.arange(i, i_end + 1)
    sel = sel[(dist[sel] >= lo) & (dist[sel] <= hi) & (dist[sel] > 0)]
    if len(sel) < 8:
        return 0.0, False
    span = math.log10(dist[sel].max() / dist[sel].min())
    t = ts[sel]
    y = np.log(dist[sel])
    slope = float(np.polyfit(t, y, 1)[0])
    return slope, span >= _FIT_DECADES


@dataclass
class Profile:
    """A travelling-wave (or limit-kinetics) profile on a uniform grid."""

    grid: Grid
    values: np.ndarray
    shape: str
    sup: float
    decay_minus: float | None = None
    decay_plus: float | None = None
    crossings: tuple[float, ...] = ()
    h: float | None = None  # lag window length in profile time units
    flags: tuple[str, ...] = ()

    @property
    def ts(self) -> np.ndarray:
        return self.grid.nodes()

    def __call__(self, t):
        return np.interp(t, self.ts, self.values)

    def shifted(self, dt: float) -> "Profile":
        g = Grid(self.grid.t0 + dt, self.grid.dt, self.grid.n)
        return replace(self, grid=g,
                       crossings=tuple(c + dt for c in self.crossings))

    def align_half(self) -> "Profile":
        """Shift time so the first up-crossing of 1/2 sits at t = 0."""
        ts, vs = self.ts, self.values
        idx = np.nonzero((vs[:-1] < 0.5) & (vs[1:] >= 0.5))[0]
        if len(idx) == 0:
            raise PreconditionError("profile never reaches 1/2; cannot align")
        i = int(idx[0])
        t_half = ts[i] + (0.5 - vs[i]) * self.grid.dt / (vs[i + 1] - vs[i])
        return self.shifted(-t_half)

    def sup_distance(self, other: "Profile") -> float:
        """Sup distance after pinning both profiles at value 1/2."""
        a = self.align_half()
        b = other.align_half()
        lo = max(a.ts[0], b.ts[0])
        hi = min(a.ts[-1], b.ts[-1])
        if hi <= lo:
            raise PreconditionError("profiles do not overlap after alignment")
        ts = np.linspace(lo, hi, 4001)
        return float(np.max(np.abs(a(ts) - b(ts))))

    def to_csv(self, path: Path | str) -> None:
        write_csv(path, ("t", "phi"), np.column_stack((self.ts, self.values)))

    def sidecar(self) -> dict:
        return {
            "shape": self.shape,
            "sup": self.sup,
            "decay_minus": self.decay_minus,
            "decay_plus": self.decay_plus,
            "crossings": list(self.crossings),
            "h": self.h,
            "flags": list(self.flags),
        }


@dataclass
class RegionCurve:
    """A sampled boundary curve (or bundle of curves) over a gamma grid."""

    gamma: np.ndarray
    columns: dict[str, np.ndarray]

    @classmethod
    def sweep(cls, gammas, columns: dict[str, Callable[[float], float]]) -> "RegionCurve":
        """Column `name` at each gamma is columns[name](gamma), the columns
        in order at one gamma after another.  A point whose function raises
        a KolwaveError becomes a NaN gap; any other exception propagates."""
        gammas = np.asarray(list(gammas), dtype=float)
        table = np.full((len(columns), len(gammas)), math.nan)
        for j, g in enumerate(gammas.tolist()):
            for row, fn in zip(table, columns.values()):
                try:
                    row[j] = fn(g)
                except KolwaveError:
                    pass
        return cls(gamma=gammas, columns=dict(zip(columns, table)))

    def header(self) -> list[str]:
        return ["gamma"] + list(self.columns.keys())

    def rows(self) -> np.ndarray:
        return np.column_stack([self.gamma, *self.columns.values()])

    def to_csv(self, path: Path | str) -> None:
        write_csv(path, self.header(), self.rows())


def build_profile(grid: Grid, values: np.ndarray, *, crossings, flags,
                  amplitude: float, plus_window: tuple[float, float],
                  h=None) -> Profile:
    """Assemble a Profile from the samples `values` taken at the nodes of
    `grid`, fitting both decay exponents by fit_decay: |values - 1| in the
    band `plus_window`, and the left tail read backwards in time, which
    decays toward 0 through (5 * amplitude, 5e-3), `amplitude` the launch
    size; decay_minus is minus its slope.  A fit that fails leaves its
    exponent None.
    """
    ts = grid.nodes()
    values = np.asarray(values, dtype=float)

    slope, ok = fit_decay(-ts[::-1], values[::-1], 5.0 * amplitude, 5e-3)
    decay_minus = -slope if ok else None
    slope, ok = fit_decay(ts, np.abs(values - 1.0), *plus_window)
    decay_plus = slope if ok else None

    sig = tuple(significant_crossings(ts, values, crossings))
    sup = float(np.max(values))
    return Profile(
        grid=grid,
        values=values,
        shape=classify_shape(sig, sup),
        sup=sup,
        decay_minus=decay_minus,
        decay_plus=decay_plus,
        crossings=sig,
        h=h,
        flags=tuple(flags),
    )
