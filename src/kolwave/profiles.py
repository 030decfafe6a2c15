"""Shared wave-profile containers: sampled profiles with shape class, decay
fits and crossing lists, parameter-plane boundary curves, and their CSV/JSON
serialization.  CSV floats use 17 significant digits so re-runs are
byte-identical."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import PreconditionError
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
_FIT_DECADES = 2.0  # decades a right-tail decay fit must span


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


def write_csv(path: Path | str, header: Sequence[str], rows) -> None:
    """Header line, then one line per row of the table `rows` (a 2-D array
    or a list of equal-length rows), each value as fmt_float renders it."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    Path(path).write_text(",".join(header) + "\n" + format_rows(line, table))


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


def _growth_fit(ts, values, amplitude: float):
    """Decay rate toward 0 at the left end, fitted on the rising stretch."""
    v = np.asarray(values)
    sel = (v > 5.0 * amplitude) & (v < 5e-3)
    if np.count_nonzero(sel) < 8:
        return None
    t = np.asarray(ts)[sel]
    y = np.log(v[sel])
    span = math.log10(v[sel].max() / v[sel].min())
    if span < 1.5:
        return None
    return float(np.polyfit(t, y, 1)[0])


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
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def header(self) -> list[str]:
        return ["gamma"] + list(self.columns.keys())

    def rows(self):
        cols = [self.gamma] + list(self.columns.values())
        for i in range(len(self.gamma)):
            yield [col[i] for col in cols]

    def to_csv(self, path: Path | str) -> None:
        write_csv(path, self.header(), list(self.rows()))


def build_profile(ts: np.ndarray, values: np.ndarray, *, crossings, flags,
                  amplitude: float, plus_window: tuple[float, float],
                  h=None) -> Profile:
    """Assemble a Profile from uniform samples, fitting both decay exponents.

    `amplitude` is the launch size used for the left-tail fit window;
    `plus_window` the (lo, hi) distance band for the right-tail fit of
    |values - 1|.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = float(ts[1] - ts[0])
    grid = Grid(float(ts[0]), dt, len(ts))

    decay_minus = _growth_fit(ts, values, amplitude)
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
