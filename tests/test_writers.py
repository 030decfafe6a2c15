"""The block-formatted CSV and SVG writers print the same bytes as a
per-value join through format()."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave.cli import _svg_map, write_svg
from kolwave.numerics import Grid
from kolwave.profiles import Profile, RegionCurve, fmt_float, write_csv

AWKWARD = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
           1e308, 0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]


def _csv_oracle(header, rows) -> str:
    def fmt(x):
        if isinstance(x, float) and math.isnan(x):
            return "nan"
        return format(float(x), ".17g")

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _svg_oracle(curves, level=None, width=800, height=400) -> str:
    margin = 20.0
    all_t = np.concatenate([np.asarray(ts) for _, ts, _ in curves])
    all_v = np.concatenate([np.asarray(vs) for _, _, vs in curves])
    if level is not None:
        all_v = np.concatenate([all_v, [level]])
    finite = np.isfinite(all_v)
    t_lo, t_hi = float(np.min(all_t)), float(np.max(all_t))
    v_lo, v_hi = float(np.min(all_v[finite])), float(np.max(all_v[finite]))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if level is not None:
        y = height - _svg_map([level], v_lo, v_hi, height, margin)[0]
        parts.append(
            f'<line x1="{margin:.2f}" y1="{y:.2f}" x2="{width - margin:.2f}" y2="{y:.2f}" '
            f'stroke="#999999" stroke-dasharray="6,4" stroke-width="1"/>'
        )
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    for i, (name, ts, vs) in enumerate(curves):
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        ok = np.isfinite(vs)
        xs = _svg_map(ts[ok], t_lo, t_hi, width, margin)
        ys = height - _svg_map(vs[ok], v_lo, v_hi, height, margin)
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
        color = palette[i % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"><title>{name}</title></polyline>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_fmt_float_prints_every_nan_as_nan():
    for x in (math.nan, -math.nan, np.float64("nan"), -np.float64("nan"), np.float32("nan")):
        assert fmt_float(x) == "nan"


@pytest.mark.parametrize("rows", [
    [(v, -v, k) for k, v in enumerate(AWKWARD)],  # ints in the last column, like `mult`
    [(1.5, 2, 3)],
    [],  # an empty root list
])
def test_write_csv_matches_per_value_join(tmp_path, rows):
    header = ("re", "im", "mult")
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_text() == _csv_oracle(header, rows)


def test_profile_and_region_csv_match_per_value_join(tmp_path):
    rng = np.random.default_rng(3)
    values = np.concatenate([AWKWARD, rng.normal(size=2500)])  # past two row blocks
    prof = Profile(grid=Grid(-3.0, 0.01, len(values)), values=values, shape="monotone", sup=1.0)
    prof.to_csv(tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text() == _csv_oracle(
        ("t", "phi"), zip(prof.ts, prof.values))

    gamma = np.linspace(1.0, 2.0, len(AWKWARD))
    curve = RegionCurve(gamma=gamma, columns={"lo": np.array(AWKWARD), "hi": gamma ** 2})
    curve.to_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == _csv_oracle(curve.header(), curve.rows())


@pytest.mark.parametrize("level", [None, 1.0])
def test_write_svg_matches_per_point_join(tmp_path, level):
    rng = np.random.default_rng(5)
    ts = np.linspace(-2.0, 7.0, 2500)  # past two row blocks
    vs = rng.normal(size=2500)
    vs[:len(AWKWARD)] = AWKWARD
    curves = [("phi", ts, vs), ("psi", ts, -0.5 * vs), ("gap", ts[:4], [math.nan] * 4)]
    with np.errstate(over="ignore"):  # 1e308 maps to an infinite coordinate
        write_svg(tmp_path / "c.svg", curves, level=level)
        expected = _svg_oracle(curves, level=level)
    assert ",-inf" in expected
    assert (tmp_path / "c.svg").read_text() == expected
