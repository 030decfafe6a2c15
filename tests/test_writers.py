"""The block-formatted CSV and SVG writers print the same bytes as a
per-value join through format(), and the SVG polylines keep what M4
thinning keeps: each pixel column's first, last, lowest and highest point."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kolwave.cli import _m4, _svg_map, main, write_svg
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


def _m4_oracle(xs, ys) -> list[int]:
    """Indices M4 keeps, column by column: each run of consecutive points in
    one pixel column keeps its first and last point and its first lowest
    and first highest y (NaN is neither); a run of at most 4 stays whole."""
    kept = []
    i = 0
    while i < len(xs):
        j = i + 1
        while j < len(xs) and np.floor(xs[j]) == np.floor(xs[i]):
            j += 1
        run = list(range(i, j))
        if len(run) > 4:
            real = [k for k in run if not math.isnan(ys[k])]
            picks = {i, j - 1}
            if real:
                picks |= {min(real, key=lambda k: ys[k]), max(real, key=lambda k: ys[k])}
            run = sorted(picks)
        kept += run
        i = j
    return kept


def _svg_oracle(curves, level=None, width=800, height=400, thin=True) -> str:
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
        kept = _m4_oracle(xs, ys) if thin else range(len(xs))
        pts = " ".join(f"{xs[k]:.3f},{ys[k]:.3f}" for k in kept)
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


def _hard_floats() -> np.ndarray:
    """Values a 17-digit printer can get wrong, in a few 10**5 floats."""
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    bits[:2000] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormals, both signs
    pows = 10.0 ** np.arange(-300, 301)
    near = [pows]
    up, down = pows, pows
    for _ in range(4):  # each power of ten, 4 ulps either side
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    # 17 digits that round up into an 18th, and their neighbours
    carry = np.array([float(f"{m}e{e}") for m in ("9.99999999999999995", "9.99999999999999999",
                                                    "1.99999999999999995", "9.9999999999999997")
                      for e in range(-299, 300, 3)])
    grid = -3.0 + 0.01 * np.arange(5000)  # a profile's time column
    return np.concatenate([bits.view(np.float64), *near, carry, np.nextafter(carry, 0.0),
                           np.nextafter(carry, np.inf), grid, AWKWARD,
                           [1000000000000000.25, -2.5e-16 * 3.0, 1e16, 1e17, 1e-4, 1e-5]])


def test_write_csv_prints_every_float_as_fmt_float(tmp_path):
    values = _hard_floats()
    values = values[:len(values) // 3 * 3]
    rows = values.reshape(-1, 3)  # many formatter blocks, the last one %-formatted
    write_csv(tmp_path / "h.csv", ("a", "b", "c"), rows)
    expected = "".join(",".join(map(fmt_float, row)) + "\n" for row in rows.tolist())
    assert (tmp_path / "h.csv").read_text() == "a,b,c\n" + expected


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


def _polyline_points(svg: str) -> list[list[str]]:
    return [chunk.split('"', 1)[0].split() for chunk in svg.split('points="')[1:]]


@pytest.mark.parametrize("level", [None, 1.0])
def test_write_svg_thins_dense_curves_like_a_per_column_loop(tmp_path, level):
    rng = np.random.default_rng(8)
    n = 20_000
    ts = np.linspace(0.0, 50.0, n)
    vs = np.cumsum(rng.normal(size=n))
    vs[:len(AWKWARD)] = AWKWARD
    vs[5000:5400] = vs[5000]  # a plateau: ties for both extremes
    vs[9000:9100] = math.nan  # a gap
    vs[12000:12010] = 1e-300  # ten equal values in one column
    curves = [("phi", ts, vs), ("psi", ts[::3], np.sin(ts[::3])), ("few", ts[::997], vs[::997])]
    with np.errstate(over="ignore"):
        write_svg(tmp_path / "c.svg", curves, level=level)
        expected = _svg_oracle(curves, level=level)
    svg = (tmp_path / "c.svg").read_text()
    assert svg == expected
    # 761 pixel columns, from x = 20 to 780
    phi, psi, few = map(len, _polyline_points(svg))
    assert len(ts[::3]) > 4 * 761 >= max(phi, psi)  # 761 pixel columns, x = 20 to 780
    assert few == np.count_nonzero(np.isfinite(vs[::997]))  # one point per column: all kept


def _columns(xs):
    col = np.floor(xs)
    cuts = np.flatnonzero(col[1:] != col[:-1]) + 1
    return np.split(np.arange(len(xs)), cuts)


def _assert_m4_property(xs, ys):
    keep = _m4(xs, ys)
    for run in _columns(xs):
        kept = run[keep[run]]
        assert len(kept) <= 4
        if len(run) <= 4:
            assert list(kept) == list(run)
            continue
        real = run[~np.isnan(ys[run])]
        wanted = {run[0], run[-1]}
        if len(real):
            wanted |= {real[np.argmin(ys[real])], real[np.argmax(ys[real])]}
        assert wanted == set(kept)


@pytest.mark.parametrize("seed", range(6))
def test_m4_keeps_each_columns_first_last_lowest_and_highest_point(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4000))
    # sparse columns across the plot, dense ones at its left end
    xs = np.sort(np.concatenate([rng.uniform(20.0, 780.0, n), rng.uniform(20.0, 100.0, n)]))
    n = len(xs)
    ys = [rng.normal(size=n), np.round(rng.normal(size=n), 1), xs.copy()][seed % 3]  # ties, monotone
    ys[rng.integers(0, n, size=n // 50)] = math.nan
    _assert_m4_property(xs, ys)


@pytest.mark.parametrize("argv", [
    ["heteroclinic", "--gamma", "40", "--tau", "10"],
    ["limit-profile", "--gamma", "9", "--tau", "0.05"],
    ["iterate", "--model", "kpp", "--c", "2.5"],
], ids=lambda argv: argv[0])
def test_m4_property_on_real_profiles(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    stem = "front" if argv[0] == "iterate" else "phi"
    ts, vs = np.loadtxt(tmp_path / f"{stem}.csv", delimiter=",", skiprows=1).T
    all_v = np.append(vs, 1.0)  # write_svg maps the level rule with the curve
    xs = _svg_map(ts, ts.min(), ts.max(), 800, 20.0)
    ys = 400 - _svg_map(vs, all_v.min(), all_v.max(), 400, 20.0)
    _assert_m4_property(xs, ys)
    svg = (tmp_path / f"{stem}.svg").read_text()
    assert svg == _svg_oracle([("phi", ts, vs)], level=1.0)
    assert len(_polyline_points(svg)[0]) <= 4 * 761


def test_region_svg_keeps_every_point(tmp_path):
    assert main(["region", "overshoot", "--gamma", "2:20:0.25", "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "region-overshoot.csv").read_text().splitlines()
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    curves = [(name, table[:, 0], table[:, k + 1])
              for k, name in enumerate(header.split(",")[1:])]
    assert (tmp_path / "region-overshoot.svg").read_text() == _svg_oracle(curves, thin=False)
