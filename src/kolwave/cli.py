"""Batch command-line front end.

Subcommands cover single-point analysis (roots, overshoot, test-function),
profile computation (heteroclinic, weak-profile, limit-profile,
finite-profile, iterate, check-asymptotics) and parameter-plane sweeps
(region).  Every run writes CSV/JSON outputs plus an SVG of M4-thinned
polylines and a manifest next to them.  Outputs are byte-reproducible:
floats render with 17 significant digits and the SVG carries no timestamp.

Exit codes: 0 success, 2 precondition/usage error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import discretedelay, planarflow, semiwavefront, spectral
from .errors import KolwaveError, PreconditionError, UnsupportedError
from .models import WaveParams, params_from_json, params_to_json
from .numerics import MAX_GRID_NODES
from .profiles import Profile, fmt_float, format_rows, write_csv

SVG_WIDTH, SVG_HEIGHT = 800, 400


@dataclass
class RunManifest:
    command: str
    params: dict
    outputs: list = field(default_factory=list)
    versions: dict = field(default_factory=lambda: {
        "kolwave": __version__, "schema": "1",
        "python": platform.python_version(), "numpy": np.__version__})
    wall_time: float = 0.0
    error: str | None = None  # class name of the failure of a run that exits 2 or 3

    def write(self, out_dir: Path) -> None:
        path = out_dir / f"{self.command}.manifest.json"
        path.write_text(json.dumps(asdict(self), sort_keys=True, indent=2) + "\n")


def _svg_map(vals, lo, hi, size, margin):
    span = hi - lo if hi > lo else 1.0
    return margin + (np.asarray(vals) - lo) * (size - 2 * margin) / span


def _m4(xs, ys) -> np.ndarray:
    """Mask of the points M4 thinning keeps of a polyline: in each run of
    consecutive points that share a pixel column (the floor of x), the
    first and last point and the first points of least and greatest y; a
    run of at most 4 points stays whole.  A NaN y counts as neither least
    nor greatest."""
    col = np.floor(xs)
    starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    lens = np.diff(np.append(starts, len(col)))
    if lens.max() <= 4:
        return np.ones(len(col), dtype=bool)
    run = np.repeat(np.arange(len(starts)), lens)
    keep = np.repeat(lens <= 4, lens)
    keep[starts] = keep[starts + lens - 1] = True
    for extreme in (np.fmin, np.fmax):
        hit = np.flatnonzero(ys == extreme.reduceat(ys, starts)[run])
        keep[hit[np.diff(run[hit], prepend=-1) != 0]] = True
    return keep


def write_svg(path: Path, curves, level: float | None = None) -> None:
    """Minimal deterministic SVG: one polyline per named curve plus an
    optional horizontal rule at `level`.  Each polyline is M4-thinned
    (`_m4`), so it holds at most 4 points per pixel column of a curve
    sampled in increasing x."""
    width, height = SVG_WIDTH, SVG_HEIGHT
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
        keep = _m4(xs, ys)
        pts = format_rows("%.3f,%.3f", np.column_stack((xs[keep], ys[keep])), sep=" ")
        color = palette[i % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"><title>{name}</title></polyline>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _profile_outputs(out: Path, stem: str, profile: Profile, manifest: RunManifest,
                     extra: dict | None = None) -> None:
    csv_path = out / f"{stem}.csv"
    profile.to_csv(csv_path)
    doc = profile.sidecar()
    if extra:
        doc.update(extra)
    json_path = out / f"{stem}.json"
    _write_json(json_path, doc)
    svg_path = out / f"{stem}.svg"
    write_svg(svg_path, [("phi", profile.ts, profile.values)], level=1.0)
    manifest.outputs += [csv_path.name, json_path.name, svg_path.name]


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"cannot read {what}: {exc}") from exc


_GROWTH_KINDS = {"food": "food-limited", "quad": "quadratic", "kpp": "kpp"}
_KERNEL_KINDS = {"dirac": "dirac-spatial", "discrete": "discrete-delay", "weak": "weak-generic"}


def _build_params(args) -> WaveParams:
    """The model of `--json`, or else the model document the flags (and a
    `table:FILE` kernel's {"s", "density"} object) describe, both read by
    params_from_json."""
    if args.json:
        return params_from_json(_read_json(args.json, "model JSON"))
    if args.kernel.startswith("table:"):
        kernel = _read_json(args.kernel[6:], "kernel table")
        if not isinstance(kernel, dict):
            raise PreconditionError("kernel table must be a JSON object")
        kernel = {**kernel, "kind": "tabulated-N"}
    elif args.kernel in _KERNEL_KINDS:
        kernel = {"kind": _KERNEL_KINDS[args.kernel], "tau": args.tau}
    else:
        raise PreconditionError(f"unknown kernel {args.kernel!r}")
    growth = {"kind": _GROWTH_KINDS[args.model], "gamma": args.gamma, "a": args.a, "b": args.b}
    return params_from_json({"growth": growth, "kernel": kernel, "c": args.c})


# ----------------------------------------------------------------- commands


def cmd_roots(args, out: Path, manifest: RunManifest) -> int:
    try:
        eps = args.c ** -2 if args.c > 0 else math.inf
    except OverflowError:
        eps = math.inf
    if eps == math.inf:
        raise PreconditionError(f"roots needs a speed --c > 0 with a finite c^-2, got {args.c}")
    if args.kernel == "discrete":
        rep = spectral.delay_char_roots(args.gamma, args.tau, eps)
    elif args.kernel == "weak":
        rep = spectral.weak_char_roots(args.gamma, args.tau, eps)
    else:
        raise PreconditionError("roots needs --kernel discrete or weak")
    edges = spectral.real_root_boundary(args.gamma)
    doc = rep.to_json()
    doc["critical_delays"] = {"discrete": edges.discrete, "weak": edges.weak}
    _write_json(out / "roots.json", doc)
    write_csv(out / "roots.csv", ("re", "im", "mult"),
              [(r.re, r.im, r.mult) for r in rep.roots])
    manifest.outputs += ["roots.json", "roots.csv"]
    print(f"{len(rep.roots)} roots, {rep.real_negative_count} real negative, "
          f"class={rep.classification}")
    return 0


def cmd_heteroclinic(args, out: Path, manifest: RunManifest) -> int:
    res = planarflow.finite_speed_profile(args.gamma, args.tau, args.eps,
                                          args.amplitude, args.tol)
    extra = {
        "phi_max": res.phi_max,
        "entry_direction": [float(v) for v in res.entry_direction],
        "captured": res.captured,
        "shape": res.shape,
    }
    _profile_outputs(out, "phi", res.profile, manifest, extra)
    write_csv(out / "psi.csv", ("t", "psi"), np.column_stack((res.profile.ts, res.psi)))
    manifest.outputs.append("psi.csv")
    print(f"shape={res.shape} phi_max={res.phi_max:.6f}")
    return 0


def cmd_limit_profile(args, out: Path, manifest: RunManifest) -> int:
    prof = discretedelay.finite_speed_profile(args.gamma, args.tau, args.eps,
                                              args.span, args.tol)
    _profile_outputs(out, "phi", prof, manifest)
    print(f"shape={prof.shape} sup={prof.sup:.6f}")
    return 0


def cmd_overshoot(args, out: Path, manifest: RunManifest) -> int:
    val = discretedelay.overshoot_bound(args.gamma, args.tau)
    _write_json(out / "overshoot.json",
                {"gamma": args.gamma, "tau": args.tau, "value": val})
    manifest.outputs.append("overshoot.json")
    print(f"overshoot bound = {fmt_float(val)}")
    return 0


def cmd_test_function(args, out: Path, manifest: RunManifest) -> int:
    rep = planarflow.test_function_check(args.gamma, args.tau,
                                         planarflow.TestFunction(args.a))
    doc = {"gamma": args.gamma, "tau": args.tau, "a": args.a,
           "holds": rep.holds, "failed": list(rep.failed), "fail_x": rep.fail_x}
    _write_json(out / "test-function.json", doc)
    manifest.outputs.append("test-function.json")
    print("holds" if rep.holds else f"fails: {', '.join(rep.failed)}")
    return 0


def _parse_range(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise PreconditionError(f"range must be START:STOP:STEP, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise PreconditionError(f"range needs finite numbers, got {spec!r}")
    if step <= 0 or stop < start:
        raise PreconditionError("range needs step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9
    if not math.isfinite(steps):
        raise PreconditionError(f"range has no finite number of points, got {spec!r}")
    if steps >= MAX_GRID_NODES:  # checked before np.arange allocates the points
        raise PreconditionError(
            f"range {spec!r} has more than the cap of {MAX_GRID_NODES} points")
    return start + step * np.arange(int(steps) + 1)


def cmd_region(args, out: Path, manifest: RunManifest) -> int:
    # checked here: boundary_region turns a KolwaveError of one point into NaN
    if not args.tol > 0:
        raise PreconditionError(f"--tol must be positive, got {args.tol}")
    if args.jobs < 1:
        raise PreconditionError(f"--jobs must be at least 1, got {args.jobs}")
    gammas = _parse_range(args.gamma)
    if args.kind == "overshoot":
        curve = discretedelay.overshoot_region(gammas, tol=min(args.tol, 1e-2))
    else:
        kind = "tau_sharp" if args.kind == "tau-sharp" else "tau_star"
        curve = planarflow.boundary_region(gammas, tol=args.tol, kinds=(kind,))
    csv_path = out / f"region-{args.kind}.csv"
    curve.to_csv(csv_path)
    svg_path = out / f"region-{args.kind}.svg"
    curves = [(name, curve.gamma, vals) for name, vals in curve.columns.items()]
    write_svg(svg_path, curves)
    manifest.outputs += [csv_path.name, svg_path.name]
    print(f"{len(gammas)} grid points -> {csv_path.name}")
    return 0


def _iteration_config(args, params, roots=None):
    if args.config:
        return semiwavefront.config_from_json(_read_json(args.config, "iteration config"))
    return semiwavefront.default_config(params, dt=args.dt, tol=args.tol, roots=roots)


def cmd_iterate(args, out: Path, manifest: RunManifest) -> int:
    params = _build_params(args)
    config = _iteration_config(args, params)
    res = semiwavefront.iterate_front(config, params)
    extra = {
        "iterations": res.iterations,
        "converged": res.converged,
        "residual": res.residual,
        "bound": {"U": res.bound.U, "branch": res.bound.branch},
        "b": config.b,
        "beta": config.beta,
    }
    _profile_outputs(out, "front", res.profile, manifest, extra)
    print(f"converged={res.converged} iters={res.iterations} "
          f"residual={res.residual:.3g} sup={res.profile.sup:.6f}")
    return 0


def cmd_check_asymptotics(args, out: Path, manifest: RunManifest) -> int:
    params = _build_params(args)
    roots = None if args.config else spectral.roots_at_one(params)  # the default grid needs them
    config = _iteration_config(args, params, roots)
    res = semiwavefront.iterate_front(config, params)
    rep = semiwavefront.asymptotic_check(res.profile, params, roots)
    doc = {
        "model": params_to_json(params),
        "rate_minus_expected": rep.rate_minus_expected,
        "rate_minus_fit": rep.rate_minus_fit,
        "rel_err_minus": rep.rel_err_minus,
        "rate_plus_fit": rep.rate_plus_fit,
        "matched_root": rep.matched_root,
        "rel_err_plus": rep.rel_err_plus,
        "flags": list(rep.flags),
        "iterations": res.iterations,
        "converged": res.converged,
        "b": config.b,
    }
    _write_json(out / "asymptotics.json", doc)
    manifest.outputs.append("asymptotics.json")
    print(f"rel_err_minus={rep.rel_err_minus} rel_err_plus={rep.rel_err_plus} "
          f"flags={list(rep.flags)}")
    return 0


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="food", choices=("food", "quad", "kpp"))
    p.add_argument("--kernel", default="dirac",
                   help="dirac | discrete | weak | table:FILE")
    p.add_argument("--gamma", type=finite_float, default=0.0)
    p.add_argument("--tau", type=finite_float, default=1.0)
    p.add_argument("--a", type=finite_float, default=1.0)
    p.add_argument("--b", type=finite_float, default=0.0)
    p.add_argument("--c", type=finite_float, default=2.5)
    p.add_argument("--json", help="model JSON file; overrides the flags")
    p.add_argument("--config", help="iteration-config JSON file; overrides --dt/--tol")
    p.add_argument("--dt", type=finite_float, default=0.02)


def _common(p, tol=None) -> None:
    p.add_argument("--out", default="out")
    if tol is not None:
        p.add_argument("--tol", type=finite_float, default=tol)


def _gamma_tau(p) -> None:
    p.add_argument("--gamma", type=finite_float, required=True)
    p.add_argument("--tau", type=finite_float, required=True)


# Each adds one subcommand's arguments and its `fn`, read from the module when
# the parser is built, so a cmd_* rebound after import is the one that runs.

def _roots_args(p) -> None:
    _gamma_tau(p)
    p.add_argument("--kernel", default="discrete", choices=("discrete", "weak"))
    p.add_argument("--c", type=finite_float, default=1e6)
    _common(p)
    p.set_defaults(fn=cmd_roots)


def _heteroclinic_args(p) -> None:
    _gamma_tau(p)
    p.add_argument("--amplitude", type=finite_float, default=1e-6)
    _common(p, 1e-7)
    p.set_defaults(fn=cmd_heteroclinic, eps=0.0)  # weak-profile at infinite speed


def _weak_profile_args(p) -> None:
    _gamma_tau(p)
    p.add_argument("--eps", type=finite_float, required=True)
    p.add_argument("--amplitude", type=finite_float, default=1e-6)
    _common(p, 1e-7)
    p.set_defaults(fn=cmd_heteroclinic)


def _limit_profile_args(p) -> None:
    _gamma_tau(p)
    p.add_argument("--span", type=finite_float, default=400.0)
    _common(p, 1e-10)
    p.set_defaults(fn=cmd_limit_profile, eps=0.0)  # finite-profile at infinite speed


def _finite_profile_args(p) -> None:
    _gamma_tau(p)
    p.add_argument("--eps", type=finite_float, required=True)
    p.add_argument("--span", type=finite_float, default=400.0)
    _common(p, 1e-10)
    p.set_defaults(fn=cmd_limit_profile)


def _overshoot_args(p) -> None:
    _gamma_tau(p)
    _common(p)
    p.set_defaults(fn=cmd_overshoot)


def _test_function_args(p) -> None:
    _gamma_tau(p)
    p.add_argument("--a", type=finite_float, required=True)
    _common(p)
    p.set_defaults(fn=cmd_test_function)


def _region_args(p) -> None:
    p.add_argument("kind", choices=("tau-sharp", "tau-star", "overshoot"))
    p.add_argument("--gamma", required=True, help="START:STOP:STEP")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted (at least 1) and ignored: the sweep runs serially")
    p.add_argument("--tol", type=finite_float, default=0.05, help="bisection width of the "
                   "tau-sharp and overshoot edges; tau-star is a minimum and ignores it")
    _common(p)
    p.set_defaults(fn=cmd_region)


def _iterate_args(p) -> None:
    _add_model_flags(p)
    _common(p, 1e-9)
    p.set_defaults(fn=cmd_iterate)


def _check_asymptotics_args(p) -> None:
    _add_model_flags(p)
    _common(p, 1e-9)
    p.set_defaults(fn=cmd_check_asymptotics)


_COMMANDS = {
    "roots": ("characteristic roots at the positive state", _roots_args),
    "heteroclinic": ("planar kinetics connection", _heteroclinic_args),
    "weak-profile": ("finite-speed weak-kernel wave profile", _weak_profile_args),
    "limit-profile": ("infinite-speed delayed kinetics profile", _limit_profile_args),
    "finite-profile": ("finite-speed delayed wave profile", _finite_profile_args),
    "overshoot": ("closed-form overshoot lower bound", _overshoot_args),
    "test-function": ("cubic comparison-arc certificate", _test_function_args),
    "region": ("parameter-plane boundary sweep", _region_args),
    "iterate": ("front construction by operator iteration", _iterate_args),
    "check-asymptotics": ("tail exponents vs characteristic rates", _check_asymptotics_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The kolwave parser.  When `command` names a subcommand it holds that
    one only, which parses that command's argv as the full parser does;
    otherwise (help, an unknown or no command) it holds all of them."""
    ap = argparse.ArgumentParser(
        prog="kolwave",
        description="travelling-wavefront toolkit for the nonlocal logistic "
                    "reaction-diffusion model",
    )
    if command not in _COMMANDS:
        names, metavar = list(_COMMANDS), None
    else:  # the usage line still lists every command
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create --out: {exc}", file=sys.stderr)
        return 2
    manifest = RunManifest(command=args.command,
                           params={k: v for k, v in sorted(vars(args).items())
                                   if k not in ("fn", "out")})
    t0 = time.perf_counter()
    code = 0
    try:
        code = args.fn(args, out, manifest)
    except (PreconditionError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.error = type(exc).__name__
        code = 2
    except KolwaveError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        manifest.error = type(exc).__name__
        code = 3
    finally:
        manifest.wall_time = time.perf_counter() - t0
        manifest.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
