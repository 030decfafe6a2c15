"""Output checks for benchmark jobs.

``summarize`` reads the files a job wrote and returns the values that are
compared with the reference; ``intrinsic_problems`` checks properties every
correct output has whatever the reference says; ``reference_problems``
compares a summary with the reference entry made at the parent commit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Shapes, flags and verdicts must match exactly.  Profile maxima may move by
# the two-route cross-validation bound and region taus by the bisection tol.
ABS_TOL = {"sup": 2e-3, "phi_max": 2e-3, "tau_sharp": 0.05, "tau_star": 0.05,
           "tau_lower": 1e-2, "tau_upper": 1e-9, "gamma": 1e-9, "value": 1e-9}
REL_TOL = {"rate_minus_expected": 1e-9, "rate_minus_fit": 2e-3, "rate_plus_fit": 2e-3,
           "matched_root": 1e-6, "roots": 1e-6}


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines[1:]]


def _flag(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def summarize(argv: list[str], out: Path) -> dict:
    """Compared values of a job that exited 0."""
    command = argv[0]
    if command == "iterate":
        doc = _json(out / "front.json")
        return {"converged": doc["converged"], "shape": doc["shape"], "sup": doc["sup"]}
    if command == "check-asymptotics":
        doc = _json(out / "asymptotics.json")
        return {k: doc[k] for k in ("flags", "rate_minus_expected", "rate_minus_fit",
                                    "rate_plus_fit", "matched_root")}
    if command in ("heteroclinic", "weak-profile"):
        doc = _json(out / "phi.json")
        return {k: doc[k] for k in ("shape", "phi_max", "captured", "sup")}
    if command in ("limit-profile", "finite-profile"):
        doc = _json(out / "phi.json")
        return {k: doc[k] for k in ("shape", "sup", "flags")}
    if command == "roots":
        doc = _json(out / "roots.json")
        return {"class": doc["class"], "real_negative_count": doc["real_negative_count"],
                "real_positive_count": doc["real_positive_count"],
                "roots": [[r["re"], r["im"], r["mult"]] for r in doc["roots"]]}
    if command == "overshoot":
        return {"value": _json(out / "overshoot.json")["value"]}
    if command == "test-function":
        doc = _json(out / "test-function.json")
        return {"holds": doc["holds"], "failed": doc["failed"]}
    if command == "region":
        header, rows = read_csv(out / f"region-{argv[1]}.csv")
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    raise ValueError(f"unknown command {command!r}")


def _profile_problems(csv_path: Path, sidecar: dict) -> list[str]:
    header, rows = read_csv(csv_path)
    if header != ["t", "phi"] or len(rows) < 10:
        return [f"{csv_path.name}: bad header or too few rows"]
    ts = [r[0] for r in rows]
    vs = [r[1] for r in rows]
    problems = []
    if not all(math.isfinite(v) for v in ts + vs):
        problems.append(f"{csv_path.name}: non-finite values")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append(f"{csv_path.name}: t not increasing")
    if abs(max(vs) - sidecar["sup"]) > 1e-12 * max(1.0, abs(sidecar["sup"])):
        problems.append(f"{csv_path.name}: max {max(vs)} != sidecar sup {sidecar['sup']}")
    if not vs[0] < 0.5:
        problems.append(f"{csv_path.name}: profile starts at {vs[0]}, not near 0")
    settled = not ({"unconverged", "unresolved-tail"} & set(sidecar.get("flags", [])))
    if settled and abs(vs[-1] - 1.0) > 1e-2:
        problems.append(f"{csv_path.name}: profile ends at {vs[-1]}, not near 1")
    return problems


def intrinsic_problems(argv: list[str], out: Path) -> list[str]:
    """Properties every correct output of a job that exited 0 has."""
    command = argv[0]
    manifest = out / f"{command}.manifest.json"
    if not manifest.is_file():
        return ["manifest missing"]
    listed = _json(manifest)["outputs"]
    missing = [name for name in listed if not (out / name).is_file()]
    if not listed or missing:
        return [f"outputs missing: {missing or 'none listed'}"]

    if command == "iterate":
        doc = _json(out / "front.json")
        problems = _profile_problems(out / "front.csv", doc)
        if not math.isfinite(doc["residual"]):
            problems.append("residual not finite")
        return problems
    if command == "check-asymptotics":
        doc = _json(out / "asymptotics.json")
        c = float(_flag(argv, "--c"))
        lam = (c - math.sqrt(c * c - 4.0)) / 2.0  # G(0) = 1 for kpp and food-limited
        if abs(doc["rate_minus_expected"] - lam) > 1e-12 * lam:
            return [f"rate_minus_expected {doc['rate_minus_expected']} != {lam}"]
        return []
    if command in ("heteroclinic", "weak-profile", "limit-profile", "finite-profile"):
        doc = _json(out / "phi.json")
        problems = _profile_problems(out / "phi.csv", doc)
        if "phi_max" in doc and abs(doc["phi_max"] - doc["sup"]) > 1e-6:
            problems.append(f"phi_max {doc['phi_max']} far from sup {doc['sup']}")
        return problems
    if command == "roots":
        doc = _json(out / "roots.json")
        _, rows = read_csv(out / "roots.csv")
        if len(rows) != len(doc["roots"]):
            return ["roots.csv and roots.json disagree"]
        return []
    if command == "overshoot":
        value = _json(out / "overshoot.json")["value"]
        return [] if math.isfinite(value) and value > 0 else [f"overshoot bound {value}"]
    if command == "test-function":
        doc = _json(out / "test-function.json")
        return [] if doc["holds"] == (not doc["failed"]) else ["holds disagrees with failed"]
    if command == "region":
        return _region_problems(argv, summarize(argv, out))
    return [f"unknown command {command!r}"]


def _region_problems(argv: list[str], cols: dict) -> list[str]:
    start, stop, step = (float(x) for x in _flag(argv, "--gamma").split(":"))
    n = int((stop - start) / step + 1e-9) + 1
    gammas = [start + step * i for i in range(n)]
    if len(cols["gamma"]) != n or any(abs(a - b) > 1e-9 for a, b in zip(cols["gamma"], gammas)):
        return ["gamma column differs from the requested grid"]
    edge = math.e if argv[1] == "overshoot" else 4.0
    problems = []
    for i, g in enumerate(gammas):
        upper = cols["tau_upper"][i]
        if abs(upper - (1.0 + g) / edge) > 1e-12 * upper:
            problems.append(f"tau_upper at gamma={g}")
        for name in ("tau_sharp", "tau_star", "tau_lower"):
            if name in cols and not (math.isnan(cols[name][i]) or 0 < cols[name][i] <= upper * 1.5):
                problems.append(f"{name}={cols[name][i]} out of range at gamma={g}")
    return problems


def _close(name: str, got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        if name in ABS_TOL:
            return abs(got - want) <= ABS_TOL[name]
        return abs(got - want) <= REL_TOL.get(name, 0.0) * abs(want)
    return got == want


def reference_problems(summary: dict, ref: dict) -> list[str]:
    problems = []
    for name, want in ref.items():
        got = summary.get(name)
        if name == "roots":
            ok = len(got) == len(want) and all(
                g[2] == w[2] and all(_close(name, a, b) for a, b in zip(g[:2], w[:2]))
                for g, w in zip(got, want))
        elif isinstance(want, list) and want and isinstance(want[0], float):
            ok = len(got) == len(want) and all(_close(name, a, b) for a, b in zip(got, want))
        else:
            ok = _close(name, got, want)
        if not ok:
            problems.append(f"{name}: got {got!r}, reference {want!r}")
    return problems
