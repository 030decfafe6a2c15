"""kolwave benchmark: runs one workload of CLI jobs and prints its metrics.

    python3 bench/run.py --workload fronts-atom --seed 1 --seconds 30 --trace 0

A job is one ``kolwave`` command run in this process through
``kolwave.cli.main(argv)`` with a fresh ``--out`` directory.  Jobs run in a
closed loop, one after another, until ``--seconds`` have passed; every job's
outputs are then checked against ``reference/<workload>.json`` and their own
invariants.  With ``--trace 1`` a fixed job list runs once untraced in a child
process and once traced here, and the per-layer metrics are printed instead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9  # set-ups timed per run (this process plus fresh children)
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
TAIL_SHARE = 0.1  # dearest share of the passing jobs that job_s.tail_mean averages
TRACE_CYCLES = {"fronts-atom": 3, "fronts-weak": 2, "shapes": 1}
IDLE_SHARE = 0.05  # self time share of the traced wall that counts as real work

# Functions behind the layer metrics an optimisation is most likely to move:
# name -> (workloads where it does the work, workloads where it is ~0).
FRONTS = ("fronts-atom", "fronts-weak")
EVERY = ("fronts-atom", "fronts-weak", "shapes")
LAYER_EXPECT = {
    "semiwavefront.iterate_front": (FRONTS, ("shapes",)),
    "models.effective_kernel": (FRONTS, ("fronts-atom", "shapes")),
    "numerics.quad_adaptive": (("fronts-weak",), ("fronts-atom", "shapes")),
    "models.EffectiveKernel.convolve_weights": (FRONTS, ("fronts-atom", "shapes")),
    "semiwavefront.default_config": (FRONTS, ()),
    "spectral.kpp_roots": (FRONTS, ()),
    "spectral.roots_at_one": (FRONTS, ()),
    "spectral.weak_char_roots": (("shapes",), ()),
    "spectral.delay_char_roots": (("shapes",), ()),
    "numerics.find_root": (EVERY, ()),
    "numerics.integrate_dde": (("shapes",), FRONTS),
    "numerics.DdeTrajectory.__call__": (("shapes",), FRONTS),
    "discretedelay.limit_profile": (("shapes",), FRONTS),
    "discretedelay.finite_speed_profile": (("shapes",), FRONTS),
    "numerics.integrate_ode": (("shapes",), FRONTS),
    "numerics.Trajectory.sample": (("shapes",), FRONTS),
    "planarflow.heteroclinic": (("shapes",), FRONTS),
    "planarflow.finite_speed_profile": (("shapes",), FRONTS),
    "planarflow.tau_sharp": (("shapes",), FRONTS),
    "planarflow.tau_star": (("shapes",), FRONTS),
    "planarflow.test_function_check": (("shapes",), FRONTS),
    "planarflow.boundary_region": (("shapes",), FRONTS),
    "numerics.maximize_scalar": (("shapes",), FRONTS),
    "discretedelay.overshoot_bound": (("shapes",), FRONTS),
    "discretedelay.overshoot_region": (("shapes",), FRONTS),
    "profiles.build_profile": (EVERY, ("fronts-weak",)),
    "profiles.write_csv": (EVERY, ("fronts-weak",)),
    "cli.write_svg": (EVERY, ("fronts-weak",)),
    "cli.main": (EVERY, ("fronts-weak",)),
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ jobs


@dataclass
class Outcome:
    job: workloads.Job
    out: Path
    code: int  # exit code of cli.main; -1 when it raised
    seconds: float
    error: tuple[str, str] | None = None  # (class, message) of a failure
    problems: tuple[str, ...] = ()
    checked_by: str = ""  # "reference", "intrinsic"

    @property
    def passed(self) -> bool:
        return self.code == 0 and not self.problems


class ErrorCapture:
    """Records the class of the exception a command raised: ``cli.main``
    turns it into an exit code and a message on stderr.  Wraps the
    ``cmd_*`` functions, one call per job."""

    def __init__(self, cli):
        self.last: str | None = None
        for name in [n for n in vars(cli) if n.startswith("cmd_")]:
            setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        def command(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.last = type(exc).__name__
                raise
        return command


def run_job(cli, capture: ErrorCapture, job, inputs: Path, out: Path) -> Outcome:
    argv = job.resolved_argv(inputs) + ["--out", str(out)]
    err = io.StringIO()
    capture.last = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # not a typed toolkit error: record and go on
            code = -1
            capture.last = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    error = None
    if code != 0:
        lines = [ln for ln in err.getvalue().splitlines() if "error" in ln]
        error = (capture.last or "?", lines[-1] if lines else err.getvalue().strip()[-200:])
    return Outcome(job, out, code, seconds, error)


def run_loop(cli, capture, jobs, inputs: Path, jobdir: Path, seconds: float | None,
             more=None):
    """Closed loop over ``jobs``; stops starting jobs after ``seconds``.
    When the list runs out first, ``more(n)`` returns the jobs after the
    first ``n``, input files written."""
    outcomes = []
    start = perf_counter()
    while seconds is None or not outcomes or perf_counter() - start < seconds:
        i = len(outcomes)
        if i == len(jobs):
            if more is None:
                break
            jobs += more(i)
        outcomes.append(run_job(cli, capture, jobs[i], inputs, jobdir / f"job-{i:04d}"))
    return outcomes, perf_counter() - start


def check(outcomes: list[Outcome], reference: dict) -> list[str]:
    """Fills each outcome's problems and removes its outputs.  Returns the
    correctness violations: wrong outputs, or a failure where the parent
    commit succeeded."""
    violations = []
    for o in outcomes:
        ref = reference.get(o.job.key)
        if ref is not None and ref["argv"] != list(o.job.argv):
            raise SystemExit(f"reference for {o.job.key} was made for another job")
        argv = list(o.job.argv)
        if o.code == 0:
            problems = checks.intrinsic_problems(argv, o.out)
            o.checked_by = "intrinsic"
            if ref is not None and ref["code"] == 0 and not problems:
                problems += checks.reference_problems(checks.summarize(argv, o.out), ref["values"])
                o.checked_by = "reference"
            o.problems = tuple(problems)
            if problems:
                violations.append(f"{o.job.key}: {'; '.join(problems)}")
        elif o.code == -1 or (ref is not None and ref["code"] != o.code):
            want = "a crash-free run" if ref is None else f"exit {ref['code']}"
            violations.append(f"{o.job.key}: exit {o.code}, reference {want}: {o.error}")
        shutil.rmtree(o.out, ignore_errors=True)
    return violations


def load_reference(workload: str) -> dict:
    path = BENCH / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["jobs"] if path.is_file() else {}


# -------------------------------------------------------------- metrics


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it, or None with fewer than 2*TAIL_BEYOND samples."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(values)[n - TAIL_BEYOND - 1]


def time_vs_reference(outcomes: list[Outcome], reference: dict) -> float | None:
    """Job time over reference time for the pool draws checked against the
    reference: how fast this machine and commit ran the same jobs."""
    ours = [(o.seconds, reference[o.job.key]["seconds"]) for o in outcomes
            if o.checked_by == "reference"]
    return sum(a for a, _ in ours) / sum(b for _, b in ours) if ours else None


def environment(workload: str, seed: int) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "kolwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            sha = top[1]
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def failures(outcomes: list[Outcome]) -> list[dict]:
    return [{"job": o.job.key, "argv": list(o.job.argv), "exit": o.code,
             "error": o.error, "problems": list(o.problems)}
            for o in outcomes if not o.passed]


# ---------------------------------------------------------------- set-up


def set_up(workload: str, seed: int, cycles: int, costs: dict, skip=frozenset()):
    """Import the package and generate ``cycles`` cycles of the workload;
    returns (cli, jobs, seconds taken).  ``costs`` ranks the pools and the
    keys in ``skip`` are left out of them."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from kolwave import cli
    jobs = workloads.job_list(workload, seed, cycles, costs, skip)
    return cli, jobs, perf_counter() - t0


def child(args: list[str]) -> dict:
    """Runs this script in a fresh interpreter and returns its JSON line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args,
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"child {args} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ runs


def untraced(workload, seed, seconds, cli, jobs, inputs, workdir, setup_s, costs, skip):
    def more(n):
        cycles = n // len(workloads.PATTERNS[workload]) + workloads.POOL_CYCLES
        fresh = workloads.job_list(workload, seed, cycles, costs, skip)[n:]
        workloads.write_inputs(fresh, inputs)
        return fresh

    capture = ErrorCapture(cli)
    outcomes, wall = run_loop(cli, capture, jobs, inputs, workdir / "jobs", seconds, more)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = load_reference(workload)
    violations = check(outcomes, reference)

    ran = [o.job for o in outcomes]
    passing = [o.seconds for o in outcomes if o.passed]
    n_failed = len(outcomes) - len(passing)
    tail_pv = tail(passing)
    dearest = sorted(passing)[-max(1, math.ceil(TAIL_SHARE * len(passing))):]
    values = {"setup_s": statistics.median(setup_s), "jobs_per_s": len(passing) / wall,
              "job_s.p50": statistics.median(passing) if passing else math.nan,
              "job_s.tail_mean": statistics.fmean(dearest) if passing else math.nan,
              "peak_rss_mb": peak_rss_mb}
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in load_benchmark()["end_to_end"] if m["name"] in values}

    report = {
        "env": environment(workload, seed), "mode": "untraced", "seconds": seconds,
        "wall_s": wall, "attempted": len(outcomes), "passing": len(passing),
        "failed_ratio": n_failed / len(outcomes),
        "job_s.tail": tail_pv[1] if tail_pv else None,
        "job_s.tail_percentile": tail_pv[0] if tail_pv else None,
        "setup_s_samples": setup_s, "repeat_share": workloads.repeat_share(ran),
        "reference_checked": sum(o.checked_by == "reference" for o in outcomes),
        "time_vs_reference": time_vs_reference(outcomes, reference),
        "pool_walked_again": len({j.key for j in ran}) < len(ran),
        "fresh_draws": sum(j.draw.startswith("s") for j in ran),
        "failures": failures(outcomes), "violations": violations,
        "job_seconds": {o.job.key: o.seconds for o in outcomes},
    }
    print(f"setup_s = {values['setup_s']:.4f} s (median of {len(setup_s)} set-ups)")
    print(f"jobs_per_s = {values['jobs_per_s']:.4f} 1/s "
          f"({len(passing)} passing jobs in {wall:.2f} s)")
    print(f"job_s.p50 = {values['job_s.p50']:.4f} s (n={len(passing)})")
    print(f"job_s.tail_mean = {values['job_s.tail_mean']:.4f} s "
          f"(mean of the dearest {len(dearest)} of {len(passing)} passing jobs)")
    if tail_pv is not None:
        print(f"job_s.tail = {tail_pv[1]:.4f} s (p{tail_pv[0]:.1f}, n={len(passing)})")
    else:
        print(f"job_s.tail omitted: {len(passing)} passing jobs, fewer than {2 * TAIL_BEYOND}")
    print(f"failed_ratio = {n_failed / len(outcomes):.4f} ({n_failed} of {len(outcomes)} jobs)")
    print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"repeat_share = {report['repeat_share']:g} (jobs repeating a projected-kernel input)")
    if report["time_vs_reference"] is not None:
        print(f"time_vs_reference = {report['time_vs_reference']:.3f} (job time over the "
              f"reference time of the same {report['reference_checked']} pool draws)")
    return outcomes, violations, metrics, report


def traced(workload, seed, cli, jobs, probes, inputs, workdir):
    """Traces ``jobs`` and then the known-failure ``probes``; the probes count
    in the layer metrics and in ``bench.known_failures``, not in the result
    line's attempted and failed, and not in ``trace.overhead_ratio``."""
    from tracer import Tracer

    cycles = len(jobs) // len(workloads.PATTERNS[workload])
    baseline = child(["--replay", "--workload", workload, "--seed", str(seed),
                      "--cycles", str(cycles)])
    capture = ErrorCapture(cli)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = []
        start = perf_counter()
        for i, job in enumerate(jobs):
            tracer.job = i
            outcomes.append(run_job(cli, capture, job, inputs, workdir / "jobs" / f"job-{i:04d}"))
        wall = perf_counter() - start
        probed = []
        for i, job in enumerate(probes, len(jobs)):
            tracer.job = i
            probed.append(run_job(cli, capture, job, inputs, workdir / "jobs" / f"job-{i:04d}"))
    finally:
        tracer.uninstall()
    reference = load_reference(workload)
    violations = check(outcomes, reference) + check(probed, reference)
    if [o.code for o in outcomes] != baseline["codes"]:
        violations.append(f"traced exit codes {[o.code for o in outcomes]} differ "
                          f"from untraced {baseline['codes']}")

    values = tracer.metrics()
    derive(values, tracer)
    values["trace.overhead_ratio"] = wall / baseline["wall"]
    values["bench.repeat_share"] = workloads.repeat_share([o.job for o in outcomes])
    values["bench.jobs"] = len(outcomes)
    values["bench.known_failures"] = sum(not o.passed for o in probed)
    violations += coverage_problems(workload, values, wall, tracer.absent)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({"jobs": [o.job.key for o in outcomes + probed],
                                      "spans": tracer.span_records()}))
    # a function that ran no call records 0; one that is absent records nothing
    metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"])
               for m in load_benchmark()["per_layer"]
               if m["name"].rsplit(".", 1)[0] not in tracer.absent}
    report = {"env": environment(workload, seed), "mode": "traced", "cycles": cycles,
              "wall_s": wall, "untraced_wall_s": baseline["wall"], "absent": tracer.absent,
              "failures": failures(outcomes), "known_failures": failures(probed),
              "violations": violations, "all_layer_metrics": dict(sorted(values.items())),
              "spans_file": spans_path.name}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"traced {len(outcomes)} jobs in {wall:.2f} s, untraced {baseline['wall']:.2f} s; "
          f"spans in {spans_path.relative_to(ROOT)}")
    for f in report["known_failures"]:
        print(f"known failure {f['job']}: {' '.join(f['argv'])} -> exit {f['exit']} {f['error']}")
    print(f"bench.known_failures = {values['bench.known_failures']} of {len(probed)} probes "
          f"(draws that failed at the parent commit)")
    return outcomes, violations, metrics, report


def derive(values: dict, tracer) -> None:
    """Ratios computed from the recorded spans and counts."""
    node_iters = values.get("semiwavefront.iterate_front.node_iters", 0.0)
    values["semiwavefront.iterate_front.s_per_node_iter"] = (
        values.get("semiwavefront.iterate_front.self_s", 0.0) / node_iters if node_iters else 0.0)
    # CPU time of the sweep points against the two cores' capacity: threads that
    # take turns on the interpreter lock read 0.5 at best, like a serial sweep
    region = [f for f in tracer.spans if f.name == "planarflow.boundary_region"]
    busy = sum(f.cpu for f in tracer.spans if any(f.parent is r for r in region))
    wall = sum(f.end - f.start for f in region)
    values["planarflow.boundary_region.parallel_efficiency"] = busy / (2 * wall) if wall else 0.0


def coverage_problems(workload: str, values: dict, wall: float, absent: list[str]) -> list[str]:
    problems = [f"{name} is traced but kolwave no longer defines it" for name in absent]
    for name, (work, idle) in LAYER_EXPECT.items():
        if workload in work and not values.get(f"{name}.calls"):
            problems.append(f"{name} records no calls on {workload}")
        share = values.get(f"{name}.self_s", 0.0) / wall
        if workload in idle and share > IDLE_SHARE:
            problems.append(f"{name} takes {share:.1%} of the traced wall on {workload}, "
                            f"listed as ~0 there")
    return problems


# ------------------------------------------------------------------ main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PATTERNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cycles", type=int, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kolwave" / "__init__.py").is_file():
        print(f"kolwave sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("KW_SEED_TOL", None)  # it silently changes default tolerances
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = workdir / "inputs"
    try:
        reference = load_reference(args.workload)
        costs = {key: ref["seconds"] for key, ref in reference.items()}
        probes = workloads.known_failures(args.workload, reference)
        skip = frozenset(job.key for job in probes)
        cycles = args.cycles or (TRACE_CYCLES[args.workload] if args.trace
                                 else workloads.POOL_CYCLES)
        cli, jobs, setup = set_up(args.workload, args.seed, cycles, costs, skip)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        workloads.write_inputs(jobs + probes, inputs)
        if args.replay:
            outcomes, wall = run_loop(cli, ErrorCapture(cli), jobs, inputs,
                                      workdir / "jobs", None)
            print(json.dumps({"wall": wall, "codes": [o.code for o in outcomes]}))
            return 0
        if args.trace:
            outcomes, violations, metrics, report = traced(args.workload, args.seed, cli,
                                                           jobs, probes, inputs, workdir)
        else:
            setup_s = [setup] + [child(["--setup-probe", "--workload", args.workload,
                                        "--seed", str(args.seed)])["setup_s"]
                                 for _ in range(SETUP_REPEATS - 1)]
            outcomes, violations, metrics, report = untraced(
                args.workload, args.seed, args.seconds, cli, jobs, inputs, workdir, setup_s,
                costs, skip)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for f in report["failures"]:
        print(f"failed job {f['job']}: {' '.join(f['argv'])} -> exit {f['exit']} "
              f"{f['error']} {f['problems'] or ''}")
    for v in violations:
        print(f"CHECK FAILED: {v}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(report, indent=1, default=str) + "\n")
    n_failed = sum(not o.passed for o in outcomes)
    print(json.dumps({"correct": not violations, "attempted": len(outcomes), "failed": n_failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
