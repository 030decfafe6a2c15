"""Writes reference/<workload>.json: the checked values of every pool draw.

    python3 bench/make_reference.py [WORKLOAD ...]

Run it at the commit whose outputs later commits must reproduce.  Each pool
draw runs once per pass, in a fresh ``--out`` directory; a draw that fails is
stored with its exit code, error class and message and no values.  The
median of the draw's times over three passes, each in a fresh process, ranks
the pool from cheap to dear (see ``workloads.job_list``); one time is too
noisy on a shared machine.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import checks
import run
import workloads

PASSES = 3  # runs of every pool draw, each pass in a fresh process


def one_pass(workload: str) -> dict:
    """Runs every pool draw once; returns its reference entries.  A fresh
    process per pass keeps the kernel cache of one pass from serving the
    next."""
    workdir = run.WORK / f"reference-{workload}-{os.getpid()}"
    try:
        slots = sorted(set(workloads.PATTERNS[workload]))
        jobs = [workloads.pool_draw(slot, i) for slot in slots
                for i in range(workloads.pool_size(workload, slot))]
        cli, _, _ = run.set_up(workload, 0, 0, {})
        inputs = workdir / "inputs"
        workloads.write_inputs(jobs, inputs)
        capture = run.ErrorCapture(cli)
        entries = {}
        for i, job in enumerate(jobs):
            o = run.run_job(cli, capture, job, inputs, workdir / f"job-{i:04d}")
            argv = list(job.argv)
            entry = {"argv": argv, "code": o.code, "error": o.error, "values": None,
                     "seconds": o.seconds}
            if o.code == 0:
                problems = checks.intrinsic_problems(argv, o.out)
                if problems:
                    raise SystemExit(f"{job.key} fails its intrinsic checks: {problems}")
                entry["values"] = checks.summarize(argv, o.out)
            entries[job.key] = entry
            shutil.rmtree(o.out, ignore_errors=True)
            print(f"{o.seconds:7.3f} s exit {o.code} {job.key} {' '.join(argv)} "
                  f"{o.error or ''}", file=sys.stderr, flush=True)
        return entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names: list[str]) -> int:
    if names[:1] == ["--pass"]:
        print(json.dumps(one_pass(names[1])))
        return 0
    os.environ.pop("KW_SEED_TOL", None)
    for workload in names or sorted(workloads.PATTERNS):
        passes = []
        for _ in range(PASSES):
            proc = subprocess.run([sys.executable, __file__, "--pass", workload],
                                  stdout=subprocess.PIPE, text=True, check=True)
            passes.append(json.loads(proc.stdout))
        entries = passes[0]
        for key, entry in entries.items():
            if {p[key]["code"] for p in passes} != {entry["code"]}:
                raise SystemExit(f"{key} exits differently between passes")
            entry["seconds"] = round(statistics.median(p[key]["seconds"] for p in passes), 3)
        env = run.environment(workload, 0)
        doc = {"made_with": {k: env[k] for k in ("python", "numpy", "git_sha", "src_sha256")},
               "jobs": entries}
        path = run.BENCH / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
