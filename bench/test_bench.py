"""Self-tests of the benchmark: determinism of job lists and layer counts.

    python3 -m pytest bench/test_bench.py

Counts (calls, nodes, iterations, taps, points, failed, bytes) must repeat
exactly between two traced runs of the same code, so that later changes can
cite them as counts.  The traced runs take about a minute in total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_STATS = ("calls", "nodes", "iterations", "node_iters", "taps", "points", "failed",
               "bytes", "known_failures")
WORKLOADS = sorted(workloads.PATTERNS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_job_list(workload):
    first = workloads.describe(workloads.job_list(workload, 7)).encode()
    assert first == workloads.describe(workloads.job_list(workload, 7)).encode()
    assert first != workloads.describe(workloads.job_list(workload, 8)).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_job_repeats_a_projected_kernel_input(workload):
    pool = [workloads.pool_draw(slot, i) for slot in set(workloads.PATTERNS[workload])
            for i in range(workloads.pool_size(workload, slot))]
    assert workloads.repeat_share(pool) == 0.0
    for seed in range(5):
        assert workloads.repeat_share(workloads.job_list(workload, seed)) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_runs_leave_out_the_known_failures(workload):
    reference = run.load_reference(workload)
    known = {job.key for job in workloads.known_failures(workload, reference)}
    assert known == {key for key, ref in reference.items() if ref["code"] != 0}
    jobs = workloads.job_list(workload, 5, costs=None, skip=frozenset(known))
    assert not known & {job.key for job in jobs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_covers_the_pool(workload):
    reference = run.load_reference(workload)
    for slot in set(workloads.PATTERNS[workload]):
        for i in range(workloads.pool_size(workload, slot)):
            job = workloads.pool_draw(slot, i)
            assert reference[job.key]["argv"] == list(job.argv)


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "1", "--cycles", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    detail = json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    return {k: v for k, v in detail["all_layer_metrics"].items()
            if k.rsplit(".", 1)[1] in COUNT_STATS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 3)
    probes = workloads.known_failures(workload, run.load_reference(workload))
    assert first["cli.main.calls"] == len(workloads.PATTERNS[workload]) + len(probes)
    assert first["bench.known_failures"] == len(probes)
    assert _traced_counts(workload, 3) == first


def test_traced_run_fails_when_a_traced_function_is_gone(monkeypatch, capsys):
    sys.path.insert(0, str(run.SRC))
    from kolwave import discretedelay

    # as if a change renamed it: the defining module no longer binds the name
    monkeypatch.delattr(discretedelay, "overshoot_region")
    code = run.main(["--workload", "fronts-atom", "--seed", "3", "--trace", "1",
                     "--cycles", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert "discretedelay.overshoot_region.calls" not in result["metrics"]
    assert "discretedelay.overshoot_bound.calls" in result["metrics"]


def test_fails_without_the_package_sources():
    lone = run.WORK / f"lone-{os.getpid()}"
    try:
        (lone / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", lone)
        for path in run.BENCH.glob("*.py"):
            shutil.copy(path, lone / "bench")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shapes",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=lone, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(lone, ignore_errors=True)
