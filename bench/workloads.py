"""Seeded job lists for the benchmark workloads.

A job is one ``kolwave`` command line.  Each workload repeats a fixed pattern
of slots; a slot is one kind of command whose parameters are drawn at random.
Every slot owns a pool of draws, enough for ``POOL_CYCLES`` cycles, made once
from fixed seeds; the reference outputs in ``reference/`` were computed for
exactly these draws.  The workload seed picks the order in which a run walks
each slot's pool, so two seeds run different jobs with the same mix; the walk
spreads each run's draws evenly over the pool ranked by reference time.  The
draws that failed at the parent commit are not walked: they run as known-
failure probes of the traced run.  A run that outlasts a pool walks it again,
or, for jobs with a projected-kernel input, continues with fresh draws made
from the seed, which have no reference and are checked only for their
intrinsic properties.

The draws use ``random.Random`` seeded by strings, so a job list does not
depend on the numpy version.  No two jobs of a list share a projected-kernel
input ``(kernel, tau, c)``: the kernel cache of the program never serves a
later job, as for a user who runs one command per process.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

POOL_CYCLES = 16  # cycles the pools cover before they are walked again or draws turn fresh
INPUTS = "{inputs}"  # placeholder for the directory holding a run's input files
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CRITICAL_DELAY = 1.0 / math.e  # node range of the delay kinetics: tau < (1+gamma)/e


@dataclass(frozen=True)
class Job:
    slot: str
    draw: str  # "p<i>" for pool draw i, "s<seed>-<k>" for a fresh draw
    argv: tuple[str, ...]  # without --out; input paths start with INPUTS
    kernel_key: tuple | None  # projected-kernel input, None for commands without one
    table: tuple | None = None  # (s, density) written to INPUTS/<slot>-<draw>.json

    @property
    def key(self) -> str:
        return f"{self.slot}/{self.draw}"

    def resolved_argv(self, inputs: Path) -> list[str]:
        return [a.replace(INPUTS, str(inputs)) for a in self.argv]


def _f(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}f}"


def _speed(rng: random.Random, lo: float, hi: float) -> str:
    # six digits keep the speeds, and so the projected-kernel inputs, distinct
    return _f(rng.uniform(lo, hi), 6)


def _growth(rng: random.Random, kind: str, gamma_hi: float = 2.5) -> list[str]:
    if kind == "kpp":
        return ["--model", "kpp"]
    return ["--model", "food", "--gamma", _f(rng.uniform(0.2, gamma_hi))]


def _front(command: str, growth: str, kernel: str):
    """iterate / check-asymptotics on a point-mass or weak kernel."""
    def draw(rng: random.Random, slot: str, name: str) -> Job:
        argv = [command] + _growth(rng, growth)
        c = _speed(rng, 2.4, 3.3)
        tau = None
        if kernel == "discrete":
            tau = _f(rng.uniform(0.05, 0.6))
        elif kernel == "weak":
            argv = [command] + (["--model", "kpp"] if growth == "kpp" else
                                ["--model", "food", "--gamma", _f(rng.uniform(0.0, 1.5))])
            tau = _f(rng.uniform(0.2, 0.45))
            c = _speed(rng, 2.4, 2.9)
        argv += ["--kernel", kernel] + (["--tau", tau] if tau else []) + ["--c", c]
        return Job(slot, name, tuple(argv), (kernel, tau, c))
    return draw


def _table_front(command: str, growth: str):
    """iterate / check-asymptotics on a tabulated projected kernel N_c: a
    beta-shaped bump on [lo, hi] written by the generator as a JSON file."""
    def draw(rng: random.Random, slot: str, name: str) -> Job:
        lo = rng.uniform(-1.0, 0.0)
        hi = rng.uniform(0.8, 3.0)
        p, q = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
        xs = [i / 160 for i in range(161)]
        table = (tuple(round(lo + (hi - lo) * x, 12) for x in xs),
                 tuple(round(x ** p * (1.0 - x) ** q, 12) for x in xs))
        c = _speed(rng, 2.5, 3.2)
        argv = [command] + _growth(rng, growth, 1.5) + [
            "--kernel", f"table:{INPUTS}/{slot}-{name}.json", "--c", c]
        return Job(slot, name, tuple(argv), ("table", table, c), table)
    return draw


def _gamma_tau(rng: random.Random, g_lo: float, g_hi: float, edge: float,
               u: tuple[float, float] = (0.02, 0.999)) -> tuple[str, str]:
    """gamma in [g_lo, g_hi] and tau = u*edge*(1+gamma), u in the given band."""
    g = rng.uniform(g_lo, g_hi)
    return _f(g), _f(rng.uniform(*u) * edge * (1.0 + g))


def _shape(command: str, third: int | None = None):
    """One short job; ``third`` picks a third of the delay-kinetics node range
    tau < (1+gamma)/e, whose cost falls steeply with tau."""
    band = (0.02, 0.999) if third is None else tuple(
        0.02 + (0.999 - 0.02) * (third + k) / 3.0 for k in (0, 1))

    def draw(rng: random.Random, slot: str, name: str) -> Job:
        if command in ("heteroclinic", "weak-profile"):
            g, t = _gamma_tau(rng, 1.0, 60.0, 0.25)
            argv = [command, "--gamma", g, "--tau", t]
            if command == "weak-profile":
                argv += ["--eps", _f(rng.uniform(0.002, 0.05))]
        elif command in ("limit-profile", "finite-profile", "overshoot"):
            g, t = _gamma_tau(rng, 1.0, 15.0, CRITICAL_DELAY, band)
            argv = [command, "--gamma", g, "--tau", t]
            if command == "finite-profile":
                argv += ["--eps", _f(rng.uniform(0.002, 0.02))]
        elif command == "test-function":
            g, t = _gamma_tau(rng, 1.5, 60.0, 0.25)
            argv = [command, "--gamma", g, "--tau", t, "--a", _f(rng.uniform(0.05, 0.95))]
        elif command in ("roots-discrete", "roots-weak"):
            kernel = command.split("-")[1]
            g, t = _gamma_tau(rng, 1.0, 40.0, CRITICAL_DELAY if kernel == "discrete" else 0.25)
            argv = ["roots", "--kernel", kernel, "--gamma", g, "--tau", t,
                    "--c", _f(rng.uniform(3.0, 30.0))]
        else:
            raise ValueError(command)
        return Job(slot, name, tuple(argv), None)
    return draw


def _region(kind: str, g_lo: float, g_hi: float, steps: tuple[float, float], points: int):
    def draw(rng: random.Random, slot: str, name: str) -> Job:
        start = rng.uniform(g_lo, g_hi)
        step = rng.uniform(*steps)
        stop = start + step * (points - 1) + step / 2.0
        spec = f"{_f(start)}:{_f(stop)}:{_f(step)}"
        return Job(slot, name, ("region", kind, "--gamma", spec, "--jobs", "2"), None)
    return draw


# slot name -> draw function
SLOTS = {
    "atom-it-food-dirac": _front("iterate", "food", "dirac"),
    "atom-ca-kpp-dirac": _front("check-asymptotics", "kpp", "dirac"),
    "atom-it-food-discrete": _front("iterate", "food", "discrete"),
    "atom-ca-food-discrete": _front("check-asymptotics", "food", "discrete"),
    "atom-it-kpp-discrete": _front("iterate", "kpp", "discrete"),
    "atom-ca-food-dirac": _front("check-asymptotics", "food", "dirac"),
    "atom-it-kpp-dirac": _front("iterate", "kpp", "dirac"),
    "atom-ca-kpp-discrete": _front("check-asymptotics", "kpp", "discrete"),
    "weak-it-food": _front("iterate", "food", "weak"),
    "weak-ca-kpp": _front("check-asymptotics", "kpp", "weak"),
    "table-it-food": _table_front("iterate", "food"),
    "table-ca-kpp": _table_front("check-asymptotics", "kpp"),
    "table-it-kpp": _table_front("iterate", "kpp"),
    "table-ca-food": _table_front("check-asymptotics", "food"),
    "shape-heteroclinic": _shape("heteroclinic"),
    "shape-weak-profile": _shape("weak-profile"),
    **{f"shape-limit-profile-{k}": _shape("limit-profile", k) for k in range(3)},
    **{f"shape-finite-profile-{k}": _shape("finite-profile", k) for k in range(3)},
    "shape-roots-discrete": _shape("roots-discrete"),
    "shape-roots-weak": _shape("roots-weak"),
    "shape-overshoot": _shape("overshoot"),
    "shape-test-function": _shape("test-function"),
    "region-tau-sharp": _region("tau-sharp", 8.0, 40.0, (1.0, 4.0), 2),
    "region-tau-star": _region("tau-star", 8.0, 40.0, (0.5, 2.0), 12),
    "region-overshoot": _region("overshoot", 1.0, 10.0, (0.5, 2.0), 4),
}


def _short(third: int) -> list[str]:
    return ["shape-heteroclinic", "shape-roots-discrete", "shape-weak-profile",
            f"shape-limit-profile-{third}", "shape-overshoot", "shape-heteroclinic",
            "shape-test-function", f"shape-finite-profile-{third}",
            "shape-roots-weak", "shape-weak-profile"]


# workload -> the slot pattern one cycle runs, in order
PATTERNS = {
    "fronts-atom": ["atom-it-food-dirac", "atom-ca-kpp-dirac", "atom-it-food-discrete",
                    "atom-ca-food-discrete", "atom-it-kpp-discrete", "atom-ca-food-dirac",
                    "atom-it-kpp-dirac", "atom-ca-kpp-discrete"],
    "fronts-weak": ["weak-it-food", "table-it-food", "table-ca-kpp", "table-it-kpp",
                    "table-ca-food", "table-it-food", "weak-ca-kpp", "table-it-kpp",
                    "table-ca-kpp", "table-it-food", "table-ca-food", "table-it-kpp"],
    # the dearest jobs (the small-tau delay runs of the first block, about 1 s
    # each, and the tau-sharp sweep, about 2 s) sit apart in the cycle, so
    # that a run ending anywhere in a cycle holds a like share of them
    "shapes": (_short(0) + ["region-overshoot"] + _short(1) + ["region-tau-sharp"]
               + _short(2) + ["region-tau-star"]),
}

def pool_draw(slot: str, i: int) -> Job:
    return SLOTS[slot](random.Random(f"kolwave-bench/pool/{slot}/{i}"), slot, f"p{i}")


def pool_size(workload: str, slot: str) -> int:
    return POOL_CYCLES * PATTERNS[workload].count(slot)


def _walk(ranked: list[int], rng: random.Random) -> list[int]:
    """``ranked`` in the order a run takes it: a golden-ratio walk over the
    ranks from a seeded start, so that every prefix spreads evenly from the
    cheapest draw to the dearest and runs of different seeds do the same
    amount of work per job."""
    n = len(ranked)
    start = rng.random()
    free = list(range(n))
    order = []
    for k in range(n):
        pos = int((start + k * GOLDEN) % 1.0 * n)
        while pos not in free:
            pos = (pos + 1) % n
        free.remove(pos)
        order.append(ranked[pos])
    return order


def job_list(workload: str, seed: int, cycles: int = 2 * POOL_CYCLES,
             costs: dict | None = None, skip=frozenset()) -> list[Job]:
    """The run's job sequence: ``cycles`` repetitions of the workload's
    pattern.  ``costs`` maps a pool draw's key to its reference time and
    ranks each pool; the keys in ``skip`` (draws that failed at the parent
    commit, see ``known_failures``) are left out of it.  A slot whose pool
    runs out walks it again when its jobs have no projected-kernel input,
    and continues with fresh draws from the seed when they have one."""
    pattern = PATTERNS[workload]
    order = {}
    for slot in set(pattern):
        keys = [i for i in range(pool_size(workload, slot)) if f"{slot}/p{i}" not in skip]
        ranked = sorted(keys, key=lambda i: (costs or {}).get(f"{slot}/p{i}", 0.0))
        rng = random.Random(f"kolwave-bench/order/{workload}/{seed}/{slot}")
        order[slot] = _walk(ranked, rng)
    taken = dict.fromkeys(pattern, 0)
    jobs = []
    seen = set()
    for _ in range(cycles):
        for slot in pattern:
            k = taken[slot]
            taken[slot] += 1
            if k < len(order[slot]):
                job = pool_draw(slot, order[slot][k])
            elif pool_draw(slot, 0).kernel_key is None:
                job = pool_draw(slot, order[slot][k % len(order[slot])])
            else:
                rng = random.Random(f"kolwave-bench/fresh/{workload}/{seed}/{slot}/{k}")
                job = SLOTS[slot](rng, slot, f"s{seed}-{k}")
                while job.kernel_key in seen:
                    job = SLOTS[slot](rng, slot, f"s{seed}-{k}")
            seen.add(job.kernel_key)
            jobs.append(job)
    return jobs


def known_failures(workload: str, reference: dict) -> list[Job]:
    """The pool draws that failed at the parent commit, in key order.  They
    stay out of the timed job lists and run as probes of the traced run."""
    return [pool_draw(slot, i) for slot in sorted(set(PATTERNS[workload]))
            for i in range(pool_size(workload, slot))
            if reference.get(f"{slot}/p{i}", {}).get("code", 0) != 0]


def repeat_share(jobs: list[Job]) -> float:
    """Share of jobs whose projected-kernel input repeats an earlier job's."""
    seen: set = set()
    repeats = 0
    for job in jobs:
        if job.kernel_key is None:
            continue
        repeats += job.kernel_key in seen
        seen.add(job.kernel_key)
    return repeats / len(jobs) if jobs else 0.0


def write_inputs(jobs: list[Job], inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.table is not None:
            path = inputs / f"{job.slot}-{job.draw}.json"
            path.write_text(json.dumps({"s": job.table[0], "density": job.table[1]}))


def describe(jobs: list[Job]) -> str:
    """Canonical text of a job list, input files included; byte-identical
    for identical lists."""
    lines = []
    for j in jobs:
        table = "" if j.table is None else " table-sha256=" + hashlib.sha256(
            json.dumps(j.table).encode()).hexdigest()
        lines.append(f"{j.key} {' '.join(j.argv)}{table}")
    return "\n".join(lines) + "\n"
