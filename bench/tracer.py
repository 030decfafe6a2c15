"""Span tracer that wraps the package's public functions from outside.

Every traced name is patched in each ``kolwave`` module namespace that binds
it, because modules import names directly (``from .numerics import
integrate_ode``) and patching the defining module alone misses those calls.
Methods are patched on their class.

A call to a span name records (name, start, end, parent, job) in memory.  A
call to a hot name (a scalar entry point called millions of times, such as
dense-output ``__call__``) only adds to its call count and times.  Self time
is a call's duration minus the part of it that its children cover; children
of a call may run in pool threads, so the covered part is the union of their
intervals.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

PACKAGE = "kolwave"
MODULES = ("numerics", "models", "spectral", "semiwavefront", "planarflow",
           "discretedelay", "profiles", "cli")


def _nbytes_of_file(path) -> int:
    return Path(path).stat().st_size


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# name -> counter(result, args, kwargs) -> {stat: amount}; names absent from
# the package are skipped and reported as absent, which fails a traced run.
SPANS = {
    "numerics.integrate_ode": lambda r, a, k: {"nodes": len(r[0].ts)},
    "numerics.integrate_dde": lambda r, a, k: {"nodes": sum(len(s.ts) for s in r[0].segments)},
    "numerics.find_root": None,
    "numerics.maximize_scalar": None,
    "numerics.quad_adaptive": None,
    "numerics.cubic_real_roots": None,
    "numerics.Trajectory.sample": lambda r, a, k: {"points": len(r)},
    "models.effective_kernel": lambda r, a, k: {"nodes": 0 if r.is_atom else len(r.s)},
    "models.EffectiveKernel.convolve_weights": lambda r, a, k: {"taps": len(r[1])},
    "spectral.kpp_roots": None,
    "spectral.roots_at_one": None,
    "spectral.weak_char_roots": None,
    "spectral.delay_char_roots": None,
    "spectral.real_root_boundary": None,
    "semiwavefront.default_config": None,
    "semiwavefront.iterate_front": lambda r, a, k: {
        "iterations": r.iterations,
        "node_iters": r.iterations * _arg(a, k, 0, "config").grid.n},
    "semiwavefront.asymptotic_check": None,
    "semiwavefront.apriori_bound": None,
    "planarflow.heteroclinic": None,
    "planarflow.finite_speed_profile": None,
    "planarflow.tau_sharp": None,
    "planarflow.tau_star": None,
    "planarflow.test_function_check": None,
    "planarflow.boundary_region": None,
    "discretedelay.limit_profile": None,
    "discretedelay.finite_speed_profile": None,
    "discretedelay.overshoot_bound": None,
    "discretedelay.overshoot_region": None,
    "profiles.build_profile": lambda r, a, k: {"bytes": r.values.nbytes},
    "profiles.write_csv": lambda r, a, k: {"bytes": _nbytes_of_file(_arg(a, k, 0, "path"))},
    "profiles.fit_decay": None,
    "profiles.classify_shape": None,
    "cli.main": None,
    "cli.build_parser": None,
    "cli.write_svg": lambda r, a, k: {"bytes": _nbytes_of_file(_arg(a, k, 0, "path"))},
}
HOT = ("numerics.Trajectory.__call__", "numerics.Trajectory.derivative",
       "numerics.DdeTrajectory.__call__", "numerics.DdeTrajectory.derivative",
       "models.GrowthModel.g", "models.Kernel.laplace", "profiles.fmt_float")


class _Frame:
    __slots__ = ("name", "start", "end", "cpu", "parent", "job", "children", "child_time",
                 "failed")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = 0.0
        self.cpu = thread_time()  # CPU time of the calling thread; its span at the end
        self.parent = parent
        self.job = job
        self.children = []  # (start, end) of child spans
        self.child_time = 0.0  # summed durations of hot children
        self.failed = False

    def self_time(self) -> float:
        covered = 0.0
        reach = float("-inf")
        for lo, hi in sorted(self.children):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.end - self.start - covered - self.child_time


class Tracer:
    def __init__(self):
        self.job = None  # id of the job now running
        self.spans: list[_Frame] = []
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total, self]
        self.counts = defaultdict(float)  # "name.stat" -> amount
        self.absent: list[str] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._patched: list = []

    # ------------------------------------------------------------ stacks
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
            return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread's first call belongs to the span that started the pool
        return self._main_stack[-1] if self._main_stack else None

    # ---------------------------------------------------------- wrappers
    def _span_wrapper(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            frame = _Frame(name, perf_counter(), parent, tracer.job)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                frame.failed = True
                raise
            finally:
                frame.end = perf_counter()
                frame.cpu = thread_time() - frame.cpu
                stack.pop()
                tracer.spans.append(frame)
                if parent is not None:
                    if isinstance(parent, _Frame):
                        parent.children.append((frame.start, frame.end))
                    else:
                        parent[1] += frame.end - frame.start
            if counter is not None:
                for stat, amount in counter(result, args, kwargs).items():
                    tracer.counts[f"{name}.{stat}"] += amount
            return result
        return traced

    def _hot_wrapper(self, name, fn):
        tracer = self
        agg = self.hot[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]  # name, time of children
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    if isinstance(parent, _Frame):
                        parent.child_time += dur
                    else:
                        parent[1] += dur
        return counted

    # ---------------------------------------------------------- patching
    def _resolve(self, name):
        """(owner, attribute, function) of a traced name; function None when absent."""
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        if len(attrs) == 2:  # a method: patch the plain function on its class
            owner = getattr(owner, attrs[0], None)
            return owner, attrs[1], vars(owner).get(attrs[1]) if owner else None
        return owner, attrs[0], getattr(owner, attrs[0], None)

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name in [*SPANS, *HOT]:
            owner, attr, fn = self._resolve(name)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = (self._span_wrapper(name, fn, SPANS[name]) if name in SPANS
                       else self._hot_wrapper(name, fn))
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapped)
                continue
            for module in modules:  # every namespace that bound the function
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- results
    def metrics(self) -> dict:
        """name.stat -> value over every recorded call."""
        out = defaultdict(float)
        for frame in self.spans:
            out[f"{frame.name}.calls"] += 1
            out[f"{frame.name}.total_s"] += frame.end - frame.start
            out[f"{frame.name}.self_s"] += frame.self_time()
            out[f"{frame.name}.failed"] += frame.failed
        for name, (calls, total, self_s) in self.hot.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.total_s"] += total
            out[f"{name}.self_s"] += self_s
        for key, amount in self.counts.items():
            out[key] += amount
        return dict(out)

    def span_records(self) -> list[dict]:
        ids = {id(f): i for i, f in enumerate(self.spans)}
        return [{"id": ids[id(f)], "name": f.name, "start": f.start, "end": f.end,
                 "cpu": f.cpu, "parent": ids.get(id(f.parent)), "job": f.job,
                 "failed": f.failed}
                for f in self.spans]
