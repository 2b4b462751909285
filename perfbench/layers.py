"""Per-layer measurement for the traced run, from outside the program.

:class:`LayerRecorder` wraps the public functions at each layer
boundary (program builds, ``simulate``, ``MetricReport.from_result``,
``run_fleet``, ``JobEngine.run``, ``ResultStore.get``/``put``,
``SimulationService.resolve``) for the duration of a ``with`` block and
restores them afterwards.  ``simulate`` calls that run unobserved get
an observer carrying the program's existing ``SpanTimer``, whose
``interpret`` / ``selector_decide`` / ``region_build`` / ``cache_walk``
phases it reads.  Nothing is added inside the program.

Wrapped functions are rebound in every ``repro`` module that imported
them by name, so callers see the wrapper whichever way they import.
Only this process is observed: cells a job engine runs in worker
processes are not.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: SpanTimer scope -> per-layer metric name.
SPAN_METRICS = {
    "interpret": "execution.interpret_s",
    "selector_decide": "selection.decide_s",
    "region_build": "selection.region_build_s",
    "cache_walk": "cache.walk_s",
}


class LayerRecorder:
    """Accumulates time and counts per layer while installed."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: ``(benchmark, selector, start, end)`` per resolved request.
        self.resolves: List[tuple] = []
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "LayerRecorder":
        from repro.batch import fleet
        from repro.jobs.engine import JobEngine
        from repro.metrics.summary import MetricReport
        from repro.serve.service import SimulationService
        from repro.store.resultstore import ResultStore
        from repro.system import simulator
        from repro.workloads import spec

        self._rebind(spec.build_benchmark, self._timed(
            spec.build_benchmark, "workloads.build"))
        self._rebind(fleet.build_fleet_program, self._timed(
            fleet.build_fleet_program, "workloads.build"))
        self._rebind(simulator.simulate, self._simulate(simulator.simulate))
        self._rebind(fleet.run_fleet, self._run_fleet(fleet.run_fleet))
        self._patch_method(MetricReport, "from_result", self._from_result(
            MetricReport.__dict__["from_result"].__func__), classmethod)
        self._patch_method(JobEngine, "run", self._jobs_run(JobEngine.run))
        self._patch_method(ResultStore, "get", self._store_get(ResultStore.get))
        self._patch_method(ResultStore, "put", self._store_put(ResultStore.put))
        self._patch_method(SimulationService, "resolve",
                           self._resolve(SimulationService.resolve))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original))

    def _patch_method(self, cls, attr, wrapper, kind=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, kind(wrapper) if kind else wrapper)
        self._undo.append(lambda: setattr(cls, attr, original))

    # -- recording -------------------------------------------------------
    def _add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, time.perf_counter() - t0)
        return wrapper

    def _simulate(self, fn):
        from repro.obs import Observer, SpanTimer

        def wrapper(*args, **kwargs):
            observer = kwargs.get("observer")
            timer = None
            if observer is None or not observer.enabled:
                timer = SpanTimer()
                kwargs["observer"] = Observer(profiler=timer)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self._add("system.simulate", time.perf_counter() - t0)
            self._count("system.events",
                        result.stats.interp_steps + result.stats.cache_steps)
            if timer is not None:
                for scope, seconds in timer.totals.items():
                    if scope in SPAN_METRICS:
                        self._add(SPAN_METRICS[scope], seconds)
            return result
        return wrapper

    def _run_fleet(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self._add("batch.run_fleet", time.perf_counter() - t0)
            self._count("batch.rounds", result.rounds)
            self._count("batch.lanes", result.lanes)
            self._count("system.events", result.steps)
            self._count("batch.events", result.steps)
            return result
        return wrapper

    def _from_result(self, fn):
        def wrapper(cls, result):
            t0 = time.perf_counter()
            try:
                return fn(cls, result)
            finally:
                self._add("metrics.report", time.perf_counter() - t0)
        return wrapper

    def _jobs_run(self, fn):
        def wrapper(engine, jobs):
            jobs = list(jobs)
            self._count("jobs.launched", len(jobs))
            t0 = time.perf_counter()
            try:
                return fn(engine, jobs)
            finally:
                self._add("jobs.run", time.perf_counter() - t0)
        return wrapper

    def _store_get(self, fn):
        def wrapper(store, key):
            t0 = time.perf_counter()
            report = fn(store, key)
            elapsed = time.perf_counter() - t0
            with self._lock:
                self.samples["store.get"].append(elapsed)
                self.counts["store.hits" if report is not None
                            else "store.misses"] += 1
            return report
        return wrapper

    def _store_put(self, fn):
        def wrapper(store, key, report):
            t0 = time.perf_counter()
            try:
                return fn(store, key, report)
            finally:
                with self._lock:
                    self.samples["store.put"].append(
                        time.perf_counter() - t0)
        return wrapper

    def _resolve(self, fn):
        async def wrapper(service, request):
            t0 = time.perf_counter()
            try:
                return await fn(service, request)
            finally:
                with self._lock:
                    self.resolves.append((request.benchmark,
                                          request.selector, t0,
                                          time.perf_counter()))
        return wrapper
