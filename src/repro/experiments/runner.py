"""Run the (benchmark x selector) grid the figures are computed from.

The grid is the expensive heart of the reproduction — a full-scale run
simulates roughly twenty million basic-block events — so it executes on
the fault-tolerant engine in :mod:`repro.jobs` (per-cell retry on
worker crash, optional timeout, lifecycle events) and can be backed by
the content-addressed store in :mod:`repro.store` (an already-computed
cell is a file read; an interrupted grid resumes from whatever cells it
finished).  See ``docs/experiments.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments.manifest import build_manifest, write_manifest
from repro.jobs.engine import Job, JobEngine
from repro.jobs.faults import FaultInjector
from repro.metrics.summary import MetricReport
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.telemetry import FleetTelemetry, worker_observer
from repro.selection.registry import SELECTOR_NAMES
from repro.store import ResultStore, cell_key
from repro.system.simulator import simulate
from repro.workloads import benchmark_names, build_benchmark

#: ``run_grid`` execution backends: the job-engine path, or one fleet
#: through :mod:`repro.batch`.
GRID_BACKENDS = ("serial", "batched")


def _grid_cell(
    task: Tuple[str, str, float, int, SystemConfig, bool]
) -> Tuple[str, str, MetricReport]:
    """Worker: simulate one cell (runs in a job-engine worker process).

    Builds the program inside the worker — programs hold plain model
    objects and are cheap to rebuild, while shipping them across
    processes would be slower than rebuilding.  The cell records into
    the process-local worker observer when the engine activated one
    (``run_grid(telemetry=True)``); otherwise ``worker_observer()`` is
    the null observer and the simulation runs uninstrumented.
    """
    bench, selector, scale, seed, config, fast = task
    program = build_benchmark(bench, scale=scale)
    report = MetricReport.from_result(
        simulate(program, selector, config, seed=seed, fast=fast,
                 observer=worker_observer())
    )
    return bench, selector, report


@dataclass
class ExperimentGrid:
    """Metric reports for every (benchmark, selector) cell."""

    scale: float
    seed: int
    config: SystemConfig
    reports: Dict[Tuple[str, str], MetricReport] = field(default_factory=dict)
    #: Merged fleet telemetry (``run_grid(telemetry=True)`` only).
    telemetry: Optional[FleetTelemetry] = None

    def report(self, benchmark: str, selector: str) -> MetricReport:
        return self.reports[(benchmark, selector)]

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(bench for bench, _ in self.reports))

    @property
    def selectors(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(selector for _, selector in self.reports))


def run_grid(
    scale: float = 1.0,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    benchmarks: Optional[Iterable[str]] = None,
    selectors: Optional[Iterable[str]] = None,
    workers: int = 1,
    manifest_dir: Optional[str] = None,
    store: Optional[Union[ResultStore, str]] = None,
    observer: Optional[Observer] = None,
    max_retries: int = 2,
    job_timeout: Optional[float] = None,
    backoff: float = 0.05,
    faults: Optional[FaultInjector] = None,
    code_version: Optional[str] = None,
    fast: bool = True,
    telemetry: bool = False,
    telemetry_out: Optional[str] = None,
    telemetry_ring: Optional[int] = None,
    backend: str = "serial",
    fleet_max_lanes: Optional[int] = None,
) -> ExperimentGrid:
    """Simulate every cell and compute its metric report.

    ``workers`` above 1 fans cells out over worker processes through
    the job engine — results are bit-identical to the serial run
    because every cell is deterministic in ``(benchmark, selector,
    scale, seed, config)``, and a crashed or timed-out worker costs one
    cell's retry (``max_retries``, ``job_timeout``), not the sweep.

    ``store`` (a :class:`~repro.store.ResultStore` or a directory path)
    makes the grid restartable and rerunnable: cells already present
    are served from disk without simulating, and every freshly computed
    cell is persisted *as it completes*, so a run interrupted anywhere
    resumes with only its missing cells.  ``code_version`` pins the
    store address component that normally tracks the git SHA.

    ``manifest_dir`` writes a ``manifest.json`` provenance record
    (selectors, benchmarks, seed, scale, config, git SHA, elapsed time)
    into that directory once the grid completes.  ``faults`` injects
    deterministic worker failures (tests only).

    ``fast=False`` pins every cell to the reference pull-generator
    pipeline instead of the fused fast path; the results are
    bit-identical either way (``tests/test_fast_path.py``), so this
    exists purely for debugging and cross-checking.

    ``telemetry=True`` records every cell's metrics, span profile and
    event tail inside its worker and merges the reports in the parent
    under ``job_id``/``worker`` labels — the result is
    ``grid.telemetry`` (a :class:`~repro.obs.telemetry.FleetTelemetry`),
    whose merged counter totals are bit-identical whether the grid ran
    serial or parallel.  ``telemetry_out`` additionally writes the
    merged document as JSON (consumed by ``repro obs report``);
    ``telemetry_ring`` sizes each worker's event-tail ring buffer
    (metrics and profile data are never dropped regardless).

    ``backend="batched"`` computes every missing cell as one fleet
    through :func:`repro.batch.run_fleet` instead of the job engine —
    vectorized over SoA state when numpy is installed, bit-identical
    to the serial run either way (see ``docs/batching.md``).  The store
    interaction is unchanged: cached cells are served from disk and
    fresh ones persisted.  ``workers`` is ignored (a fleet is one
    process); per-worker ``telemetry`` and the reference pipeline
    (``fast=False``) need per-cell workers and are ConfigErrors.
    ``fleet_max_lanes`` caps the fleet's live lane population —
    remaining cells stream from a queue into freed slots, bounding
    memory at the cap with bit-identical results (see
    :func:`repro.batch.run_fleet`).
    """
    started = time.monotonic()
    if backend not in GRID_BACKENDS:
        raise ConfigError(
            f"unknown grid backend {backend!r}: expected one of "
            f"{', '.join(GRID_BACKENDS)}"
        )
    batched = backend == "batched"
    if batched and (telemetry or telemetry_out is not None):
        raise ConfigError(
            "telemetry requires per-cell workers: use backend='serial' "
            "(batched lanes run unobserved; fleet progress is reported "
            "at batch granularity)"
        )
    if batched and not fast:
        raise ConfigError(
            "fast=False pins the reference pull-generator pipeline, "
            "which has no batched equivalent: use backend='serial'"
        )
    if batched and faults is not None:
        raise ConfigError(
            "fault injection drives the job engine: use backend='serial'"
        )
    if fleet_max_lanes is not None and not batched:
        raise ConfigError(
            "fleet_max_lanes is a batched-backend knob: use "
            "backend='batched'"
        )
    config = config if config is not None else SystemConfig()
    bench_list = tuple(benchmarks) if benchmarks is not None else benchmark_names()
    selector_list = tuple(selectors) if selectors is not None else SELECTOR_NAMES
    obs = observer if observer is not None else NULL_OBSERVER
    fleet: Optional[FleetTelemetry] = None
    if telemetry or telemetry_out is not None:
        fleet = (FleetTelemetry(ring_capacity=telemetry_ring)
                 if telemetry_ring is not None else FleetTelemetry())
        # Route the parent's own lifecycle events (job engine, store)
        # into the fleet log alongside the worker tails.
        obs = fleet.attach_parent(observer)
    if isinstance(store, str):
        store = ResultStore(store, observer=obs)
    grid = ExperimentGrid(scale=scale, seed=seed, config=config,
                          telemetry=fleet)

    cells = [
        (bench, selector)
        for bench in bench_list
        for selector in selector_list
    ]
    reports: Dict[Tuple[str, str], MetricReport] = {}
    keys = {}
    missing = []
    for cell in cells:
        if store is not None:
            key = cell_key(cell[0], cell[1], scale, seed, config,
                           code_version=code_version)
            keys[cell] = key
            cached = store.get(key)
            if cached is not None:
                reports[cell] = cached
                continue
        missing.append(cell)

    if missing and batched:
        from repro.batch import BatchCell, run_fleet

        fleet_cells = [BatchCell(bench, selector, scale=scale, seed=seed)
                       for bench, selector in missing]
        result = run_fleet(fleet_cells, config=config, observer=obs,
                           max_lanes=fleet_max_lanes)
        for fleet_cell, cell in zip(fleet_cells, missing):
            report = result.reports[fleet_cell]
            reports[cell] = report
            if store is not None:
                store.put(keys[cell], report)
    elif missing:
        jobs = [
            Job(f"{bench}:{selector}",
                (bench, selector, scale, seed, config, fast))
            for bench, selector in missing
        ]
        cell_by_job = {job.job_id: cell for job, cell in zip(jobs, missing)}

        def persist(job_id: str, result: Tuple[str, str, MetricReport]) -> None:
            if store is not None:
                store.put(keys[cell_by_job[job_id]], result[2])

        engine = JobEngine(
            _grid_cell,
            workers=min(workers, len(jobs)),
            timeout=job_timeout,
            max_retries=max_retries,
            backoff=backoff,
            observer=obs,
            faults=faults,
            on_complete=persist,
            telemetry=fleet,
        )
        outcomes = engine.run(jobs)
        for job in jobs:
            bench, selector, report = outcomes[job.job_id].result
            reports[(bench, selector)] = report

    # Fill in cell order, so grid iteration matches the serial runner
    # exactly no matter which cells were cached or computed first.
    for cell in cells:
        grid.reports[cell] = reports[cell]

    if fleet is not None and telemetry_out is not None:
        fleet.write(telemetry_out)

    if manifest_dir is not None:
        extra = {"workers": workers, "cells": len(cells),
                 "backend": backend}
        if store is not None:
            extra["store"] = store.stats.as_dict()
        write_manifest(manifest_dir, build_manifest(
            selectors=selector_list,
            benchmarks=bench_list,
            seed=seed,
            scale=scale,
            config=config,
            elapsed_seconds=time.monotonic() - started,
            extra=extra,
        ))
    return grid
