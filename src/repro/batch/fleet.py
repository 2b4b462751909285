"""Fleet assembly: run many grid cells as one batched kernel pass.

:func:`run_fleet` is the public face of :mod:`repro.batch`: hand it a
list of :class:`BatchCell` coordinates (benchmark, selector, scale,
seed) and it executes them all inside one :class:`FleetKernel` (or,
without numpy, one serial ``simulate`` per cell), returning per-cell
:class:`~repro.metrics.summary.MetricReport` and
:class:`~repro.system.results.RunResult` objects that are
**bit-identical** to what the serial pipeline produces for the same
coordinates.  Lanes never interact — every lane has its own cache,
selector, RNG stream and edge profile — so any partition of a cell
list into fleets yields the same per-cell results (the hypothesis
property in ``tests/test_batch_properties.py``), and so does any
admission schedule: ``max_lanes`` bounds the number of *live* lanes,
the kernel streams the remaining cells from a queue into slots as
lanes settle, and per-cell results are independent of queue order,
``max_lanes`` and refill timing.

Programs are shared: cells with the same ``(benchmark, scale)`` walk
one immutable :class:`~repro.program.program.Program` instance (blocks
are read-only during simulation; all mutable per-run state lives in
the lane).  Streaming runs build programs lazily and release them once
no live lane shares them, so memory tracks the active set.  Benchmark
names accept the same ``micro:`` prefix as the bench harness, building
a motif program instead of a SPEC model.

Observability happens at batch granularity — ``fleet_started``, one
``fleet_refill`` per queue admission, one ``fleet_lane_finished`` or
``fleet_lane_failed`` per cell, ``fleet_finished`` — matching the job-engine convention that
fleet-level events carry step 0 and order by their ``ts``/``seq``
stamps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.batch.backend import get_backend
from repro.batch.kernel import FleetKernel
from repro.config import SystemConfig
from repro.errors import ConfigError, ReproError
from repro.metrics.summary import MetricReport
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.system.results import RunResult
from repro.system.simulator import simulate
from repro.workloads import build_benchmark
from repro.workloads.micro import build_micro

#: Iterations of a full-scale micro benchmark (the bench harness's
#: scaling convention: ``scale`` multiplies this).
MICRO_BASE_ITERATIONS = 6000


@dataclass(frozen=True)
class BatchCell:
    """One grid-cell coordinate: what a fleet lane simulates."""

    benchmark: str
    selector: str
    scale: float = 1.0
    seed: int = 1


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    #: ``"numpy"`` (the fleet kernel) or ``"serial"`` (no numpy).
    backend: str
    lanes: int
    #: Kernel rounds (0 for the serial substrate).
    rounds: int
    #: Aggregate simulation steps across every lane.
    steps: int
    wall_seconds: float
    #: Live-lane bound the fleet ran with (== ``lanes`` when the whole
    #: fleet fit at once; 1 for the serial substrate).
    max_lanes: int = 0
    #: Queue admissions into freed slots (0 for non-streaming runs).
    refills: int = 0
    #: Cells that settled as failed under ``on_error="continue"``.
    errors: int = 0
    reports: Dict[BatchCell, MetricReport] = field(default_factory=dict)
    results: Dict[BatchCell, RunResult] = field(default_factory=dict)
    #: Per-cell contained errors (``on_error="continue"`` only).
    failures: Dict[BatchCell, ReproError] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Aggregate simulated events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.steps / self.wall_seconds


def build_fleet_program(benchmark: str, scale: float):
    """Build a lane's program: a SPEC model or a ``micro:`` motif."""
    if benchmark.startswith("micro:"):
        iterations = max(1, round(MICRO_BASE_ITERATIONS * scale))
        return build_micro(benchmark[len("micro:"):], iterations=iterations)
    return build_benchmark(benchmark, scale=scale)


def run_fleet(
    cells: Iterable[BatchCell],
    config: Optional[SystemConfig] = None,
    max_steps: Optional[int] = None,
    observer: Optional[Observer] = None,
    max_lanes: Optional[int] = None,
    on_error: str = "raise",
) -> FleetResult:
    """Run every cell as one batched fleet; results match the serial
    pipeline bit for bit.

    The substrate is :func:`repro.batch.backend.get_backend`'s: the
    numpy fleet kernel when numpy is installed, else each cell runs
    through serial :func:`~repro.system.simulator.simulate` (one build
    per ``(benchmark, scale)``).  ``max_steps`` bounds every lane
    (default: the engine's standard budget).  ``max_lanes`` caps the
    *live* lane population: with more cells than lanes the kernel
    streams the remainder from a queue, re-seeding each slot as its
    lane settles, so memory is bounded by ``max_lanes`` and the vector
    population stays wide while the queue lasts — a scheduling knob
    that cannot change results, only wall time.  ``on_error="continue"``
    contains a failing cell (its enriched error lands in
    ``FleetResult.failures``) instead of aborting the fleet.
    """
    backend = get_backend()
    config = config if config is not None else SystemConfig()
    obs = observer if observer is not None else NULL_OBSERVER
    cell_list: Tuple[BatchCell, ...] = tuple(cells)
    if not cell_list:
        raise ConfigError("run_fleet needs at least one cell")
    if max_lanes is not None and max_lanes < 1:
        raise ConfigError(f"max_lanes must be >= 1, got {max_lanes}")
    if on_error not in ("raise", "continue"):
        raise ConfigError(
            f"on_error must be 'raise' or 'continue', got {on_error!r}")
    seen = set()
    for cell in cell_list:
        if cell in seen:
            raise ConfigError(f"duplicate fleet cell {cell!r}")
        seen.add(cell)

    fleet = FleetResult(backend=backend, lanes=len(cell_list),
                        rounds=0, steps=0, wall_seconds=0.0)

    def settled(cell, result, error):
        if error is not None:
            fleet.failures[cell] = error
            fleet.errors += 1
            obs.event(
                "fleet_lane_failed", 0,
                benchmark=cell.benchmark, selector=cell.selector,
                scale=cell.scale, seed=cell.seed, error=str(error),
            )
            return
        fleet.reports[cell] = MetricReport.from_result(result)
        fleet.results[cell] = result
        steps = result.stats.interp_steps + result.stats.cache_steps
        fleet.steps += steps
        obs.event(
            "fleet_lane_finished", 0,
            benchmark=cell.benchmark, selector=cell.selector,
            scale=cell.scale, seed=cell.seed, steps=steps,
        )

    obs.event("fleet_started", 0, lanes=len(cell_list), backend=backend)
    started = time.perf_counter()
    if backend == "serial":
        fleet.max_lanes = 1
        _run_serial(cell_list, config, max_steps, on_error, settled)
    else:
        kernel = _run_kernel(cell_list, config, max_steps, max_lanes,
                             on_error, settled, obs)
        fleet.rounds = kernel.rounds
        fleet.max_lanes = kernel.max_lanes
        fleet.refills = kernel.refills
    fleet.wall_seconds = time.perf_counter() - started
    obs.event("fleet_finished", 0, lanes=len(cell_list), backend=backend,
              rounds=fleet.rounds, steps=fleet.steps,
              wall_seconds=fleet.wall_seconds, max_lanes=fleet.max_lanes,
              refills=fleet.refills, errors=fleet.errors)
    return fleet


def _run_serial(cells, config, max_steps, on_error, settled) -> None:
    """The numpy-less fleet: each cell through serial ``simulate``.

    Results are the serial pipeline's by construction.  A cell's
    ``ReproError`` carries its benchmark and selector (``simulate``
    adds the failing step), and is contained like a kernel lane's
    under ``on_error="continue"``.
    """
    programs = {}
    for cell in cells:
        try:
            key = (cell.benchmark, cell.scale)
            program = programs.get(key)
            if program is None:
                program = programs[key] = build_fleet_program(*key)
            result = simulate(program, cell.selector, config,
                              seed=cell.seed, max_steps=max_steps)
        except ReproError as exc:
            exc.with_context(benchmark=cell.benchmark, selector=cell.selector)
            if on_error != "continue":
                raise
            settled(cell, None, exc)
            continue
        settled(cell, result, None)


def _run_kernel(cells, config, max_steps, max_lanes, on_error, settled,
                obs) -> FleetKernel:
    """Run the cells through the numpy fleet kernel; returns it."""

    def admitted(cell, slot, initial):
        if initial:
            return
        # ``kernel`` is bound by the time any refill can happen:
        # initial admissions (the only ones inside the constructor)
        # returned above.
        obs.event(
            "fleet_refill", 0,
            benchmark=cell.benchmark, selector=cell.selector,
            scale=cell.scale, seed=cell.seed, slot=slot,
            settled=kernel.settled, queued=len(kernel.queue),
            active=kernel.active,
        )

    kernel = FleetKernel(cells, build_fleet_program, config,
                         max_steps=max_steps, max_lanes=max_lanes,
                         on_error=on_error, on_settle=settled,
                         on_admit=admitted)
    kernel.run()
    return kernel
