"""Batched-fleet bench workloads: the ``batched`` list of BENCH_run.json.

Four pinned fleets, each measured twice — every cell through the
serial fused pipeline, then all cells as a single
:func:`repro.batch.run_fleet` sweep.  Each record carries both walls
and both aggregate events/sec plus their ratio (``speedup``), and the
harness refuses to report a number unless every lane's
:class:`~repro.metrics.summary.MetricReport` equals its serial twin —
the bit-identity contract of ``docs/batching.md``, enforced on every
bench run, not only in the test suite.

The fleets pin the three throughput regimes the kernel is built for:

* ``chain-net-fleet`` — region-to-region transitions dominate (the
  trace-linking fast path), so nearly every simulated step stays
  inside the vectorized rounds.  The headline number.
* ``gzip-net-fleet`` — a SPEC-shaped model: interp warmup into
  trace-resident steady state, decisions split across constant,
  Bernoulli and loop kinds.
* ``mixed-fleet`` — interp, CFG-region and trace cells in one 128-lane
  fleet; the shape that degraded to 0.4-0.7x before CFG vector rounds
  and lane compaction, pinned so it cannot quietly regress again.
* ``short-tail-fleet`` — 256 short, divergent lanes (a staircase of
  eight program lengths) streamed through 128 slots; the
  tail-dominated shape that decayed into the scalar cutover
  (~0.6-0.9x serial) before the kernel refilled settled slots from a
  cell queue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.metrics.summary import MetricReport
from repro.system.simulator import simulate


@dataclass(frozen=True)
class FleetGroup:
    """One homogeneous slice of a pinned fleet.

    ``lanes`` cells of (benchmark, selector) at ``scale``; lane ``i``
    of the *fleet* runs seed ``i`` (a seed-stability-shaped sweep).
    The quick variant substitutes ``quick_scale`` (and ``quick_lanes``
    when set) — CI checks the quick numbers against the quick
    baseline, so quick and full records are never cross-compared.
    """

    benchmark: str
    selector: str
    lanes: int
    scale: float
    quick_scale: float
    quick_lanes: Optional[int] = None

    def sized(self, quick: bool) -> Tuple[int, float]:
        if quick:
            lanes = self.quick_lanes if self.quick_lanes else self.lanes
            return lanes, self.quick_scale
        return self.lanes, self.scale


@dataclass(frozen=True)
class BatchedFleet:
    """A named, pinned fleet composition.

    ``max_lanes`` pins a streaming admission schedule: the kernel holds
    that many live lanes and feeds the rest from a cell queue as lanes
    settle (``None`` = the whole fleet at once).  A scheduling knob
    only — the bit-identity assertion runs regardless.
    """

    name: str
    groups: Tuple[FleetGroup, ...]
    max_lanes: Optional[int] = None


BATCHED_FLEETS: Tuple[BatchedFleet, ...] = (
    BatchedFleet("chain-net-fleet", (
        FleetGroup("micro:linked_chain", "net", 1024, 0.5, 0.15),
    )),
    BatchedFleet("gzip-net-fleet", (
        FleetGroup("gzip", "net", 512, 0.5, 0.05, quick_lanes=128),
    )),
    BatchedFleet("mixed-fleet", (
        FleetGroup("micro:linked_chain", "net", 96, 0.5, 0.15),
        FleetGroup("gzip", "net", 8, 0.05, 0.02),
        FleetGroup("gzip", "lei", 8, 0.05, 0.02),
        FleetGroup("gzip", "combined-net", 8, 0.05, 0.02),
        FleetGroup("gzip", "combined-lei", 8, 0.05, 0.02),
    )),
    # 256 short lanes over a staircase of eight program lengths — lanes
    # finish at very different times, the tail-dominated shape that
    # used to decay into the scalar cutover at ~0.6-0.9x serial.  The
    # pinned streaming schedule (128 live slots, the other half of the
    # fleet queued) re-seeds slots as lanes settle, so memory stays
    # bounded at half the fleet while the vector population stays wide
    # until the queue drains.
    BatchedFleet("short-tail-fleet", tuple(
        FleetGroup("micro:linked_chain", "net", 32,
                   round(0.03 + 0.02 * step, 2),
                   round(0.02 + 0.01 * step, 2))
        for step in range(8)
    ), max_lanes=128),
)


def run_batched_bench(
    fleet: Optional[BatchedFleet] = None,
    quick: bool = False,
    config: Optional[SystemConfig] = None,
    lanes: Optional[int] = None,
    scale: Optional[float] = None,
) -> Dict[str, object]:
    """Measure one pinned fleet serial-vs-batched; returns its record.

    The ``wall_seconds`` / ``events_per_second`` fields describe the
    *batched* pass (so baseline ratio math treats the record like any
    workload); the serial reference rides along as ``serial_*`` and
    ``speedup`` is their throughput ratio.  ``lanes``/``scale``
    override every group — test hooks for shrinking a fleet.  Raises
    :class:`~repro.errors.ReproError` if any lane's report differs
    from its serial twin.
    """
    from repro.batch import BatchCell, build_fleet_program, run_fleet

    if fleet is None:
        fleet = BATCHED_FLEETS[0]
    config = config if config is not None else SystemConfig()
    cells: List[BatchCell] = []
    groups: List[Dict[str, object]] = []
    for group in fleet.groups:
        n, s = group.sized(quick)
        if lanes is not None:
            n = lanes
        if scale is not None:
            s = scale
        base = len(cells)
        cells.extend(
            BatchCell(group.benchmark, group.selector, scale=s, seed=base + k)
            for k in range(n)
        )
        groups.append({
            "benchmark": group.benchmark,
            "selector": group.selector,
            "lanes": n,
            "scale": s,
        })

    programs = {}
    serial_reports = {}
    serial_steps = 0
    started = time.perf_counter()
    for cell in cells:
        key = (cell.benchmark, cell.scale)
        if key not in programs:
            programs[key] = build_fleet_program(cell.benchmark, cell.scale)
        result = simulate(programs[key], cell.selector, config,
                          seed=cell.seed)
        serial_steps += (result.stats.interp_steps + result.stats.cache_steps)
        serial_reports[cell] = MetricReport.from_result(result)
    serial_wall = time.perf_counter() - started

    fleet_result = run_fleet(cells, config=config, max_lanes=fleet.max_lanes)
    mismatched = [
        cell for cell in cells
        if fleet_result.reports[cell] != serial_reports[cell]
    ]
    if mismatched or fleet_result.steps != serial_steps:
        first = mismatched[0] if mismatched else cells[0]
        raise ReproError(
            f"batched bench fleet {fleet.name!r} is not bit-identical to "
            f"the serial pipeline ({len(mismatched)} of {len(cells)} lanes "
            f"differ; first: {first.benchmark}/{first.selector} seed "
            f"{first.seed}) — the kernel is broken, refusing to "
            f"report a throughput number"
        )

    batched_wall = fleet_result.wall_seconds
    return {
        "name": fleet.name,
        "groups": groups,
        "lanes": len(cells),
        "max_lanes": fleet_result.max_lanes,
        "refills": fleet_result.refills,
        "backend": fleet_result.backend,
        "rounds": fleet_result.rounds,
        "steps": fleet_result.steps,
        "wall_seconds": round(float(batched_wall), 6),
        "events_per_second": (
            round(fleet_result.steps / batched_wall, 1)
            if batched_wall > 0 else 0.0
        ),
        "serial_wall_seconds": round(float(serial_wall), 6),
        "serial_events_per_second": (
            round(serial_steps / serial_wall, 1) if serial_wall > 0 else 0.0
        ),
        "speedup": (
            round(serial_wall / batched_wall, 3) if batched_wall > 0 else 0.0
        ),
        "identical": True,
    }


def run_batched_benches(
    quick: bool = False,
    config: Optional[SystemConfig] = None,
) -> List[Dict[str, object]]:
    """Measure every pinned fleet; returns the ``batched`` record list."""
    return [
        run_batched_bench(fleet, quick=quick, config=config)
        for fleet in BATCHED_FLEETS
    ]


def format_batched_record(record: Dict[str, object]) -> str:
    """One summary line for the bench table."""
    groups = record.get("groups") or ()
    if len(groups) == 1:
        shape = f"{groups[0]['benchmark']}/{groups[0]['selector']}"
    else:
        shape = f"{len(groups)} cell groups"
    return (
        f"batched fleet {record['name']} [{shape}] "
        f"({record['lanes']} lanes, {record['backend']}): "
        f"{record['events_per_second']:,.0f} events/s batched vs "
        f"{record['serial_events_per_second']:,.0f} serial "
        f"({record['speedup']}x, bit-identical)"
    )
