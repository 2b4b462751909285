"""Tests for the vectorized batched fleet (repro.batch).

The batched backend's contract is *bit-identity*: for every cell it
must produce exactly the MetricReport the serial pipeline produces.
These tests enforce that across benchmarks, selectors, bounded caches
under eviction, step budgets and the error path — on the numpy kernel
and on the serial fallback that runs when numpy is missing — plus the
SplitMix64 lane-RNG equivalence the whole scheme rests on.  See
``docs/batching.md``.
"""

import os

import pytest

from repro.batch import (
    BatchCell,
    HAVE_NUMPY,
    build_fleet_program,
    get_backend,
    run_fleet,
)
from repro.batch import backend as backend_mod
from repro.batch import kernel as kernel_mod
from repro.batch.backend import LaneRng
from repro.behavior.rng import SplitMix64
from repro.config import SystemConfig
from repro.errors import ConfigError, ExecutionError
from repro.execution.engine import ExecutionEngine
from repro.metrics.summary import MetricReport
from repro.obs import CollectingSink, Observer
from repro.system.simulator import simulate

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


#: A compaction cadence no fleet reaches (rounds count from 1).
NO_COMPACTION = 2**62


@pytest.fixture(params=["vector", "cutover", "serial"] if HAVE_NUMPY
                else ["serial"])
def lane_regime(request, monkeypatch):
    """Run the identity suite under both kernel regimes and the fallback.

    ``SCALAR_CUTOVER`` sends small fleets down the per-lane straggler
    path, so a test-sized fleet would never exercise the vector rounds
    at all; the ``vector`` regime forces the cutover to zero so the
    same fleets run the full vectorized path, and ``cutover`` keeps
    the shipped default (all-straggler at these sizes).  ``serial``
    hides numpy from the backend resolver, so the same fleets run the
    numpy-less fallback and must forward config, step budget and error
    context to ``simulate``.  Without numpy it is the only regime.
    """
    if request.param == "vector":
        monkeypatch.setattr(kernel_mod, "SCALAR_CUTOVER", 0)
    elif request.param == "serial":
        monkeypatch.setattr(backend_mod, "HAVE_NUMPY", False)
    return request.param


def serial_report(cell: BatchCell, config=None, max_steps=None) -> MetricReport:
    """The oracle: one serial fused-pipeline run of the same cell."""
    program = build_fleet_program(cell.benchmark, cell.scale)
    result = simulate(program, cell.selector, config, seed=cell.seed,
                      max_steps=max_steps)
    return MetricReport.from_result(result)


def assert_fleet_matches_serial(cells, config=None, max_steps=None):
    fleet = run_fleet(cells, config=config, max_steps=max_steps)
    for cell in cells:
        assert fleet.reports[cell] == serial_report(
            cell, config=config, max_steps=max_steps
        ), f"batched report diverged from serial for {cell!r}"
    return fleet


class TestBackendResolution:
    def test_auto_prefers_numpy_when_available(self):
        assert get_backend("auto") == ("numpy" if HAVE_NUMPY else "serial")
        assert get_backend() == get_backend("auto")

    @pytest.mark.parametrize("name", ["cuda", "numpy", "python", "serial"])
    def test_only_auto_is_accepted(self, name):
        with pytest.raises(ConfigError, match="unknown batch backend"):
            get_backend(name)

    def test_auto_without_numpy_is_serial(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAVE_NUMPY", False)
        assert get_backend("auto") == "serial"

    @pytest.mark.parametrize("backend", ["batched-numpy", "batched-python"])
    def test_removed_grid_backends_rejected(self, backend):
        from repro.experiments.runner import run_grid

        with pytest.raises(ConfigError, match="unknown grid backend"):
            run_grid(scale=0.05, benchmarks=("gzip",), selectors=("net",),
                     backend=backend)


@needs_numpy
class TestLaneRngEquivalence:
    """LaneRng over a shared state column == the scalar SplitMix64."""

    def _pair(self, seed):
        import numpy as np

        states = np.zeros(4, dtype=np.uint64)
        states[2] = np.uint64(seed)
        return SplitMix64(seed), LaneRng(states, 2), states

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
    def test_scalar_methods_match(self, seed):
        scalar, lane, _ = self._pair(seed)
        for _ in range(50):
            assert lane.next_u64() == scalar.next_u64()
            assert lane.random() == scalar.random()
            assert lane.randint(3, 17) == scalar.randint(3, 17)
            assert lane.bernoulli(0.3) == scalar.bernoulli(0.3)
        weights = (0.2, 0.5, 1.0)
        for _ in range(20):
            assert (lane.weighted_index(weights)
                    == scalar.weighted_index(weights))

    def test_fork_matches(self):
        scalar, lane, _ = self._pair(7)
        assert lane.fork().next_u64() == scalar.fork().next_u64()

    def test_vector_draws_match_lane_draws(self):
        import numpy as np

        from repro.batch.backend import vector_next_u64, vector_random

        seeds = [0, 5, 99, 2**63, 12345, 8, 8, 1]
        states = np.array(seeds, dtype=np.uint64)
        mirror = states.copy()
        idx = np.arange(len(seeds), dtype=np.int64)
        vec_f = vector_random(states, idx)
        vec_u = vector_next_u64(states, idx)
        for i, seed in enumerate(seeds):
            lane = LaneRng(mirror, i)
            assert vec_f[i] == lane.random()
            assert vec_u[i] == lane.next_u64()
        # The shared column advanced identically on both paths.
        assert (states == mirror).all()


@pytest.mark.usefixtures("lane_regime")
class TestFleetBitIdentity:
    def test_micro_motifs_all_selectors(self):
        cells = [
            BatchCell(f"micro:{motif}", selector, scale=0.3, seed=seed)
            for motif in ("figure2", "figure4", "self_loop", "linked_chain",
                          "recursion")
            for selector in ("net", "lei", "combined-net")
            for seed in (1, 9)
        ]
        assert_fleet_matches_serial(cells)

    def test_spec_benchmarks(self):
        cells = [
            BatchCell(bench, selector, scale=0.05, seed=3)
            for bench in ("gzip", "mcf")
            for selector in ("net", "lei")
        ]
        assert_fleet_matches_serial(cells)

    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_bounded_cache_under_eviction(self, policy):
        config = SystemConfig(cache_capacity_bytes=2000,
                              cache_eviction_policy=policy)
        cells = [
            BatchCell(bench, "net", scale=0.05, seed=7)
            for bench in ("gzip", "bzip2")
        ] + [BatchCell("micro:linked_chain", "lei", scale=0.5, seed=7)]
        assert_fleet_matches_serial(cells, config=config)

    @pytest.mark.parametrize("max_steps", [1, 7, 997])
    def test_step_budget_truncation(self, max_steps):
        cells = [
            BatchCell("micro:alternating", "net", scale=0.3, seed=1),
            BatchCell("gzip", "lei", scale=0.05, seed=2),
        ]
        assert_fleet_matches_serial(cells, max_steps=max_steps)


@pytest.mark.usefixtures("fleet_substrate")
class TestFleetValidation:
    """Both substrates reject the same bad requests the same way."""

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError, match="at least one cell"):
            run_fleet([])

    def test_duplicate_cell_rejected(self):
        cell = BatchCell("gzip", "net", scale=0.05, seed=1)
        with pytest.raises(ConfigError, match="duplicate"):
            run_fleet([cell, cell])

    def test_max_lanes_below_one_rejected(self):
        cell = BatchCell("gzip", "net", scale=0.05, seed=1)
        with pytest.raises(ConfigError, match="max_lanes must be >= 1"):
            run_fleet([cell], max_lanes=0)

    def test_bad_on_error_rejected(self):
        cell = BatchCell("gzip", "net", scale=0.05, seed=1)
        with pytest.raises(ConfigError, match="on_error"):
            run_fleet([cell], on_error="retry")


class TestSerialFallback:
    """Without numpy, ``run_fleet`` runs each cell through ``simulate``."""

    CELLS = (
        BatchCell("micro:figure3", "net", scale=0.3, seed=1),
        BatchCell("micro:figure3", "lei", scale=0.3, seed=2),
        BatchCell("gzip", "combined-net", scale=0.05, seed=3),
    )

    @pytest.fixture(autouse=True)
    def _no_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAVE_NUMPY", False)

    def test_reports_equal_simulate(self):
        fleet = assert_fleet_matches_serial(self.CELLS)
        assert fleet.backend == "serial"
        assert fleet.rounds == 0
        assert fleet.max_lanes == 1
        assert fleet.steps == sum(
            r.stats.interp_steps + r.stats.cache_steps
            for r in fleet.results.values())

    def test_events_name_the_serial_substrate(self):
        sink = CollectingSink()
        bad = BatchCell("nosuch", "net", scale=0.05, seed=1)
        cells = self.CELLS + (bad,)
        run_fleet(cells, observer=Observer(sink=sink), on_error="continue")
        started = sink.by_kind("fleet_started")
        finished = sink.by_kind("fleet_finished")
        assert len(started) == len(finished) == 1
        assert started[0].payload["backend"] == "serial"
        assert finished[0].payload["backend"] == "serial"
        assert finished[0].payload["errors"] == 1
        lanes = sink.by_kind("fleet_lane_finished")
        failed = sink.by_kind("fleet_lane_failed")
        assert [(e.payload["benchmark"], e.payload["seed"])
                for e in lanes] == [
            (c.benchmark, c.seed) for c in self.CELLS]
        assert [e.payload["benchmark"] for e in failed] == ["nosuch"]
        assert not sink.by_kind("fleet_refill")

    def test_on_error_continue_contains_a_failing_cell(self, monkeypatch):
        orig = ExecutionEngine.__init__

        def shallow(self, *args, **kwargs):
            kwargs["max_call_depth"] = 3
            orig(self, *args, **kwargs)

        monkeypatch.setattr(ExecutionEngine, "__init__", shallow)
        bad = BatchCell("micro:recursion", "net", scale=0.3, seed=2)
        good = BatchCell("micro:figure3", "net", scale=0.3, seed=1)
        fleet = run_fleet([bad, good], on_error="continue")
        assert list(fleet.failures) == [bad]
        assert list(fleet.reports) == [good]
        assert fleet.errors == 1
        error = fleet.failures[bad]
        assert isinstance(error, ExecutionError)
        assert error.context["benchmark"] == "micro_recursion"
        assert error.context["selector"] == "net"
        with pytest.raises(ExecutionError):
            run_fleet([bad, good])


class TestFleetResultAndEvents:
    def test_fleet_result_aggregates(self):
        cells = [BatchCell("micro:self_loop", "net", scale=0.3, seed=s)
                 for s in (1, 2, 3)]
        fleet = run_fleet(cells)
        assert fleet.lanes == 3
        # Rounds count kernel sweeps; the serial fallback has none.
        assert (fleet.rounds >= 1) == (fleet.backend == "numpy")
        assert fleet.wall_seconds > 0
        per_lane = [fleet.results[c].stats.interp_steps
                    + fleet.results[c].stats.cache_steps for c in cells]
        assert fleet.steps == sum(per_lane)
        assert fleet.events_per_second > 0

    def test_obs_events_at_batch_granularity(self):
        sink = CollectingSink()
        cells = [BatchCell("micro:figure2", "net", scale=0.3, seed=s)
                 for s in (1, 2)]
        run_fleet(cells, observer=Observer(sink=sink))
        started = sink.by_kind("fleet_started")
        finished = sink.by_kind("fleet_finished")
        lanes = sink.by_kind("fleet_lane_finished")
        assert len(started) == len(finished) == 1
        assert started[0].payload["lanes"] == 2
        assert len(lanes) == 2
        assert {e.payload["seed"] for e in lanes} == {1, 2}
        assert finished[0].payload["steps"] > 0


class TestRetireBeforeFold:
    """Mid-run eviction folds pending vector counts *first*.

    A bounded cache snapshots region stats at the eviction moment (the
    ``cache_evicted`` event, regeneration accounting); counts still
    banked in the kernel's arena columns at that point must be folded
    into the region before it loses residency — folding later would
    resurrect a retired region's totals, folding twice would double
    count.  The spy holds the batched pipeline to the serial oracle at
    every single eviction, not just at end of run.
    """

    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_eviction_moment_stats_match_serial(self, policy, monkeypatch):
        from repro.cache.codecache import BoundedCodeCache

        monkeypatch.setattr(kernel_mod, "SCALAR_CUTOVER", 0)
        by_cache = {}
        orig = BoundedCodeCache._retire_region

        def spy(cache, victim, evict_policy):
            orig(cache, victim, evict_policy)
            by_cache.setdefault(id(cache), []).append((
                victim.entry.full_label, evict_policy,
                victim.entry_count, victim.exit_count,
                victim.cycle_backs, victim.executed_instructions,
            ))

        monkeypatch.setattr(BoundedCodeCache, "_retire_region", spy)
        config = SystemConfig(cache_capacity_bytes=500,
                              cache_eviction_policy=policy)
        cells = ([BatchCell("gzip", "net", scale=0.05, seed=seed)
                  for seed in (3, 7)]
                 + [BatchCell("bzip2", "net", scale=0.1, seed=3)])
        serial_seqs = []
        for cell in cells:
            by_cache.clear()
            program = build_fleet_program(cell.benchmark, cell.scale)
            simulate(program, cell.selector, config, seed=cell.seed)
            assert len(by_cache) <= 1
            serial_seqs.extend(by_cache.values())
        assert serial_seqs, "workloads too small to trigger eviction"
        by_cache.clear()
        run_fleet(cells, config=config)
        assert sorted(by_cache.values()) == sorted(serial_seqs)


@needs_numpy
class TestCompactionIdentity:
    """Lane compaction re-sorts slots without disturbing any lane."""

    def _fragmenting_cells(self):
        # Two long lanes pinned to the extreme slots with short lanes
        # between them: the shorts finish early, leaving the vector-mode
        # survivors spanning the whole slot range (span >> 2 * count,
        # the kernel's fragmentation trigger).
        return [
            BatchCell("micro:linked_chain", "net",
                      scale=0.5 if seed in (0, 15) else 0.02, seed=seed)
            for seed in range(16)
        ]

    def test_compaction_toggle_is_bit_identical(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "SCALAR_CUTOVER", 0)
        compactions = []
        orig = kernel_mod.FleetKernel._compact

        def spy(kernel):
            compactions.append(kernel.rounds)
            orig(kernel)

        monkeypatch.setattr(kernel_mod.FleetKernel, "_compact", spy)
        cells = self._fragmenting_cells()
        monkeypatch.setattr(kernel_mod, "COMPACT_EVERY", NO_COMPACTION)
        off = run_fleet(cells)
        assert not compactions
        monkeypatch.setattr(kernel_mod, "COMPACT_EVERY", 1)
        on = run_fleet(cells)
        assert compactions, "fleet never fragmented; test is inert"
        for cell in cells:
            assert on.reports[cell] == off.reports[cell]
            assert on.reports[cell] == serial_report(cell)


class TestErrorContextParity:
    """A fleet abort carries the same diagnostic context as a serial one."""

    @pytest.mark.usefixtures("lane_regime")
    def test_call_overflow_matches_serial(self, tiny_call_depth):
        program = build_fleet_program("micro:recursion", 0.3)
        with pytest.raises(ExecutionError) as serial_exc:
            simulate(program, "net", seed=2)
        cells = [BatchCell("micro:recursion", "net", scale=0.3, seed=s)
                 for s in (2, 3, 4, 5)]
        with pytest.raises(ExecutionError) as fleet_exc:
            run_fleet(cells)
        # Same canonical message body...
        assert (str(fleet_exc.value).split(" [")[0]
                == str(serial_exc.value).split(" [")[0])
        # ...and the same context: benchmark, selector and the failing
        # step.  The overflowing call is decided, never consumed, so
        # every pipeline reports the step before it.
        assert fleet_exc.value.context["benchmark"] == "micro_recursion"
        assert fleet_exc.value.context["selector"] == "net"
        assert (fleet_exc.value.context["step"]
                == serial_exc.value.context["step"])


class TestGridStoreDigestIdentity:
    """run_grid(backend="batched") persists byte-identical store files."""

    def _store_files(self, root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, root)] = handle.read()
        return files

    def test_batched_grid_store_matches_serial(self, tmp_path):
        from repro.experiments.runner import run_grid

        kwargs = dict(
            scale=0.05, seed=5, benchmarks=("gzip", "bzip2"),
            selectors=("net", "lei"), code_version="v1",
        )
        serial = run_grid(store=str(tmp_path / "serial"),
                          backend="serial", **kwargs)
        batched = run_grid(store=str(tmp_path / "batched"),
                           backend="batched", **kwargs)
        assert serial.reports == batched.reports
        serial_files = self._store_files(str(tmp_path / "serial"))
        batched_files = self._store_files(str(tmp_path / "batched"))
        assert serial_files == batched_files
