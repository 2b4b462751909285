"""Tests for the batched cold-dispatch backend of the service.

``SimulationService(backend="batched")`` runs each cold batch as one
(or more, grouped by config) vectorized fleets instead of job-engine
workers.  The resolution tiers, persist-before-settle ordering and —
above all — the reports themselves must be indistinguishable from the
serial job-engine path.
"""

import asyncio

import pytest

from repro.config import SystemConfig
from repro.errors import ServeError
from repro.metrics.summary import MetricReport
from repro.serve import CellRequest, SimulationService, parse_cell_request
from repro.store import ResultStore
from repro.system.simulator import simulate
from repro.workloads import build_benchmark

CELL = {"benchmark": "gzip", "selector": "net", "scale": 0.05, "seed": 1}


def _request(**overrides) -> CellRequest:
    data = dict(CELL)
    data.update(overrides)
    return parse_cell_request(data)


def _run_service(tmp_path, coro_factory, **service_kwargs):
    service_kwargs.setdefault("workers", 1)
    service_kwargs.setdefault("code_version", "v1")
    service_kwargs.setdefault("backend", "batched")

    async def scenario():
        store = ResultStore(str(tmp_path / "store"))
        service = SimulationService(store, **service_kwargs)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.close()

    return asyncio.run(scenario())


def _direct_report(**overrides) -> MetricReport:
    data = dict(CELL)
    data.update(overrides)
    program = build_benchmark(data["benchmark"], scale=data["scale"])
    return MetricReport.from_result(
        simulate(program, data["selector"], seed=data["seed"])
    )


class TestBatchedResolution:
    def test_cold_cell_is_bit_identical_to_serial(self, tmp_path):
        async def scenario(service):
            return await service.resolve(_request())

        report, source, _ = _run_service(tmp_path, scenario)
        assert source == "computed"
        assert report == _direct_report()

    def test_burst_of_distinct_cells_is_one_fleet_batch(self, tmp_path):
        requests = [_request(seed=seed) for seed in (1, 2, 3, 4)]

        async def scenario(service):
            results = await asyncio.gather(
                *(service.resolve(req) for req in requests)
            )
            return results, service.stats

        results, stats = _run_service(tmp_path, scenario)
        assert stats.batches == 1
        assert {source for _, source, _ in results} == {"computed"}
        for request, (report, _, _) in zip(requests, results):
            assert report == _direct_report(seed=request.seed)

    def test_resolved_cell_becomes_a_warm_hit(self, tmp_path):
        async def scenario(service):
            first = await service.resolve(_request())
            second = await service.resolve(_request())
            return first, second, service.stats

        first, second, stats = _run_service(tmp_path, scenario)
        assert first[1] == "computed"
        assert second[1] == "store"
        assert first[0] == second[0]

    def test_identical_requests_coalesce(self, tmp_path):
        async def scenario(service):
            results = await asyncio.gather(
                *(service.resolve(_request()) for _ in range(4))
            )
            return results

        results = _run_service(tmp_path, scenario)
        sources = sorted(source for _, source, _ in results)
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == 3
        assert len({report for report, _, _ in results}) == 1

    def test_mixed_configs_split_into_per_config_fleets(self, tmp_path):
        tuned = _request(config={"net_threshold": 40})
        assert tuned.config != SystemConfig()

        async def scenario(service):
            return await asyncio.gather(
                service.resolve(_request()), service.resolve(tuned)
            )

        default_result, tuned_result = _run_service(tmp_path, scenario)
        assert default_result[0] == _direct_report()
        assert default_result[2] != tuned_result[2]
        # The tuned cell really simulated under its own config.
        program = build_benchmark(CELL["benchmark"], scale=CELL["scale"])
        expected = MetricReport.from_result(
            simulate(program, CELL["selector"], tuned.config,
                     seed=CELL["seed"])
        )
        assert tuned_result[0] == expected


class TestStreamingService:
    """The service's fleets stream through a bounded slot population."""

    def test_burst_streams_bit_identically_through_two_slots(self, tmp_path):
        requests = [_request(seed=seed) for seed in (1, 2, 3, 4, 5)]

        async def scenario(service):
            results = await asyncio.gather(
                *(service.resolve(req) for req in requests)
            )
            return results, service.stats

        results, stats = _run_service(tmp_path, scenario, fleet_max_lanes=2)
        assert stats.batches == 1
        for request, (report, source, _) in zip(requests, results):
            assert source == "computed"
            assert report == _direct_report(seed=request.seed)

    def test_fleet_max_lanes_validated_at_construction(self, tmp_path):
        with pytest.raises(ServeError, match="fleet_max_lanes"):
            SimulationService(ResultStore(str(tmp_path / "s")),
                              backend="batched", fleet_max_lanes=0)


class TestBatchedValidation:
    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="unknown service backend"):
            SimulationService(ResultStore(str(tmp_path / "s")),
                              backend="gpu")

    def test_batched_with_reference_pipeline_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="fast=False"):
            SimulationService(ResultStore(str(tmp_path / "s")),
                              backend="batched", fast=False)

    @pytest.mark.parametrize("backend", ["batched-numpy", "batched-python"])
    def test_removed_substrate_names_rejected(self, tmp_path, backend):
        with pytest.raises(ServeError, match="unknown service backend"):
            SimulationService(ResultStore(str(tmp_path / "s")),
                              backend=backend)

    def test_serial_fallback_serves_identical_reports(self, tmp_path,
                                                      monkeypatch):
        from repro.batch import backend as backend_mod

        monkeypatch.setattr(backend_mod, "HAVE_NUMPY", False)

        async def scenario(service):
            return await service.resolve(_request())

        report, source, _ = _run_service(tmp_path, scenario)
        assert source == "computed"
        assert report == _direct_report()
