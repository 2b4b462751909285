"""Tests for the perf-trajectory bench harness (repro.bench)."""

import json

import pytest

from repro.bench import (
    QUICK_WORKLOADS,
    STANDARD_WORKLOADS,
    BenchWorkload,
    compare_to_baseline,
    format_bench_table,
    load_baseline,
    regression_failures,
    run_bench,
    write_bench_run,
)
from repro.cli import main as cli_main

#: One tiny workload so harness tests don't re-simulate the pinned set.
TINY = (BenchWorkload("tiny-gzip-net", "gzip", "net", scale=0.05),)


@pytest.fixture(scope="module")
def tiny_run():
    return run_bench(workloads=TINY)


class TestWorkloadSets:
    def test_pinned_sets_are_parallel(self):
        assert [w.name for w in QUICK_WORKLOADS] == [
            w.name for w in STANDARD_WORKLOADS
        ]
        assert all(w.scale < s.scale
                   for w, s in zip(QUICK_WORKLOADS, STANDARD_WORKLOADS))

    def test_workload_names_are_unique(self):
        names = [w.name for w in STANDARD_WORKLOADS]
        assert len(names) == len(set(names))


class TestRunBench:
    def test_run_schema(self, tiny_run):
        assert tiny_run["bench_version"] == 1
        record = tiny_run["workloads"][0]
        assert record["name"] == "tiny-gzip-net"
        assert record["steps"] > 0
        assert record["wall_seconds"] > 0
        assert record["events_per_second"] > 0
        # Per-phase wall time from the obs profiler.
        assert set(record["phases"]) >= {"interpret", "selector_decide"}
        assert all(p["seconds"] >= 0 for p in record["phases"].values())
        assert tiny_run["totals"]["steps"] == record["steps"]

    def test_repeats_recorded(self, tiny_run):
        # Default is best-of-3; the record says how many passes ran.
        assert tiny_run["workloads"][0]["repeats"] == 3

    def test_single_repeat_run(self):
        run = run_bench(workloads=TINY, repeats=1)
        record = run["workloads"][0]
        assert record["repeats"] == 1
        assert record["steps"] > 0

    def test_behaviour_fingerprint_is_recorded(self, tiny_run):
        record = tiny_run["workloads"][0]
        assert 0 < record["hit_rate"] <= 1
        assert record["region_count"] > 0
        assert record["total_instructions"] > 0

    def test_write_and_reload(self, tiny_run, tmp_path):
        path = write_bench_run(tiny_run, str(tmp_path / "BENCH_run.json"))
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["workloads"][0]["name"] == "tiny-gzip-net"


class TestBaselineComparison:
    def test_identical_runs_compare_flat(self, tiny_run):
        deltas = compare_to_baseline(tiny_run, tiny_run)
        assert deltas["comparable"]
        ratios = deltas["workloads"]["tiny-gzip-net"]
        assert ratios["events_per_second_ratio"] == 1.0
        assert ratios["wall_ratio"] == 1.0
        assert regression_failures(deltas) == []

    def test_scale_mismatch_is_skipped_not_compared(self, tiny_run):
        other = json.loads(json.dumps(tiny_run))
        other["workloads"][0]["scale"] = 0.5
        deltas = compare_to_baseline(tiny_run, other)
        assert not deltas["comparable"]
        assert deltas["skipped"] == ["tiny-gzip-net"]

    def test_regression_beyond_tolerance_is_flagged(self, tiny_run):
        slower = json.loads(json.dumps(tiny_run))
        record = slower["workloads"][0]
        record["events_per_second"] = record["events_per_second"] / 3
        deltas = compare_to_baseline(slower, tiny_run)
        failures = regression_failures(deltas, tolerance=0.35)
        assert failures and "tiny-gzip-net" in failures[0]
        assert regression_failures(deltas, tolerance=0.9) == []

    def test_committed_baselines_exist_and_match_pinned_sets(self):
        for quick in (False, True):
            baseline = load_baseline(quick=quick)
            assert baseline is not None, "committed baseline missing"
            names = [w["name"] for w in baseline["workloads"]]
            expected = QUICK_WORKLOADS if quick else STANDARD_WORKLOADS
            assert names == [w.name for w in expected]

    def test_missing_baseline_loads_as_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None

    def test_table_renders_deltas(self, tiny_run):
        deltas = compare_to_baseline(tiny_run, tiny_run)
        table = format_bench_table(tiny_run, deltas)
        assert "tiny-gzip-net" in table
        assert "+0.0%" in table
        assert "total" in table


class TestBenchCli:
    # --no-batched keeps CLI tests off the 1024-lane fleet workload;
    # the fleet record itself is covered by TestBatchedBench below.
    def test_quick_bench_writes_run_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_run.json"
        code = cli_main(["bench", "--quick", "--no-batched",
                         "--out", str(out)])
        assert code == 0
        run = json.loads(out.read_text())
        assert run["quick"] is True
        assert [w["name"] for w in run["workloads"]] == [
            w.name for w in QUICK_WORKLOADS
        ]
        # The committed quick baseline produced real deltas.
        assert run["baseline"] is not None
        assert run["baseline"]["comparable"]
        assert "events_per_second_ratio" in run["baseline"]["totals"]
        assert "workload" in capsys.readouterr().out

    def test_no_baseline_flag(self, tmp_path):
        out = tmp_path / "BENCH_run.json"
        code = cli_main(["bench", "--quick", "--no-baseline",
                         "--no-batched", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["baseline"] is None

    def test_check_fails_against_impossible_baseline(self, tmp_path):
        fast = load_baseline(quick=True)
        fast = json.loads(json.dumps(fast))
        for record in fast["workloads"]:
            record["events_per_second"] *= 1000.0
        baseline_path = tmp_path / "impossible.json"
        baseline_path.write_text(json.dumps(fast))
        code = cli_main(["bench", "--quick", "--check", "--no-batched",
                         "--baseline", str(baseline_path),
                         "--out", str(tmp_path / "run.json")])
        assert code == 1


class TestBatchedBench:
    """The batched-fleet bench records and their baseline comparison."""

    @pytest.fixture(scope="class")
    def fleet_record(self):
        from repro.bench import run_batched_bench

        # A small fleet: the record shape and the in-harness identity
        # assertion are what's under test, not throughput.
        return run_batched_bench(lanes=8, scale=0.05)

    def test_pinned_fleets(self):
        from repro.bench import BATCHED_FLEETS

        names = [fleet.name for fleet in BATCHED_FLEETS]
        assert len(names) == len(set(names))
        assert "chain-net-fleet" in names
        assert "mixed-fleet" in names
        mixed = next(f for f in BATCHED_FLEETS if f.name == "mixed-fleet")
        # The pinned mixed fleet must keep all three cell shapes: trace
        # (chain), interp-heavy SPEC, and CFG-region (combined-*).
        selectors = {g.selector for g in mixed.groups}
        assert {"net", "combined-net"} <= selectors
        assert sum(g.lanes for g in mixed.groups) == 128
        # The tail-dominated pin must actually stream: >= 256 short
        # divergent lanes, more of them than live slots.
        tail = next(f for f in BATCHED_FLEETS if f.name == "short-tail-fleet")
        tail_lanes = sum(g.lanes for g in tail.groups)
        assert tail_lanes >= 256
        assert tail.max_lanes is not None and tail.max_lanes < tail_lanes
        # Divergent finish times: distinct scales across the groups.
        assert len({g.scale for g in tail.groups}) >= 4

    def test_record_schema(self, fleet_record):
        assert fleet_record["name"] == "chain-net-fleet"
        assert fleet_record["lanes"] == 8
        assert fleet_record["groups"][0]["benchmark"] == "micro:linked_chain"
        assert fleet_record["identical"] is True
        assert fleet_record["steps"] > 0
        assert fleet_record["events_per_second"] > 0
        assert fleet_record["serial_events_per_second"] > 0
        assert fleet_record["speedup"] > 0
        assert fleet_record["backend"] in ("numpy", "serial")

    def test_format_renders_one_line(self, fleet_record):
        from repro.bench import format_batched_record

        line = format_batched_record(fleet_record)
        assert "batched fleet" in line
        assert fleet_record["groups"][0]["benchmark"] in line
        assert "\n" not in line

    def test_baseline_without_batched_record_compares_none(self, tiny_run,
                                                           fleet_record):
        run = json.loads(json.dumps(tiny_run))
        run["batched"] = [fleet_record]
        deltas = compare_to_baseline(run, tiny_run)
        assert deltas["batched"] is None
        assert regression_failures(deltas) == []

    def test_matching_batched_records_compare(self, tiny_run, fleet_record):
        run = json.loads(json.dumps(tiny_run))
        run["batched"] = [fleet_record]
        deltas = compare_to_baseline(run, run)
        ratios = deltas["batched"]["chain-net-fleet"]
        assert ratios["events_per_second_ratio"] == 1.0

    def test_fleet_shape_mismatch_compares_none(self, tiny_run,
                                                fleet_record):
        run = json.loads(json.dumps(tiny_run))
        run["batched"] = [fleet_record]
        other = json.loads(json.dumps(run))
        other["batched"][0]["groups"][0]["lanes"] = 1024
        deltas = compare_to_baseline(run, other)
        assert deltas["batched"] is None

    def test_legacy_single_record_baseline_still_compares(self, tiny_run,
                                                          fleet_record):
        # Baselines pinned before the fleet list existed stored one
        # dict without a groups key; the normalizer upgrades both
        # sides, so the comparison still lands by name.
        run = json.loads(json.dumps(tiny_run))
        run["batched"] = [fleet_record]
        legacy = json.loads(json.dumps(tiny_run))
        old = {k: v for k, v in fleet_record.items() if k != "groups"}
        group = fleet_record["groups"][0]
        old.update(benchmark=group["benchmark"], selector=group["selector"],
                   scale=group["scale"])
        legacy["batched"] = old
        deltas = compare_to_baseline(run, legacy)
        ratios = deltas["batched"]["chain-net-fleet"]
        assert ratios["events_per_second_ratio"] == 1.0

    def test_skipped_batched_stays_schema_consistent(self, tiny_run):
        # A --no-batched (or numpy-less) run records an empty list, and
        # a later --check against it must not fail on the missing key —
        # the regression gate simply has no fleet ratios to score.
        run = json.loads(json.dumps(tiny_run))
        run["batched"] = []
        baseline = json.loads(json.dumps(tiny_run))
        baseline["batched"] = []
        deltas = compare_to_baseline(run, baseline)
        assert deltas["batched"] is None
        assert regression_failures(deltas) == []

    def test_batched_regression_is_flagged(self, tiny_run, fleet_record):
        run = json.loads(json.dumps(tiny_run))
        run["batched"] = [fleet_record]
        slower = json.loads(json.dumps(run))
        slower["batched"][0]["events_per_second"] /= 3
        failures = regression_failures(compare_to_baseline(slower, run))
        assert any("batched fleet" in failure for failure in failures)

    def test_cli_records_batched_run(self, tmp_path, monkeypatch):
        # Patch the fleet workloads down to test size; the CLI default
        # (batched on) must thread the records into the run file.
        import repro.bench.batch as batch_mod

        real = batch_mod.run_batched_bench
        monkeypatch.setattr(
            batch_mod, "run_batched_benches",
            lambda quick=False, config=None:
                [real(lanes=4, scale=0.05, quick=quick)],
        )
        out = tmp_path / "run.json"
        code = cli_main(["bench", "--quick", "--no-baseline",
                         "--out", str(out)])
        assert code == 0
        run = json.loads(out.read_text())
        assert isinstance(run["batched"], list)
        assert run["batched"][0]["name"] == "chain-net-fleet"
        assert run["batched"][0]["identical"] is True

    def test_no_batched_records_empty_list(self, tmp_path):
        out = tmp_path / "run.json"
        code = cli_main(["bench", "--quick", "--no-baseline",
                         "--no-batched", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["batched"] == []
