"""Regenerate ``expected.json``: reference digests and simulated counts.

Every digest comes from the reference pull pipeline
(``simulate(..., fast=False)``), not the fused path or the fleet the
benchmark measures, so a run checks the measured engines against the
oracle.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_expected.py

Only regenerate when the simulated semantics change on purpose: a
speed-only change must leave this file untouched.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def reference_cells(scale: float, seed: int):
    from repro.analysis.serialize import report_to_dict
    from repro.config import SystemConfig
    from repro.metrics.summary import MetricReport
    from repro.system.simulator import simulate
    from repro.workloads import build_benchmark

    config = SystemConfig()
    reports = {}
    cells = {}
    for bench, sel in workloads.grid_cells():
        result = simulate(build_benchmark(bench, scale=scale), sel, config,
                          seed=seed, fast=False)
        report = MetricReport.from_result(result)
        reports[(bench, sel)] = report
        cells[f"{bench}:{sel}"] = {
            "digest": workloads.report_digest(report_to_dict(report)),
            "events": result.stats.interp_steps + result.stats.cache_steps,
        }
    return config, reports, cells


def main() -> int:
    from repro.experiments import ExperimentGrid

    config, reports, cells = reference_cells(workloads.GRID_SCALE,
                                             workloads.GRID_SEED)
    grid = ExperimentGrid(scale=workloads.GRID_SCALE,
                          seed=workloads.GRID_SEED, config=config,
                          reports=reports)
    fingerprint = workloads.cache_counts(reports.values())
    fingerprint["system.events"] = sum(c["events"] for c in cells.values())
    _, _, serve_cells = reference_cells(workloads.SERVE_SCALE,
                                        workloads.SERVE_CELL_SEED)
    expected = {
        "pipeline": "reference (simulate fast=False)",
        "grid": {
            "scale": workloads.GRID_SCALE,
            "seed": workloads.GRID_SEED,
            "markdown_digest": workloads.text_digest(
                workloads.figures_markdown(grid)),
            "fingerprint": fingerprint,
            "cells": cells,
        },
        "serve": {
            "scale": workloads.SERVE_SCALE,
            "seed": workloads.SERVE_CELL_SEED,
            "cells": serve_cells,
        },
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
