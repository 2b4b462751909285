"""Pin the reference pipeline to the committed oracle digests.

The identity suites only check that engines agree with each other, so
a semantic drift shared by the reference loop and the fused loop would
pass them.  This suite checks the reference pipeline itself
(``simulate(..., fast=False)``) against ``perfbench/expected.json``:
for every benchmark × paper-selector cell at the grid and serve
settings recorded there, the sha256 of the cell's metric report and
its simulated step count must equal the committed values.  The file
is only read here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import pytest

from repro.analysis.serialize import report_to_dict
from repro.metrics.summary import MetricReport
from repro.selection.registry import SELECTOR_NAMES
from repro.system.simulator import simulate
from repro.workloads import benchmark_names, build_benchmark

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(REPO_ROOT, "perfbench", "expected.json")
SETTINGS = ("grid", "serve")


@functools.lru_cache(maxsize=None)
def _expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def _program(bench: str, scale: float):
    return build_benchmark(bench, scale=scale)


def _report_digest(result) -> str:
    text = json.dumps(report_to_dict(MetricReport.from_result(result)),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("setting", SETTINGS)
def test_expected_file_covers_the_paper_grid(setting):
    cells = _expected()[setting]["cells"]
    assert set(cells) == {
        f"{bench}:{sel}"
        for bench in benchmark_names() for sel in SELECTOR_NAMES
    }


@pytest.mark.parametrize("selector", SELECTOR_NAMES)
@pytest.mark.parametrize("bench", benchmark_names())
@pytest.mark.parametrize("setting", SETTINGS)
def test_reference_matches_committed_digest(setting, bench, selector):
    recorded = _expected()[setting]
    expected = recorded["cells"][f"{bench}:{selector}"]
    result = simulate(_program(bench, recorded["scale"]), selector,
                      seed=recorded["seed"], fast=False)
    assert _report_digest(result) == expected["digest"]
    assert (result.stats.interp_steps + result.stats.cache_steps
            == expected["events"])
