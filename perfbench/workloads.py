"""The three benchmark workloads and the work one pass of each does.

Every workload drives public entry points only: ``run_grid`` (serial
and batched), ``compute_figure`` + ``figure_to_markdown``, and a
``ServerThread`` driven by ``ServiceClient``.  A pass returns its raw
and speed-normalised timings (see :mod:`speed`) plus the outputs the
run checks against ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_DIR = os.path.join(HERE, ".work")

#: The paper's figure grid: every benchmark x selector at this scale.
GRID_SCALE = 0.1
GRID_SEED = 1
#: The service's cell universe: every benchmark x selector, smaller.
SERVE_SCALE = 0.02
SERVE_CELL_SEED = 1
#: Closed-loop clients (one keep-alive connection each) = nproc.
SERVE_CLIENTS = 2
#: Requests per client per pass; every client replays the same
#: sequence, so a pass makes 2000 requests and at least ten lie beyond
#: the 99th percentile.
SERVE_REQUESTS_PER_CLIENT = 1000
#: Requests per client between two reference-kernel brackets.
SERVE_CHUNK = 100
#: Zipf exponent over the universe's popularity ranks.
ZIPF_S = 1.0
#: Selectors per benchmark pre-warmed into the store during set-up;
#: the rest of each benchmark's cells start cold.  Stratifying by
#: benchmark keeps the cold work (and its simulated events) the same
#: for every seed.
WARM_PER_BENCHMARK = 2

WORKLOADS = ("grid-serial", "grid-batched", "serve-zipf")
#: How each workload's timings are normalised (recorded in the output).
ESTIMATORS = {
    "grid-serial": "bracket: per-cell reference kernel before/after, "
                   "per-cell median over passes, summed",
    "grid-batched": "sampled: reference kernel every 25 ms inside each "
                    "fleet pass, median over passes",
    "serve-zipf": "bracket: reference + syscall kernels around every "
                  "100-request chunk; pass median, percentiles over all "
                  "requests",
}


def report_digest(report_dict: dict) -> str:
    """Content digest of one report's JSON form."""
    text = json.dumps(report_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def grid_cells() -> List[Tuple[str, str]]:
    from repro.selection.registry import SELECTOR_NAMES
    from repro.workloads import benchmark_names

    return [(bench, sel) for bench in benchmark_names()
            for sel in SELECTOR_NAMES]


def figures_markdown(grid) -> str:
    """Every figure of the grid, rendered as the experiments CLI does."""
    from repro.experiments import compute_figure, figure_ids, figure_to_markdown

    return "\n\n".join(figure_to_markdown(compute_figure(fid, grid))
                       for fid in figure_ids()) + "\n"


#: Simulated cache statistics -> the report field they sum.
CACHE_FIELDS = {
    "cache.regions": "region_count",
    "cache.region_transitions": "region_transitions",
    "cache.exit_stubs": "exit_stubs",
    "cache.bytes": "cache_size_estimate",
    "cache.instructions": "total_instructions",
    "cache.interpreted_instructions": "interpreted_instructions",
}


def cache_counts(report_dicts) -> Dict[str, int]:
    """Simulated cache statistics summed over reports (exact counts)."""
    report_dicts = list(report_dicts)
    return {name: sum(r[field] for r in report_dicts)
            for name, field in CACHE_FIELDS.items()}


@dataclass
class PassResult:
    """One pass of a workload's fixed work."""

    wall_raw: float
    #: Pass time at the reference speed (see :mod:`speed`).
    wall: float
    cpu: float
    #: Per-operation latencies at the reference speed, seconds.
    latencies: List[float]
    attempted: int
    failed: int
    #: Digest of every output, to compare traced with untraced passes.
    outputs: str
    #: Simulated counts and figure time, from the pass's own outputs.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-unit (raw, wall, cpu) seconds (grid-serial's cells).
    units: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)
    #: ``(benchmark, selector, send, receive)`` per request (serve-zipf).
    requests: List[tuple] = field(default_factory=list)
    #: ``/v1/stats`` service counters over the timed phase (serve-zipf).
    stats: Dict[str, int] = field(default_factory=dict)


def _check_grid(expected, reports, markdown) -> Tuple[int, str, list]:
    """Failed outputs, output digest and report dicts of one grid pass."""
    from repro.analysis.serialize import report_to_dict

    failed = 0
    digests = []
    dicts = []
    for (bench, sel), report in reports.items():
        data = report_to_dict(report)
        dicts.append(data)
        digest = report_digest(data)
        digests.append(digest)
        if digest != expected["cells"][f"{bench}:{sel}"]["digest"]:
            failed += 1
    markdown_digest = text_digest(markdown)
    if markdown_digest != expected["markdown_digest"]:
        failed += 1
    return failed, text_digest("".join(digests) + markdown_digest), dicts


class GridSerial:
    """The 48-cell figure grid, cold and in process, then every figure.

    Each cell is one ``run_grid(workers=1)`` call for that cell, so the
    reference kernel can bracket it: cells take 10-100 ms, short
    enough that the kernel beside them sees the same speed mode.
    """

    def __init__(self, expected: dict, seed: int) -> None:
        from repro.experiments import ExperimentGrid, run_grid
        from repro.workloads import build_benchmark

        self.expected = expected["grid"]
        self.cells = grid_cells()
        self._run_grid = run_grid
        self._grid_type = ExperimentGrid
        for bench in dict.fromkeys(b for b, _ in self.cells):
            build_benchmark(bench, scale=GRID_SCALE)

    def run_pass(self, index: int, trace=None) -> PassResult:
        bracket = speed.Bracket()
        #: unit -> (raw seconds, seconds and CPU seconds at reference speed)
        units: Dict[str, Tuple[float, float, float]] = {}
        reports = {}
        before = bracket.time()

        def unit(name, work):
            nonlocal before
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            result = work()
            elapsed = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            after = bracket.time()
            factor = bracket.factor(before, after)
            before = after
            units[name] = (elapsed, elapsed * factor, cpu * factor)
            return result

        with trace or contextlib.nullcontext():
            for bench, sel in self.cells:
                grid = unit(f"{bench}:{sel}", lambda: self._run_grid(
                    scale=GRID_SCALE, seed=GRID_SEED, workers=1,
                    benchmarks=(bench,), selectors=(sel,)))
                reports[(bench, sel)] = grid.report(bench, sel)
            markdown = unit("figures", lambda: figures_markdown(
                self._grid_type(scale=GRID_SCALE, seed=GRID_SEED,
                                config=grid.config, reports=reports)))
        failed, outputs, dicts = _check_grid(self.expected, reports, markdown)
        counts = cache_counts(dicts)
        counts["experiments.figures_s"] = units["figures"][1]
        return PassResult(
            wall_raw=sum(u[0] for u in units.values()),
            wall=sum(u[1] for u in units.values()),
            cpu=sum(u[2] for u in units.values()),
            latencies=[units[f"{b}:{s}"][1] for b, s in self.cells],
            attempted=len(reports) + 1, failed=failed, outputs=outputs,
            counts=counts, units=units,
        )


class GridBatched:
    """The same 48 cells as one fleet through ``run_grid(backend="batched")``.

    A fleet pass is one multi-second unit, so its time is scaled by the
    speed probe's samples taken during it.
    """

    def __init__(self, expected: dict, seed: int) -> None:
        from repro.batch import build_fleet_program, get_backend
        from repro.experiments import run_grid

        self.expected = expected["grid"]
        self.cells = grid_cells()
        self._run_grid = run_grid
        #: What ``backend="auto"`` resolves to on this host.
        self.backend = get_backend("auto")
        #: Started and stopped by the caller around the passes.
        self.probe = speed.SpeedProbe()
        for bench in dict.fromkeys(b for b, _ in self.cells):
            build_fleet_program(bench, GRID_SCALE)

    def run_pass(self, index: int, trace=None) -> PassResult:
        with trace or contextlib.nullcontext():
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            grid = self._run_grid(scale=GRID_SCALE, seed=GRID_SEED,
                                  backend="batched")
            t1 = time.perf_counter()
            markdown = figures_markdown(grid)
            t2 = time.perf_counter()
            cpu = cpu_seconds() - cpu0
        factor = self.probe.factor(t0, t2)
        wall = (t2 - t0) * factor
        failed, outputs, dicts = _check_grid(self.expected, grid.reports,
                                             markdown)
        counts = cache_counts(dicts)
        counts["experiments.figures_s"] = (t2 - t1) * factor
        # run_grid hands every cell back at once, when the fleet returns.
        return PassResult(
            wall_raw=t2 - t0, wall=wall, cpu=cpu * factor,
            latencies=[(t1 - t0) * factor] * len(self.cells),
            attempted=len(grid.reports) + 1, failed=failed,
            outputs=outputs, counts=counts,
        )


def serve_plan(seed: int, pass_index: int, cells):
    """The seeded pre-warm set and each client's Zipf request sequence.

    Both clients replay one sequence.  Whoever reaches a cold cell
    first dispatches it and the other catches up and coalesces onto it,
    so two distinct cold cells are never in flight together.  With
    independent sequences, whether two cold cells share a dispatch
    batch -- which makes the job engine start worker processes, about
    0.3 s each, instead of simulating in its thread -- is decided by
    timing; on the tuning host that made 4-8 of 24 cold replies per
    pass take 270-970 ms instead of 30-60 ms, and p99 swung 30%.
    """
    rng = random.Random(f"serve-zipf:{seed}:{pass_index}")
    by_bench: Dict[str, List[Tuple[str, str]]] = {}
    for cell in cells:
        by_bench.setdefault(cell[0], []).append(cell)
    warm = [cell for group in by_bench.values()
            for cell in rng.sample(group, WARM_PER_BENCHMARK)]
    ranked = list(cells)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    sequence = rng.choices(ranked, weights=weights,
                           k=SERVE_REQUESTS_PER_CLIENT)
    return warm, [sequence] * SERVE_CLIENTS


class ServeZipf:
    """A default-settings ``ServerThread`` under a closed-loop Zipf mix.

    Each pass boots a server over a fresh store, pre-warms the seeded
    warm set with one client (set-up, untimed), then times the clients'
    request sequence in chunks of ``SERVE_CHUNK`` requests per client,
    with the reference kernel bracketing each chunk while the clients
    wait.  Warm hits are store reads; cold cells go through the job
    engine and a store write before the reply; the second client
    coalesces onto the first client's cold cells.
    """

    def __init__(self, expected: dict, seed: int) -> None:
        from repro.serve import ServerThread, ServiceClient
        from repro.workloads import build_benchmark

        self.expected = expected["serve"]
        self.seed = seed
        self.cells = grid_cells()
        self._server_type = ServerThread
        self._client_type = ServiceClient
        for bench in dict.fromkeys(b for b, _ in self.cells):
            build_benchmark(bench, scale=SERVE_SCALE)

    def boot(self, warm) -> Tuple[object, str]:
        """Start a server over a fresh store and pre-warm it."""
        os.makedirs(WORK_DIR, exist_ok=True)
        store = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
        server = self._server_type(store).start()
        try:
            with self._client_type("127.0.0.1", server.port) as client:
                for bench, sel in warm:
                    client.simulate(bench, sel, scale=SERVE_SCALE,
                                    seed=SERVE_CELL_SEED)
        except BaseException:
            server.stop()
            shutil.rmtree(store, ignore_errors=True)
            raise
        return server, store

    def run_pass(self, index: int, trace=None) -> PassResult:
        warm, sequences = serve_plan(self.seed, index, self.cells)
        server, store = self.boot(warm)
        clients = [self._client_type("127.0.0.1", server.port)
                   for _ in sequences]
        records: List[tuple] = []
        wall_raw = wall = cpu = 0.0
        bracket = speed.Bracket(syscalls=True)
        try:
            stats_before = clients[0].stats().get("service", {})
            with trace or contextlib.nullcontext():
                before_kernel = bracket.time()
                for lo in range(0, len(sequences[0]), SERVE_CHUNK):
                    chunk = [seq[lo:lo + SERVE_CHUNK] for seq in sequences]
                    cpu0 = cpu_seconds()
                    t0 = time.perf_counter()
                    out = _drive(clients, chunk)
                    elapsed = time.perf_counter() - t0
                    chunk_cpu = cpu_seconds() - cpu0
                    after_kernel = bracket.time()
                    factor = bracket.factor(before_kernel, after_kernel)
                    before_kernel = after_kernel
                    wall_raw += elapsed
                    wall += elapsed * factor
                    cpu += chunk_cpu * factor
                    records.extend(rec + (factor,) for rec in out)
            stats_after = clients[0].stats().get("service", {})
        finally:
            for client in clients:
                client.close()
            server.stop()
            shutil.rmtree(store, ignore_errors=True)

        expected_cells = self.expected["cells"]
        failed = 0
        latencies = []
        requests = []
        served = {}
        for bench, sel, start, end, report, factor in records:
            latencies.append((end - start) * factor)
            requests.append((bench, sel, start, end))
            digest = report_digest(report) if report else None
            if digest != expected_cells[f"{bench}:{sel}"]["digest"]:
                failed += 1
            else:
                served[(bench, sel)] = (digest, report)
        warm_set = set(warm)
        counts = cache_counts(report for _, report in served.values())
        # Each cold cell is simulated once (single flight, persisted
        # before its waiters wake), so these are the events simulated.
        counts["serve.cold_events"] = sum(
            expected_cells[f"{b}:{s}"]["events"]
            for b, s in served if (b, s) not in warm_set)
        return PassResult(
            wall_raw=wall_raw, wall=wall, cpu=cpu,
            latencies=latencies, attempted=len(latencies), failed=failed,
            outputs=text_digest("".join(sorted(d for d, _ in served.values()))),
            counts=counts, requests=requests,
            stats={k: int(stats_after.get(k, 0)) - int(stats_before.get(k, 0))
                   for k in
                   ("warm_hits", "coalesced", "computed", "batches")},
        )


def _drive(clients, chunks) -> List[tuple]:
    """Each client sends its chunk, one request at a time, concurrently.

    Returns ``(benchmark, selector, sent, received, report)`` per
    request; ``report`` is ``None`` for a request that failed.
    """
    from repro.errors import ReproError

    results: List[List[tuple]] = [[] for _ in clients]
    errors: List[BaseException] = []

    def send(i: int) -> None:
        out = results[i]
        try:
            for bench, sel in chunks[i]:
                t0 = time.perf_counter()
                try:
                    data, _ = clients[i].simulate(bench, sel,
                                                  scale=SERVE_SCALE,
                                                  seed=SERVE_CELL_SEED)
                    report = data["report"]
                except (ReproError, OSError):
                    report = None
                out.append((bench, sel, t0, time.perf_counter(), report))
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=send, args=(i,))
               for i in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [rec for out in results for rec in out]


def make(name: str, expected: dict, seed: int):
    return {"grid-serial": GridSerial, "grid-batched": GridBatched,
            "serve-zipf": ServeZipf}[name](expected, seed)


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
