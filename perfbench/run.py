"""The repository benchmark: the paper's figure grid and a Zipf service mix.

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload

Run from the repository root.  Each run times the workload's set-up in
fresh processes, runs one untimed warm-up pass, then repeats passes of
the workload's fixed work for ``--seconds``, checking every output
against the reference-pipeline digests in ``expected.json``.  It prints
a table (metric, value, unit, sample count) and, as its last line, one
JSON object: ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
alternates untraced and traced passes and gives the per-layer metrics.
The exit code is 0 only when every output was correct.  Definitions:
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from layers import LayerRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Timed passes a run makes even when ``--seconds`` is spent sooner.
MIN_PASSES = 2
SUBPROCESS_TIMEOUT = 60

PER_LAYER_UNITS = {
    "workloads.build_s": "s", "system.simulate_s": "s",
    "execution.interpret_s": "s", "selection.decide_s": "s",
    "selection.region_build_s": "s", "cache.walk_s": "s",
    "metrics.report_s": "s", "experiments.figures_s": "s",
    "system.events": "count", "cache.regions": "count",
    "cache.region_transitions": "count", "cache.exit_stubs": "count",
    "cache.bytes": "bytes", "cache.cached_frac": "ratio",
    "batch.run_fleet_s": "s", "batch.rounds": "count",
    "batch.events_per_round": "count", "batch.lanes": "count",
    "store.get_ms_p50": "ms", "store.put_ms_p50": "ms",
    "store.hits": "count", "store.misses": "count",
    "jobs.run_s": "s", "jobs.launched": "count",
    "serve.resolve_ms_p50": "ms", "serve.http_ms_p50": "ms",
    "serve.warm_hits": "count", "serve.coalesced": "count",
    "serve.computed": "count", "serve.batches": "count",
    "obs.trace_overhead_frac": "ratio",
}


def pinned_env() -> dict:
    """The environment every measured process runs with."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    path = env.get("PYTHONPATH", "")
    if SRC not in path.split(os.pathsep):
        env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def median(values):
    return statistics.median(values)


def measure_setup(name: str, seed: int):
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed)],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe for {name} failed")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(workload, seconds: float, trace: bool):
    """Warm-up pass, then timed passes until ``seconds`` are spent.

    With ``trace`` the timed passes alternate untraced/traced, each
    pair on the same inputs; returns ``(warmup, untraced, traced)``
    where ``traced`` holds ``(pass, LayerRecorder)`` pairs.
    """
    with getattr(workload, "probe", None) or contextlib.nullcontext():
        warmup = workload.run_pass(0)
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        index = 1
        while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
            untraced.append(workload.run_pass(index))
            if trace:
                recorder = LayerRecorder()
                traced.append((workload.run_pass(index, recorder), recorder))
            index += 1
    return warmup, untraced, traced


def end_to_end(name, passes, expected, setup):
    """``{metric: (value, unit, samples)}`` for the untraced passes."""
    if name == "grid-serial":
        units = passes[0].units
        per_unit = {u: (median(p.units[u][1] for p in passes),
                        median(p.units[u][2] for p in passes)) for u in units}
        wall = sum(w for w, _ in per_unit.values())
        cpu = sum(c for _, c in per_unit.values())
        latencies = [w for u, (w, _) in per_unit.items() if u != "figures"]
    else:
        wall = median(p.wall for p in passes)
        cpu = median(p.cpu for p in passes)
    if name == "serve-zipf":
        events = median(p.counts["serve.cold_events"] / p.wall for p in passes)
        ops = median(p.attempted / p.wall for p in passes)
    else:
        events = expected["grid"]["fingerprint"]["system.events"] / wall
        ops = (passes[0].attempted - 1) / wall
    n_pass = len(passes)
    if name == "grid-batched":
        # Every cell of a pass shares the fleet's time: median pass.
        n_latencies = sum(len(p.latencies) for p in passes)

        def latency(q):
            return median(workloads.quantile(p.latencies, q) for p in passes)
    else:
        if name == "serve-zipf":
            latencies = [lat for p in passes for lat in p.latencies]
        n_latencies = len(latencies)

        def latency(q):
            return workloads.quantile(latencies, q)
    return {
        "setup_s": (median(s["seconds"] for s in setup), "s", len(setup)),
        "wall_s": (wall, "s", n_pass),
        "cpu_s": (cpu, "s", n_pass),
        "events_per_s": (events, "1/s", n_pass),
        "ops_per_s": (ops, "1/s", n_pass),
        "latency_p50_ms": (latency(50) * 1e3, "ms", n_latencies),
        "latency_p99_ms": (latency(99) * 1e3, "ms", n_latencies),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }


def http_ms(requests, resolves):
    """Client latency minus the matching ``resolve`` call, per request."""
    pool = {}
    for bench, sel, start, end in resolves:
        pool.setdefault((bench, sel), []).append((start, end))
    out = []
    for bench, sel, sent, received in requests:
        spans = pool.get((bench, sel), [])
        for i, (start, end) in enumerate(spans):
            if sent <= start and end <= received:
                out.append((received - sent) - (end - start))
                del spans[i]
                break
    return out


def layer_metrics(untraced, traced):
    """Per-layer metrics: median over traced passes of each value."""
    rows = []
    for result, rec in traced:
        f = result.wall / result.wall_raw
        sec = rec.seconds
        get_ms = rec.samples.get("store.get", [])
        put_ms = rec.samples.get("store.put", [])
        resolve = [end - start for _, _, start, end in rec.resolves]
        http = http_ms(result.requests, rec.resolves)
        instr = result.counts.get("cache.instructions", 0)
        rounds = rec.counts.get("batch.rounds", 0)
        row = {
            "workloads.build_s": sec["workloads.build"] * f,
            "system.simulate_s": sec["system.simulate"] * f,
            "execution.interpret_s": sec["execution.interpret_s"] * f,
            "selection.decide_s": sec["selection.decide_s"] * f,
            "selection.region_build_s": sec["selection.region_build_s"] * f,
            "cache.walk_s": sec["cache.walk_s"] * f,
            "metrics.report_s": sec["metrics.report"] * f,
            "experiments.figures_s": result.counts.get(
                "experiments.figures_s", 0.0),
            "system.events": rec.counts["system.events"],
            "cache.regions": result.counts.get("cache.regions", 0),
            "cache.region_transitions": result.counts.get(
                "cache.region_transitions", 0),
            "cache.exit_stubs": result.counts.get("cache.exit_stubs", 0),
            "cache.bytes": result.counts.get("cache.bytes", 0),
            "cache.cached_frac": (1 - result.counts.get(
                "cache.interpreted_instructions", 0) / instr) if instr else 0.0,
            "batch.run_fleet_s": sec["batch.run_fleet"] * f,
            "batch.rounds": rounds,
            "batch.events_per_round": (rec.counts["batch.events"] / rounds
                                       if rounds else 0.0),
            "batch.lanes": rec.counts["batch.lanes"],
            "store.get_ms_p50": median(get_ms) * 1e3 * f if get_ms else 0.0,
            "store.put_ms_p50": median(put_ms) * 1e3 * f if put_ms else 0.0,
            "store.hits": rec.counts["store.hits"],
            "store.misses": rec.counts["store.misses"],
            "jobs.run_s": sec["jobs.run"] * f,
            "jobs.launched": rec.counts["jobs.launched"],
            "serve.resolve_ms_p50": (median(resolve) * 1e3 * f
                                     if resolve else 0.0),
            "serve.http_ms_p50": median(http) * 1e3 * f if http else 0.0,
            "serve.warm_hits": result.stats.get("warm_hits", 0),
            "serve.coalesced": result.stats.get("coalesced", 0),
            "serve.computed": result.stats.get("computed", 0),
            "serve.batches": result.stats.get("batches", 0),
        }
        rows.append(row)
    metrics = {name: (median(row[name] for row in rows),
                      PER_LAYER_UNITS[name], len(rows)) for name in rows[0]}
    overhead = (median(p.wall for p, _ in traced)
                / median(p.wall for p in untraced) - 1)
    metrics["obs.trace_overhead_frac"] = (overhead, "ratio", len(traced))
    return metrics


def fingerprint_errors(name, expected, passes, traced) -> list:
    """Simulated statistics that differ from the committed fingerprint."""
    if name == "serve-zipf":
        return []
    want = expected["grid"]["fingerprint"]
    errors = []
    for result in passes:
        for key, value in result.counts.items():
            if key in want and value != want[key]:
                errors.append(f"{key}: {value} != {want[key]}")
    for _, rec in traced:
        events = rec.counts["system.events"]
        if events != want["system.events"]:
            errors.append(f"system.events: {events} != {want['system.events']}")
    return errors


def environment(workload) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False).stdout.strip() or None
    except OSError:
        sha = None
    from repro.batch import get_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "batch_backend": get_backend("auto"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_sha": sha,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "estimator": workloads.ESTIMATORS[workload],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # One vCPU for this process and every process it starts: on the
    # 2-vCPU tuning host, thread hand-offs across vCPUs made serve
    # passes 2.5x slower and 2x more variable than on one vCPU, and
    # every measured path is single-threaded under the GIL.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    expected = workloads.load_expected()
    setup = [] if trace else measure_setup(name, seed)
    workload = workloads.make(name, expected, seed)
    warmup, untraced, traced = run_passes(workload, seconds, trace)
    every = [warmup] + untraced + [p for p, _ in traced]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    problems = fingerprint_errors(name, expected, every, traced)
    for i, (result, _) in enumerate(traced):
        if result.outputs != untraced[i].outputs:
            problems.append(f"traced pass {i} outputs differ from untraced")
    if trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end(name, untraced, expected, setup)

    info = environment(name)
    print(f"# workload {name}  seed {seed}  {json.dumps(info)}")
    raw = median(p.wall_raw for p in untraced)
    print(f"# raw host seconds per pass (median of {len(untraced)}): "
          f"{raw:.4f}; failed_frac {failed / attempted:.6f} "
          f"({failed}/{attempted})")
    print("# per-pass wall_s: " + " ".join(f"{p.wall:.4f}" for p in untraced))
    if setup:
        print("# set-up samples: " + " ".join(f"{s['seconds']:.4f}"
                                             for s in setup))
    for problem in problems:
        print(f"# FINGERPRINT/IDENTITY MISMATCH: {problem}")
    for metric, (value, unit, count) in metrics.items():
        print(f"{name:<13} {metric:<26} {value:>16.6g} {unit:<6} n={count}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro); "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            status |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, check=False).returncode
        return status
    env = pinned_env()
    if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"] or \
            os.environ.get("PYTHONPATH") != env["PYTHONPATH"]:
        # Re-exec with the pinned environment (same process, no child).
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    sys.path.insert(0, SRC)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
