"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is everything before a workload's first timed pass: importing
the program, building its programs and, for ``serve-zipf``, booting
the server and pre-warming the store.  Imports only happen once per
process, so each set-up sample is its own process.  Prints one JSON
object: ``{"raw": seconds, "seconds": seconds at the reference speed}``.
"""

from __future__ import annotations

import json
import sys
import time

import speed


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    bracket = speed.Bracket(syscalls=True)
    before = bracket.time()
    t0 = time.perf_counter()
    import workloads

    workload = workloads.make(name, workloads.load_expected(), seed)
    if name == "serve-zipf":
        warm, _ = workloads.serve_plan(seed, 0, workload.cells)
        server, store = workload.boot(warm)
    elapsed = time.perf_counter() - t0
    after = bracket.time()
    if name == "serve-zipf":
        server.stop()
        workloads.shutil.rmtree(store, ignore_errors=True)
    print(json.dumps({"raw": elapsed,
                      "seconds": elapsed * bracket.factor(before, after)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
