"""The server process of the serve legs.

Started by :mod:`bench_e2e.serve` as ``python3 -m bench_e2e.server_proc``
with the repository's ``src`` on the path.  It builds a 4-shard
:class:`ShardRouter` (recovery option III: every memo change is
force-logged; observability at ``metrics`` level), loads the seeded
population through ``upsert`` (timed at reference host speed, see
:class:`~bench_e2e.measure.HostSpeed`), only then switches the modelled disk
channel on, and serves on a loopback port.  It prints one JSON line
when ready and then answers control commands on stdin, one JSON line
each: ``usage``, ``space``, ``spans <path>`` and ``quit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict

from repro.obs import Observability
from repro.serving import ShardRouter, ShardServer

from . import tracing as T
from .measure import (
    LOAD_SLICE, HostSpeed, cpu_seconds, peak_rss_mb, reference_ns,
)
from .workloads import NODE_SIZE, SHARDS, WORKLOADS, OpStream


def _totals(router: ShardRouter) -> Dict[str, float]:
    trees = [shard.tree for shard in router.shards]
    # Timed before the CPU reading, so no measured stretch includes it.
    reference = reference_ns()
    return {
        "reference_ns": reference,
        "cpu_s": cpu_seconds(),
        "rss_mb": peak_rss_mb(),
        "log_writes": sum(t.stats.log_writes for t in trees),
        "entries_removed": sum(t.cleaner.entries_removed for t in trees),
    }


def _space(router: ShardRouter) -> Dict[str, float]:
    trees = [shard.tree for shard in router.shards]
    objects = router.count_objects()
    pages = sum(t.buffer.disk.num_pages() for t in trees)
    memo = sum(t.memo_size_bytes() for t in trees)
    garbage = sum(t.garbage_count() for t in trees)
    return {
        "bytes_per_object": (pages * NODE_SIZE + memo) / objects,
        "memo_bytes": memo,
        "garbage_ratio": garbage / objects,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--population", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cpu", type=int, required=True, help="pin the server to this CPU")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    os.sched_setaffinity(0, {args.cpu})

    t0 = time.perf_counter()
    population = OpStream(wl, args.seed, args.population).population()
    gen_s = time.perf_counter() - t0
    router = ShardRouter(
        SHARDS,
        node_size=NODE_SIZE,
        recovery_option="III",
        obs=Observability(level="metrics"),
    )
    # The load is CPU work; time it at reference host speed.
    speed = HostSpeed()
    load_raw_s = load_s = 0.0
    for start in range(0, len(population), LOAD_SLICE):
        t1 = time.perf_counter()
        for oid, rect in population[start : start + LOAD_SLICE]:
            router.upsert(oid, rect)
        elapsed = time.perf_counter() - t1
        load_raw_s += elapsed
        load_s += elapsed * speed.factor()
    # Loading through the modelled channel would only add sleep.
    router.io_latency = wl.io_latency
    server = ShardServer(router)
    host, port = server.start()
    tracer = patches = None
    if args.trace:
        tracer, patches = T.Tracer(), T.Patches()
        T.install_router(tracer, patches, router)
        T.install_server(tracer, patches)

    def reply(message: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply(
        {
            "host": host, "port": port, "gen_s": gen_s,
            "load_raw_s": load_raw_s, "load_s": load_s,
        }
    )
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "usage":
                reply(_totals(router))
            elif command == "space":
                reply(_space(router))
            elif command == "spans":
                if tracer is not None:
                    tracer.save(arg)
                    patches.undo()
                    tracer = None
                reply({"saved": arg})
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
