"""The serve legs: a ShardServer in its own process, driven over TCP.

Load comes from this process over a fixed number of connections.  Each
object's updates always travel over the same connection, so they apply
in trace order; queries alternate between connections.  A run has two
phases:

1. **saturation probe** — every connection sends back to back; the
   achieved rate is ``throughput_ops_s``.  The probe runs in rounds of
   :data:`SATURATION_ROUND` ops until its time is up, so it never runs
   out of ops however fast the server answers;
2. **SLO ladder** — an open loop at each fixed offered rate.  Op ``i``
   is due at ``start + i / rate``; its latency runs from that due time
   to its reply, so a stall delays every later op (no coordinated
   omission).  The latencies at the workload's nominal rate are the
   reported percentiles, and ``slo_rate_ops_s`` is the highest rate at
   which every op type meets the p99 limit without a growing backlog.
   The ladder sends the same number of ops at the same rates in every
   run, so the server's CPU per op is taken over the ladder alone; its
   rungs run in parts of about :data:`PART_S`.

Shared hosts stall a process for ~10 ms a few times in ten seconds,
and in an open loop each stall delays every op due during it, so a
percentile of one contiguous window swings with the number of stalls
that fell into it.  The nominal percentiles are therefore medians over
quarter-second slices of their rung: they describe the typical quarter
second, and a change that adds rare long pauses shows in
``throughput_ops_s`` and ``slo_rate_ops_s`` rather than in the
percentiles.

This process and the server are pinned to one and the same CPU, so a
run measures what the serving path costs one CPU, load generation
included.  On a shared 2-vCPU host, a run's throughput and p50s moved
with how fast each of two CPUs happened to be: pinned to one CPU each,
ten seeds of ``serve_cpu`` spread their throughput by 0.24 and their
p50s by 0.09-0.17 (interquartile range over median); pinned to one
CPU together, five seeds spread them by 0.05-0.08.

That one CPU still changes speed with the host's other load.  After
every saturation round and every ladder part, with the connections
idle, the server times the pass of :class:`~bench_e2e.measure.HostSpeed`;
each phase's server CPU time is scaled by the factor the passes around
it give.  Without the modelled disk (``io_latency`` 0) the run is CPU
work end to end, so the phase's elapsed time and latencies are scaled
too.  With it, most of an op's time is channel sleep, which does not
change with the host's speed, so throughput and latencies stay raw.

Generator lateness (sending later than due although the connection was
free) is reported as ``bench.gen_lag_p99_ms``; a run whose generator
fell too far behind is invalid.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.rtree.geometry import Rect
from repro.serving import ServingClient
from repro.serving.protocol import rect_to_wire

from . import layers
from . import tracing as T
from .measure import HostSpeed, meets_limit, p50_p99_us
from .oracle import Oracle
from .workloads import (
    CONNECTIONS, KINDS, KNN, KNN_K, QUERY_SIDE, RANGE, UPDATE, Op, OpStream,
    Workload,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
#: Share of the run for the saturation probe and for the nominal rung;
#: the other rungs split the rest.
SATURATION_SHARE = 0.4
NOMINAL_SHARE = 0.45
#: Ops per round of the saturation probe.
SATURATION_ROUND = 2000
#: Ladder rungs run in parts of about this long, with a host-speed
#: sample in the server after each.
PART_S = 0.75
#: Slice length whose median gives the nominal percentiles.
LATENCY_SLICE_S = 0.25
#: An open-loop rung gives up once it runs this long past its schedule.
DRAIN_LIMIT_S = 2.0
#: A run is invalid when the generator's p99 lateness exceeds this.
GEN_LAG_LIMIT_MS = 5.0
#: Oracle sample of range and kNN answers on the final state.
CHECK_QUERIES = 100
CHECK_TILES = 8


class Server:
    """The server process and its control pipe."""

    def __init__(
        self, wl: Workload, seed: int, population: int, trace: bool, cpu: int
    ) -> None:
        src = os.path.join(ROOT, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, ROOT]))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "bench_e2e.server_proc",
                "--workload", wl.name, "--seed", str(seed),
                "--population", str(population), "--trace", str(int(trace)),
                "--cpu", str(cpu),
            ],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.address: Tuple[str, int] = (ready["host"], ready["port"])
        #: Server start, stack build and population load, with the load
        #: at reference host speed; generating the population in the
        #: server process is not set-up.
        self.setup_s = (
            time.perf_counter() - t0 - ready["gen_s"]
            - ready["load_raw_s"] + ready["load_s"]
        )

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited")
        return json.loads(line)

    def control(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.flush()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _wire(op: Op) -> Dict[str, Any]:
    if op[0] == UPDATE:
        return {"op": "update", "oid": op[1], "rect": rect_to_wire(op[2])}
    if op[0] == RANGE:
        return {"op": "query", "window": rect_to_wire(op[1])}
    return {"op": "knn", "x": op[1], "y": op[2], "k": op[3]}


class Phase:
    """One load phase: per-connection op lists and what came back."""

    def __init__(self, ops: List[Op], connections: int) -> None:
        self.ops = ops
        self.lanes: List[List[int]] = [[] for _ in range(connections)]
        for i, op in enumerate(ops):
            lane = op[1] % connections if op[0] == UPDATE else i % connections
            self.lanes[lane].append(i)
        n = len(ops)
        self.latency_ns = np.zeros(n, dtype=np.int64)
        self.due_s = np.zeros(n)
        self.finish_s = np.zeros(n)
        self.lag_ns = np.zeros(n, dtype=np.int64)
        self.done = np.zeros(n, dtype=bool)
        self.errors = 0
        self.elapsed_s = 0.0
        #: Host-speed factor of the time the phase ran in.
        self.factor = 1.0

    def completed_kinds(self) -> np.ndarray:
        return np.array([op[0] for op in self.ops], dtype=np.int8)[self.done]


def _drive(
    clients: List[ServingClient],
    phase: Phase,
    rate: Optional[float],
    seconds: float,
) -> None:
    """Run ``phase`` on every connection at once: back to back until
    ``seconds`` pass (``rate`` None), or open loop at ``rate``."""
    wire = [_wire(op) for op in phase.ops]
    start = time.perf_counter() + 0.05
    deadline = start + seconds + (DRAIN_LIMIT_S if rate else 0.0)
    error_lock = threading.Lock()

    def lane(c: int) -> None:
        client = clients[c]
        prev_done = start
        for i in phase.lanes[c]:
            due = start + i / rate if rate else max(start, time.perf_counter())
            now = time.perf_counter()
            if now >= deadline:
                return
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            try:
                client.request(wire[i])
            except (RuntimeError, OSError):
                with error_lock:
                    phase.errors += 1
            finished = time.perf_counter()
            phase.latency_ns[i] = int((finished - due) * 1e9)
            phase.due_s[i] = due - start
            phase.finish_s[i] = finished - start
            phase.lag_ns[i] = int((sent - max(due, prev_done)) * 1e9)
            phase.done[i] = True
            prev_done = finished

    threads = [threading.Thread(target=lane, args=(c,)) for c in range(len(clients))]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed_s = time.perf_counter() - max(t0, start)


def sliced_latency_metrics(
    parts: List[Phase], scale: bool
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-kind p50/p99 over a rung's parts, each the median over the
    slices (by due time) of that slice's percentile, scaled by its
    part's host-speed factor if ``scale``; counts are the samples
    behind."""
    per_slice: Dict[int, List[Tuple[float, float]]] = {k: [] for k in (UPDATE, RANGE, KNN)}
    counts = {KINDS[k]: 0 for k in (UPDATE, RANGE, KNN)}
    counts["latency_slices"] = 0
    for phase in parts:
        kinds = np.array([op[0] for op in phase.ops], dtype=np.int8)
        slot = (phase.due_s // LATENCY_SLICE_S).astype(np.int64)
        counts["latency_slices"] += len(np.unique(slot[phase.done]))
        for k in per_slice:
            mine = phase.done & (kinds == k)
            counts[KINDS[k]] += int(mine.sum())
            factor = phase.factor if scale else 1.0
            per_slice[k].extend(
                tuple(v * factor for v in p50_p99_us(phase.latency_ns[mine & (slot == s)]))
                for s in np.unique(slot[mine])
            )
    values: Dict[str, float] = {}
    for k, slices in per_slice.items():
        p50, p99 = np.median(slices, axis=0) if slices else (0.0, 0.0)
        values[f"{KINDS[k]}_p50_us"] = float(p50)
        values[f"{KINDS[k]}_p99_us"] = float(p99)
    return values, counts


def _leaf_io(stats: Dict[str, Any]) -> int:
    return sum(s["leaf_reads"] + s["leaf_writes"] for s in stats["shards"])


def _final_state(client: ServingClient) -> Dict[int, Rect]:
    """Every object's served rectangle, read back tile by tile."""
    state: Dict[int, Rect] = {}
    step = 1.0 / CHECK_TILES
    for i in range(CHECK_TILES):
        for j in range(CHECK_TILES):
            window = Rect(i * step, j * step, (i + 1) * step, (j + 1) * step)
            state.update(client.query(window))
    return state


def run(
    wl: Workload, seed: int, seconds: float, trace: bool, population: int
) -> Dict[str, Any]:
    stream = OpStream(wl, seed, population)
    oracle = Oracle(stream.population())
    server_cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {server_cpu})
    setups: List[float] = []
    for r in range(SETUP_REPEATS):
        server = Server(
            wl, seed, population, trace and r == SETUP_REPEATS - 1, server_cpu
        )
        setups.append(server.setup_s)
        if r < SETUP_REPEATS - 1:
            server.stop()
    tracer = patches = None
    clients: List[ServingClient] = []
    try:
        if trace:
            tracer, patches = T.Tracer(), T.Patches()
            T.install_client(tracer, patches)
        # Connect and ping one connection at a time: request numbering
        # on both sides then agrees on connection order.
        for _ in range(CONNECTIONS):
            clients.append(ServingClient(*server.address))
            clients[-1].ping()
        stats0 = clients[0].stats()

        # The server's usage, and a host-speed pass it times, before the
        # first phase and after every round or part of one.
        usage = [server.control("usage")]
        phases: List[Tuple[Optional[float], Phase]] = []
        left = seconds * SATURATION_SHARE
        while left > 0:
            sat = Phase(stream.take(SATURATION_ROUND), CONNECTIONS)
            _drive(clients, sat, None, left)
            phases.append((None, sat))
            usage.append(server.control("usage"))
            left -= sat.elapsed_s
        others = [r for r in wl.rates if r != wl.nominal_rate]
        other_s = seconds * (1 - SATURATION_SHARE - NOMINAL_SHARE) / max(len(others), 1)
        for rate in wl.rates:
            rung_s = seconds * NOMINAL_SHARE if rate == wl.nominal_rate else other_s
            n_parts = max(1, int(round(rung_s / PART_S)))
            for _ in range(n_parts):
                phase = Phase(stream.take(int(rate * rung_s / n_parts)), CONNECTIONS)
                _drive(clients, phase, rate, rung_s / n_parts)
                phases.append((rate, phase))
                usage.append(server.control("usage"))
        usage1 = usage[-1]
        stats1 = clients[0].stats()
        spans_path = None
        if trace:
            out_dir = os.path.join(ROOT, "bench_e2e", "out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{wl.name}-{os.getpid()}.npz")
            server.control(f"spans {spans_path}")
            client_spans = layers.Spans(tracer.names, tracer.arrays())
            patches.undo()
            patches = None

        # Oracle, untimed: replay the updates that were acknowledged.
        errors = 0
        for _rate, phase in phases:
            errors += phase.errors
            for i in np.nonzero(phase.done)[0]:
                op = phase.ops[i]
                if op[0] == UPDATE:
                    oracle.update(op[1], op[2])
        mismatched = oracle.final_mismatches(_final_state(clients[0]))
        check_rng = random.Random(seed * 31 + 7)
        wrong = 0
        for _ in range(CHECK_QUERIES):
            x = check_rng.random() * (1.0 - QUERY_SIDE)
            y = check_rng.random() * (1.0 - QUERY_SIDE)
            window = Rect(x, y, x + QUERY_SIDE, y + QUERY_SIDE)
            wrong += not oracle.range_ok(window, clients[0].query(window))
            answer = clients[0].nearest_neighbors(x, y, KNN_K)
            wrong += not oracle.knn_ok(x, y, KNN_K, answer)
        space = server.control("space")
    finally:
        if patches is not None:
            patches.undo()
        for client in clients:
            client.close()
        server.stop()

    attempted = sum(int(p.done.sum()) for _r, p in phases)
    failed = errors + wrong + mismatched
    speed = HostSpeed(usage[0]["reference_ns"])
    for (_r, phase), after in zip(phases, usage[1:]):
        phase.factor = speed.factor(after["reference_ns"])
    # Modelled disk sleeps do not scale with the host's speed: with the
    # channel on, wall-clock figures stay raw.
    scale_wall = wl.io_latency == 0.0
    lat, counts = sliced_latency_metrics(
        [p for r, p in phases if r == wl.nominal_rate], scale_wall
    )
    ladder = [(rate, phase) for rate, phase in phases if rate]
    slo = 0.0
    for rate in wl.rates:
        rung = [p for r, p in ladder if r == rate]
        complete = all(bool(p.done.all()) for p in rung)
        if complete and meets_limit(
            np.concatenate([p.latency_ns[p.done] for p in rung]) / 1e9,
            np.concatenate([p.completed_kinds() for p in rung]),
            wl.limit_ms / 1e3,
        ):
            slo = max(slo, rate)
    lags = np.concatenate([p.lag_ns[p.done] for _r, p in ladder])
    gen_lag_ms = float(np.percentile(lags, 99)) / 1e6 if len(lags) else 0.0
    saturation = [p for r, p in phases if r is None]
    sat_rate = sum(int(p.done.sum()) for p in saturation) / sum(
        p.elapsed_s * (p.factor if scale_wall else 1.0) for p in saturation
    )
    ladder_ops = sum(int(p.done.sum()) for _r, p in ladder)
    ladder_cpu_s = sum(
        (after["cpu_s"] - before["cpu_s"]) * phase.factor
        for (rate, phase), before, after in zip(phases, usage, usage[1:])
        if rate
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": float(sat_rate),
        "slo_rate_ops_s": slo,
        **lat,
        "cpu_us_per_op": ladder_cpu_s * 1e6 / ladder_ops,
        "leaf_io_per_op": (_leaf_io(stats1) - _leaf_io(stats0)) / attempted,
        "bytes_per_object": space["bytes_per_object"],
        "rss_mb": usage1["rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    counts["rung_saturation"] = sum(int(p.done.sum()) for p in saturation)
    for rate in wl.rates:
        counts[f"rung_{rate:g}"] = sum(int(p.done.sum()) for r, p in ladder if r == rate)
    result: Dict[str, Any] = {
        "metrics": metrics,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "answers_checked": 2 * CHECK_QUERIES,
            "wrong_answers": wrong,
            "final_mismatches": mismatched,
            "request_errors": errors,
            "gen_lag_p99_ms": round(gen_lag_ms, 3),
        },
        "valid": gen_lag_ms <= GEN_LAG_LIMIT_MS,
        "invalid_reason": (
            f"generator p99 lateness {gen_lag_ms:.2f} ms exceeds "
            f"{GEN_LAG_LIMIT_MS} ms"
        ),
    }
    if trace:
        names, arrays = T.load(spans_path)
        os.remove(spans_path)
        spans = layers.Spans(names, arrays)
        all_kinds = np.concatenate([p.completed_kinds() for _r, p in phases])
        n_kind = {k: int((all_kinds == k).sum()) for k in (UPDATE, RANGE, KNN)}
        n_up = max(n_kind[UPDATE], 1)
        t0, t1 = stats0["tallies"], stats1["tallies"]
        wall_s = sum(p.elapsed_s for _r, p in phases)
        extra = {
            "serving.router.migrations_per_kupdate": 1000.0
            * (t1["migrations"] - t0["migrations"])
            / max(t1["updates"] - t0["updates"], 1),
            "core.rum.garbage_ratio": space["garbage_ratio"],
            "core.memo.bytes": float(space["memo_bytes"]),
            "core.cleaner.entries_removed_per_kupdate": 1000.0
            * (usage1["entries_removed"] - usage[0]["entries_removed"])
            / n_up,
            "storage.wal.log_writes_per_update": (
                usage1["log_writes"] - usage[0]["log_writes"]
            ) / n_up,
            "bench.gen_lag_p99_ms": gen_lag_ms,
            "bench.traced_throughput_ops_s": float(sat_rate),
        }
        result["layers"] = layers.per_layer(
            spans, n_kind, wall_s, extra, client=client_spans
        )
        result["layer_table"] = spans.table(wall_s, attempted)
    return result
