"""The in-process leg: one caller driving a bare RUMTree, closed loop.

The tree is the paper's RUM-tree with clean-upon-touch on 2 KiB
nodes: internal nodes pinned, no leaf cache (every leaf access is a
counted read), the memo in RAM, no WAL and observability off.

Every op here is CPU work in this process, so its times (set-up,
service times, CPU time) are scaled to the reference host speed by
:class:`~bench_e2e.measure.HostSpeed`, sampled every 100 ms of timed
work and every 1000 inserts of a build.  The run prints the mean
factor as ``check host_speed_factor``; raw times are the scaled ones
divided by it.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import traceback
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.factory import build_rum_tree
from repro.rtree.geometry import Rect

from . import layers
from . import tracing as T
from .measure import (
    LOAD_SLICE, HostSpeed, cpu_seconds, latency_metrics, lindley_slo_rate, peak_rss_mb,
)
from .oracle import Oracle
from .workloads import KINDS, KNN, NODE_SIZE, RANGE, UPDATE, OpStream, Workload

#: Builds of the stack per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops generated (untimed) at a time.
CHUNK = 2000
#: Timed work between host-speed samples.
SLICE_NS = 100_000_000
#: Share of range and kNN answers checked against the oracle.
CHECK_SHARE = 0.1


def build(
    population: List[Tuple[int, Rect]], pause: Callable[[], None] = lambda: None
) -> Any:
    """The stack, loaded; ``pause`` runs after every :data:`LOAD_SLICE`
    inserts."""
    tree = build_rum_tree(node_size=NODE_SIZE, clean_upon_touch=True)
    for start in range(0, len(population), LOAD_SLICE):
        for oid, rect in population[start : start + LOAD_SLICE]:
            tree.insert_object(oid, rect)
        pause()
    return tree


def timed_build(population: List[Tuple[int, Rect]]) -> Tuple[Any, float]:
    """The stack, and its build time in seconds at reference host speed."""
    speed = HostSpeed()
    spent = 0.0
    t0 = time.perf_counter_ns()

    def pause() -> None:
        nonlocal spent, t0
        spent += (time.perf_counter_ns() - t0) * speed.factor()
        t0 = time.perf_counter_ns()

    tree = build(population, pause)
    return tree, spent / 1e9


def _leaf_io(tree: Any) -> Tuple[int, int]:
    stats = tree.stats
    return stats.leaf_reads, stats.leaf_writes


def run(
    wl: Workload, seed: int, seconds: float, trace: bool, population: int
) -> Dict[str, Any]:
    stream = OpStream(wl, seed, population)
    pop = stream.population()
    setups: List[float] = []
    tree = None
    for _ in range(SETUP_REPEATS):
        tree = None
        gc.collect()
        tree, setup_s = timed_build(pop)
        setups.append(setup_s)
    assert tree is not None
    oracle = Oracle(pop)
    check_rng = random.Random(seed * 31 + 7)

    tracer = patches = None
    if trace:
        tracer, patches = T.Tracer(), T.Patches()
        T.install_tree(tracer, patches, tree)
        T.install_mirror(tracer, patches)
        op_nid = tracer.name_id(T.OP)
    # Per-op leaf I/O split by kind (traced run only: exact here).
    io_by_kind = {k: [0, 0] for k in (UPDATE, RANGE, KNN)}

    service = array("q")
    kinds = array("b")
    #: Per op: the host-speed factor of the stretch it ran in.
    factors = array("d")
    attempted = failed = wrong = checked = 0
    timed_ns = cpu_s = 0.0
    io0 = _leaf_io(tree)
    removed0 = tree.cleaner.entries_removed
    update, search, knn = tree.update_object, tree.search, tree.nearest_neighbors
    clock = time.perf_counter_ns
    budget_ns = seconds * 1e9
    pending: List[Any] = []
    speed = HostSpeed()
    while timed_ns < budget_ns:
        if not pending:
            pending = stream.take(CHUNK)
        answers: Dict[int, Any] = {}
        n_run = 0
        c0 = cpu_seconds()
        w0 = clock()
        stop = w0 + min(SLICE_NS, budget_ns - timed_ns)
        for op in pending:
            if clock() >= stop:
                break
            kind = op[0]
            if tracer is not None:
                tracer.set_request(attempted + n_run)
                root = tracer.begin(op_nid, kind)
                before = _leaf_io(tree)
            t0 = clock()
            try:
                if kind == UPDATE:
                    update(op[1], None, op[2])
                    result = None
                elif kind == RANGE:
                    result = search(op[1])
                else:
                    result = knn(op[1], op[2], op[3])
            except Exception:  # a failed op is counted, never fatal
                if not failed:
                    traceback.print_exc(file=sys.stderr)
                failed += 1
                result = None
            t1 = clock()
            if tracer is not None:
                tracer.finish(root)
                after = _leaf_io(tree)
                io_by_kind[kind][0] += after[0] - before[0]
                io_by_kind[kind][1] += after[1] - before[1]
            service.append(t1 - t0)
            kinds.append(kind)
            if kind != UPDATE and check_rng.random() < CHECK_SHARE:
                answers[n_run] = result
            n_run += 1
        timed_ns += clock() - w0
        cpu = cpu_seconds() - c0
        factor = speed.factor()
        factors.extend([factor] * n_run)
        cpu_s += cpu * factor
        attempted += n_run
        ops, pending = pending[:n_run], pending[n_run:]
        # Oracle replay, untimed: answers are checked against the state
        # the tree was in when they were given.
        for i, op in enumerate(ops):
            if op[0] == UPDATE:
                oracle.update(op[1], op[2])
            elif i in answers:
                answer = answers[i]
                ok = answer is not None and (
                    oracle.range_ok(op[1], answer)
                    if op[0] == RANGE
                    else oracle.knn_ok(op[1], op[2], op[3], answer)
                )
                wrong += not ok
                checked += 1
    io1 = _leaf_io(tree)
    removed = tree.cleaner.entries_removed - removed0
    wall_s = timed_ns / 1e9
    spans = None
    if tracer is not None:
        spans = layers.Spans(tracer.names, tracer.arrays())
        patches.undo()

    everything = tree.search(Rect(0.0, 0.0, 1.0, 1.0))
    mismatched = oracle.final_mismatches(dict(everything))
    failed += wrong + mismatched

    raw_ns = np.frombuffer(service, dtype=np.int64)
    service_np = raw_ns * np.frombuffer(factors, dtype=np.float64)
    kinds_np = np.frombuffer(kinds, dtype=np.int8)
    samples = {KINDS[k]: service_np[kinds_np == k] for k in (UPDATE, RANGE, KNN)}
    lat, counts = latency_metrics(samples)
    n = len(service_np)
    memo_bytes = tree.memo_size_bytes()
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": n * 1e9 / service_np.sum(),
        "slo_rate_ops_s": lindley_slo_rate(
            service_np, kinds_np, wl.rates, wl.limit_ms / 1e3
        ),
        **lat,
        "cpu_us_per_op": cpu_s * 1e6 / n,
        "leaf_io_per_op": (io1[0] - io0[0] + io1[1] - io0[1]) / n,
        "bytes_per_object": (
            tree.buffer.disk.num_pages() * NODE_SIZE + memo_bytes
        ) / len(oracle),
        "rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    result: Dict[str, Any] = {
        "metrics": metrics,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "answers_checked": checked,
            "wrong_answers": wrong,
            "final_mismatches": mismatched,
            "host_speed_factor": round(float(service_np.sum() / raw_ns.sum()), 4),
        },
    }
    if spans is not None:
        n_kind = {k: int((kinds_np == k).sum()) for k in (UPDATE, RANGE, KNN)}
        n_up, n_q = n_kind[UPDATE], n_kind[RANGE] + n_kind[KNN]
        extra = {
            "core.rum.garbage_ratio": tree.garbage_ratio(len(oracle)),
            "core.memo.bytes": float(memo_bytes),
            "core.cleaner.entries_removed_per_kupdate": 1000.0 * removed / max(n_up, 1),
            "storage.iostats.leaf_reads_per_update": io_by_kind[UPDATE][0] / max(n_up, 1),
            "storage.iostats.leaf_writes_per_update": io_by_kind[UPDATE][1] / max(n_up, 1),
            "storage.iostats.leaf_reads_per_query": (
                io_by_kind[RANGE][0] + io_by_kind[KNN][0]
            ) / max(n_q, 1),
            "bench.traced_throughput_ops_s": metrics["throughput_ops_s"],
        }
        result["layers"] = layers.per_layer(spans, n_kind, wall_s, extra)
        result["layer_table"] = spans.table(wall_s, n)
    return result
