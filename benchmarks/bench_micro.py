#!/usr/bin/env python
"""Tracked micro-benchmarks for the simulator's hot paths.

Unlike the ``bench_fig*`` experiment replays, these measure the raw
throughput of the layers every experiment sits on: the page codec, the
buffer pool, the update memo, and one small end-to-end update/query run.
Run it directly::

    PYTHONPATH=src python benchmarks/bench_micro.py [output.json]

It prints one line per metric and writes ``BENCH_micro.json`` at the repo
root (or to the path given as the first argument) with the schema::

    {
      "schema": "bench_micro/v1",
      "scale": <REPRO_BENCH_SCALE in effect>,
      "node_size": 8192,
      "metrics": {
        "<name>": {"ops_per_sec": <float>, "iterations": <int>},
        ...
      }
    }

Metric names are stable identifiers; ``scripts/bench_compare.py`` diffs
two such files and flags regressions.  Iteration counts scale with
``REPRO_BENCH_SCALE`` so the CI smoke run stays fast.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import sys
import tempfile
import time
from typing import Callable, Dict, Sequence

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro import kernels
from repro.core.memo import UpdateMemo
from repro.core.memo_lsm import SpillingUpdateMemo
from repro.concurrency.racecheck import RaceChecker
from repro.obs import Observability
from repro.experiments.harness import (
    bench_scale,
    load_tree,
    make_tree,
    measure_batched_updates,
    measure_queries,
    measure_updates,
    scaled,
)
from repro.rtree.geometry import Rect
from repro.rtree.node import IndexEntry, LeafEntry, Node
from repro.storage.buffer import BufferPool
from repro.storage.codec import NodeCodec
from repro.storage.disk import DiskManager
from repro.storage.iostats import IOStats
from repro.workload.objects import default_network_workload
from repro.workload.queries import RangeQueryGenerator

SCHEMA = "bench_micro/v1"
NODE_SIZE = 8192
DEFAULT_OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_micro.json"

#: Batch sizes swept by the batched-ingestion end-to-end metric; the
#: headline ``end_to_end.update_batch`` is the HEADLINE_BATCH_SIZE run
#: (the others get a size-suffixed metric name).
BATCH_SIZES = (16, 64, 256)
HEADLINE_BATCH_SIZE = 64


def _timed(fn: Callable[[], None], iterations: int) -> float:
    """Run ``fn`` ``iterations`` times; ops/sec of one ``fn`` call."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    elapsed = time.perf_counter() - t0
    return iterations / elapsed if elapsed > 0 else float("inf")


def _random_rect(rng: random.Random) -> Rect:
    x1, x2 = sorted((rng.random(), rng.random()))
    y1, y2 = sorted((rng.random(), rng.random()))
    return Rect(x1, y1, x2, y2)


def _full_leaf(codec: NodeCodec, rng: random.Random) -> Node:
    entries = [
        LeafEntry(_random_rect(rng), oid=i, stamp=3 * i)
        for i in range(codec.leaf_cap)
    ]
    return Node(1, True, entries, prev_leaf=7, next_leaf=9)


def _full_index(codec: NodeCodec, rng: random.Random) -> Node:
    entries = [
        IndexEntry(_random_rect(rng), child_id=i + 1)
        for i in range(codec.index_cap)
    ]
    return Node(2, False, entries)


def bench_codec(metrics: Dict, iters: int) -> None:
    rng = random.Random(7)
    for label, rum_leaves, maker in (
        ("classic_leaf", False, _full_leaf),
        ("rum_leaf", True, _full_leaf),
        ("index", False, _full_index),
    ):
        codec = NodeCodec(NODE_SIZE, rum_leaves=rum_leaves)
        node = maker(codec, rng)
        page = codec.encode(node)

        def encode() -> None:
            node.cached_bytes = None  # defeat the clean-page cache
            codec.encode(node)

        def decode() -> None:
            codec.decode(1, page, lazy=False)

        metrics[f"codec.encode_{label}"] = {
            "ops_per_sec": _timed(encode, iters), "iterations": iters,
        }
        metrics[f"codec.decode_{label}"] = {
            "ops_per_sec": _timed(decode, iters), "iterations": iters,
        }
    codec = NodeCodec(NODE_SIZE, rum_leaves=True)
    page = codec.encode(_full_leaf(codec, rng))
    lazy_iters = iters * 10

    def decode_lazy() -> None:
        codec.decode(1, page, lazy=True)

    metrics["codec.decode_lazy_header"] = {
        "ops_per_sec": _timed(decode_lazy, lazy_iters),
        "iterations": lazy_iters,
    }
    count = codec.leaf_cap

    def decode_bulk() -> None:
        codec.decode_block(count, page)

    metrics["codec.decode_bulk"] = {
        "ops_per_sec": _timed(decode_bulk, lazy_iters),
        "iterations": lazy_iters,
    }


def bench_kernels(metrics: Dict, iters: int) -> None:
    """Columnar kernel hot loops in isolation (see docs/KERNELS.md).

    ``geometry.bulk_intersect`` runs the range-search predicate over a
    buffer-born block (the zero-copy representation queries consume);
    ``split.margin_scan`` runs the R* axis-choice scan — a stable argsort
    plus running-bounds tables per coordinate column — over an entry-born
    block of a full leaf, the exact shape the split path feeds it.
    """
    rng = random.Random(13)
    codec = NodeCodec(NODE_SIZE, rum_leaves=True)
    node = _full_leaf(codec, rng)
    page = codec.encode(node)
    count = len(node.entries)
    block = codec.decode_block(count, page)
    wrng = random.Random(17)
    windows = []
    for _ in range(64):
        x, y = wrng.random() * 0.99, wrng.random() * 0.99
        windows.append((x, y, x + 0.01, y + 0.01))

    def bulk_intersect() -> None:
        for wx1, wy1, wx2, wy2 in windows:
            kernels.intersect_indices(block, wx1, wy1, wx2, wy2)

    rounds = max(5, iters // 10)
    metrics["geometry.bulk_intersect"] = {
        "ops_per_sec": _timed(bulk_intersect, rounds) * len(windows),
        "iterations": rounds * len(windows),
    }

    entry_block = kernels.block_from_entries(node.entries)
    min_entries = max(2, count * 2 // 5)

    def margin_scan() -> None:
        for dim in range(4):
            order = kernels.argsort(entry_block, dim)
            kernels.split_tables(entry_block, order, min_entries)

    metrics["split.margin_scan"] = {
        "ops_per_sec": _timed(margin_scan, rounds) * 4,
        "iterations": rounds * 4,
    }


def bench_buffer(metrics: Dict, iters: int) -> None:
    rng = random.Random(11)
    codec = NodeCodec(2048, rum_leaves=True)
    disk = DiskManager(2048)
    buf = BufferPool(disk, codec, IOStats())
    page_ids = []
    for _ in range(32):
        node = buf.new_node(is_leaf=True)
        node.entries.extend(
            LeafEntry(_random_rect(rng), oid=i, stamp=i)
            for i in range(codec.leaf_cap // 2)
        )
        buf.mark_dirty(node)
        page_ids.append(node.page_id)

    def get_pages() -> None:
        with buf.operation():
            for pid in page_ids:
                _ = buf.get_node(pid).entries  # materialise lazy leaves

    def get_dirty_flush() -> None:
        with buf.operation():
            for pid in page_ids:
                buf.mark_dirty(buf.get_node(pid))

    n_pages = len(page_ids)
    metrics["buffer.get_node"] = {
        "ops_per_sec": _timed(get_pages, iters) * n_pages,
        "iterations": iters * n_pages,
    }
    metrics["buffer.get_dirty_flush"] = {
        "ops_per_sec": _timed(get_dirty_flush, iters) * n_pages,
        "iterations": iters * n_pages,
    }


def bench_memo(metrics: Dict, iters: int) -> None:
    memo = UpdateMemo(n_buckets=64)
    n_oids = 512
    stamp = 0

    def memo_cycle() -> None:
        # One record + one query + one clean per oid: the per-update
        # pattern of the RUM-tree hot path.
        nonlocal stamp
        for oid in range(n_oids):
            stamp += 1
            memo.record_update(oid, stamp)
            memo.check_status(oid, stamp)
            if memo.is_obsolete(oid, stamp - 1):
                memo.note_cleaned(oid)

    rounds = max(1, iters // 50)
    metrics["memo.update_check_clean"] = {
        "ops_per_sec": _timed(memo_cycle, rounds) * n_oids,
        "iterations": rounds * n_oids,
    }

    # latest_stamp against the LSM-tiered memo with the RAM tier pinned
    # far below the population, so nearly every probe walks the Bloom
    # filters and sorted runs — the CheckStatus cost a spilled memo
    # adds to query filtering and cleaning.
    from repro.storage.wal import UM_ENTRY_BYTES

    with tempfile.TemporaryDirectory(prefix="bench-memo-") as tmp:
        spilled = SpillingUpdateMemo(
            tmp,
            spill_budget=32 * UM_ENTRY_BYTES,
            compact_threshold=4,
        )
        for oid in range(n_oids):
            spilled.record_update(oid, oid + 1)

        def probe_spilled() -> None:
            for oid in range(n_oids):
                spilled.latest_stamp(oid)

        metrics["memo.probe_spilled"] = {
            "ops_per_sec": _timed(probe_spilled, rounds) * n_oids,
            "iterations": rounds * n_oids,
        }
        spilled.close()


def bench_end_to_end(metrics: Dict, suffix: str = "", obs=None) -> None:
    n = scaled(2000)
    workload = default_network_workload(n, moving_distance=0.01, seed=11)
    tree = make_tree("rum_touch", node_size=2048, obs=obs)
    load_tree(tree, workload.initial())
    updates = measure_updates(tree, workload, n)
    metrics[f"end_to_end.update{suffix}"] = {
        "ops_per_sec": (
            updates.updates / updates.cpu_seconds
            if updates.cpu_seconds > 0 else float("inf")
        ),
        "iterations": updates.updates,
    }
    # Unmeasured warm-up on a *different* query seed: a sustained query
    # phase amortises away its one-time costs — per-entry-count struct
    # kernels compiled on first decode, and the query mirror built once a
    # mutation-free streak has touched as many nodes as the tree has
    # pages (every search touches at least one, so num_pages() + 8
    # searches always get there) — so the measured stream reports the
    # steady-state per-query cost rather than charging those setup costs
    # to whichever few queries happen to run first.
    for window in RangeQueryGenerator(seed=7).queries(
        tree.buffer.disk.num_pages() + 8
    ):
        tree.search(window)
    n_queries = scaled(2000)
    queries = measure_queries(
        tree, RangeQueryGenerator(seed=2), n_queries
    )
    metrics[f"end_to_end.query{suffix}"] = {
        "ops_per_sec": (
            queries.queries / queries.cpu_seconds
            if queries.cpu_seconds > 0 else float("inf")
        ),
        "iterations": queries.queries,
    }


#: Updates/queries per timed slice of the interleaved obs A/B.
AB_CHUNK = 100

#: Independent passes of the paired A/B; per-leg times take the minimum
#: across passes, which discards passes hit by host-steal episodes.
AB_PASSES = 3

#: The observability A/B legs: metric-name suffix -> Observability
#: factory for the tree under that leg.
AB_LEGS = (
    ("", lambda: None),
    ("_obs_off", Observability.disabled),
    ("_obs_metrics", lambda: Observability(level="metrics")),
)


def _ab_pass(
    factories: Sequence[Callable[[], object]],
    n: int,
    n_queries: int,
    build_rot: int = 0,
) -> tuple:
    """One full paired pass: fresh trees, chunk-interleaved update then
    query phases.  Returns per-leg ``(update_times, query_times)``.

    ``factories`` build one tree per leg (the legs differ only in what
    is attached to the tree); each gets its own copy of the same
    deterministic workload.  ``build_rot`` rotates the order the legs'
    trees are *built* in.  Build order shapes heap layout (later trees
    land in a larger, more fragmented heap and see slightly worse
    locality), which shows up as a systematic ~2-4% bias against
    later-built legs that execution-order rotation cannot cancel.
    Rotating build position across passes gives every leg one pass in
    each position, and the per-leg min over passes compares the legs at
    their common best layout.
    """
    n_legs = len(factories)
    trees: list = [None] * n_legs
    streams: list = [None] * n_legs
    for j in range(n_legs):
        i = (build_rot + j) % n_legs
        workload = default_network_workload(n, moving_distance=0.01, seed=11)
        tree = factories[i]()
        load_tree(tree, workload.initial())
        trees[i] = tree
        streams[i] = iter(workload.updates(n))

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        utimes = [0.0] * n_legs
        done = 0
        rnd = 0
        while done < n:
            take = min(AB_CHUNK, n - done)
            gc.collect()
            # Rotate which leg runs first: the leg right after the
            # collection sees colder caches, and that penalty must not
            # always land on the same side of the ratios.
            for k in range(n_legs):
                i = (rnd + k) % n_legs
                stream = streams[i]
                update = trees[i].update_object
                t0 = time.process_time()
                for _ in range(take):
                    oid, _old, new = next(stream)
                    update(oid, _old, new)
                utimes[i] += time.process_time() - t0
            done += take
            rnd += 1

        # Same unmeasured warm-up rationale as bench_end_to_end; it also
        # lets the metrics leg's adaptive query sampling reach its steady
        # stride, so the measured slices reflect sampled steady state.
        for tree in trees:
            for window in RangeQueryGenerator(seed=7).queries(
                tree.buffer.disk.num_pages() + 8
            ):
                tree.search(window)
        qstreams = [
            iter(RangeQueryGenerator(seed=2).queries(n_queries))
            for _ in trees
        ]
        qtimes = [0.0] * n_legs
        done = 0
        rnd = 0
        while done < n_queries:
            take = min(AB_CHUNK, n_queries - done)
            gc.collect()
            for k in range(n_legs):
                i = (rnd + k) % n_legs
                qstream = qstreams[i]
                search = trees[i].search
                t0 = time.process_time()
                for _ in range(take):
                    search(next(qstream))
                qtimes[i] += time.process_time() - t0
            done += take
            rnd += 1
        return utimes, qtimes
    finally:
        if gc_was_enabled:
            gc.enable()


def bench_obs_ab(metrics: Dict) -> None:
    """Paired end-to-end A/B of the observability levels.

    Single-leg repeats on this workload disperse by ±5-10% (allocator
    growth, interpreter warm-up, host jitter), which drowns the <2%
    metrics-level budget.  Two counter-measures:

    * **Chunk interleaving** — instead of timing whole legs back to
      back, one tree per leg advances through the *same* deterministic
      update/query stream in alternating ``AB_CHUNK``-op slices, each
      leg accumulating its own summed timer.  Slow drift of the host
      then hits every leg's slices roughly equally and cancels out of
      the ratios.  The cyclic GC is disabled inside timed slices (its
      pauses would land on whichever leg happened to allocate past the
      threshold) and runs at slice boundaries instead, off the clock.
    * **Min-of-passes with rotated build order** — the whole paired
      pass repeats ``AB_PASSES`` times on fresh trees, each pass
      building the legs' trees in a rotated order (see
      :func:`_ab_pass`), and each leg keeps its *minimum* total.
      Host-steal episodes span many consecutive slices, so a stolen
      pass inflates one leg's sum more than another's; the minimum
      discards those passes, cancels the build-position bias, and
      converges on the undisturbed cost.
    """
    factories = [
        (lambda make=make_obs: make_tree("rum_touch", node_size=2048, obs=make()))
        for _, make_obs in AB_LEGS
    ]
    _ab_run([suffix for suffix, _ in AB_LEGS], factories, metrics)


def _ab_run(
    suffixes: Sequence[str],
    factories: Sequence[Callable[[], object]],
    metrics: Dict,
) -> None:
    """Min-of-passes paired A/B over ``factories``; records each leg's
    update/query throughput under ``end_to_end.update{suffix}`` /
    ``end_to_end.query{suffix}``."""
    n = scaled(2000)
    n_queries = scaled(2000)
    n_legs = len(factories)
    best_u = [float("inf")] * n_legs
    best_q = [float("inf")] * n_legs
    for p in range(AB_PASSES):
        utimes, qtimes = _ab_pass(factories, n, n_queries, build_rot=p % n_legs)
        for i in range(n_legs):
            best_u[i] = min(best_u[i], utimes[i])
            best_q[i] = min(best_q[i], qtimes[i])
    for suffix, t in zip(suffixes, best_u):
        metrics[f"end_to_end.update{suffix}"] = {
            "ops_per_sec": n / t if t > 0 else float("inf"),
            "iterations": n,
        }
    for suffix, t in zip(suffixes, best_q):
        metrics[f"end_to_end.query{suffix}"] = {
            "ops_per_sec": n_queries / t if t > 0 else float("inf"),
            "iterations": n_queries,
        }


def _racecheck_attach_detach(tree) -> None:
    """Attach the race detector, then detach it again.

    The resulting tree is *supposed* to be indistinguishable from one
    that never saw a checker — every probe is an attribute load plus a
    ``None`` check.  Benchmarking this leg against the plain one pins
    that contract: if a future change makes detach leave a stub object
    behind (turning the probes into real dispatches), the measured
    "detector off" overhead stops reading ~0% and the A/B exposes it.
    """
    tree.attach_racecheck(RaceChecker())
    tree.attach_racecheck(None)


def bench_racecheck_ab(metrics: Dict) -> None:
    """Paired end-to-end A/B of the Eraser race detector.

    Same chunk-interleaved, min-of-passes machinery as
    :func:`bench_obs_ab`, with three legs:

    * ``""`` — plain tree, never attached (the shipped default);
    * ``"_racecheck_off"`` — attached then detached (must match the
      plain leg, see :func:`_racecheck_attach_detach`);
    * ``"_racecheck"`` — a live :class:`RaceChecker` cascaded across
      the tree, buffer pool, memo and stamp counter.

    The run is single-threaded, so the active leg measures the per-probe
    bookkeeping cost (lockset/epoch updates under the checker's mutex),
    not contention; the threaded suites exercise the detection side.
    The checker is attached directly rather than via global activation
    so the other legs' trees keep plain (untracked) locks.
    """

    def plain():
        return make_tree("rum_touch", node_size=2048)

    def attach_detach():
        tree = make_tree("rum_touch", node_size=2048)
        _racecheck_attach_detach(tree)
        return tree

    def active():
        tree = make_tree("rum_touch", node_size=2048)
        tree.attach_racecheck(RaceChecker())
        return tree

    _ab_run(
        ("", "_racecheck_off", "_racecheck"),
        (plain, attach_detach, active),
        metrics,
    )


def bench_batch(metrics: Dict, obs=None) -> None:
    """Batched ingestion: the ``end_to_end.update`` stream, but applied
    through ``RUMTree.apply_batch`` in fixed-size groups.

    Same workload, seed, tree variant and node size as
    :func:`bench_end_to_end`, so ``end_to_end.update_batch`` divided by
    ``end_to_end.update`` is exactly the speedup of the batched pipeline
    (dedup + Z-order + batch scope + amortised cleaning) over per-call
    application.
    """
    n = scaled(2000)
    for size in BATCH_SIZES:
        workload = default_network_workload(n, moving_distance=0.01, seed=11)
        tree = make_tree("rum_touch", node_size=2048, obs=obs)
        load_tree(tree, workload.initial())
        m = measure_batched_updates(tree, workload, n, batch_size=size)
        name = (
            "end_to_end.update_batch"
            if size == HEADLINE_BATCH_SIZE
            else f"end_to_end.update_batch{size}"
        )
        metrics[name] = {
            "ops_per_sec": (
                m.updates / m.cpu_seconds
                if m.cpu_seconds > 0 else float("inf")
            ),
            "iterations": m.updates,
        }


def obs_overhead_pct(metrics: Dict, suffix: str = "_obs_off") -> Dict[str, float]:
    """Relative slowdown of an obs-attached leg vs the plain leg, per op.

    Both legs execute the exact same workload, chunk-interleaved in the
    same process (see :func:`bench_obs_ab`); the only difference is the
    :class:`Observability` attached to the tree.  ``_obs_off`` (level
    ``off``) isolates the disabled instrumentation path — one attribute
    load + ``None`` check per guarded site, bar ~0%.  ``_obs_metrics``
    (level ``metrics``) additionally pays the bound counters,
    histograms, the flight-recorder capture, and the drift EWMA feed,
    bar <2%.
    """
    overhead = {}
    for op in ("update", "query"):
        base = metrics[f"end_to_end.{op}"]["ops_per_sec"]
        on = metrics[f"end_to_end.{op}{suffix}"]["ops_per_sec"]
        overhead[op] = (base / on - 1.0) * 100.0 if on > 0 else 0.0
    return overhead


def run(output: pathlib.Path = DEFAULT_OUTPUT) -> Dict:
    scale = bench_scale()
    iters = max(50, int(2000 * scale))
    metrics: Dict = {}
    bench_codec(metrics, iters)
    bench_kernels(metrics, iters)
    bench_buffer(metrics, max(10, iters // 10))
    bench_memo(metrics, iters)
    # End-to-end update/query plus the three-way observability A/B, all
    # from one chunk-interleaved paired run (see bench_obs_ab).
    e2e: Dict = {}
    bench_obs_ab(e2e)
    # Batched ingestion keeps a best-of-two scheme (plain obs only: the
    # obs A/B is owned by bench_obs_ab above).
    for _ in range(2):
        fresh: Dict = {}
        bench_batch(fresh)
        for name, m in fresh.items():
            if (
                name not in e2e
                or m["ops_per_sec"] > e2e[name]["ops_per_sec"]
            ):
                e2e[name] = m
    metrics.update(e2e)
    overhead_off = obs_overhead_pct(e2e, "_obs_off")
    overhead_metrics = obs_overhead_pct(e2e, "_obs_metrics")
    # Race-detector A/B: its own paired run with its own plain leg as
    # the baseline (the overheads must come from the same interleaved
    # process run), but only the suffixed legs are published — the
    # headline end_to_end.update/query stay owned by bench_obs_ab.
    rc: Dict = {}
    bench_racecheck_ab(rc)
    racecheck_off = obs_overhead_pct(rc, "_racecheck_off")
    racecheck_on = obs_overhead_pct(rc, "_racecheck")
    for name, m in rc.items():
        if name not in ("end_to_end.update", "end_to_end.query"):
            metrics[name] = m
    report = {
        "schema": SCHEMA,
        "scale": scale,
        "node_size": NODE_SIZE,
        "metrics": metrics,
        "obs_disabled_overhead_pct": overhead_off,
        "obs_metrics_overhead_pct": overhead_metrics,
        "racecheck_disabled_overhead_pct": racecheck_off,
        "racecheck_on_overhead_pct": racecheck_on,
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]['ops_per_sec']:12.1f} ops/s")
    for op, pct in sorted(overhead_off.items()):
        print(f"obs disabled overhead ({op}): {pct:+.2f}%")
    for op, pct in sorted(overhead_metrics.items()):
        print(f"obs metrics overhead ({op}): {pct:+.2f}%")
    for op, pct in sorted(racecheck_off.items()):
        print(f"racecheck detached overhead ({op}): {pct:+.2f}%")
    for op, pct in sorted(racecheck_on.items()):
        print(f"racecheck active overhead ({op}): {pct:+.2f}%")
    print(f"wrote {output}")
    return report


if __name__ == "__main__":
    run(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUTPUT)
