"""The per-layer table: self times and counts from recorded spans.

A span's self time is its duration minus the part of it its child
spans cover.  Children on the parent's own thread nest and never
overlap; children on fan-out pool threads may overlap each other, so
their coverage is the union of their intervals.  Every span is charged
to the request kind of its root (``bench.op`` in process,
``serving.server.handle`` or ``serving.client.request`` when serving).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import tracing as T

UPDATE, QUERY, KNN = 0, 1, 2

#: Every per-layer metric and its unit, in table order.
PER_LAYER: List[Tuple[str, str]] = [
    ("serving.client.rtt_us", "us"),
    ("serving.protocol.encode_us", "us"),
    ("serving.protocol.bytes_per_response", "B"),
    ("serving.server.handle_us", "us"),
    ("serving.server.wire_us", "us"),
    ("serving.router.upsert_us", "us"),
    ("serving.router.query_us", "us"),
    ("serving.router.knn_us", "us"),
    ("serving.router.latch_wait_us", "us/op"),
    ("serving.router.shards_per_query", "count"),
    ("serving.router.migrations_per_kupdate", "count"),
    ("serving.router.io_sleep_us", "us/op"),
    ("serving.router.io_wait_us", "us/op"),
    ("core.rum.update_us", "us"),
    ("core.rum.search_us", "us"),
    ("core.rum.knn_us", "us"),
    ("core.rum.garbage_ratio", "ratio"),
    ("core.memo.probes_per_update", "count"),
    ("core.memo.probes_per_query", "count"),
    ("core.memo.probe_us", "us"),
    ("core.memo.bytes", "B"),
    ("core.cleaner.sweeps_per_update", "count"),
    ("core.cleaner.useful_sweep_frac", "ratio"),
    ("core.cleaner.sweep_us", "us"),
    ("core.cleaner.entries_removed_per_kupdate", "count"),
    ("rtree.base.range_search_us", "us"),
    ("rtree.base.raw_per_result", "ratio"),
    ("rtree.base.iter_nearest_us", "us/knn"),
    ("rtree.mirror.builds_per_kquery", "count"),
    ("rtree.mirror.build_us", "us"),
    ("rtree.mirror.hit_frac", "ratio"),
    ("rtree.mirror.build_wall_frac", "ratio"),
    ("storage.buffer.get_node_per_op", "count"),
    ("storage.buffer.get_node_us", "us"),
    ("storage.codec.decodes_per_op", "count"),
    ("storage.codec.encodes_per_op", "count"),
    ("storage.codec.decode_us", "us"),
    ("storage.codec.encode_us", "us"),
    ("storage.iostats.leaf_reads_per_update", "count"),
    ("storage.iostats.leaf_writes_per_update", "count"),
    ("storage.iostats.leaf_reads_per_query", "count"),
    ("storage.wal.log_writes_per_update", "count"),
    ("storage.wal.append_us", "us"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.traced_throughput_ops_s", "ops/s"),
    ("bench.traced_self_frac", "ratio"),
]

UNITS = dict(PER_LAYER)

DECODE_NOTE = (
    "storage.codec.decode_us is a lower bound: leaves decode lazily and "
    "entries are materialised where first touched, which is charged to "
    "the caller"
)


class Spans:
    """One process's spans with derived self times and request kinds."""

    def __init__(self, names: List[str], a: Dict[str, np.ndarray]) -> None:
        self.names = names
        self.a = a
        self.dur = a["end"] - a["start"]
        self.self_ns = self.dur - self._covered()
        self.kind = self._root_kinds()

    def _covered(self) -> np.ndarray:
        a = self.a
        n = len(self.dur)
        parent = a["parent"]
        has = parent >= 0
        safe = np.where(has, parent, 0)
        same = has & (a["thread"][safe] == a["thread"])
        covered = np.bincount(
            parent[same], weights=self.dur[same], minlength=n
        ).astype(np.int64)[:n]
        cross: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for i in np.nonzero(has & ~same)[0]:
            cross[int(parent[i])].append((int(a["start"][i]), int(a["end"][i])))
        for p, intervals in cross.items():
            lo, hi = int(a["start"][p]), int(a["end"][p])
            total, reach = 0, lo
            for s, e in sorted(intervals):
                s, e = max(s, reach), min(e, hi)
                if e > s:
                    total += e - s
                    reach = e
            covered[p] += total
        return covered

    def _root_kinds(self) -> np.ndarray:
        parent = self.a["parent"]
        root = np.where(parent >= 0, parent, np.arange(len(parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        roots = {self.names.index(n) for n in (T.OP, T.HANDLE, T.CLIENT) if n in self.names}
        is_req = np.isin(self.a["name"][root], list(roots))
        return np.where(is_req, self.a["aux"][root], -1)

    def mask(self, name: str, kinds: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        m = self.a["name"] == self.names.index(name)
        if kinds is not None:
            m &= np.isin(self.kind, kinds)
        return m

    def count(self, name: str, kinds: Optional[Tuple[int, ...]] = None) -> int:
        return int(self.mask(name, kinds).sum())

    def self_sum_us(self, name: str) -> float:
        return float(self.self_ns[self.mask(name)].sum()) / 1e3

    def dur_sum_us(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum()) / 1e3

    def mean_self_us(self, name: str) -> float:
        n = self.count(name)
        return self.self_sum_us(name) / n if n else 0.0

    def mean_dur_us(self, name: str, kinds: Optional[Tuple[int, ...]] = None) -> float:
        m = self.mask(name, kinds)
        return float(self.dur[m].mean()) / 1e3 if m.any() else 0.0

    def aux_sum(self, name: str) -> int:
        return int(self.a["aux"][self.mask(name)].sum())

    def table(self, wall_s: float, ops: int) -> List[str]:
        """Human-readable rows: calls, calls/op, self us/call, wall share."""
        rows = [f"{'span':34s} {'calls':>9s} {'per_op':>8s} {'self_us':>9s} {'wall%':>6s}"]
        for nid, name in sorted(enumerate(self.names), key=lambda x: x[1]):
            m = self.a["name"] == nid
            calls = int(m.sum())
            if not calls:
                continue
            self_us = float(self.self_ns[m].sum()) / 1e3
            rows.append(
                f"{name:34s} {calls:9d} {calls / max(ops, 1):8.2f} "
                f"{self_us / calls:9.2f} {100 * self_us / 1e6 / wall_s:6.1f}"
            )
        return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: Spans,
    ops: Dict[int, int],
    wall_s: float,
    extra: Dict[str, float],
    client: Optional[Spans] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where a layer is not on the path).

    ``ops`` counts traced ops by kind; ``extra`` supplies the metrics
    that come from counters rather than spans.
    """
    n_up, n_q, n_k = ops.get(UPDATE, 0), ops.get(QUERY, 0), ops.get(KNN, 0)
    n_ops = n_up + n_q + n_k
    s = spans
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    reqs = (UPDATE, QUERY, KNN)
    if client is not None:
        m["serving.client.rtt_us"] = client.mean_dur_us(T.CLIENT, reqs)
        handle = s.mask(T.HANDLE, reqs)
        m["serving.server.handle_us"] = s.mean_dur_us(T.HANDLE, reqs)
        server_dur = dict(zip(s.a["req"][handle].tolist(), s.dur[handle].tolist()))
        cm = client.mask(T.CLIENT, reqs)
        wire = [
            d - server_dur[r]
            for r, d in zip(client.a["req"][cm].tolist(), client.dur[cm].tolist())
            if r in server_dur
        ]
        m["serving.server.wire_us"] = float(np.mean(wire)) / 1e3 if wire else 0.0
    m["serving.protocol.encode_us"] = s.mean_self_us(T.ENCODE)
    m["serving.protocol.bytes_per_response"] = _ratio(s.aux_sum(T.ENCODE), s.count(T.ENCODE))
    m["serving.router.upsert_us"] = s.mean_self_us(T.ROUTER_UPSERT)
    m["serving.router.query_us"] = s.mean_self_us(T.ROUTER_QUERY)
    m["serving.router.knn_us"] = s.mean_self_us(T.ROUTER_KNN)
    m["serving.router.latch_wait_us"] = _ratio(s.dur_sum_us(T.LATCH_WAIT), n_ops)
    n_router_q = s.count(T.ROUTER_QUERY)
    m["serving.router.shards_per_query"] = _ratio(
        s.count(T.RANGE_SEARCH, (QUERY,)), n_router_q
    )
    m["serving.router.io_sleep_us"] = _ratio(s.dur_sum_us(T.IO_SLEEP), n_ops)
    m["serving.router.io_wait_us"] = _ratio(s.dur_sum_us(T.IO_WAIT), n_ops)
    m["core.rum.update_us"] = s.mean_self_us(T.RUM_UPDATE)
    m["core.rum.search_us"] = s.mean_self_us(T.RUM_SEARCH)
    m["core.rum.knn_us"] = s.mean_self_us(T.RUM_KNN)
    m["core.memo.probes_per_update"] = _ratio(s.count(T.PROBE, (UPDATE,)), n_up)
    m["core.memo.probes_per_query"] = _ratio(
        s.count(T.PROBE, (QUERY, KNN)), n_q + n_k
    )
    m["core.memo.probe_us"] = s.mean_self_us(T.PROBE)
    sweeps = s.mask(T.SWEEP)
    m["core.cleaner.sweeps_per_update"] = _ratio(s.count(T.SWEEP, (UPDATE,)), n_up)
    m["core.cleaner.useful_sweep_frac"] = _ratio(
        int((s.a["aux"][sweeps] > 0).sum()), int(sweeps.sum())
    )
    m["core.cleaner.sweep_us"] = s.mean_self_us(T.SWEEP)
    m["rtree.base.range_search_us"] = s.mean_self_us(T.RANGE_SEARCH)
    live = s.aux_sum(T.RUM_SEARCH) + s.aux_sum(T.ROUTER_QUERY)
    m["rtree.base.raw_per_result"] = _ratio(s.aux_sum(T.RANGE_SEARCH), live)
    m["rtree.base.iter_nearest_us"] = _ratio(s.self_sum_us(T.ITER_NEAREST), n_k)
    builds = s.count(T.MIRROR_BUILD)
    m["rtree.mirror.builds_per_kquery"] = _ratio(1000.0 * builds, n_q)
    m["rtree.mirror.build_us"] = _ratio(s.dur_sum_us(T.MIRROR_BUILD), builds)
    m["rtree.mirror.hit_frac"] = _ratio(
        s.count(T.MIRROR_SEARCH), s.count(T.RANGE_SEARCH)
    )
    m["rtree.mirror.build_wall_frac"] = _ratio(
        s.dur_sum_us(T.MIRROR_BUILD) / 1e6, wall_s
    )
    m["storage.buffer.get_node_per_op"] = _ratio(s.count(T.GET_NODE), n_ops)
    m["storage.buffer.get_node_us"] = s.mean_self_us(T.GET_NODE)
    m["storage.codec.decodes_per_op"] = _ratio(s.count(T.DECODE), n_ops)
    m["storage.codec.encodes_per_op"] = _ratio(s.count(T.ENCODE_PAGE), n_ops)
    m["storage.codec.decode_us"] = s.mean_self_us(T.DECODE)
    m["storage.codec.encode_us"] = s.mean_self_us(T.ENCODE_PAGE)
    m["storage.wal.append_us"] = s.mean_self_us(T.WAL_APPEND)
    m["bench.traced_self_frac"] = _ratio(float(s.self_ns.sum()) / 1e9, wall_s)
    for name, value in extra.items():
        m[name] = value
    return m
