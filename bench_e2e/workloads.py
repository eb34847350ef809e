"""Workload definitions and the seeded op generator.

Every workload runs Brinkhoff network movers (moving distance 0.01,
point objects) against 0.01-side range queries, the paper's Table 1
defaults, over 20,000 objects on 2 KiB nodes (a 3-level tree).  The
benchmark generates every op from ``--seed``; the index only ever sees
the generated ops.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.rtree.geometry import Rect
from repro.workload.objects import default_network_workload

POPULATION = 20_000
NODE_SIZE = 2048
MOVING_DISTANCE = 0.01
QUERY_SIDE = 0.01
KNN_K = 8
#: Serve legs: Z-order shards behind the server, and client connections.
SHARDS = 4
CONNECTIONS = 2

UPDATE, RANGE, KNN = 0, 1, 2
#: Updates per block of the op-kind sequence (see OpStream._block).
GAPS_PER_BLOCK = 200
KINDS = ("update", "query", "knn")

#: One generated op: ``(UPDATE, oid, rect)``, ``(RANGE, window)`` or
#: ``(KNN, x, y, k)``.
Op = Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    leg: str  # "inproc" (bare RUMTree) or "serve" (ShardServer over TCP)
    mix: Tuple[float, float, float]  # update, range, kNN fractions
    #: p99 latency limit every op type must meet at an offered rate.
    limit_ms: float
    #: Fixed offered rates (ops/s) of the SLO ladder.
    rates: Tuple[float, ...]
    #: serve legs: the ladder rate whose latencies are reported.
    nominal_rate: Optional[float] = None
    io_latency: float = 0.0


#: In-process SLO ladder: 100 ops/s * 1.05^k.  The single caller is a
#: FIFO server whose service times do not depend on arrival times, so
#: the open-loop latency at each rate follows exactly from the measured
#: service times (Lindley's recursion); a fine ladder costs nothing.
INPROC_RATES = tuple(round(100.0 * 1.05 ** k, 1) for k in range(120))

WORKLOADS = {
    "update_heavy": Workload(
        name="update_heavy",
        leg="inproc",
        mix=(0.90, 0.08, 0.02),
        limit_ms=5.0,
        rates=INPROC_RATES,
    ),
    "read_heavy": Workload(
        name="read_heavy",
        leg="inproc",
        mix=(0.10, 0.80, 0.10),
        limit_ms=250.0,
        rates=INPROC_RATES,
    ),
    "serve_cpu": Workload(
        name="serve_cpu",
        leg="serve",
        mix=(0.50, 0.45, 0.05),
        limit_ms=50.0,
        rates=(400.0, 800.0, 1200.0),
        nominal_rate=800.0,
        io_latency=0.0,
    ),
    "serve_disk": Workload(
        name="serve_disk",
        leg="serve",
        mix=(0.50, 0.45, 0.05),
        limit_ms=100.0,
        rates=(150.0, 300.0, 450.0),
        nominal_rate=300.0,
        io_latency=0.0008,
    ),
}


def describe(wl: Workload, population: int) -> str:
    """The run's configuration, printed with every run."""
    update, rng, knn = wl.mix
    parts = [
        f"workload {wl.name}",
        f"mix update={update:g} range={rng:g} knn={knn:g} (k={KNN_K})",
        f"population={population} node_size={NODE_SIZE}",
        f"moving_distance={MOVING_DISTANCE} query_side={QUERY_SIDE} "
        "(centred on a random object)",
    ]
    if wl.leg == "inproc":
        parts.append(
            "stack=RUMTree in process, 1 caller closed loop, no WAL, "
            "io_model=counted leaf accesses only"
        )
    else:
        parts.append(
            f"stack=ShardServer process, shards={SHARDS}, "
            f"connections={CONNECTIONS}, flush=option III "
            f"(every memo change force-logged), io_latency={wl.io_latency}s "
            f"per leaf access, nominal_rate={wl.nominal_rate:g}"
        )
    rates = (
        f"{wl.rates[0]:g}..{wl.rates[-1]:g} ops/s x1.05 ladder (Lindley)"
        if wl.leg == "inproc"
        else "/".join(f"{r:g}" for r in wl.rates) + " ops/s"
    )
    parts.append(f"offered_rates={rates} p99_limit_ms={wl.limit_ms:g}")
    parts.append(f"nproc={os.cpu_count()}")
    return "; ".join(parts)


class OpStream:
    """The seeded op sequence of one run, produced in chunks.

    ``movers`` holds each object's trajectory; every update advances
    the next object round-robin by the moving distance, so the same
    seed always yields the same ops in the same order.
    """

    def __init__(
        self, workload: Workload, seed: int, population: int = POPULATION
    ) -> None:
        self.mix = workload.mix
        self.movers = default_network_workload(
            population, moving_distance=MOVING_DISTANCE, seed=seed
        )
        self.rng = random.Random(seed * 104729 + 3)
        self.n_objects = population
        self._kinds: List[int] = []

    def population(self) -> List[Tuple[int, Rect]]:
        return list(self.movers.initial())

    def _block(self) -> List[int]:
        """The op kinds of one block of :data:`GAPS_PER_BLOCK` updates.

        The numbers of queries between consecutive updates are the
        block's quantiles of the geometric distribution an independent
        per-op draw would give, in seeded order, and the kNN share of
        the queries is exact.  Every block so has the same mix and the
        same query-streak lengths (which decide when the query mirror
        is built); only their order depends on the seed.
        """
        p_update, p_range, p_knn = self.mix
        gaps = [
            int(math.log(1.0 - (j + 0.5) / GAPS_PER_BLOCK) / math.log(1.0 - p_update))
            for j in range(GAPS_PER_BLOCK)
        ]
        self.rng.shuffle(gaps)
        n_queries = sum(gaps)
        n_knn = round(n_queries * p_knn / (p_range + p_knn))
        knn = set(self.rng.sample(range(n_queries), n_knn))
        kinds: List[int] = []
        q = 0
        for gap in gaps:
            kinds.append(UPDATE)
            for _ in range(gap):
                kinds.append(KNN if q in knn else RANGE)
                q += 1
        return kinds

    def _window(self) -> Rect:
        """A query square centred on a random object's current position.

        Uniform windows over the road network land on empty space about
        half the time; on the disk leg such a query reads no leaf, so
        query latency would split into two modes with the median
        between them.  Centring on an object makes every query read.
        """
        x, y = self.movers.position(self.rng.randrange(self.n_objects))
        lo = 1.0 - QUERY_SIDE
        x = min(max(x - QUERY_SIDE / 2, 0.0), lo)
        y = min(max(y - QUERY_SIDE / 2, 0.0), lo)
        return Rect(x, y, x + QUERY_SIDE, y + QUERY_SIDE)

    def take(self, n: int) -> List[Op]:
        rng = self.rng
        ops: List[Op] = []
        for _ in range(n):
            if not self._kinds:
                self._kinds = self._block()[::-1]
            kind = self._kinds.pop()
            if kind == UPDATE:
                oid, _old, new = self.movers.next_update()
                ops.append((UPDATE, oid, new))
            elif kind == RANGE:
                ops.append((RANGE, self._window()))
            else:
                ops.append((KNN, rng.random(), rng.random(), KNN_K))
        return ops
