"""Synthetic road network — the substitute for the paper's LA road map.

The paper generates moving objects with the Network-based Generator of
Moving Objects (Brinkhoff [2]) over the Los Angeles road map normalised to
the unit square.  That map is not redistributable, so we synthesise a road
network with the same structural features the workload actually exercises:

* an irregular planar graph covering the unit square (perturbed grid with a
  fraction of edges removed),
* spatial skew (node positions jittered, optional density hot-spots),
* objects constrained to move along edges (see
  :mod:`repro.workload.objects`).

The experiments only depend on *where objects can be* (network-induced
skew) and *how far they move between updates* (an explicit generator
parameter), both of which this substitute preserves — see DESIGN.md.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from itertools import count
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple

Point = Tuple[float, float]


class RoadGraph:
    """A minimal undirected graph: an insertion-ordered adjacency dict.

    Node order, neighbour order and :meth:`edges` order follow insertion
    exactly as ``networkx.Graph`` does (a re-added edge moves to the end
    of both endpoints' neighbour lists), so a network built here yields
    the same workload streams as one built on ``networkx.Graph``.
    """

    def __init__(self) -> None:
        self._adj: Dict[int, Dict[int, None]] = {}

    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, u: int, v: int) -> None:
        self._adj.setdefault(u, {})[v] = None
        self._adj.setdefault(v, {})[u] = None

    def remove_edge(self, u: int, v: int) -> None:
        del self._adj[u][v]
        del self._adj[v][u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def nodes(self) -> List[int]:
        return list(self._adj)

    def neighbors(self, node: int) -> Iterator[int]:
        return iter(self._adj[node])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each edge once, as ``(u, v)`` with ``u`` the endpoint first in
        node order."""
        seen: Set[int] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield u, v
            seen.add(u)

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def reachable(self, source: int) -> Set[int]:
        """Every node connected to ``source`` (breadth-first)."""
        seen = {source}
        frontier = deque([source])
        while frontier:
            for v in self._adj[frontier.popleft()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    def is_connected(self) -> bool:
        """True if every node is reachable from every other (the graph
        must have at least one node)."""
        return len(self.reachable(next(iter(self._adj)))) == len(self._adj)

    def shortest_path(
        self, source: int, target: int, weight: Callable[[int, int], float]
    ) -> List[int]:
        """Dijkstra path from ``source`` to ``target``.

        Ties resolve as in ``networkx.dijkstra_path``: the frontier is
        ordered by (distance, push order), and a node keeps the first
        predecessor that reached its final distance.
        """
        dist: Dict[int, float] = {}
        best = {source: 0.0}
        pred: Dict[int, int] = {}
        tie = count()
        frontier = [(0.0, next(tie), source)]
        while frontier:
            d, _, u = heapq.heappop(frontier)
            if u in dist:
                continue
            dist[u] = d
            if u == target:
                break
            for v in self._adj[u]:
                if v in dist:
                    continue
                dv = d + weight(u, v)
                if v not in best or dv < best[v]:
                    best[v] = dv
                    pred[v] = u
                    heapq.heappush(frontier, (dv, next(tie), v))
        if target not in dist:
            raise ValueError(f"no path from {source} to {target}")
        path = [target]
        while path[-1] != source:
            path.append(pred[path[-1]])
        path.reverse()
        return path


class RoadNetwork:
    """An undirected road graph embedded in the unit square.

    Nodes are integer ids with positions; edges carry their Euclidean
    length.  The graph is guaranteed connected.
    """

    def __init__(self, graph: RoadGraph, positions: Dict[int, Point]):
        if graph.number_of_edges() == 0:
            raise ValueError("road network needs at least one edge")
        if not graph.is_connected():
            raise ValueError("road network must be connected")
        self.graph = graph
        self.positions = positions
        self._edges: List[Tuple[int, int]] = list(graph.edges())
        self._edge_lengths = [self.edge_length(u, v) for u, v in self._edges]
        total = sum(self._edge_lengths)
        self._edge_weights = [length / total for length in self._edge_lengths]

    # -- construction ----------------------------------------------------------

    @classmethod
    def grid(
        cls,
        side: int = 16,
        jitter: float = 0.3,
        drop_fraction: float = 0.15,
        seed: int = 7,
    ) -> "RoadNetwork":
        """A perturbed-grid road network.

        ``side`` x ``side`` intersections on a regular lattice, each node
        displaced by up to ``jitter`` of the cell size, with
        ``drop_fraction`` of the edges removed (never disconnecting the
        graph), which produces the irregular block structure of a real
        city map.
        """
        if side < 2:
            raise ValueError("grid side must be at least 2")
        if not 0.0 <= drop_fraction < 1.0:
            raise ValueError("drop_fraction must be in [0, 1)")
        rng = random.Random(seed)
        cell = 1.0 / (side - 1)
        graph = RoadGraph()
        positions: Dict[int, Point] = {}
        for row in range(side):
            for col in range(side):
                node = row * side + col
                x = col * cell + rng.uniform(-jitter, jitter) * cell
                y = row * cell + rng.uniform(-jitter, jitter) * cell
                positions[node] = (min(max(x, 0.0), 1.0),
                                   min(max(y, 0.0), 1.0))
                graph.add_node(node)
        for row in range(side):
            for col in range(side):
                node = row * side + col
                if col + 1 < side:
                    graph.add_edge(node, node + 1)
                if row + 1 < side:
                    graph.add_edge(node, node + side)

        # Remove a sample of edges without disconnecting the network.
        removable = list(graph.edges())
        rng.shuffle(removable)
        to_drop = int(len(removable) * drop_fraction)
        dropped = 0
        for u, v in removable:
            if dropped >= to_drop:
                break
            graph.remove_edge(u, v)
            if v in graph.reachable(u):
                dropped += 1
            else:
                graph.add_edge(u, v)
        return cls(graph, positions)

    # -- geometry ----------------------------------------------------------------

    def edge_length(self, u: int, v: int) -> float:
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x2 - x1, y2 - y1)

    def point_on_edge(self, u: int, v: int, offset: float) -> Point:
        """The point ``offset`` along edge ``(u, v)`` from ``u`` (clamped)."""
        length = self.edge_length(u, v)
        t = 0.0 if length == 0 else min(max(offset / length, 0.0), 1.0)
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return (x1 + (x2 - x1) * t, y1 + (y2 - y1) * t)

    # -- sampling -----------------------------------------------------------------

    def random_edge(self, rng: random.Random) -> Tuple[int, int]:
        """An edge sampled proportionally to its length (uniform coverage
        of the road space, as Brinkhoff's generator does)."""
        return rng.choices(self._edges, weights=self._edge_weights, k=1)[0]

    def random_position(self, rng: random.Random) -> Tuple[int, int, float]:
        """A uniformly random network position ``(u, v, offset)``."""
        u, v = self.random_edge(rng)
        return u, v, rng.uniform(0.0, self.edge_length(u, v))

    def neighbors(self, node: int) -> Sequence[int]:
        return list(self.graph.neighbors(node))

    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def total_length(self) -> float:
        return sum(self._edge_lengths)
