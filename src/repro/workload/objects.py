"""Moving-object generators.

Two generators produce the update workloads of Section 5:

* :class:`NetworkMovingObjects` — objects move along the edges of a road
  network (the Brinkhoff-style generator the paper uses).  Each update
  advances an object by the configured **moving distance** — the paper's
  primary workload knob (Figure 12 sweeps it from 0 to 0.16).
* :class:`UniformMovingObjects` — a network-free random walk in the unit
  square, used by tests and ablations where network skew is irrelevant.

Both expose the same protocol: ``initial()`` yields ``(oid, rect)`` for
every object, and ``next_update()`` produces ``(oid, old_rect, new_rect)``
round-robin over the population ("each object issues an update
periodically", Section 5).  Objects can be squares of a configurable
**extent** (Figure 13) rather than points.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.rtree.geometry import Rect

from .network import RoadNetwork


def _object_rect(x: float, y: float, extent: float) -> Rect:
    """The square of side ``extent`` centred on the (clamped) position."""
    half = extent / 2.0
    cx = min(max(x, half), 1.0 - half) if extent < 1.0 else 0.5
    cy = min(max(y, half), 1.0 - half) if extent < 1.0 else 0.5
    return Rect.from_center(cx, cy, extent)


class _ObjectState:
    """Network position of one object: travelling from ``u`` towards ``v``,
    ``offset`` units along the edge."""

    __slots__ = ("u", "v", "offset")

    def __init__(self, u: int, v: int, offset: float):
        self.u = u
        self.v = v
        self.offset = offset


class NetworkMovingObjects:
    """Objects moving along a road network (Brinkhoff-style).

    Parameters
    ----------
    network:
        The road network to move on.
    num_objects:
        Population size (the paper uses 2M–20M; scaled down here).
    moving_distance:
        Distance travelled between two consecutive updates of the same
        object (Table 1: default 0.01, swept 0–0.16).
    extent:
        Side length of the square objects (Table 1: default 0, i.e.
        points, swept up to 0.01).
    seed:
        Reproducibility seed.
    routing:
        ``"walk"`` — turn randomly at intersections (avoiding U-turns),
        or ``"route"`` — Brinkhoff's destination-based movement: each
        object follows a shortest path to a random destination node and
        picks a new destination on arrival.  Both produce the same
        per-update moving distance; routing only changes the long-term
        shape of trajectories.
    """

    def __init__(
        self,
        network: RoadNetwork,
        num_objects: int,
        moving_distance: float = 0.01,
        extent: float = 0.0,
        seed: int = 1,
        routing: str = "walk",
    ):
        if num_objects <= 0:
            raise ValueError("num_objects must be positive")
        if moving_distance < 0:
            raise ValueError("moving_distance must be non-negative")
        if not 0.0 <= extent <= 1.0:
            raise ValueError("extent must be within [0, 1]")
        if routing not in ("walk", "route"):
            raise ValueError(f"unknown routing mode {routing!r}")
        self.network = network
        self.num_objects = num_objects
        self.moving_distance = moving_distance
        self.extent = extent
        self.routing = routing
        self.rng = random.Random(seed)
        self._states: Dict[int, _ObjectState] = {}
        #: oid -> remaining node path towards the destination (route mode).
        self._routes: Dict[int, List[int]] = {}
        self._round_robin = 0
        for oid in range(num_objects):
            u, v, offset = network.random_position(self.rng)
            self._states[oid] = _ObjectState(u, v, offset)

    # -- positions ---------------------------------------------------------------

    def position(self, oid: int) -> Tuple[float, float]:
        state = self._states[oid]
        return self.network.point_on_edge(state.u, state.v, state.offset)

    def rect(self, oid: int) -> Rect:
        x, y = self.position(oid)
        return _object_rect(x, y, self.extent)

    def initial(self) -> Iterator[Tuple[int, Rect]]:
        """Initial ``(oid, rect)`` pairs for loading the index."""
        for oid in range(self.num_objects):
            yield oid, self.rect(oid)

    # -- movement -----------------------------------------------------------------

    def _next_hop(self, oid: int, arrived: int, came_from: int) -> int:
        """Pick the next node after reaching ``arrived``."""
        if self.routing == "route":
            route = self._routes.get(oid)
            if not route:
                route = self._plan_route(arrived)
                self._routes[oid] = route
            if route and route[0] == arrived:
                route.pop(0)
            if route:
                return route.pop(0)
            # Destination reached exactly here: plan afresh next time.
            self._routes.pop(oid, None)
        options = [
            n for n in self.network.neighbors(arrived) if n != came_from
        ]
        if not options:
            options = [came_from]  # dead end: turn around
        return self.rng.choice(options)

    def _plan_route(self, origin: int) -> List[int]:
        """Shortest path to a freshly drawn destination (Brinkhoff's
        destination-based movement)."""
        nodes = self.network.graph.nodes()
        for _ in range(8):
            destination = self.rng.choice(nodes)
            if destination != origin:
                break
        else:
            return []
        return self.network.graph.shortest_path(
            origin, destination, self.network.edge_length
        )

    def _advance(self, state: _ObjectState, distance: float,
                 oid: int = -1) -> None:
        """Move along the current edge, continuing at intersections.

        In ``walk`` mode the object picks a random outgoing edge, avoiding
        an immediate U-turn when any alternative exists; in ``route`` mode
        it follows its planned shortest path.
        """
        remaining = distance
        guard = 64  # pathological zero-length edges cannot stall us
        while remaining > 0 and guard > 0:
            guard -= 1
            edge_length = self.network.edge_length(state.u, state.v)
            room = edge_length - state.offset
            if remaining <= room:
                state.offset += remaining
                return
            remaining -= room
            arrived = state.v
            state.v = self._next_hop(oid, arrived, state.u)
            state.u = arrived
            state.offset = 0.0

    def next_update(self) -> Tuple[int, Rect, Rect]:
        """Advance the next object round-robin by one moving distance."""
        oid = self._round_robin
        self._round_robin = (self._round_robin + 1) % self.num_objects
        old_rect = self.rect(oid)
        self._advance(self._states[oid], self.moving_distance, oid=oid)
        return oid, old_rect, self.rect(oid)

    def updates(self, count: int) -> Iterator[Tuple[int, Rect, Rect]]:
        """A stream of ``count`` updates."""
        for _ in range(count):
            yield self.next_update()


class UniformMovingObjects:
    """A network-free random walk in the unit square (tests/ablations).

    Each update moves the object by exactly ``moving_distance`` in a
    uniformly random direction, reflecting at the data-space borders.
    """

    def __init__(
        self,
        num_objects: int,
        moving_distance: float = 0.01,
        extent: float = 0.0,
        seed: int = 1,
    ):
        if num_objects <= 0:
            raise ValueError("num_objects must be positive")
        self.num_objects = num_objects
        self.moving_distance = moving_distance
        self.extent = extent
        self.rng = random.Random(seed)
        self._positions: List[Tuple[float, float]] = [
            (self.rng.random(), self.rng.random())
            for _ in range(num_objects)
        ]
        self._round_robin = 0

    def position(self, oid: int) -> Tuple[float, float]:
        return self._positions[oid]

    def rect(self, oid: int) -> Rect:
        x, y = self._positions[oid]
        return _object_rect(x, y, self.extent)

    def initial(self) -> Iterator[Tuple[int, Rect]]:
        for oid in range(self.num_objects):
            yield oid, self.rect(oid)

    @staticmethod
    def _reflect(value: float) -> float:
        while not 0.0 <= value <= 1.0:
            if value < 0.0:
                value = -value
            elif value > 1.0:
                value = 2.0 - value
        return value

    def next_update(self) -> Tuple[int, Rect, Rect]:
        oid = self._round_robin
        self._round_robin = (self._round_robin + 1) % self.num_objects
        old_rect = self.rect(oid)
        x, y = self._positions[oid]
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        x = self._reflect(x + self.moving_distance * math.cos(angle))
        y = self._reflect(y + self.moving_distance * math.sin(angle))
        self._positions[oid] = (x, y)
        return oid, old_rect, self.rect(oid)

    def updates(self, count: int) -> Iterator[Tuple[int, Rect, Rect]]:
        for _ in range(count):
            yield self.next_update()


def default_network_workload(
    num_objects: int,
    moving_distance: float = 0.01,
    extent: float = 0.0,
    seed: int = 1,
    network: Optional[RoadNetwork] = None,
) -> NetworkMovingObjects:
    """The experiments' standard workload on the shared default network."""
    if network is None:
        network = RoadNetwork.grid()
    return NetworkMovingObjects(
        network,
        num_objects,
        moving_distance=moving_distance,
        extent=extent,
        seed=seed,
    )
