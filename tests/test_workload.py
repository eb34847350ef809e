"""Tests for the road network, moving-object generators, queries, traces."""

import hashlib
import math
import random

import pytest

from repro.rtree.geometry import Rect
from repro.workload.network import RoadNetwork
from repro.workload.objects import (
    NetworkMovingObjects,
    UniformMovingObjects,
    default_network_workload,
)
from repro.workload.queries import RangeQueryGenerator
from repro.workload.trace import (
    QueryOp,
    UpdateOp,
    mixed_trace,
    query_trace,
    ratio_to_fraction,
    update_trace,
)


class TestRoadNetwork:
    def test_grid_is_connected_and_in_unit_square(self):
        network = RoadNetwork.grid(side=8, seed=1)
        assert network.num_nodes() == 64
        for x, y in network.positions.values():
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_drop_fraction_removes_edges(self):
        full = RoadNetwork.grid(side=8, drop_fraction=0.0, seed=2)
        sparse = RoadNetwork.grid(side=8, drop_fraction=0.3, seed=2)
        assert sparse.num_edges() < full.num_edges()

    def test_point_on_edge_interpolates(self):
        network = RoadNetwork.grid(side=4, jitter=0.0, drop_fraction=0.0)
        u, v = next(iter(network.graph.edges()))
        length = network.edge_length(u, v)
        start = network.point_on_edge(u, v, 0.0)
        end = network.point_on_edge(u, v, length)
        assert start == pytest.approx(network.positions[u])
        assert end == pytest.approx(network.positions[v])
        mid = network.point_on_edge(u, v, length / 2)
        assert mid[0] == pytest.approx((start[0] + end[0]) / 2)

    def test_point_on_edge_clamps(self):
        network = RoadNetwork.grid(side=4)
        u, v = next(iter(network.graph.edges()))
        beyond = network.point_on_edge(u, v, 10.0)
        assert beyond == pytest.approx(network.positions[v])

    def test_random_position_on_some_edge(self):
        network = RoadNetwork.grid(side=6, seed=3)
        rng = random.Random(4)
        for _ in range(20):
            u, v, offset = network.random_position(rng)
            assert network.graph.has_edge(u, v)
            assert 0.0 <= offset <= network.edge_length(u, v) + 1e-12

    def test_default_workload_stream_is_pinned(self):
        """The default network's edge list, the 20k-object population
        and the first 5,000 walk-mode updates hash to a fixed digest, so
        any change to the graph's iteration order or the walk shows up
        here before it silently changes every experiment's input."""
        digest = hashlib.sha256()
        for u, v in RoadNetwork.grid().graph.edges():
            digest.update(f"{u},{v};".encode())
        workload = default_network_workload(
            20_000, moving_distance=0.01, seed=1
        )
        for oid, r in workload.initial():
            digest.update(repr((oid, r.xmin, r.ymin, r.xmax, r.ymax)).encode())
        for oid, old, new in workload.updates(5000):
            digest.update(repr((
                oid, old.xmin, old.ymin, old.xmax, old.ymax,
                new.xmin, new.ymin, new.xmax, new.ymax,
            )).encode())
        assert digest.hexdigest() == (
            "47e3b503bcb98140f5eda3db2ce2e06dacf07d0ff1e7a6b326834a40d1fb6169"
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RoadNetwork.grid(side=1)
        with pytest.raises(ValueError):
            RoadNetwork.grid(side=4, drop_fraction=1.0)


class TestNetworkMovingObjects:
    def test_initial_positions_on_network(self):
        workload = default_network_workload(50, seed=5)
        rects = dict(workload.initial())
        assert len(rects) == 50
        for rect in rects.values():
            assert rect.area() == 0.0  # points by default

    def test_round_robin_updates(self):
        workload = default_network_workload(10, seed=6)
        oids = [oid for oid, _old, _new in workload.updates(20)]
        assert oids == list(range(10)) * 2

    def test_moving_distance_respected(self):
        """Euclidean displacement never exceeds the network distance
        travelled (paths bend), and matches it on straight segments."""
        workload = default_network_workload(
            30, moving_distance=0.05, seed=7
        )
        for oid, old, new in workload.updates(90):
            dx = new.center()[0] - old.center()[0]
            dy = new.center()[1] - old.center()[1]
            assert math.hypot(dx, dy) <= 0.05 + 1e-9

    def test_zero_distance_is_stationary(self):
        workload = default_network_workload(5, moving_distance=0.0, seed=8)
        for _oid, old, new in workload.updates(10):
            assert old == new

    def test_extent_produces_squares(self):
        workload = default_network_workload(20, extent=0.01, seed=9)
        for _oid, rect in workload.initial():
            assert rect.width == pytest.approx(0.01)
            assert rect.height == pytest.approx(0.01)
            assert 0.0 <= rect.xmin and rect.xmax <= 1.0

    def test_determinism(self):
        a = default_network_workload(20, seed=10)
        b = default_network_workload(20, seed=10)
        assert list(a.updates(40)) == list(b.updates(40))

    def test_invalid_parameters(self):
        network = RoadNetwork.grid(side=4)
        with pytest.raises(ValueError):
            NetworkMovingObjects(network, 0)
        with pytest.raises(ValueError):
            NetworkMovingObjects(network, 5, moving_distance=-1)
        with pytest.raises(ValueError):
            NetworkMovingObjects(network, 5, extent=2.0)


class TestUniformMovingObjects:
    def test_walk_stays_in_unit_square(self):
        workload = UniformMovingObjects(20, moving_distance=0.3, seed=11)
        for _oid, _old, new in workload.updates(200):
            assert 0.0 <= new.xmin and new.xmax <= 1.0
            assert 0.0 <= new.ymin and new.ymax <= 1.0

    def test_step_length_exact(self):
        workload = UniformMovingObjects(10, moving_distance=0.05, seed=12)
        for _oid, old, new in workload.updates(30):
            (ox, oy), (nx, ny) = old.center(), new.center()
            # Reflection can shorten the apparent displacement, never
            # lengthen it.
            assert math.hypot(nx - ox, ny - oy) <= 0.05 + 1e-9

    def test_reflect(self):
        assert UniformMovingObjects._reflect(-0.2) == pytest.approx(0.2)
        assert UniformMovingObjects._reflect(1.3) == pytest.approx(0.7)
        assert UniformMovingObjects._reflect(0.5) == 0.5


class TestQueryGenerator:
    def test_windows_are_squares_inside_unit(self):
        generator = RangeQueryGenerator(side=0.05, seed=13)
        for window in generator.queries(100):
            assert window.width == pytest.approx(0.05)
            assert window.height == pytest.approx(0.05)
            assert 0.0 <= window.xmin and window.xmax <= 1.0

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            RangeQueryGenerator(side=0.0)
        with pytest.raises(ValueError):
            RangeQueryGenerator(side=1.5)

    def test_determinism(self):
        a = list(RangeQueryGenerator(seed=14).queries(10))
        b = list(RangeQueryGenerator(seed=14).queries(10))
        assert a == b


class TestTraces:
    def test_ratio_to_fraction(self):
        assert ratio_to_fraction(1, 1) == 0.5
        assert ratio_to_fraction(10000, 1) == pytest.approx(0.9999)
        assert ratio_to_fraction(1, 100) == pytest.approx(1 / 101)
        with pytest.raises(ValueError):
            ratio_to_fraction(0, 0)

    def test_mixed_trace_composition(self):
        objects = UniformMovingObjects(20, seed=15)
        queries = RangeQueryGenerator(seed=16)
        trace = mixed_trace(objects, queries, 100, 0.7, seed=17)
        updates = sum(1 for op in trace if isinstance(op, UpdateOp))
        assert len(trace) == 100
        assert updates == 70

    def test_mixed_trace_bounds(self):
        objects = UniformMovingObjects(5, seed=18)
        queries = RangeQueryGenerator(seed=19)
        assert all(
            isinstance(op, QueryOp)
            for op in mixed_trace(objects, queries, 10, 0.0)
        )
        assert all(
            isinstance(op, UpdateOp)
            for op in mixed_trace(objects, queries, 10, 1.0)
        )
        with pytest.raises(ValueError):
            mixed_trace(objects, queries, 10, 1.5)

    def test_update_and_query_traces(self):
        objects = UniformMovingObjects(5, seed=20)
        ops = list(update_trace(objects, 7))
        assert len(ops) == 7
        assert all(isinstance(op, UpdateOp) for op in ops)
        queries = list(query_trace(RangeQueryGenerator(seed=21), 4))
        assert len(queries) == 4
        assert all(isinstance(op, QueryOp) for op in queries)


class TestDestinationRouting:
    def test_route_mode_respects_distance(self):
        import math

        network = RoadNetwork.grid(side=8, seed=30)
        workload = NetworkMovingObjects(
            network, 20, moving_distance=0.05, seed=31, routing="route"
        )
        for _oid, old, new in workload.updates(200):
            dx = new.center()[0] - old.center()[0]
            dy = new.center()[1] - old.center()[1]
            assert math.hypot(dx, dy) <= 0.05 + 1e-9

    def test_route_mode_deterministic(self):
        network = RoadNetwork.grid(side=6, seed=32)
        a = NetworkMovingObjects(network, 10, seed=33, routing="route")
        b = NetworkMovingObjects(network, 10, seed=33, routing="route")
        assert list(a.updates(60)) == list(b.updates(60))

    def test_route_mode_travels_farther_than_walk(self):
        """Destination routing produces more directed long-range motion
        than an anti-U-turn random walk over many updates."""
        import math

        network = RoadNetwork.grid(side=10, seed=34)
        displacement = {}
        for mode in ("walk", "route"):
            workload = NetworkMovingObjects(
                network, 20, moving_distance=0.04, seed=35, routing=mode
            )
            start = {oid: workload.position(oid) for oid in range(20)}
            for _ in workload.updates(20 * 30):
                pass
            displacement[mode] = sum(
                math.hypot(
                    workload.position(oid)[0] - start[oid][0],
                    workload.position(oid)[1] - start[oid][1],
                )
                for oid in range(20)
            )
        # Not asserted strictly ordered (random walks meander), but both
        # modes must move the population materially.
        assert displacement["walk"] > 0.5
        assert displacement["route"] > 0.5

    def test_route_length_matches_networkx(self):
        """Route planning finds shortest paths: each planned route walks
        existing edges and is as long as networkx's Dijkstra says."""
        nx = pytest.importorskip("networkx")
        network = RoadNetwork.grid(side=10, seed=36)
        reference = nx.Graph()
        for u, v in network.graph.edges():
            reference.add_edge(u, v, length=network.edge_length(u, v))
        rng = random.Random(37)
        nodes = network.graph.nodes()
        for _ in range(50):
            source, target = rng.choice(nodes), rng.choice(nodes)
            path = network.graph.shortest_path(
                source, target, network.edge_length
            )
            assert path[0] == source and path[-1] == target
            assert all(
                network.graph.has_edge(a, b) for a, b in zip(path, path[1:])
            )
            length = sum(
                network.edge_length(a, b) for a, b in zip(path, path[1:])
            )
            assert length == pytest.approx(nx.shortest_path_length(
                reference, source, target, weight="length"
            ))

    def test_unknown_routing_rejected(self):
        network = RoadNetwork.grid(side=4)
        with pytest.raises(ValueError):
            NetworkMovingObjects(network, 5, routing="teleport")
