"""Tiny-scale tests of the benchmark itself.

Run with ``python3 -m pytest bench_e2e/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bench_e2e import inproc, layers
from bench_e2e import tracing as T
from bench_e2e.oracle import Oracle
from bench_e2e import measure
from bench_e2e.measure import REFERENCE_NS
from bench_e2e.run import END_TO_END, REPORTED, _compare, _spread
from bench_e2e.workloads import WORKLOADS
from repro.rtree.geometry import Rect

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY = ["--population", "400", "--seconds", "0.6"]


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", workload,
         "--seed", "3", "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = dict(END_TO_END) if trace == 0 else layers.UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {**expected, **dict(REPORTED)} if trace == 0 else expected
    for name, unit in printed.items():
        assert any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}")
            for line in lines
        ), name
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
        assert set(info) == {name for name, _ in REPORTED}
        assert all(value > 0 for value in info.values())


def test_serve_io_sleep_only_with_the_disk_model():
    sleeps = {}
    for workload in ("serve_cpu", "serve_disk"):
        result = json.loads(_run(workload, 1).stdout.strip().splitlines()[-1])
        sleeps[workload] = result["metrics"]["serving.router.io_sleep_us"]["value"]
    assert sleeps["serve_cpu"] == 0.0
    assert sleeps["serve_disk"] > 0.0


def test_oracle_flags_a_dropped_result(monkeypatch):
    real_build = inproc.build

    def build_dropping(population, pause):
        tree = real_build(population, pause)
        search = tree.search

        def drop_one(window):
            answer = search(window)
            return answer[:-1]

        tree.search = drop_one
        return tree

    monkeypatch.setattr(inproc, "build", build_dropping)
    result = inproc.run(WORKLOADS["read_heavy"], 5, 0.3, False, 300)
    assert result["checks"]["wrong_answers"] > 0
    assert result["checks"]["final_mismatches"] > 0
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"] < 1.0


def test_oracle_brute_force():
    oracle = Oracle([(0, Rect(0.1, 0.1, 0.1, 0.1)), (1, Rect(0.5, 0.5, 0.5, 0.5))])
    window = Rect(0.0, 0.0, 0.2, 0.2)
    assert oracle.range_ok(window, [(0, Rect(0.1, 0.1, 0.1, 0.1))])
    assert not oracle.range_ok(window, [])
    assert oracle.knn_ok(0.45, 0.45, 1, [(1, Rect(0.5, 0.5, 0.5, 0.5))])
    assert not oracle.knn_ok(0.45, 0.45, 1, [(0, Rect(0.1, 0.1, 0.1, 0.1))])
    oracle.update(1, Rect(0.15, 0.15, 0.15, 0.15))
    assert oracle.final_mismatches({0: Rect(0.1, 0.1, 0.1, 0.1), 1: Rect(0.5, 0.5, 0.5, 0.5)}) == 1


def test_traced_self_times_sum_to_traced_wall_time():
    result = inproc.run(WORKLOADS["update_heavy"], 7, 0.5, True, 400)
    assert 0.9 <= result["layers"]["bench.traced_self_frac"] <= 1.0
    assert result["layers"]["rtree.mirror.builds_per_kquery"] == 0.0


def test_self_time_subtracts_nested_and_overlapping_children():
    # Span 0 [0, 100] on thread 0; span 1 [10, 30] nested on thread 0;
    # spans 2 [40, 80] and 3 [60, 90] on pool threads, overlapping.
    names = [T.OP, T.PROBE]
    arrays = {
        "name": np.array([0, 1, 1, 1]),
        "start": np.array([0, 10, 40, 60]),
        "end": np.array([100, 30, 80, 90]),
        "parent": np.array([-1, 0, 0, 0]),
        "req": np.zeros(4, dtype=np.int64),
        "thread": np.array([0, 0, 1, 2]),
        "aux": np.array([layers.UPDATE, 0, 0, 0]),
    }
    spans = layers.Spans(names, arrays)
    assert spans.self_ns.tolist() == [100 - 20 - 50, 20, 40, 30]
    assert spans.kind.tolist() == [layers.UPDATE] * 4


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_host_speed_factor_is_reference_over_mean_of_bracketing_passes(monkeypatch):
    passes = iter([2 * REFERENCE_NS, REFERENCE_NS, REFERENCE_NS // 2])
    monkeypatch.setattr(measure, "reference_ns", lambda: next(passes))
    speed = measure.HostSpeed()
    assert speed.factor() == pytest.approx(2 / 3)
    assert speed.factor() == pytest.approx(4 / 3)


def test_repeat_verdicts():
    bound = {"bound": 0.25, "better": "lower"}
    steady = [100.0, 101.0, 99.0, 100.0, 102.0]
    slower = [140.0, 141.0, 139.0, 140.0, 142.0]
    assert _compare(steady, slower, _spread(slower), bound).endswith("WORSE")
    assert _compare(steady, steady, _spread(steady), bound).endswith(" ok")
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert _compare(steady, noisy, _spread(noisy), bound).endswith("unresolved")
    faster = [40.0, 80.0, 60.0, 45.0, 75.0]
    assert _compare(steady, faster, _spread(faster), bound).endswith("better")
