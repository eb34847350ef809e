"""bench_e2e: the end-to-end benchmark of the RUM-tree stack.

One run::

    python3 bench_e2e/run.py --workload update_heavy --seed 1 --seconds 10 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric and the span table (``--trace 1``) as ``name value unit`` lines,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits non-zero when any
op failed or any answer disagreed with the oracle.

The JSON ``metrics`` of an untraced run are the gated end-to-end
metrics (:data:`END_TO_END`, bounded in BENCHMARK.json).  The p99s and
the SLO rate (:data:`REPORTED`) swing by more than any allowed bound
between runs on a shared host, so they are printed, and repeated in an
``info`` JSON line, but not gated.

Repeat mode runs every workload N times, alternating the workload
order, and prints each metric's median, quartiles and spread against
its bound in BENCHMARK.json.  It exits non-zero when a gated metric's
spread exceeds its bound, and, with ``--against``, when a median got
worse by more than the bound; a metric whose spread exceeds the bound
in either set is reported as unresolved::

    python3 bench_e2e/run.py --repeat 10 --seconds 10 --out runs.json
    python3 bench_e2e/run.py --repeat 10 --seconds 10 --against runs.json

Run from the repository root; the index is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_path() -> None:
    """Import the index from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"bench_e2e: no index sources under {src}\n")
        sys.exit(2)
    sys.path[:0] = [src, ROOT]


#: Gated end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("update_p50_us", "us"),
    ("query_p50_us", "us"),
    ("knn_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("leaf_io_per_op", "accesses"),
    ("bytes_per_object", "B"),
    ("rss_mb", "MiB"),
    ("ok_frac", "ratio"),
]
#: End-to-end metrics printed with every untraced run but not gated.
REPORTED = [
    ("slo_rate_ops_s", "ops/s"),
    ("update_p99_us", "us"),
    ("query_p99_us", "us"),
    ("knn_p99_us", "us"),
]


def run_once(args: argparse.Namespace) -> int:
    _import_path()
    from bench_e2e import layers
    from bench_e2e.workloads import WORKLOADS, describe

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write(f"bench_e2e: unknown workload {args.workload!r}\n")
        return 2
    print(describe(wl, args.population), flush=True)
    if wl.leg == "inproc":
        from bench_e2e import inproc as leg
    else:
        from bench_e2e import serve as leg
    result = leg.run(wl, args.seed, args.seconds, bool(args.trace), args.population)

    for kind, n in sorted(result["counts"].items()):
        print(f"samples {kind} {n}")
    for name, value in sorted(result["checks"].items()):
        print(f"check {name} {value}")
    if args.trace:
        units = layers.UNITS
        values = result["layers"]
        for line in result["layer_table"]:
            print(line)
        print(f"note: {layers.DECODE_NOTE}")
    else:
        units = dict(END_TO_END)
        values = result["metrics"]
        for name, unit in REPORTED:
            print(f"{name} {values[name]:.6g} {unit}")
        info = {name: values[name] for name, _ in REPORTED}
        print(f"info {json.dumps(info)}")
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    valid = result.get("valid", True)
    if not valid:
        print(f"invalid run: {result['invalid_reason']}")
    correct = result["failed"] == 0 and valid
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


# -- repeat mode ---------------------------------------------------------------


def _spread(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def _compare(
    old: List[float], new: List[float], s: Dict[str, float], bound: Dict[str, Any]
) -> str:
    """Verdict on ``new`` against the earlier runs ``old``.

    Where either set's spread is wider than the bound, the metric is
    unresolved, unless every new run reads better than every old one.
    """
    base = _spread(old)
    change = (s["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    worse = change if bound["better"] == "lower" else -change
    text = f"vs-prev {change:+.3f}"
    if max(s["spread"], base["spread"]) > bound["bound"]:
        lower = bound["better"] == "lower"
        better = max(new) < min(old) if lower else min(new) > max(old)
        return text + (" better" if better else " unresolved")
    return text + (" WORSE" if worse > bound["bound"] else " ok")


def repeat(args: argparse.Namespace) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    reported = {name: None for name, _ in REPORTED}
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in names}
    ok = True
    for i in range(args.repeat):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.seed + i
            cmd = [
                sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                sys.stderr.write(f"{name} seed {seed} failed:\n{proc.stderr[-2000:]}\n")
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for line in lines:
                if line.startswith("info "):
                    values.update(json.loads(line[5:]))
            runs[name].append(values)
            print(f"run {i} {name} seed {seed} done", flush=True)
    previous = None
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)["runs"]
    print(f"{'workload':13s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in names:
        for metric, bound in {**bounds, **reported}.items():
            values = [r[metric] for r in runs[name] if metric in r]
            if not values:
                continue
            s = _spread(values)
            row = (
                f"{name:13s} {metric:18s} {s['median']:12.5g} {s['q1']:12.5g} "
                f"{s['q3']:12.5g} {s['spread']:7.3f}"
            )
            if bound is None:
                print(f"{row}      -  not gated")
                continue
            steady = s["spread"] <= bound["bound"]
            verdict = "ok" if steady else "SPREAD"
            ok = ok and steady
            old = [r[metric] for r in (previous or {}).get(name, []) if metric in r]
            if old:
                verdict += " " + _compare(old, values, s, bound)
                ok = ok and not verdict.endswith("WORSE")
            print(f"{row} {bound['bound']:6.2f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs}, f)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--population", type=int, default=20_000,
        help="objects indexed (tests use tiny populations)",
    )
    parser.add_argument("--repeat", type=int, default=0, help="repeat mode: runs per workload")
    parser.add_argument("--out", help="repeat mode: write the runs here")
    parser.add_argument("--against", help="repeat mode: compare with runs written earlier")
    args = parser.parse_args()
    if args.repeat:
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required outside repeat mode")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
