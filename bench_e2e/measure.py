"""Latency summaries, the SLO ladder, the host-speed probe and the
process's own resources."""

from __future__ import annotations

import resource
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def p50_p99_us(samples_ns: np.ndarray) -> Tuple[float, float]:
    if len(samples_ns) == 0:
        return 0.0, 0.0
    p50, p99 = np.percentile(samples_ns, (50, 99))
    return float(p50) / 1e3, float(p99) / 1e3


def meets_limit(
    response_s: np.ndarray, kinds: np.ndarray, limit_s: float
) -> bool:
    """Every op type's p99 is within ``limit_s`` and the backlog is not
    growing: the median response of the last tenth of ops is within the
    limit too."""
    if len(response_s) == 0:
        return False
    for kind in np.unique(kinds):
        if np.percentile(response_s[kinds == kind], 99) > limit_s:
            return False
    tail = response_s[len(response_s) - max(1, len(response_s) // 10):]
    return bool(np.median(tail) <= limit_s)


def lindley_slo_rate(
    service_ns: np.ndarray,
    kinds: np.ndarray,
    rates: Sequence[float],
    limit_s: float,
) -> float:
    """Highest ladder rate a single FIFO caller sustains within the limit.

    Arrivals are evenly spaced at each rate; service times are the ones
    measured in trace order.  Rates at or above the measured capacity
    never qualify.  ``finish_i = max(arrival_i, finish_{i-1})
    + service_i``, computed in closed form with a running maximum.
    """
    s = service_ns.astype(np.float64) / 1e9
    total = np.cumsum(s)
    before = total - s
    index = np.arange(len(s), dtype=np.float64)
    capacity = len(s) / total[-1]
    best = 0.0
    for rate in rates:
        if rate >= capacity:
            break  # the queue would grow without bound
        arrival = index / rate
        finish = total + np.maximum.accumulate(arrival - before)
        if meets_limit(finish - arrival, kinds, limit_s):
            best = max(best, rate)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def latency_metrics(
    samples: Dict[str, np.ndarray]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``<kind>_p50_us``/``<kind>_p99_us`` per op kind, and sample counts."""
    values: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for kind, ns in samples.items():
        values[f"{kind}_p50_us"], values[f"{kind}_p99_us"] = p50_p99_us(ns)
        counts[kind] = len(ns)
    return values, counts


#: Duration of one :func:`_reference_pass` at the reference host speed
#: (the fast mode of a shared 2-vCPU x86-64 VM under CPython 3.11).
REFERENCE_NS = 1_550_000
#: Objects loaded between host-speed samples while building a stack.
LOAD_SLICE = 1000


def _reference_pass() -> float:
    """A fixed mix of interpreter work: dict stores, float maths, list
    appends and a sort."""
    table: Dict[int, Tuple[int, float]] = {}
    acc = 0.0
    xs = []
    for i in range(6000):
        table[i % 97] = (i, i * 0.5)
        acc += (i * 1.0001) ** 0.5
        xs.append((i * 7919) % 1000)
    xs.sort()
    return acc + len(table)


def reference_ns() -> int:
    """Time one :func:`_reference_pass` in this process."""
    t0 = time.perf_counter_ns()
    _reference_pass()
    return time.perf_counter_ns() - t0


class HostSpeed:
    """Scales CPU-bound times to a fixed reference host speed.

    A shared VM runs the same Python code at speeds up to 2x apart and
    switches every few seconds, which moves a ten-second run's times by
    ±15%.  The benchmark times :func:`_reference_pass` before and after
    every short stretch of CPU-bound work it measures and multiplies
    the stretch's time by :meth:`factor`.  The pass is the benchmark's
    own fixed code, so a change to the index moves scaled times exactly
    as much as raw ones; only the host's speed cancels.
    """

    def __init__(self, first_ns: Optional[int] = None) -> None:
        #: The latest pass, in ns; timed here unless given (a pass timed
        #: in another process).
        self._last = reference_ns() if first_ns is None else first_ns

    def factor(self, now_ns: Optional[int] = None) -> float:
        """Scale for the stretch since the previous call (or creation):
        the reference time over the mean of the passes around it."""
        now = reference_ns() if now_ns is None else now_ns
        factor = 2.0 * REFERENCE_NS / (self._last + now)
        self._last = now
        return factor
