"""The correctness oracle: a replay of the trace and brute-force scans.

The oracle keeps every object's current rectangle in coordinate
columns, applies updates in trace order, and answers range and kNN
queries by scanning all objects.  It runs outside every timed region.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.rtree.geometry import Rect

Answer = Sequence[Tuple[int, Rect]]

#: kNN distances are compared with this absolute tolerance: the tree
#: ranks by squared MINDIST and reports its square root.
_DIST_TOL = 1e-9


class Oracle:
    """Current rectangle of every object, replayed from the trace."""

    def __init__(self, population: Iterable[Tuple[int, Rect]]) -> None:
        items = sorted(population, key=lambda item: item[0])
        n = len(items)
        if [oid for oid, _ in items] != list(range(n)):
            raise ValueError("population oids must be 0..n-1")
        self.coords = np.array(
            [(r.xmin, r.ymin, r.xmax, r.ymax) for _, r in items],
            dtype=np.float64,
        ).reshape(n, 4)

    def __len__(self) -> int:
        return len(self.coords)

    def update(self, oid: int, rect: Rect) -> None:
        self.coords[oid] = (rect.xmin, rect.ymin, rect.xmax, rect.ymax)

    def rect(self, oid: int) -> Rect:
        return Rect(*self.coords[oid])

    def range(self, window: Rect) -> List[Tuple[int, Rect]]:
        c = self.coords
        hit = np.nonzero(
            (c[:, 0] <= window.xmax)
            & (window.xmin <= c[:, 2])
            & (c[:, 1] <= window.ymax)
            & (window.ymin <= c[:, 3])
        )[0]
        return [(int(oid), self.rect(int(oid))) for oid in hit]

    def _dists(self, x: float, y: float) -> np.ndarray:
        c = self.coords
        dx = np.maximum(np.maximum(c[:, 0] - x, x - c[:, 2]), 0.0)
        dy = np.maximum(np.maximum(c[:, 1] - y, y - c[:, 3]), 0.0)
        return np.sqrt(dx * dx + dy * dy)

    def range_ok(self, window: Rect, answer: Answer) -> bool:
        """The answer is exactly the live objects meeting ``window``."""
        return sorted(answer, key=lambda item: item[0]) == self.range(window)

    def knn_ok(self, x: float, y: float, k: int, answer: Answer) -> bool:
        """``answer`` holds ``k`` distinct live objects at the ``k``
        smallest distances (ties may be broken either way)."""
        if len(answer) != min(k, len(self)):
            return False
        oids = [oid for oid, _ in answer]
        if len(set(oids)) != len(oids):
            return False
        if any(self.rect(oid) != rect for oid, rect in answer):
            return False
        dists = self._dists(x, y)
        got = np.sort(dists[oids])
        want = np.partition(dists, len(oids) - 1)[: len(oids)]
        return bool(np.all(np.abs(got - np.sort(want)) <= _DIST_TOL))

    def final_mismatches(self, actual: Dict[int, Rect]) -> int:
        """Objects whose served rectangle differs from the replay (an
        object missing from ``actual`` or unknown to the oracle counts)."""
        wrong = sum(1 for oid in actual if oid >= len(self))
        for oid in range(len(self)):
            if actual.get(oid) != self.rect(oid):
                wrong += 1
        return wrong
