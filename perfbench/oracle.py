"""The independent oracle: ``scipy.sparse.csgraph.dijkstra``.

Generated weights are integers <= 100, so float32 distances are exact and
every comparison is equality.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra


def apsp(graph) -> np.ndarray:
    """Float32 all-pairs distances of ``graph``."""
    return dijkstra(graph.to_scipy(), directed=True).astype(np.float32)


def count_wrong(expected: np.ndarray, got: np.ndarray) -> int:
    """Entries of ``got`` that differ from ``expected`` (shape mismatch: all)."""
    got = np.asarray(got, dtype=np.float32)
    if got.shape != expected.shape:
        return int(expected.size)
    return int(np.count_nonzero(got != expected))


def check_responses(graph, responses) -> int:
    """Answered service queries whose value differs from the oracle."""
    rows = [r for r in responses if r.query.kind in ("point", "sssp")]
    wrong = 0
    if rows:
        sources = np.unique([r.query.source for r in rows])
        dist = dijkstra(graph.to_scipy(), directed=True, indices=sources).astype(np.float32)
        row_of = {int(s): i for i, s in enumerate(sources)}
        for r in rows:
            expected = dist[row_of[r.query.source]]
            if r.query.kind == "point":
                wrong += float(np.float32(r.value)) != float(expected[r.query.v])
            else:
                wrong += count_wrong(expected, r.value) > 0
    full = [r for r in responses if r.query.kind == "full"]
    if full:
        expected = apsp(graph)
        wrong += sum(count_wrong(expected, r.value) > 0 for r in full)
    return int(wrong)
