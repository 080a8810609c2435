"""Dijkstra's algorithm with a binary heap.

This is the work-optimal sequential SSSP (Section II-B of the paper) and the
engine of the **BGL-plus** CPU baseline: one Dijkstra instance per source,
parallelised across sources with OpenMP in the paper, modelled by
:mod:`repro.cpumodel` here. The returned stats (heap pushes/pops, edge
relaxations) feed that model.

:func:`dijkstra` runs the C kernel ``dijkstra_f64`` of the jit build when
it loads (:func:`dijkstra_native`) and the ``heapq`` code otherwise; the
C heap orders entries by ``(d, u)`` like ``heapq``'s tuples, so
distances, predecessors and stats are identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["DijkstraStats", "dijkstra", "dijkstra_native"]


@dataclass(frozen=True)
class DijkstraStats:
    """Operation counts of one Dijkstra run (for the CPU cost model)."""

    pushes: int
    pops: int
    relaxations: int

    @property
    def heap_ops(self) -> int:
        return self.pushes + self.pops


def dijkstra(
    graph: CSRGraph, source: int, *, with_predecessors: bool = False
) -> tuple[np.ndarray, DijkstraStats] | tuple[np.ndarray, np.ndarray, DijkstraStats]:
    """Exact shortest distances from ``source``.

    Returns ``(dist, stats)`` or ``(dist, pred, stats)`` when
    ``with_predecessors`` is set (``pred[v] = -1`` for unreachable/source).
    Uses the lazy-deletion binary-heap formulation (stale entries skipped on
    pop), matching what Boost's ``dijkstra_shortest_paths`` costs.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    from repro.core.backends.jit import native_kernels  # lazy: repro.core imports us

    kernels = native_kernels()
    if kernels is not None:
        return dijkstra_native(
            kernels, graph, int(source), with_predecessors=with_predecessors
        )
    return _dijkstra_python(graph, source, with_predecessors=with_predecessors)


#: one heap entry of the C kernel: ``struct { double d; i64 u; }``
_HEAP_ENTRY = np.dtype([("d", np.float64), ("u", np.int64)])


def dijkstra_native(
    kernels, graph: CSRGraph, source: int, *, with_predecessors: bool = False
) -> tuple[np.ndarray, DijkstraStats] | tuple[np.ndarray, np.ndarray, DijkstraStats]:
    """:func:`dijkstra` through the C entry point ``dijkstra_f64`` of loaded
    cc ``kernels``; ``source`` is already validated.

    The kernel never allocates: the heap (``m + 1`` entries — at most one
    push per improving relaxation, plus the source) is allocated here.
    """
    from repro.core.backends.jit import ffi_pointer as ptr

    n, m = graph.num_vertices, graph.num_edges
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64) if with_predecessors else None
    heap = np.empty(m + 1, dtype=_HEAP_ENTRY)
    counts = np.zeros(3, dtype=np.int64)
    kernels.dijkstra(
        ptr(graph.indptr, np.int64), ptr(graph.indices, np.int64),
        ptr(graph.weights, np.float64), source, ptr(dist, np.float64),
        None if pred is None else ptr(pred, np.int64),
        ptr(heap, _HEAP_ENTRY), ptr(counts, np.int64),
    )
    stats = DijkstraStats(*counts.tolist())
    if pred is not None:
        return dist, pred, stats
    return dist, stats


def _dijkstra_python(
    graph: CSRGraph, source: int, *, with_predecessors: bool = False
) -> tuple[np.ndarray, DijkstraStats] | tuple[np.ndarray, np.ndarray, DijkstraStats]:
    """The heapq path: the fallback and the test oracle."""
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64) if with_predecessors else None
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    pushes = 1
    pops = 0
    relaxations = 0
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap:
        d, u = heapq.heappop(heap)
        pops += 1
        if d > dist[u]:
            continue  # stale entry
        for e in range(indptr[u], indptr[u + 1]):
            relaxations += 1
            v = indices[e]
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                if pred is not None:
                    pred[v] = u
                heapq.heappush(heap, (nd, v))
                pushes += 1
    stats = DijkstraStats(pushes=pushes, pops=pops, relaxations=relaxations)
    if pred is not None:
        return dist, pred, stats
    return dist, stats
