"""Host-speed probe: rescales wall times to a reference host speed.

On a shared virtual machine the speed of the same code drifts by tens of
percent over seconds to minutes, with no sign in CPU time or steal time:
the neighbours change, not this process's share.  The benchmark therefore
pins itself to one CPU, runs :func:`probe`, a fixed unit of reference
work, untimed between timed operations, and multiplies the operation
times of a pass by ``REFERENCE_S / median(probe times of the pass)``.
The rescaled numbers read as the seconds the operation would take on a
host where the probe takes ``REFERENCE_S``; a change to the program moves
them exactly as it moves the raw wall times, while the host's drift moves
the probe too and largely cancels (not wholly: the program's operations
and the probe do not slow down by the same factor).

The probe mixes the two kinds of work the program does: interpreter-bound
Python (heap and dict operations, as in Dijkstra and the partitioner) and
numpy frontier relaxation with gathers and scatters over a fixed sparse
graph (as in Near-Far).  Measured beside the three workloads' operations on
the development VM, this numpy part tracked their slowdowns more closely
than a dense min-plus product did, for the solves too.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: median probe time on the development VM (2 CPUs, numpy 2.4, Python 3)
REFERENCE_S = 0.015
PYTHON_REPEATS = 4

_N, _BATCH = 1024, 48


def _fixed_graph():
    """CSR arrays of a fixed ring with random chords, weights 1..100."""
    rng = np.random.default_rng(0)
    ring = np.arange(_N)
    src = np.concatenate([ring, ring, rng.integers(0, _N, _N)])
    dst = np.concatenate([(ring + 1) % _N, (ring - 1) % _N, rng.integers(0, _N, _N)])
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(_N + 1))
    return indptr, dst[order], rng.integers(1, 101, src.size).astype(np.float64)


_INDPTR, _DST, _W = _fixed_graph()


def _python_unit() -> None:
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i % 61] = counts.get(i % 61, 0) + i
    while heap:
        heapq.heappop(heap)


def _frontier_unit() -> None:
    rows = np.arange(_BATCH)
    dist = np.full((_BATCH, _N), np.inf)
    dist[rows, rows * 7] = 0.0
    active = np.zeros((_BATCH, _N), dtype=bool)
    active[rows, rows * 7] = True
    for _ in range(8):
        r, c = np.nonzero(active)
        active[r, c] = False
        deg = _INDPTR[c + 1] - _INDPTR[c]
        r, tails = np.repeat(r, deg), np.repeat(c, deg)
        edges = _INDPTR[tails] + np.arange(deg.sum()) - np.repeat(np.cumsum(deg) - deg, deg)
        heads, cand = _DST[edges], dist[r, tails] + _W[edges]
        better = cand < dist[r, heads]
        np.minimum.at(dist, (r[better], heads[better]), cand[better])
        active[r[better], heads[better]] = True


def probe() -> float:
    """Wall seconds of one fixed unit of reference work."""
    t0 = time.perf_counter()
    for _ in range(PYTHON_REPEATS):
        _python_unit()
    _frontier_unit()
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor that rescales wall times measured alongside ``probes``."""
    return REFERENCE_S / statistics.median(probes)
