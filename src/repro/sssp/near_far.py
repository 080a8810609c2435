"""Near-Far worklist SSSP — the paper's GPU method (Section II-B).

Near-Far [Davidson et al., PPoPP'14] simplifies delta-stepping to two
queues: the *Near* queue holds vertices whose tentative distance is below
the current split ``(i+1)·Δ``, the *Far* queue holds everything else.
Near is drained with repeated relax iterations; when empty, the split
advances and Far is filtered into Near (stale entries — whose distance
improved since insertion — are dropped).

Two entry points:

* :func:`near_far` — one source, mirroring the per-thread-block procedure
  ``Near_Far_TB`` of the paper's Algorithm 2.
* :func:`near_far_batch` — ``bat`` sources at once, vectorised over a
  ``(bat, n)`` distance matrix exactly as the MSSP kernel processes one
  batch. Collects the workload statistics (relaxations, heavy-vertex
  relaxations, iteration count, would-be child-kernel launches) that
  :func:`repro.gpu.kernels.mssp_batch_cost` turns into simulated kernel
  time.

Both are label-correcting and exact for non-negative weights (property
tests compare against Dijkstra and scipy under Δ sweeps).

:func:`near_far_batch` runs the C kernel ``near_far_batch_f64`` of the jit
build when it loads (:func:`near_far_batch_native`) and the vectorised
numpy code otherwise (``REPRO_JIT=off``, no compiler). Both give the same
distances and the same :class:`NearFarStats`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.sssp.frontier import expand_frontier, scatter_min, segmented_arange, suggest_delta

__all__ = [
    "NearFarStats",
    "near_far",
    "near_far_batch",
    "near_far_batch_native",
    "DEFAULT_HEAVY_DEGREE",
    "EDGES_PER_CHILD_BLOCK",
]

#: out-degree above which the paper's dynamic-parallelism path would launch a
#: child kernel for the vertex's edge list ("vertices with a large
#: out-degree", §III-B — one warp's worth of edges)
DEFAULT_HEAVY_DEGREE = 32
#: edge-list partition size handed to each child thread block (Section III-B
#: partitions concatenated heavy edge lists into equal chunks)
EDGES_PER_CHILD_BLOCK = 256


@dataclass(frozen=True)
class NearFarStats:
    """Workload record of a Near-Far execution (single source or batch)."""

    relaxations: int
    heavy_relaxations: int
    iterations: int
    child_launches: int
    splits_advanced: int


def near_far(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
) -> tuple[np.ndarray, NearFarStats]:
    """Exact shortest distances from one source via Near-Far."""
    dist, stats = near_far_batch(graph, np.array([source]), delta=delta, heavy_degree=heavy_degree)
    return dist[0], stats


def near_far_batch(
    graph: CSRGraph,
    sources: np.ndarray,
    *,
    delta: float | None = None,
    heavy_degree: int = DEFAULT_HEAVY_DEGREE,
) -> tuple[np.ndarray, NearFarStats]:
    """Shortest distances from every source in ``sources`` (one MSSP batch).

    Returns ``(dist, stats)`` where ``dist`` has shape ``(len(sources), n)``.
    The batch shares a split level: each relax iteration processes the union
    of all sources' Near queues, matching one grid-wide iteration of the
    MSSP kernel (per-block queues, grid-level synchronisation).
    """
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    n = graph.num_vertices
    if sources.size == 0:
        return np.empty((0, n)), NearFarStats(0, 0, 0, 0, 0)
    if sources.min() < 0 or sources.max() >= n:
        raise ValueError("source out of range")
    if delta is None:
        delta = suggest_delta(graph)
    if not 0 < delta < np.inf:  # a NaN split never advances: the C loop would spin
        raise ValueError("delta must be positive and finite")

    from repro.core.backends.jit import native_kernels  # lazy: repro.core imports us

    kernels = native_kernels()
    if kernels is not None:
        return near_far_batch_native(
            kernels, graph, sources, delta=float(delta), heavy_degree=heavy_degree
        )
    return _near_far_batch_numpy(graph, sources, delta, heavy_degree)


def near_far_batch_native(
    kernels, graph: CSRGraph, sources: np.ndarray, *, delta: float, heavy_degree: int
) -> tuple[np.ndarray, NearFarStats]:
    """:func:`near_far_batch` through the C entry point ``near_far_batch_f64``
    of loaded cc ``kernels``; the arguments are already validated.

    The kernel never allocates: the worklists, their dedup flags and the
    frontier snapshot are allocated here, ``bat * n`` entries each.
    """
    from repro.core.backends.jit import ffi_pointer as ptr

    bat, n = sources.size, graph.num_vertices
    dist = np.full((bat, n), np.inf)
    flag = np.zeros(bat * n, dtype=np.uint8)
    near, nxt, far = (np.empty(bat * n, dtype=np.int64) for _ in range(3))
    snap = np.empty(bat * n)
    stats = np.zeros(5, dtype=np.int64)
    kernels.near_far_batch(
        ptr(graph.indptr, np.int64), ptr(graph.indices, np.int64),
        ptr(graph.weights, np.float64), ptr(sources, np.int64),
        ptr(dist, np.float64), n, bat, delta, int(heavy_degree),
        ptr(flag, np.uint8), ptr(near, np.int64), ptr(nxt, np.int64),
        ptr(far, np.int64), ptr(snap, np.float64), ptr(stats, np.int64),
    )
    return dist, NearFarStats(*stats.tolist())


def _near_far_batch_numpy(
    graph: CSRGraph, sources: np.ndarray, delta: float, heavy_degree: int
) -> tuple[np.ndarray, NearFarStats]:
    """The vectorised numpy path: the fallback and the test oracle."""
    bat = sources.size
    n = graph.num_vertices
    deg = np.diff(graph.indptr)
    heavy_vertex = deg > heavy_degree

    dist = np.full((bat, n), np.inf)
    dist[np.arange(bat), sources] = 0.0
    flat = dist.ravel()

    near = np.zeros((bat, n), dtype=bool)
    near[np.arange(bat), sources] = True
    far = np.zeros((bat, n), dtype=bool)

    split = float(delta)
    relaxations = 0
    heavy_relax = 0
    iterations = 0
    child_launches = 0
    splits_advanced = 0

    while True:
        rows, cols = np.nonzero(near)
        if rows.size == 0:
            # Near exhausted: advance the split past the smallest Far
            # distance (skipping empty Δ ranges) and refill Near.
            frows, fcols = np.nonzero(far)
            if frows.size == 0:
                break
            fdist = dist[frows, fcols]
            # Drop stale Far entries (distance may have improved below the
            # current split — those were already processed via Near).
            fresh = fdist >= split
            far[frows[~fresh], fcols[~fresh]] = False
            frows, fcols, fdist = frows[fresh], fcols[fresh], fdist[fresh]
            if frows.size == 0:
                break
            min_far = fdist.min()
            split = (np.floor(min_far / delta) + 1.0) * delta
            splits_advanced += 1
            move = fdist < split
            near[frows[move], fcols[move]] = True
            far[frows[move], fcols[move]] = False
            continue

        near[rows, cols] = False
        iterations += 1

        tails, heads, w = expand_frontier(graph, cols)
        relaxations += heads.size
        if heads.size == 0:
            continue
        src_rows = rows[tails]
        cand = dist[rows[tails], cols[tails]] + w

        # Dynamic-parallelism accounting: relaxations sourced at heavy
        # vertices, and the child blocks needed for their edge lists.
        hmask = heavy_vertex[cols]
        if hmask.any():
            heavy_deg = deg[cols[hmask]]
            heavy_relax += int(heavy_deg.sum())
            child_launches += 2 + int(
                np.ceil(heavy_deg.sum() / EDGES_PER_CHILD_BLOCK)
            )

        improved_flat, improved_vals = scatter_min(flat, src_rows * n + heads, cand)
        if improved_flat.size == 0:
            continue
        irows = improved_flat // n
        icols = improved_flat % n
        go_near = improved_vals < split
        near[irows[go_near], icols[go_near]] = True
        far[irows[~go_near], icols[~go_near]] = True

    return dist, NearFarStats(
        relaxations=relaxations,
        heavy_relaxations=heavy_relax,
        iterations=iterations,
        child_launches=child_launches,
        splits_advanced=splits_advanced,
    )
