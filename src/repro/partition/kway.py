"""Multilevel k-way partitioner.

``partition_kway(graph, k)`` is the METIS_PartGraphKway stand-in the
boundary algorithm calls (Algorithm 3, step 1): coarsen by heavy-edge
matching, partition the coarsest graph by greedy region growing from
spread-out seeds, then uncoarsen with boundary refinement at every level.

The seed BFS, the matching and each refinement pass run C entry points of
the jit build when it loads (``REPRO_JIT=off``, no compiler or a failed
build keep the numpy/Python paths). Every random draw stays in Python and
the C code follows the Python semantics exactly, so the labels are the
same on both paths.

Directed inputs are symmetrised for partitioning (cut direction is
irrelevant to the boundary-vertex definition) and connectivity strengths are
uniform, which minimises the *number* of cut edges — a proxy for the number
of boundary vertices the paper's algorithm cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.partition.coarsen import CoarseLevel, coarsen_graph
from repro.partition.refine import edge_cut, refine_partition

__all__ = ["PartitionResult", "bfs_hops_native", "partition_kway"]


@dataclass(frozen=True)
class PartitionResult:
    """A k-way partition and its quality measures."""

    labels: np.ndarray  # part id per vertex, in [0, num_parts)
    num_parts: int
    edge_cut: float
    part_sizes: np.ndarray

    @property
    def imbalance(self) -> float:
        """max part size / ideal part size."""
        ideal = self.part_sizes.mean()
        return float(self.part_sizes.max() / ideal) if ideal else 1.0


def _spread_seeds(graph: CSRGraph, k: int, rng: np.random.Generator) -> np.ndarray:
    """k seeds chosen by repeated farthest-point BFS (hop distance)."""
    n = graph.num_vertices
    seeds = [int(rng.integers(n))]
    hop = _bfs_hops(graph, seeds[0])
    for _ in range(1, k):
        cand = int(np.argmax(np.where(np.isfinite(hop), hop, -1.0)))
        if hop[cand] <= 0:  # disconnected or exhausted: random unseeded vertex
            unused = np.setdiff1d(np.arange(n), np.array(seeds))
            cand = int(rng.choice(unused)) if unused.size else int(rng.integers(n))
        seeds.append(cand)
        hop = np.minimum(hop, _bfs_hops(graph, cand))
    return np.array(seeds, dtype=np.int64)


def _bfs_hops(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` (``inf`` where unreachable)."""
    from repro.core.backends.jit import native_kernels  # lazy: repro.core imports us

    kernels = native_kernels()
    if kernels is not None:
        return bfs_hops_native(kernels, graph, source)
    return _bfs_hops_python(graph, source)


def bfs_hops_native(kernels, graph: CSRGraph, source: int) -> np.ndarray:
    """:func:`_bfs_hops` through the C entry point ``bfs_hops_f64`` of
    loaded cc ``kernels``; the FIFO queue is allocated here."""
    from repro.core.backends.jit import ffi_pointer as ptr

    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    hop = np.full(n, np.inf)
    queue = np.empty(n, dtype=np.int64)
    kernels.bfs_hops(
        ptr(graph.indptr, np.int64), ptr(graph.indices, np.int64), int(source),
        ptr(hop, np.float64), ptr(queue, np.int64),
    )
    return hop


def _bfs_hops_python(graph: CSRGraph, source: int) -> np.ndarray:
    """The level-by-level numpy path: the fallback and the test oracle."""
    n = graph.num_vertices
    hop = np.full(n, np.inf)
    hop[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt: list[np.ndarray] = []
        for u in frontier:
            nbrs = graph.indices[graph.indptr[u] : graph.indptr[u + 1]]
            fresh = nbrs[~np.isfinite(hop[nbrs])]
            if fresh.size:
                hop[fresh] = level
                nxt.append(np.unique(fresh))
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, dtype=np.int64)
    return hop


def _grow_regions(
    graph: CSRGraph,
    seeds: np.ndarray,
    vertex_weight: np.ndarray,
    balance_tol: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy multi-source region growing with per-part weight budgets."""
    n = graph.num_vertices
    k = seeds.size
    labels = np.full(n, -1, dtype=np.int64)
    budget = balance_tol * vertex_weight.sum() / k
    weight = np.zeros(k)
    frontiers: list[list[int]] = [[int(s)] for s in seeds]
    for p, s in enumerate(seeds):
        labels[s] = p
        weight[p] += vertex_weight[s]

    active = True
    while active:
        active = False
        for p in rng.permutation(k):
            if weight[p] >= budget or not frontiers[p]:
                continue
            new_frontier: list[int] = []
            for u in frontiers[p]:
                for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]]:
                    if labels[v] < 0 and weight[p] + vertex_weight[v] <= budget:
                        labels[v] = p
                        weight[p] += vertex_weight[v]
                        new_frontier.append(int(v))
            frontiers[p] = new_frontier
            if new_frontier:
                active = True

    # Unreached vertices (disconnected or budget-blocked) go to the lightest part.
    for v in np.nonzero(labels < 0)[0]:
        p = int(np.argmin(weight))
        labels[v] = p
        weight[p] += vertex_weight[v]
    return labels


def partition_kway(
    graph: CSRGraph,
    num_parts: int,
    *,
    balance_tol: float = 1.10,
    coarsen_to: int | None = None,
    seed: int = 0,
    refine_passes: int = 4,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced parts.

    Returns a :class:`PartitionResult`; ``labels[v]`` is ``v``'s part.
    ``coarsen_to`` stops coarsening once the graph has at most that many
    vertices (default ``max(20·k, 200)``).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = graph.num_vertices
    if num_parts == 1 or n <= num_parts:
        labels = np.zeros(n, dtype=np.int64) if num_parts == 1 else np.arange(n) % num_parts
        sym = graph.symmetrize()
        return PartitionResult(
            labels=labels,
            num_parts=num_parts,
            edge_cut=edge_cut(sym, labels) / 2.0,
            part_sizes=np.bincount(labels, minlength=num_parts),
        )

    rng = np.random.default_rng(seed)
    # Partition on the symmetrised graph with uniform strengths.
    src, dst, _ = graph.symmetrize().edge_array()
    work = CSRGraph.from_edges(n, src, dst, np.ones(src.size), dedupe="min")

    if coarsen_to is None:
        coarsen_to = max(20 * num_parts, 200)

    levels: list[CoarseLevel] = []
    cur = work
    cur_weight = np.ones(n)
    while cur.num_vertices > coarsen_to:
        level = coarsen_graph(cur, cur_weight, rng=rng)
        if level.graph.num_vertices >= cur.num_vertices * 0.95:
            break  # matching stalled (e.g. star graphs) — stop coarsening
        levels.append(level)
        cur = level.graph
        cur_weight = level.vertex_weight

    seeds = _spread_seeds(cur, num_parts, rng)
    labels = _grow_regions(cur, seeds, cur_weight, balance_tol, rng)
    labels = refine_partition(
        cur, labels, num_parts,
        vertex_weight=cur_weight, balance_tol=balance_tol,
        max_passes=refine_passes, rng=rng,
    )

    for idx in range(len(levels) - 1, -1, -1):
        level = levels[idx]
        labels = labels[level.fine_to_coarse]
        if idx == 0:
            finer, finer_weight = work, np.ones(n)
        else:
            finer = levels[idx - 1].graph
            finer_weight = levels[idx - 1].vertex_weight
        labels = refine_partition(
            finer, labels, num_parts,
            vertex_weight=finer_weight, balance_tol=balance_tol,
            max_passes=refine_passes, rng=rng,
        )

    sizes = np.bincount(labels, minlength=num_parts)
    return PartitionResult(
        labels=labels,
        num_parts=num_parts,
        edge_cut=edge_cut(work, labels) / 2.0,
        part_sizes=sizes,
    )
