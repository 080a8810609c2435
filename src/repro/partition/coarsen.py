"""Graph coarsening by heavy-edge matching.

Each coarsening level matches vertices with their heaviest-connectivity
unmatched neighbour and contracts matched pairs. Vertex weights accumulate
(so balance on the coarse graph reflects fine-graph sizes) and parallel
edges merge with summed connectivity. Edge *weights* here are connectivity
strengths for the partitioner, not shortest-path lengths — the partitioner
treats every input edge as strength 1, the standard choice for minimising
the boundary-vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = [
    "CoarseLevel",
    "coarsen_graph",
    "heavy_edge_matching",
    "heavy_edge_matching_native",
]


@dataclass(frozen=True)
class CoarseLevel:
    """One level of the coarsening hierarchy."""

    graph: CSRGraph  # coarse graph (edge weights = connectivity strengths)
    vertex_weight: np.ndarray  # fine vertices contained in each coarse vertex
    fine_to_coarse: np.ndarray  # map from the previous level's vertices


def heavy_edge_matching(
    graph: CSRGraph, *, rng: np.random.Generator
) -> np.ndarray:
    """Greedy heavy-edge matching; returns ``match[v]`` (= v if unmatched).

    Vertices are visited in random order; each unmatched vertex matches its
    heaviest-strength unmatched neighbour. The order is drawn here; the
    C entry point ``heavy_edge_matching_f64`` walks it when the jit build
    loads, the Python loop otherwise, with the same result.
    """
    order = rng.permutation(graph.num_vertices)
    from repro.core.backends.jit import native_kernels  # lazy: repro.core imports us

    kernels = native_kernels()
    if kernels is not None:
        return heavy_edge_matching_native(kernels, graph, order)
    return _heavy_edge_matching_python(graph, order)


def heavy_edge_matching_native(kernels, graph: CSRGraph, order: np.ndarray) -> np.ndarray:
    """Heavy-edge matching in visiting ``order`` through the C entry point
    ``heavy_edge_matching_f64`` of loaded cc ``kernels``."""
    from repro.core.backends.jit import ffi_pointer as ptr

    n = graph.num_vertices
    if order.shape != (n,) or (n and not 0 <= order.min() <= order.max() < n):
        raise ValueError("order must hold n vertex ids")
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=np.uint8)
    kernels.heavy_edge_matching(
        ptr(graph.indptr, np.int64), ptr(graph.indices, np.int64),
        ptr(graph.weights, np.float64), ptr(order, np.int64), n,
        ptr(match, np.int64), ptr(matched, np.uint8),
    )
    return match


def _heavy_edge_matching_python(graph: CSRGraph, order: np.ndarray) -> np.ndarray:
    """The Python loop: the fallback and the test oracle."""
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    for u in order:
        if matched[u]:
            continue
        lo, hi = indptr[u], indptr[u + 1]
        best = -1
        best_w = -np.inf
        for e in range(lo, hi):
            v = indices[e]
            if v != u and not matched[v] and weights[e] > best_w:
                best = v
                best_w = weights[e]
        if best >= 0:
            match[u] = best
            match[best] = u
            matched[u] = True
            matched[best] = True
    return match


def coarsen_graph(
    graph: CSRGraph,
    vertex_weight: np.ndarray,
    *,
    rng: np.random.Generator,
) -> CoarseLevel:
    """Contract a heavy-edge matching into a coarser graph."""
    n = graph.num_vertices
    match = heavy_edge_matching(graph, rng=rng)

    # Assign coarse ids: the lower endpoint of each pair owns the id.
    owner = np.minimum(np.arange(n), match)
    is_owner = owner == np.arange(n)
    coarse_id = np.cumsum(is_owner) - 1
    fine_to_coarse = coarse_id[owner]

    nc = int(is_owner.sum())
    cw = np.bincount(fine_to_coarse, weights=vertex_weight, minlength=nc)

    src, dst, w = graph.edge_array()
    cs, cd = fine_to_coarse[src], fine_to_coarse[dst]
    keep = cs != cd  # drop edges internal to a contracted pair
    coarse = CSRGraph.from_edges(nc, cs[keep], cd[keep], w[keep], dedupe="sum")
    return CoarseLevel(graph=coarse, vertex_weight=cw, fine_to_coarse=fine_to_coarse)
