"""Unit tests for the multilevel k-way partitioner and separator analysis,
plus differential tests of the native C partition kernels (seed BFS,
heavy-edge matching, one refinement pass) against their Python paths."""

import hashlib
import importlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends import jit
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, planar_like, rmat, road_like
from repro.partition import (
    boundary_nodes,
    classify_separator,
    coarsen_graph,
    heavy_edge_matching,
    partition_kway,
    refine_partition,
    separator_info,
)
from repro.partition.coarsen import _heavy_edge_matching_python, heavy_edge_matching_native
from repro.partition.kway import _bfs_hops_python, bfs_hops_native
from repro.partition.refine import _refine_pass_python, edge_cut, refine_pass_native


class TestMatching:
    def test_matching_is_symmetric(self):
        g = planar_like(200, seed=1).symmetrize()
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(g, rng=rng)
        for v in range(g.num_vertices):
            assert match[match[v]] == v

    def test_matched_pairs_are_neighbors(self):
        g = planar_like(200, seed=2).symmetrize()
        match = heavy_edge_matching(g, rng=np.random.default_rng(1))
        for v in range(g.num_vertices):
            u = match[v]
            if u != v:
                nbrs, _ = g.neighbors(v)
                assert u in nbrs


class TestCoarsen:
    def test_vertex_weight_conserved(self):
        g = planar_like(300, seed=3).symmetrize()
        w = np.ones(g.num_vertices)
        level = coarsen_graph(g, w, rng=np.random.default_rng(2))
        assert level.vertex_weight.sum() == pytest.approx(g.num_vertices)

    def test_graph_shrinks(self):
        g = planar_like(300, seed=4).symmetrize()
        level = coarsen_graph(
            g, np.ones(g.num_vertices), rng=np.random.default_rng(3)
        )
        assert level.graph.num_vertices < g.num_vertices

    def test_fine_to_coarse_is_total(self):
        g = planar_like(200, seed=5).symmetrize()
        level = coarsen_graph(
            g, np.ones(g.num_vertices), rng=np.random.default_rng(4)
        )
        assert level.fine_to_coarse.shape == (g.num_vertices,)
        assert level.fine_to_coarse.max() == level.graph.num_vertices - 1
        assert level.fine_to_coarse.min() == 0


class TestPartition:
    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_labels_cover_all_parts(self, k):
        g = planar_like(400, seed=6)
        res = partition_kway(g, k, seed=0)
        assert res.labels.shape == (400,)
        assert set(np.unique(res.labels)) == set(range(k))

    def test_balance(self):
        g = planar_like(600, seed=7)
        res = partition_kway(g, 8, seed=0, balance_tol=1.10)
        # greedy fallback for stragglers can nudge past the growth budget
        assert res.imbalance <= 1.25

    def test_part_sizes_sum(self):
        g = planar_like(300, seed=8)
        res = partition_kway(g, 6, seed=0)
        assert res.part_sizes.sum() == 300

    def test_k1_trivial(self):
        g = planar_like(100, seed=9)
        res = partition_kway(g, 1)
        assert np.all(res.labels == 0)
        assert res.edge_cut == 0

    def test_k_ge_n(self):
        g = erdos_renyi(10, 40, seed=10)
        res = partition_kway(g, 10, seed=0)
        assert res.num_parts == 10

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_kway(planar_like(50, seed=11), 0)

    def test_deterministic(self):
        g = planar_like(300, seed=12)
        a = partition_kway(g, 8, seed=5)
        b = partition_kway(g, 8, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_cut_quality_on_grid(self):
        """A k-way cut of a planar lattice should be within a small factor
        of the O(√(n/k)·k) optimum."""
        g = planar_like(900, seed=13, extra_edge_fraction=0.0, drop_fraction=0.0)
        k = 9
        res = partition_kway(g, k, seed=0)
        ideal = k * np.sqrt(900 / k)  # ~perimeter edges of square parts
        assert res.edge_cut <= 4 * ideal

    def test_handles_disconnected(self):
        a = planar_like(100, seed=14)
        sa, da, wa = a.edge_array()
        g = CSRGraph.from_edges(
            200,
            np.concatenate([sa, sa + 100]),
            np.concatenate([da, da + 100]),
            np.concatenate([wa, wa]),
        )
        res = partition_kway(g, 4, seed=0)
        assert set(np.unique(res.labels)) == {0, 1, 2, 3}


class TestRefine:
    def test_refinement_never_worsens_cut(self):
        g = planar_like(400, seed=15).symmetrize()
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=400)
        before = edge_cut(g, labels)
        refined = refine_partition(g, labels, 4, rng=np.random.default_rng(1))
        assert edge_cut(g, refined) <= before

    def test_refinement_improves_random_labels(self):
        g = planar_like(400, seed=16).symmetrize()
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, size=400)
        refined = refine_partition(g, labels, 4, rng=np.random.default_rng(3))
        assert edge_cut(g, refined) < edge_cut(g, labels) * 0.8

    def test_no_part_emptied(self):
        g = erdos_renyi(60, 600, seed=17)
        labels = np.arange(60) % 3
        refined = refine_partition(
            g.symmetrize(), labels, 3, rng=np.random.default_rng(4)
        )
        assert np.bincount(refined, minlength=3).min() >= 1


class TestSeparator:
    def test_boundary_definition(self):
        # path 0-1-2-3 cut between 1 and 2: both endpoints are boundary
        g = CSRGraph.from_edges(
            4,
            np.array([0, 1, 2, 1, 2, 3]),
            np.array([1, 2, 3, 0, 1, 2]),
            np.ones(6),
        )
        labels = np.array([0, 0, 1, 1])
        assert boundary_nodes(g, labels).tolist() == [1, 2]

    def test_no_cut_no_boundary(self):
        g = CSRGraph.from_edges(4, np.array([0, 2]), np.array([1, 3]), np.ones(2))
        labels = np.array([0, 0, 1, 1])
        assert boundary_nodes(g, labels).size == 0

    def test_info_fields(self):
        g = planar_like(400, seed=18)
        res = partition_kway(g, 10, seed=0)
        info = separator_info(g, res.labels)
        assert info.num_parts == 10
        assert info.num_boundary == boundary_nodes(g, res.labels).size
        assert info.ideal_boundary == pytest.approx(np.sqrt(10 * 400))
        assert info.boundary_per_part.sum() == info.num_boundary

    def test_range_index_bins(self):
        g = planar_like(400, seed=19)
        res = partition_kway(g, 10, seed=0)
        info = separator_info(g, res.labels)
        assert info.range_index == int(np.floor(np.log2(max(info.ratio, 1.0))))

    def test_classify_planar_small(self):
        assert classify_separator(planar_like(900, seed=20), seed=0).small_separator

    def test_classify_rmat_large(self):
        g = rmat(800, 8000, seed=21)
        assert not classify_separator(g, seed=0).small_separator

    def test_classify_road_small(self):
        assert classify_separator(road_like(800, 2.6, seed=22), seed=0).small_separator


class TestRefineInputs:
    def test_out_of_range_labels_rejected(self):
        g = planar_like(50, seed=23).symmetrize()
        with pytest.raises(ValueError):
            refine_partition(g, np.full(50, 3), 3)
        with pytest.raises(ValueError):
            refine_partition(g, np.full(50, -1), 3)


# ----------------------------------------------------------------------
# Native kernels vs the Python paths (bit-identical labels)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def native():
    kernels = jit.native_kernels()
    if kernels is None:
        pytest.skip("cc partition kernels unavailable (no compiler or REPRO_JIT=off)")
    return kernels


def _star(n: int) -> CSRGraph:
    """Hub 0 joined to every leaf: matching stalls after one pair."""
    leaves = np.arange(1, n, dtype=np.int64)
    hub = np.zeros(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(n, hub, leaves, np.ones(n - 1)).symmetrize()


def _disjoint_union(a: CSRGraph, b: CSRGraph) -> CSRGraph:
    sa, da, wa = a.edge_array()
    sb, db, wb = b.edge_array()
    na = a.num_vertices
    return CSRGraph.from_edges(
        na + b.num_vertices,
        np.concatenate([sa, sb + na]),
        np.concatenate([da, db + na]),
        np.concatenate([wa, wb]),
    )


@st.composite
def partition_graphs(draw):
    """Symmetric graphs of every shape the partitioner meets: road, sparse
    Erdős–Rényi, heavy-hub rmat, stars, disconnected unions and graphs
    with isolated vertices; unit or small-integer strengths (coarse levels
    carry summed strengths)."""
    family = draw(st.sampled_from(
        ["road", "er", "rmat", "star", "disconnected", "isolated"]
    ))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(2, 120))
    if family == "road":
        g = road_like(max(n, 20), draw(st.sampled_from([2.2, 2.5, 3.0])), seed=seed)
    elif family == "er":
        g = erdos_renyi(n, draw(st.integers(0, 4 * n)), seed=seed)
    elif family == "rmat":
        g = rmat(n, draw(st.integers(n, 12 * n)), seed=seed)
    elif family == "star":
        g = _star(n)
    elif family == "disconnected":
        g = _disjoint_union(
            erdos_renyi(n, 3 * n, seed=seed), road_like(max(n, 20), 2.5, seed=seed + 1)
        )
    else:
        g = _disjoint_union(
            erdos_renyi(n, n, seed=seed), CSRGraph.from_edges(n // 2 + 1, [], [], [])
        )
    g = g.symmetrize()
    if draw(st.booleans()):
        strengths = np.ones(g.num_edges)
    else:
        strengths = np.random.default_rng(seed).integers(1, 6, g.num_edges).astype(float)
    return CSRGraph(g.indptr, g.indices, strengths)


DIFF_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _python_path():
    """Context in which every partition entry point takes its Python path."""
    return mock.patch.dict(os.environ, {"REPRO_JIT": "off"})


@DIFF_SETTINGS
@given(data=st.data())
def test_native_bfs_hops_matches_python(native, data):
    g = data.draw(partition_graphs())
    source = data.draw(st.integers(0, g.num_vertices - 1))
    assert np.array_equal(bfs_hops_native(native, g, source), _bfs_hops_python(g, source))


@DIFF_SETTINGS
@given(data=st.data())
def test_native_matching_matches_python(native, data):
    g = data.draw(partition_graphs())
    order = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(
        g.num_vertices
    )
    got = heavy_edge_matching_native(native, g, order)
    assert np.array_equal(got, _heavy_edge_matching_python(g, order))


@DIFF_SETTINGS
@given(data=st.data())
def test_native_refine_pass_matches_python(native, data):
    g = data.draw(partition_graphs())
    n = g.num_vertices
    k = data.draw(st.integers(1, min(n, 12)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    labels = rng.integers(0, k, size=n)
    vw = np.ones(n) if data.draw(st.booleans()) else rng.integers(1, 5, n).astype(float)
    # tight tolerances leave some parts without room
    tol = data.draw(st.sampled_from([1.0, 1.03, 1.10, 1.5, 4.0]))
    max_weight = tol * vw.sum() / k
    src, dst, _ = g.edge_array()
    order = rng.permutation(np.unique(src[labels[src] != labels[dst]]))

    def run(pass_fn, *prefix):
        state = [
            labels.copy(), k, vw, max_weight,
            np.bincount(labels, weights=vw, minlength=k),
            np.bincount(labels, minlength=k),
        ]
        moved = pass_fn(*prefix, g, order, *state)
        return moved, state[0], state[4], state[5]

    got = run(refine_pass_native, native)
    want = run(_refine_pass_python)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


@DIFF_SETTINGS
@given(data=st.data())
def test_native_partition_kway_matches_python(native, data):
    g = data.draw(partition_graphs())
    n = g.num_vertices
    k = data.draw(st.sampled_from([1, 2, 3, 4, 7, 16, n, n + 3]))
    seed = data.draw(st.integers(0, 3))
    got = partition_kway(g, k, seed=seed)
    with _python_path():
        want = partition_kway(g, k, seed=seed)
    assert np.array_equal(got.labels, want.labels)
    assert got.edge_cut == want.edge_cut


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 4, 16, 24, 36, 54, 81])
def test_native_partition_matches_python_on_paper_shapes(native, seed, k):
    """The boundary solve's graph families at the k-search's component counts."""
    for g in (road_like(1500, 2.5, seed=seed), erdos_renyi(900, 2700, seed=seed)):
        got = partition_kway(g, k, seed=seed)
        with _python_path():
            want = partition_kway(g, k, seed=seed)
        assert np.array_equal(got.labels, want.labels)


#: sha256 of the int64 labels of ``partition_kway(road_like(4000, 2.5,
#: seed=0), k, seed=0)``, recorded with the pure-Python partitioner
PINNED_ROAD_4000 = {
    16: "c806869a2fbc1a34d1149c6f85a608c9d4fdb72b06825a949f28767789b426a4",
    24: "313d68b6c8d77d4f36aaceb4235279cccfdb47599802336e10f5e8dc09804e04",
    36: "e820b5c1f9ce5dce6e885b06013db6a440745320a414200e74370f2194616508",
    54: "d146853cea7084e553218ab83ddae3ac4e87d8da6c7035a79cc2d594772065d2",
    81: "ec390cdbb0a1f82f052d89760afda8a35913ac1adb1efa95b2c2ac0a2047b08c",
}


@pytest.fixture(scope="module")
def road_4000():
    return road_like(4000, 2.5, seed=0)


@pytest.mark.parametrize("k", sorted(PINNED_ROAD_4000))
def test_road_4000_labels_are_pinned(road_4000, k):
    labels = np.ascontiguousarray(partition_kway(road_4000, k, seed=0).labels, dtype=np.int64)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == PINNED_ROAD_4000[k]


def test_partition_takes_the_native_path(native, monkeypatch):
    g = road_like(800, 2.5, seed=3)
    with _python_path():
        want = partition_kway(g, 8, seed=1).labels

    def unreachable(*args, **kwargs):
        raise AssertionError("Python path taken although the kernels load")

    for module, name in (
        ("repro.partition.kway", "_bfs_hops_python"),
        ("repro.partition.coarsen", "_heavy_edge_matching_python"),
        ("repro.partition.refine", "_refine_pass_python"),
    ):
        monkeypatch.setattr(importlib.import_module(module), name, unreachable)
    assert np.array_equal(partition_kway(g, 8, seed=1).labels, want)


def test_failed_cc_load_leaves_labels_unchanged(monkeypatch):
    g = road_like(800, 2.5, seed=4)
    before = partition_kway(g, 12, seed=2).labels

    def broken(*args, **kwargs):
        raise OSError("simulated cc build failure")

    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    monkeypatch.setattr(jit, "_compile_and_load", broken)
    assert jit.native_kernels() is None
    assert np.array_equal(partition_kway(g, 12, seed=2).labels, before)
