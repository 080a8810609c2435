"""Unit tests for the four SSSP implementations (oracle: scipy Dijkstra),
plus differential tests of the native C kernels behind ``near_far_batch``
and ``dijkstra`` against their numpy/Python paths."""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.core.backends import jit
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, rmat, road_like
from repro.sssp import (
    bellman_ford,
    delta_stepping,
    dijkstra,
    near_far,
    near_far_batch,
)
from repro.sssp.dijkstra import _dijkstra_python, dijkstra_native
from repro.sssp.near_far import _near_far_batch_numpy, near_far_batch_native
from repro.sssp.frontier import suggest_delta
from tests.conftest import oracle_sssp


ALGORITHMS = {
    "dijkstra": lambda g, s: dijkstra(g, s),
    "bellman-ford": lambda g, s: bellman_ford(g, s),
    "delta-stepping": lambda g, s: delta_stepping(g, s),
    "near-far": lambda g, s: near_far(g, s),
}


@pytest.mark.parametrize("alg", sorted(ALGORITHMS))
class TestCorrectness:
    def test_matches_oracle(self, alg, any_graph):
        dist, _ = ALGORITHMS[alg](any_graph, 0)
        expected = oracle_sssp(any_graph, [0])[0]
        assert np.allclose(dist, expected)

    def test_multiple_sources(self, alg, small_rmat):
        for s in (0, 17, 63, small_rmat.num_vertices - 1):
            dist, _ = ALGORITHMS[alg](small_rmat, s)
            expected = oracle_sssp(small_rmat, [s])[0]
            assert np.allclose(dist, expected), f"source {s}"

    def test_source_distance_zero(self, alg, small_planar):
        dist, _ = ALGORITHMS[alg](small_planar, 5)
        assert dist[5] == 0.0

    def test_unreachable_is_inf(self, alg):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]), np.array([2.0]))
        dist, _ = ALGORITHMS[alg](g, 0)
        assert dist[1] == 2.0
        assert np.isinf(dist[2])

    def test_source_out_of_range(self, alg, small_rmat):
        with pytest.raises(ValueError):
            ALGORITHMS[alg](small_rmat, small_rmat.num_vertices)
        with pytest.raises(ValueError):
            ALGORITHMS[alg](small_rmat, -1)

    def test_single_vertex_graph(self, alg):
        g = CSRGraph.from_edges(1, np.array([]), np.array([]), np.array([]))
        dist, _ = ALGORITHMS[alg](g, 0)
        assert dist[0] == 0.0


class TestDijkstra:
    def test_stats_counts(self, small_rmat):
        _, stats = dijkstra(small_rmat, 0)
        assert stats.pops <= stats.pushes
        assert stats.relaxations > 0
        assert stats.heap_ops == stats.pushes + stats.pops

    def test_predecessors_form_tree(self, small_planar):
        dist, pred, _ = dijkstra(small_planar, 0, with_predecessors=True)
        assert pred[0] == -1
        # walking predecessors from any reachable vertex terminates at source
        for v in (10, 50, 100):
            hops = 0
            u = v
            while pred[u] != -1:
                u = pred[u]
                hops += 1
                assert hops <= small_planar.num_vertices
            assert u == 0 or np.isinf(dist[v])

    def test_predecessor_edge_consistency(self, small_rmat):
        dist, pred, _ = dijkstra(small_rmat, 0, with_predecessors=True)
        for v in range(small_rmat.num_vertices):
            if pred[v] >= 0:
                nbrs, w = small_rmat.neighbors(int(pred[v]))
                idx = np.nonzero(nbrs == v)[0]
                assert idx.size
                assert dist[v] == pytest.approx(dist[pred[v]] + w[idx].min())


class TestBellmanFord:
    def test_rounds_bounded(self, small_planar):
        _, stats = bellman_ford(small_planar, 0)
        assert stats.rounds <= small_planar.num_vertices

    def test_max_rounds_enforced(self, small_road):
        # road graphs have huge hop diameters; 2 rounds cannot converge
        with pytest.raises(RuntimeError):
            bellman_ford(small_road, 0, max_rounds=2)


class TestDeltaStepping:
    @pytest.mark.parametrize("delta", [0.5, 5.0, 50.0, 1e6])
    def test_delta_independence(self, small_rmat, delta):
        dist, _ = delta_stepping(small_rmat, 0, delta=delta)
        expected = oracle_sssp(small_rmat, [0])[0]
        assert np.allclose(dist, expected)

    def test_large_delta_degenerates_to_fewer_buckets(self, small_rmat):
        _, few = delta_stepping(small_rmat, 0, delta=1e9)
        _, many = delta_stepping(small_rmat, 0, delta=1.0)
        assert few.buckets_processed <= many.buckets_processed

    def test_invalid_delta(self, small_rmat):
        with pytest.raises(ValueError):
            delta_stepping(small_rmat, 0, delta=0.0)


class TestNearFar:
    @pytest.mark.parametrize("delta", [1.0, 20.0, 500.0])
    def test_delta_independence(self, small_planar, delta):
        dist, _ = near_far(small_planar, 0, delta=delta)
        expected = oracle_sssp(small_planar, [0])[0]
        assert np.allclose(dist, expected)

    def test_batch_matches_oracle(self, any_graph):
        sources = np.array([0, 3, 9])
        dist, _ = near_far_batch(any_graph, sources)
        expected = oracle_sssp(any_graph, sources)
        assert np.allclose(dist, expected)

    def test_batch_equals_singles(self, small_rmat):
        sources = np.array([1, 2, 3, 4])
        batch, _ = near_far_batch(small_rmat, sources)
        for i, s in enumerate(sources):
            single, _ = near_far(small_rmat, int(s))
            assert np.allclose(batch[i], single)

    def test_empty_batch(self, small_rmat):
        dist, stats = near_far_batch(small_rmat, np.array([], dtype=np.int64))
        assert dist.shape == (0, small_rmat.num_vertices)
        assert stats.relaxations == 0

    def test_heavy_stats_counted(self):
        # star graph: hub with out-degree 100 > threshold
        n = 101
        src = np.concatenate([[i for i in range(1, n)], np.zeros(n - 1, dtype=int)])
        dst = np.concatenate([np.zeros(n - 1, dtype=int), [i for i in range(1, n)]])
        g = CSRGraph.from_edges(n, src, dst, np.ones(2 * (n - 1)))
        _, stats = near_far(g, 1, heavy_degree=50)
        assert stats.heavy_relaxations > 0
        assert stats.child_launches > 0

    def test_no_heavy_below_threshold(self, small_planar):
        _, stats = near_far(small_planar, 0, heavy_degree=10**6)
        assert stats.heavy_relaxations == 0
        assert stats.child_launches == 0

    def test_stats_relaxations_at_least_reachable_edges(self, small_planar):
        _, stats = near_far(small_planar, 0)
        assert stats.relaxations >= small_planar.num_edges  # connected graph

    def test_invalid_delta(self, small_rmat):
        with pytest.raises(ValueError):
            near_far(small_rmat, 0, delta=-1.0)


class TestWorkEfficiency:
    def test_near_far_less_work_than_bellman_ford(self, small_road):
        """Near-Far's bucket ordering should beat Bellman-Ford's flood on
        high-diameter graphs (the paper's §II-B work-efficiency argument)."""
        _, nf = near_far(small_road, 0)
        _, bf = bellman_ford(small_road, 0)
        assert nf.relaxations < bf.relaxations


# ----------------------------------------------------------------------
# Native kernels vs the numpy/Python paths (bit-identical, stats included)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def native():
    kernels = jit.native_kernels()
    if kernels is None:
        pytest.skip("cc SSSP kernels unavailable (no compiler or REPRO_JIT=off)")
    return kernels


@st.composite
def sssp_graphs(draw, integer_weights=False):
    """Road-like, Erdős–Rényi (isolated vertices at low m), rmat (heavy
    hubs), ``n = 1`` and edgeless graphs, re-weighted with small integers,
    integers with zeros, the 1e6–3e6 range, or fractions."""
    family = draw(st.sampled_from(["road", "er", "rmat", "single", "edgeless"]))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(2, 90))
    if family == "road":
        g = road_like(max(n, 20), draw(st.sampled_from([2.2, 2.5, 3.0])), seed=seed)
    elif family == "er":
        g = erdos_renyi(n, draw(st.integers(0, 4 * n)), seed=seed)
    elif family == "rmat":
        g = rmat(n, draw(st.integers(n, 12 * n)), seed=seed)
    else:
        g = CSRGraph.from_edges(1 if family == "single" else n, [], [], [])
    kinds = ["int", "zeros", "wide"] + ([] if integer_weights else ["frac"])
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(seed)
    m = g.num_edges
    if kind == "int":
        w = rng.integers(1, 101, size=m).astype(np.float64)
    elif kind == "zeros":
        w = rng.integers(0, 4, size=m).astype(np.float64)
    elif kind == "wide":
        w = rng.integers(1_000_000, 3_000_001, size=m).astype(np.float64)
    else:
        w = rng.uniform(0.0, 10.0, size=m)
    return CSRGraph(g.indptr, g.indices, w)


@st.composite
def batches(draw, graph):
    """Source lists with duplicates, plus an isolated vertex when present."""
    n = graph.num_vertices
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    isolated = np.flatnonzero(np.diff(graph.indptr) == 0)
    if isolated.size and draw(st.booleans()):
        sources.append(int(isolated[0]))
    return np.array(sources, dtype=np.int64)


DIFF_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@DIFF_SETTINGS
@given(data=st.data())
def test_native_near_far_matches_numpy(native, data):
    g = data.draw(sssp_graphs())
    sources = data.draw(batches(g))
    delta = data.draw(
        st.sampled_from([None, 0.25, 1.0, 7.5, 100.0, 2.5e6, 1e9])
    )
    delta = suggest_delta(g) if delta is None else delta
    heavy = data.draw(st.sampled_from([-1, 0, 1, 3, 32]))
    got, got_stats = near_far_batch_native(
        native, g, sources, delta=delta, heavy_degree=heavy
    )
    want, want_stats = _near_far_batch_numpy(g, sources, delta, heavy)
    assert np.array_equal(got, want)
    assert got_stats == want_stats


@DIFF_SETTINGS
@given(data=st.data())
def test_native_dijkstra_matches_python(native, data):
    g = data.draw(sssp_graphs())
    source = data.draw(st.integers(0, g.num_vertices - 1))
    got = dijkstra_native(native, g, source, with_predecessors=True)
    want = _dijkstra_python(g, source, with_predecessors=True)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    dist, stats = dijkstra_native(native, g, source)
    assert np.array_equal(dist, want[0]) and stats == want[2]


@DIFF_SETTINGS
@given(data=st.data())
def test_native_kernels_match_scipy_on_integer_weights(native, data):
    g = data.draw(sssp_graphs(integer_weights=True))
    sources = data.draw(batches(g))
    want = scipy_dijkstra(g.to_scipy(), indices=sources)
    got, _ = near_far_batch_native(
        native, g, sources, delta=suggest_delta(g), heavy_degree=32
    )
    assert np.array_equal(got, want)
    for row, s in enumerate(sources):
        assert np.array_equal(dijkstra_native(native, g, int(s))[0], want[row])


def test_public_entry_points_take_the_native_path(native, monkeypatch, small_rmat):
    # the package re-exports functions named like their modules
    nf_mod = importlib.import_module("repro.sssp.near_far")
    dj_mod = importlib.import_module("repro.sssp.dijkstra")
    sources = np.array([0, 5, 5, 119])
    want = _near_far_batch_numpy(small_rmat, sources, suggest_delta(small_rmat), 32)
    ref = _dijkstra_python(small_rmat, 7, with_predecessors=True)

    def unreachable(*args, **kwargs):
        raise AssertionError("fallback path taken although the kernels load")

    monkeypatch.setattr(nf_mod, "_near_far_batch_numpy", unreachable)
    monkeypatch.setattr(dj_mod, "_dijkstra_python", unreachable)
    dist, stats = near_far_batch(small_rmat, sources)
    assert np.array_equal(dist, want[0]) and stats == want[1]
    d, p, st_ = dijkstra(small_rmat, 7, with_predecessors=True)
    assert np.array_equal(d, ref[0]) and np.array_equal(p, ref[1]) and st_ == ref[2]


def test_failed_cc_load_falls_back_unchanged(monkeypatch, small_road):
    """A build that does not load leaves the numpy/Python paths answering,
    with the same distances, predecessors and stats."""
    sources = np.array([0, 3, 3, 150])
    before = near_far_batch(small_road, sources)
    before_dj = dijkstra(small_road, 11, with_predecessors=True)

    def broken(*args, **kwargs):
        raise OSError("simulated cc build failure")

    monkeypatch.setattr(jit, "_CC_KERNELS", {})
    monkeypatch.setattr(jit, "_compile_and_load", broken)
    assert jit.native_kernels() is None
    after = near_far_batch(small_road, sources)
    after_dj = dijkstra(small_road, 11, with_predecessors=True)
    assert np.array_equal(after[0], before[0]) and after[1] == before[1]
    assert np.array_equal(after_dj[0], before_dj[0])
    assert np.array_equal(after_dj[1], before_dj[1]) and after_dj[2] == before_dj[2]


def test_repro_jit_off_disables_native_sssp(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "off")
    assert jit.native_kernels() is None
