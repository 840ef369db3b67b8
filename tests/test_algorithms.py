"""Algorithm battery: cross-checked against networkx on random graphs."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    bfs_levels,
    bfs_parents,
    connected_components,
    k_truss,
    pagerank,
    sssp,
    triangle_count,
    triangle_count_burkhardt,
)
from repro.core import types as T
from repro.core.context import Mode
from repro.core.errors import InvalidIndexError, InvalidValueError
from repro.generators import erdos_renyi, grid_2d, to_matrix


def _nx_from_triples(n, rows, cols, vals=None, directed=True):
    g = nx.DiGraph() if directed else nx.Graph()
    g.add_nodes_from(range(n))
    if vals is None:
        g.add_edges_from(zip(rows.tolist(), cols.tolist()))
    else:
        g.add_weighted_edges_from(
            zip(rows.tolist(), cols.tolist(), vals.tolist())
        )
    return g


@pytest.fixture(params=[3, 7, 21], ids=lambda s: f"seed{s}")
def digraph(request):
    n, rows, cols, vals = erdos_renyi(40, 0.08, seed=request.param)
    keep = rows != cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    A = to_matrix(40, rows, cols, np.ones(len(rows)), T.BOOL)
    return A, _nx_from_triples(40, rows, cols)


@pytest.fixture(params=[5, 13], ids=lambda s: f"seed{s}")
def ugraph(request):
    n, rows, cols, vals = erdos_renyi(36, 0.09, seed=request.param)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    A = to_matrix(36, rows, cols, np.ones(len(rows)), T.FP64,
                  make_undirected=True)
    return A, _nx_from_triples(36, rows, cols, directed=False)


class TestBFS:
    def test_levels_match_networkx(self, digraph):
        A, g = digraph
        ours = bfs_levels(A, 0).to_dict()
        theirs = nx.single_source_shortest_path_length(g, 0)
        assert {k: int(v) for k, v in ours.items()} == dict(theirs)

    def test_parents_form_valid_bfs_tree(self, digraph):
        A, g = digraph
        levels = {k: int(v) for k, v in bfs_levels(A, 0).to_dict().items()}
        parents = bfs_parents(A, 0).to_dict()
        assert set(parents) == set(levels)
        for child, parent in parents.items():
            parent = int(parent)
            if child == 0:
                assert parent == 0
                continue
            assert g.has_edge(parent, child)
            assert levels[parent] == levels[child] - 1

    def test_source_out_of_range(self, digraph):
        A, _ = digraph
        with pytest.raises(InvalidIndexError):
            bfs_levels(A, 4096)
        with pytest.raises(InvalidIndexError):
            bfs_parents(A, -1)

    def test_isolated_source(self):
        A = to_matrix(4, np.array([1]), np.array([2]), np.ones(1), T.BOOL)
        lv = bfs_levels(A, 0)
        assert lv.to_dict() == {0: 0}


class TestSSSP:
    def test_matches_networkx_dijkstra(self):
        n, rows, cols, vals = erdos_renyi(30, 0.12, seed=2)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        w = 1.0 + np.round(vals[keep] * 9)
        A = to_matrix(30, rows, cols, w, T.FP64)
        g = _nx_from_triples(30, rows, cols, w)
        ours = {k: float(v) for k, v in sssp(A, 0).to_dict().items()}
        theirs = nx.single_source_dijkstra_path_length(g, 0)
        assert ours == {k: float(v) for k, v in theirs.items()}

    def test_max_iters_validation(self):
        A = to_matrix(3, np.array([0]), np.array([1]), np.ones(1), T.FP64)
        with pytest.raises(InvalidValueError):
            sssp(A, 0, max_iters=0)


@st.composite
def _tie_heavy_graph(draw):
    """``(vertices, undirected edge list, weights)``: a random graph, a
    complete graph or disjoint cycles (every degree ties in the last
    two), plus self loops and trailing isolated vertices."""
    kind = draw(st.sampled_from(["random", "complete", "cycles"]))
    nv = draw(st.integers(1, 12))
    if kind == "random":
        vertex = st.integers(0, nv - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=36))
    elif kind == "complete":
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    else:
        k = draw(st.integers(3, 5))
        edges = [(c * k + i, c * k + (i + 1) % k)
                 for c in range(nv // k) for i in range(k)]
    edges += [(v, v) for v in draw(st.lists(st.integers(0, nv - 1),
                                            max_size=3))]
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0]),
                            min_size=len(edges), max_size=len(edges)))
    return nv + draw(st.integers(0, 4)), edges, weights


class TestTriangles:
    def test_matches_networkx(self, ugraph):
        A, g = ugraph
        expected = sum(nx.triangles(g).values()) // 3
        assert triangle_count(A) == expected
        assert triangle_count_burkhardt(A) == expected

    def test_triangle_free_graph(self):
        n, rows, cols, _ = grid_2d(5)
        A = to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64)
        assert triangle_count(A) == 0   # grid graphs are bipartite

    def test_k4(self):
        rows, cols = np.nonzero(~np.eye(4, dtype=bool))
        A = to_matrix(4, rows, cols, np.ones(len(rows)), T.FP64)
        assert triangle_count(A) == 4

    def test_tied_degrees_orient_as_the_strict_lower_triangle(self):
        """Every vertex of K5 ∪ C4 has degree 4 or 2, ties broken by id:
        the degree order then keeps exactly ``select(TRIL, -1)``."""
        from repro.algorithms.triangles import _oriented
        from repro.core.indexunaryop import TRIL
        from repro.core.matrix import Matrix
        from repro.ops.select import select

        rows, cols = np.nonzero(~np.eye(5, dtype=bool))
        cyc = np.arange(4)
        rows = np.concatenate([rows, 5 + cyc, 5 + (cyc + 1) % 4])
        cols = np.concatenate([cols, 5 + (cyc + 1) % 4, 5 + cyc])
        A = to_matrix(9, rows, cols, np.arange(len(rows), dtype=float),
                      T.FP64)
        low = Matrix.new(T.FP64, 9, 9)
        select(low, None, None, TRIL, A, -1)
        assert set(_oriented(A).to_dict()) == set(low.to_dict())
        assert len(low.to_dict()) == 10 + 4

    def test_degree_order_points_edges_at_lower_degree(self):
        """A star's hub has the highest degree: it keeps every edge,
        whatever its id, and the leaves keep none."""
        from repro.algorithms.triangles import _oriented

        leaves = np.array([1, 2, 3, 4])
        hub = np.zeros(4, dtype=np.int64)
        A = to_matrix(5, np.concatenate([hub, leaves]),
                      np.concatenate([leaves, hub]), np.ones(8), T.FP64)
        assert set(_oriented(A).to_dict()) == {(0, j) for j in leaves}

    @settings(max_examples=60, deadline=None)
    @given(graph=_tie_heavy_graph(), tall=st.booleans(),
           mode=st.sampled_from([Mode.BLOCKING, Mode.NONBLOCKING]),
           data=st.data())
    def test_formulations_agree_with_networkx(self, graph, tall, mode, data):
        """Degree-oriented D·Dᵀ, Burkhardt and networkx give one count —
        on tie-heavy graphs with isolated vertices, self loops and
        weights, over CSR and over a hypersparse 2^40-vertex DCSR."""
        from repro.core.context import Context
        from repro.internals import config
        from repro.internals.containers import DcsrData, MatData

        nv, edges, weights = graph
        g = nx.Graph()
        g.add_nodes_from(range(nv))
        g.add_edges_from(edges)
        expected = sum(nx.triangles(g).values()) // 3
        if tall:
            n = 1 << 40
            ids = np.array(data.draw(st.lists(
                st.integers(0, n - 1), min_size=nv, max_size=nv,
                unique=True)), dtype=np.int64)
        else:
            n, ids = nv, np.arange(nv, dtype=np.int64)
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        with config.option("FORMAT_AUTO", True):
            ctx = Context.new(mode, None, None)
            A = to_matrix(n, ids[ends[:, 0]], ids[ends[:, 1]],
                          np.array(weights, dtype=float), T.FP64,
                          make_undirected=True, ctx=ctx)
            carrier = A._capture()
            assert isinstance(carrier, DcsrData if tall else MatData)
            assert triangle_count(A) == expected
            assert triangle_count_burkhardt(A) == expected
            ctx.free()


class TestComponents:
    def test_matches_networkx(self, ugraph):
        A, g = ugraph
        labels = connected_components(A).to_dict()
        ours = {}
        for v, lbl in labels.items():
            ours.setdefault(int(lbl), set()).add(v)
        theirs = {frozenset(c) for c in nx.connected_components(g)}
        assert {frozenset(c) for c in ours.values()} == theirs

    def test_labels_are_component_minima(self, ugraph):
        A, _ = ugraph
        labels = connected_components(A).to_dict()
        for v, lbl in labels.items():
            assert int(lbl) <= v


class TestPageRank:
    def test_matches_networkx(self, digraph):
        A, g = digraph
        Af = to_matrix(
            A.nrows,
            *(lambda t: (t[0], t[1], np.ones(len(t[0]))))(A.extract_tuples()[:2]),
            T.FP64,
        )
        ours, _ = pagerank(Af, damping=0.85, tol=1e-10, max_iters=200)
        theirs = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=500)
        ours_d = {k: float(v) for k, v in ours.to_dict().items()}
        assert ours_d.keys() == theirs.keys()
        for k in theirs:
            assert abs(ours_d[k] - theirs[k]) < 1e-6, k

    def test_ranks_sum_to_one(self, digraph):
        A, _ = digraph
        Af = to_matrix(
            A.nrows,
            *(lambda t: (t[0], t[1], np.ones(len(t[0]))))(A.extract_tuples()[:2]),
            T.FP64,
        )
        ranks, iters = pagerank(Af)
        assert iters >= 1
        total = sum(float(v) for v in ranks.to_dict().values())
        assert abs(total - 1.0) < 1e-9

    def test_damping_validation(self):
        A = to_matrix(3, np.array([0]), np.array([1]), np.ones(1), T.FP64)
        with pytest.raises(InvalidValueError):
            pagerank(A, damping=1.5)


class TestKTruss:
    def test_k3_keeps_triangle_edges_only(self):
        # Triangle 0-1-2 plus a pendant edge 2-3.
        rows = np.array([0, 1, 0, 2, 1, 2, 2, 3])
        cols = np.array([1, 0, 2, 0, 2, 1, 3, 2])
        A = to_matrix(4, rows, cols, np.ones(8), T.FP64)
        kt = k_truss(A, 3)
        keys = set(kt.to_dict())
        assert keys == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}

    def test_k5_truss_of_k5(self):
        rows, cols = np.nonzero(~np.eye(5, dtype=bool))
        A = to_matrix(5, rows, cols, np.ones(len(rows)), T.FP64)
        assert k_truss(A, 5).nvals() == 20
        assert k_truss(A, 3).nvals() == 20

    def test_truss_of_triangle_free_graph_is_empty(self):
        n, rows, cols, _ = grid_2d(4)
        A = to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64)
        assert k_truss(A, 3).nvals() == 0

    def test_k_validation(self):
        A = to_matrix(3, np.array([0]), np.array([1]), np.ones(1), T.FP64)
        with pytest.raises(InvalidValueError):
            k_truss(A, 2)


@pytest.fixture()
def algo_memo_on():
    # Counter asserts need the plumbing on even under the CI ablation
    # matrix (REPRO_ENGINE_ALGO_MEMO=0 full-suite runs).
    from repro.internals import config

    with config.option("ENGINE_ALGO_MEMO", True):
        yield


class TestAlgoMemoIncrementality:
    """§III amortized setup: a repeated algorithm call on an unchanged
    graph serves its preprocessing from the context result memo and
    submits **zero** setup kernels the second time around."""

    def _graph(self, ctx):
        from repro.core.context import WaitMode
        from repro.core.matrix import Matrix

        n, rows, cols, _ = erdos_renyi(40, 0.08, seed=3)
        keep = rows != cols
        a = Matrix.new(T.FP64, n, n, ctx)
        a.build(rows[keep], cols[keep], np.ones(int(keep.sum())))
        a.wait(WaitMode.MATERIALIZE)
        return a

    def test_second_pagerank_runs_zero_setup_kernels(self, algo_memo_on):
        from repro.core.context import Context, Mode
        from repro.engine.stats import STATS

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = self._graph(ctx)

        STATS.reset()
        r1, it1 = pagerank(a)
        snap1 = STATS.snapshot()
        k1 = sum(snap1["kernel_count"].values())
        # cold call: pattern and degree blocks built and stored (the
        # degree builder hits the just-stored pattern)
        assert snap1["algo_memo_misses"] == 2
        assert snap1["algo_memo_stores"] == 2
        assert snap1["algo_memo_hits"] == 1

        STATS.reset()
        r2, it2 = pagerank(a)
        snap2 = STATS.snapshot()
        k2 = sum(snap2["kernel_count"].values())
        # warm call: both blocks served from the memo, nothing rebuilt
        assert snap2["algo_memo_hits"] == 2
        assert snap2["algo_memo_misses"] == 0
        assert snap2["algo_memo_stores"] == 0
        # ... and the only kernels saved are exactly the setup pair
        # (pattern apply + degree reduce); the iteration count is
        # deterministic, so the delta is exact.
        assert it2 == it1
        assert k2 == k1 - 2
        assert r1.to_dict() == r2.to_dict()

    def test_write_to_graph_rebuilds_blocks(self, algo_memo_on):
        from repro.core.context import Context, Mode, WaitMode
        from repro.engine.stats import STATS

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = self._graph(ctx)
        pagerank(a)
        a.set_element(1.0, 0, 1)     # version bump: blocks are stale
        a.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        pagerank(a)
        snap = STATS.snapshot()
        assert snap["algo_memo_hits"] == 1   # nested pattern hit only
        assert snap["algo_memo_misses"] == 2

    def test_algo_memo_knob_disables(self):
        from repro.core.context import Context, Mode
        from repro.engine.stats import STATS
        from repro.internals import config

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        a = self._graph(ctx)
        STATS.reset()
        with config.option("ENGINE_ALGO_MEMO", False):
            r1, _ = pagerank(a)
            r2, _ = pagerank(a)
        snap = STATS.snapshot()
        assert snap["algo_memo_hits"] == 0
        assert snap["algo_memo_stores"] == 0
        assert r1.to_dict() == r2.to_dict()
