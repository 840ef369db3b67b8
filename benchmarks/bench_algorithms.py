"""A1 — the algorithm layer: LAGraph-style workloads end to end.

Exercises the whole stack (semirings, masks, select, index apply) the
way the paper's ecosystem uses it, on RMAT and mesh graphs.  Also the
ablation DESIGN.md calls out: triangle counting with the masked D·Dᵀ
formulation (D the degree-oriented pattern, one §VIII select) vs the
unmasked Burkhardt formulation — the masked variant must win (that is
*why* masks are in the API).
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table, rmat_graph
from repro.algorithms import (
    betweenness_centrality,
    bfs_levels,
    bfs_parents,
    connected_components,
    k_truss,
    local_clustering_coefficient,
    maximal_independent_set,
    pagerank,
    sssp,
    triangle_count,
    triangle_count_burkhardt,
)
from repro.core import types as T
from repro.generators import grid_2d, to_matrix

pytestmark = pytest.mark.usefixtures("no_result_memo")

SCALE = 10


@pytest.fixture(scope="module")
def social():
    return rmat_graph(SCALE, undirected=True)


@pytest.fixture(scope="module")
def social_bool():
    return rmat_graph(SCALE, t=T.BOOL, undirected=True)


@pytest.fixture(scope="module")
def mesh():
    n, rows, cols, _ = grid_2d(40)
    return to_matrix(n, rows, cols, np.ones(len(rows)), T.BOOL)


@pytest.mark.benchmark(group="A1-traversal")
class TestTraversals:
    def test_bfs_levels_rmat(self, benchmark, social_bool):
        benchmark(bfs_levels, social_bool, 0)

    def test_bfs_parents_rmat(self, benchmark, social_bool):
        benchmark(bfs_parents, social_bool, 0)

    def test_bfs_levels_mesh(self, benchmark, mesh):
        benchmark(bfs_levels, mesh, 0)

    def test_sssp_rmat(self, benchmark, social):
        benchmark(sssp, social, 0, max_iters=32)


@pytest.mark.benchmark(group="A1-analytics")
class TestAnalytics:
    def test_triangles_masked_degree_order(self, benchmark, social):
        benchmark(triangle_count, social)

    def test_triangles_unmasked_burkhardt(self, benchmark, social):
        benchmark(triangle_count_burkhardt, social)

    def test_connected_components(self, benchmark, social_bool):
        benchmark(connected_components, social_bool, max_iters=64)

    def test_pagerank(self, benchmark, social):
        benchmark(pagerank, social, tol=1e-6, max_iters=50)

    def test_ktruss(self, benchmark, social):
        benchmark(k_truss, social, 4, max_iters=16)

    def test_betweenness_sampled(self, benchmark, social):
        benchmark(betweenness_centrality, social, list(range(8)))

    def test_mis(self, benchmark, social_bool):
        benchmark(maximal_independent_set, social_bool, seed=1)

    def test_clustering_coefficient(self, benchmark, social):
        # Force inside the timed callable: in nonblocking mode the bare
        # call returns a deferred handle and times only DAG construction.
        benchmark(lambda: local_clustering_coefficient(social).wait())

    def test_multi_source_bfs_batch16(self, benchmark, social_bool):
        from repro.algorithms import msbfs_levels
        benchmark(msbfs_levels, social_bool, list(range(16)))

    def test_sparse_dnn(self, benchmark):
        import numpy as np
        from repro.algorithms import random_sparse_network, \
            sparse_dnn_inference
        from repro.core.binaryop import PLUS
        from repro.core.matrix import Matrix
        from repro.core import types as T
        weights, biases = random_sparse_network(512, 6, seed=1)
        rng = np.random.default_rng(0)
        y0 = Matrix.new(T.FP64, 32, 512)
        rows = np.repeat(np.arange(32), 10)
        cols = rng.integers(0, 512, 320)
        y0.build(rows, cols, np.ones(320), PLUS[T.FP64])
        y0.wait()
        benchmark(lambda: sparse_dnn_inference(y0, weights, biases).wait())


def test_algorithms_report(benchmark, capsys, social, social_bool, mesh):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def timed(fn, reps=2):
        best = float("inf")
        out = None
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3, out

    tri = triangle_count(social)
    tri_b = triangle_count_burkhardt(social)
    assert tri == tri_b

    t_bfs, lv = timed(lambda: bfs_levels(social_bool, 0))
    t_par, _ = timed(lambda: bfs_parents(social_bool, 0))
    t_sssp, _ = timed(lambda: sssp(social, 0, max_iters=32))
    t_tri, _ = timed(lambda: triangle_count(social))
    t_trib, _ = timed(lambda: triangle_count_burkhardt(social))
    t_cc, cc = timed(lambda: connected_components(social_bool, max_iters=64))
    t_pr, pr = timed(lambda: pagerank(social, tol=1e-6, max_iters=50))

    rows = [
        ["BFS levels", f"{t_bfs:9.1f}", f"reached {lv.nvals()} vertices"],
        ["BFS parents (ROWINDEX apply)", f"{t_par:9.1f}", "valid tree"],
        ["SSSP (min.+)", f"{t_sssp:9.1f}", ""],
        ["triangles masked D·Dᵀ (degree-order select)", f"{t_tri:9.1f}",
         f"{tri} triangles"],
        ["triangles unmasked A²⊙A", f"{t_trib:9.1f}",
         f"masked is {t_trib / t_tri:4.1f}x faster"],
        ["connected components", f"{t_cc:9.1f}",
         f"{len(set(int(v) for v in cc.to_dict().values()))} components"],
        ["pagerank", f"{t_pr:9.1f}", f"{pr[1]} iterations"],
    ]
    with capsys.disabled():
        print_table(
            f"Algorithm layer on RMAT scale {SCALE} "
            f"({social.nvals()} edges)",
            ["algorithm", "ms", "notes"], rows,
        )
