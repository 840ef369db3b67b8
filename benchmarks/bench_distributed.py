"""D1 — the distributed future (§IV / Conclusion), simulated.

Series over rank counts p ∈ {1, 2, 4, 8}: distributed mxv and BFS on a
row-block layout, reporting the hardware-independent metric —
communication volume — beside wall clock.  Expected shapes: allgather
volume grows with p (the 1-D SpMV trade), and results stay identical to
single-node execution.  For the dense u of the mxv the volume is
analytic: every rank sends its n/p (int64 index, fp64 value) pairs to
the p - 1 others, 16·n·(p − 1) bytes in p messages.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core import types as T
from repro.core.binaryop import LOR, MAX
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.distributed import (
    Cluster,
    DistMatrix,
    DistVector,
    dist_bfs_levels,
    dist_mxv,
)
from repro.generators import rmat

SCALE = 11
RANKS = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def triples():
    n, rows, cols, vals = rmat(SCALE, 8, seed=33)
    keep = rows != cols
    return n, rows[keep], cols[keep], vals[keep]


def run_dist_mxv(triples, p: int):
    n, rows, cols, vals = triples
    cluster = Cluster(p)
    a = DistMatrix.from_triples(cluster, n, n, T.FP64, rows, cols, vals,
                                MAX[T.FP64])
    u = DistVector.from_global_dense(cluster, np.ones(n), T.FP64)
    w = dist_mxv(cluster, a, u, PLUS_TIMES_SEMIRING[T.FP64])
    return sum(b.nvals() for b in w.blocks), cluster.stats.snapshot()


def run_dist_bfs(triples, p: int):
    n, rows, cols, _ = triples
    cluster = Cluster(p)
    a = DistMatrix.from_triples(cluster, n, n, T.BOOL, rows, cols,
                                np.ones(len(rows), bool), LOR[T.BOOL])
    lv = dist_bfs_levels(cluster, a, 0)
    return sum(b.nvals() for b in lv.blocks), cluster.stats.snapshot()


@pytest.mark.benchmark(group="D1-mxv")
class TestDistMxv:
    @pytest.mark.parametrize("p", RANKS, ids=lambda p: f"p{p}")
    def test_dist_mxv(self, benchmark, triples, p):
        benchmark(run_dist_mxv, triples, p)


@pytest.mark.benchmark(group="D1-bfs")
class TestDistBfs:
    @pytest.mark.parametrize("p", [1, 4], ids=lambda p: f"p{p}")
    def test_dist_bfs(self, benchmark, triples, p):
        benchmark(run_dist_bfs, triples, p)


def test_distributed_report(benchmark, capsys, triples):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n = triples[0]
    rows_out = []
    base = None
    for p in RANKS:
        t0 = time.perf_counter()
        nvals, stats = run_dist_mxv(triples, p)
        mxv_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        bfs_nvals, bfs_stats = run_dist_bfs(triples, p)
        bfs_ms = (time.perf_counter() - t0) * 1e3
        if base is None:
            base = (nvals, bfs_nvals)
        assert (nvals, bfs_nvals) == base, "distributed result diverged"
        assert stats == {"messages": p, "collectives": p,
                         "bytes": 16 * n * (p - 1)}
        assert bfs_stats["messages"] == bfs_stats["collectives"]
        rows_out.append([
            f"p={p}", f"{mxv_ms:8.1f} ms", f"{stats['bytes'] / 1e6:8.3f} MB",
            f"{stats['collectives']:4d}", f"{bfs_ms:8.1f} ms",
            f"{bfs_stats['bytes'] / 1e6:8.3f} MB",
            f"{bfs_stats['collectives']:4d}",
        ])
    with capsys.disabled():
        print_table(
            f"Distributed mxv and BFS (simulated ranks, RMAT scale {SCALE}; "
            f"result nvals={base[0]} / {base[1]} at every p)",
            ["ranks", "mxv wall", "mxv comm", "mxv coll.", "BFS wall",
             "BFS comm", "BFS coll."],
            rows_out,
        )
