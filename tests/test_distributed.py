"""Distributed-simulation battery: equality with single-node results and
the communication every collective is counted for."""

import threading

import numpy as np
import pytest

from repro.core import types as T
from repro.core.binaryop import LOR, MAX
from repro.core.context import default_context
from repro.core.errors import DimensionMismatchError, InvalidValueError
from repro.core.matrix import Matrix
from repro.core.semiring import MIN_PLUS_SEMIRING, PLUS_TIMES_SEMIRING
from repro.core.vector import Vector
from repro.distributed import (
    Cluster,
    DistMatrix,
    DistVector,
    block_bounds,
    dist_bfs_levels,
    dist_mxm,
    dist_mxv,
    dist_vxm,
)
from repro.engine.stats import STATS
from repro.faults import PLANE, FaultSpec, configure_from_env
from repro.generators import rmat
from repro.ops.mxm import mxm, mxv, vxm


def _graph(scale=6, seed=9):
    n, rows, cols, vals = rmat(scale, 6, seed=seed)
    keep = rows != cols
    return n, rows[keep], cols[keep], vals[keep]


def _to_single(n, rows, cols, vals, t=T.FP64):
    m = Matrix.new(t, n, n)
    m.build(rows, cols, vals, LOR[T.BOOL] if t is T.BOOL else MAX[T.FP64])
    m.wait()
    return m


def _dist(cluster, n, rows, cols, vals):
    return DistMatrix.from_triples(cluster, n, n, T.FP64, rows, cols, vals,
                                   MAX[T.FP64])


def _sparse_x(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n) * (rng.random(n) < 0.5)
    xv = Vector.new(T.FP64, n)
    nz = np.flatnonzero(x)
    xv.build(nz, x[nz])
    return x, xv


class TestCluster:
    def test_allgather(self):
        cluster = Cluster(3)
        assert cluster.allgather([0, 10, 20]) == [0, 10, 20]

    def test_stats_accumulate(self):
        """One allgather counts as p per-rank calls, each payload sent to
        the p - 1 other ranks."""
        cluster = Cluster(2)
        cluster.allgather([np.zeros(100), np.zeros(100)])
        assert cluster.stats.snapshot() == {
            "messages": 2, "bytes": 1600, "collectives": 2}

    def test_invalid_sizes(self):
        with pytest.raises(InvalidValueError):
            Cluster(0)
        with pytest.raises(DimensionMismatchError):
            Cluster(2).allgather(["only one rank's payload"])

    def test_ranks_take_turns_on_the_calling_thread(self):
        n, rows, cols, _ = _graph()
        before = set(threading.enumerate())
        cluster = Cluster(4)
        a = DistMatrix.from_triples(cluster, n, n, T.BOOL, rows, cols,
                                    np.ones(len(rows), bool), LOR[T.BOOL])
        dist_bfs_levels(cluster, a, 0)
        assert set(threading.enumerate()) == before


class TestBlocks:
    def test_block_bounds_cover(self):
        b = block_bounds(10, 3)
        assert b[0] == 0 and b[-1] == 10
        assert all(b[i] <= b[i + 1] for i in range(3))

    def test_dist_matrix_scatter(self):
        n, rows, cols, vals = _graph()
        a = _dist(Cluster(3), n, rows, cols, vals)
        # Every edge lives on exactly one rank.
        assert sum(b.nvals() for b in a.blocks) == \
            _to_single(n, rows, cols, vals).nvals()

    def test_dist_vector_from_dense(self):
        dense = np.array([1.0, 0, 2.0, 0, 0, 3.0, 0, 4.0])
        v = DistVector.from_global_dense(Cluster(4), dense, T.FP64)
        assert [b.nvals() for b in v.blocks] == [1, 1, 1, 1]
        assert v.to_dict() == {0: 1.0, 2: 2.0, 5: 3.0, 7: 4.0}


class TestDistOps:
    @pytest.mark.parametrize("nranks", [1, 2, 4], ids=lambda n: f"p{n}")
    def test_dist_mxv_matches_single_node(self, nranks):
        n, rows, cols, vals = _graph()
        x, xv = _sparse_x(n, 0)
        expect = Vector.new(T.FP64, n)
        mxv(expect, None, None, PLUS_TIMES_SEMIRING[T.FP64],
            _to_single(n, rows, cols, vals), xv)
        expected = expect.to_dict()

        cluster = Cluster(nranks)
        u = DistVector.from_global_dense(cluster, x, T.FP64)
        w = dist_mxv(cluster, _dist(cluster, n, rows, cols, vals), u,
                     PLUS_TIMES_SEMIRING[T.FP64])
        got = w.to_dict()
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k])

    def _check_vxm(self, nranks, semiring):
        n, rows, cols, vals = _graph(scale=5)
        x, xv = _sparse_x(n, 1)
        expect = Vector.new(T.FP64, n)
        vxm(expect, None, None, semiring, xv, _to_single(n, rows, cols, vals))
        expected = {k: pytest.approx(v) for k, v in expect.to_dict().items()}

        cluster = Cluster(nranks)
        u = DistVector.from_global_dense(cluster, x, T.FP64)
        w = dist_vxm(cluster, u, _dist(cluster, n, rows, cols, vals),
                     semiring)
        assert w.to_dict() == expected

    @pytest.mark.parametrize("nranks", [2, 3], ids=lambda n: f"p{n}")
    def test_dist_vxm_matches_single_node(self, nranks):
        self._check_vxm(nranks, PLUS_TIMES_SEMIRING[T.FP64])

    @pytest.mark.parametrize("nranks", [2, 3], ids=lambda n: f"p{n}")
    def test_dist_vxm_min_plus_matches_single_node(self, nranks):
        """The partial outputs merge with the semiring's own ⊕ (MIN)."""
        self._check_vxm(nranks, MIN_PLUS_SEMIRING[T.FP64])

    @pytest.mark.parametrize("nranks", [2, 4], ids=lambda n: f"p{n}")
    def test_dist_mxm_matches_single_node(self, nranks):
        n, rows, cols, vals = _graph(scale=5)
        single = _to_single(n, rows, cols, vals)
        expect = Matrix.new(T.FP64, n, n)
        mxm(expect, None, None, PLUS_TIMES_SEMIRING[T.FP64], single, single)
        expected = expect.to_dict()

        cluster = Cluster(nranks)
        a = _dist(cluster, n, rows, cols, vals)
        c = dist_mxm(cluster, a, a, PLUS_TIMES_SEMIRING[T.FP64])
        got = {}
        for r, block in enumerate(c.blocks):
            lo = c.range(r)[0]
            got.update({(i + lo, j): v for (i, j), v in block.to_dict().items()})
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k])

    @pytest.mark.parametrize("nranks", [1, 3], ids=lambda n: f"p{n}")
    def test_dist_bfs_matches_single_node(self, nranks):
        n, rows, cols, vals = _graph(scale=6, seed=4)
        from repro.algorithms import bfs_levels
        single = _to_single(n, rows, cols, np.ones(len(rows)), T.BOOL)
        expected = {int(k): int(v)
                    for k, v in bfs_levels(single, 0).to_dict().items()}

        cluster = Cluster(nranks)
        a = DistMatrix.from_triples(cluster, n, n, T.BOOL, rows, cols,
                                    np.ones(len(rows), dtype=bool),
                                    LOR[T.BOOL])
        assert dist_bfs_levels(cluster, a, 0).to_dict() == expected

    def test_rank_contexts_are_nested(self):
        top = default_context()
        cluster = Cluster(2, top, nthreads=2)
        assert [(c.parent is top, c.nthreads, c.name)
                for c in cluster.contexts] == [(True, 2, "rank0"),
                                               (True, 2, "rank1")]

    def test_communication_volume_grows_with_ranks(self):
        """The 1-D mxv trade: allgather volume scales with p.  A dense u
        moves each rank's (int64 index, fp64 value) pairs to the p - 1
        others: 16 n (p - 1) bytes in p messages."""
        n, rows, cols, vals = _graph(scale=6)
        x = np.ones(n)
        for p in (2, 4):
            cluster = Cluster(p)
            a = _dist(cluster, n, rows, cols, vals)
            u = DistVector.from_global_dense(cluster, x, T.FP64)
            dist_mxv(cluster, a, u, PLUS_TIMES_SEMIRING[T.FP64])
            assert cluster.stats.snapshot() == {
                "messages": p, "bytes": 16 * n * (p - 1), "collectives": p}

    def test_transient_kernel_faults_keep_dist_mxv_exact(self):
        """A rank's kernels run under the engine's one retry ladder: a
        transient fault in a local step is retried, not surfaced."""
        n, rows, cols, vals = _graph(scale=5)
        expect = Vector.new(T.FP64, n)
        mxv(expect, None, None, PLUS_TIMES_SEMIRING[T.FP64],
            _to_single(n, rows, cols, vals), _sparse_x(n, 2)[1])
        expected = expect.to_dict()

        cluster = Cluster(2)
        a = _dist(cluster, n, rows, cols, vals)
        u = DistVector.from_global_dense(cluster, _sparse_x(n, 2)[0], T.FP64)
        before = STATS.snapshot()["retries_recovered"]
        PLANE.configure(6, [FaultSpec(site="kernel.mxv", transient=True,
                                      max_hits=2)])
        try:
            got = dist_mxv(cluster, a, u, PLUS_TIMES_SEMIRING[T.FP64]).to_dict()
            injected = PLANE.snapshot()["injected_total"]
        finally:
            PLANE.disable()
            configure_from_env()  # re-arm ambient env chaos if CI set it
        assert injected == 2
        assert STATS.snapshot()["retries_recovered"] > before
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k])
