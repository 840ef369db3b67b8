"""Performance *shape* guards — the paper's claims as CI assertions.

These are deliberately loose (≥2–3× where the benches measure 5–100×)
so they never flake on a loaded machine, but they fail loudly if a
regression ever inverts a shape the reproduction stands on:

* §II / Table IV: predefined index-unary ops beat user-defined ones;
* §II: 2.0 select beats the 1.X packed-values idiom;
* masks: the masked triangle-count formulation beats the unmasked one,
  and its degree order expands ≥3× fewer wedges than the given order;
  its product folds through the mask with no sort or membership search,
  one slot table per thread and call (counted, not timed).
"""

import threading
import time

import numpy as np
import pytest

from repro import compat
from repro.core import indexunaryop as IU
from repro.core import types as T
from repro.core.context import WaitMode
from repro.core.matrix import Matrix
from repro.generators import rmat, to_matrix
from repro.ops.apply import apply
from repro.ops.select import select


def _best(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture
def graph():
    n, rows, cols, vals = rmat(11, 8, seed=5)
    return to_matrix(n, rows, cols, vals, T.FP64, no_self_loops=True)


class TestHeadlineShapes:
    def test_predefined_index_op_beats_udf(self, graph):
        """Table IV / §II: vectorized predefined ≫ per-scalar UDF."""
        udf = IU.IndexUnaryOp.new(
            lambda v, i, j, s: j <= i + s, T.BOOL, T.FP64, T.INT64,
        )

        def run(op):
            out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
            select(out, None, None, op, graph, 0)
            out.wait(WaitMode.MATERIALIZE)

        t_pre = _best(lambda: run(IU.TRIL))
        t_udf = _best(lambda: run(udf))
        assert t_udf > 3 * t_pre, (
            f"predefined TRIL ({t_pre * 1e3:.2f} ms) should beat the UDF "
            f"equivalent ({t_udf * 1e3:.2f} ms) by > 3x"
        )

    def test_20_select_beats_1x_packed_idiom(self, graph):
        """§II: the packed-values workaround pays for itself."""
        packed = compat.pack_index_matrix(graph)

        def new_way():
            mid = Matrix.new(T.FP64, graph.nrows, graph.ncols)
            select(mid, None, None, IU.TRIU, graph, 1)
            out = Matrix.new(T.FP64, graph.nrows, graph.ncols)
            select(out, None, None, IU.VALUEGT[T.FP64], mid, 0.0)
            out.wait(WaitMode.MATERIALIZE)

        def old_way():
            out = compat.select_triu_value_packed_1x(packed, 0.0, T.FP64)
            out.wait(WaitMode.MATERIALIZE)

        t_new = _best(new_way)
        t_old = _best(old_way)
        assert t_old > 2 * t_new, (
            f"1.X packed idiom ({t_old * 1e3:.2f} ms) should lose to 2.0 "
            f"select ({t_new * 1e3:.2f} ms) by > 2x"
        )

    def test_predefined_apply_beats_udf(self, graph):
        udf = IU.IndexUnaryOp.new(lambda v, i, j, s: i + s,
                                  T.INT64, T.FP64, T.INT64)

        def run(op):
            out = Matrix.new(T.INT64, graph.nrows, graph.ncols)
            apply(out, None, None, op, graph, 0)
            out.wait(WaitMode.MATERIALIZE)

        t_pre = _best(lambda: run(IU.ROWINDEX[T.INT64]))
        t_udf = _best(lambda: run(udf))
        assert t_udf > 3 * t_pre

    def test_degree_order_expands_fewer_wedges(self):
        """The triangle count's masked product D·Dᵀ over the
        degree-oriented pattern expands ≥ 3× fewer products than L·Lᵀ
        over the strict lower triangle in the given vertex order.
        Counted, not timed: each entry X(i,k) of the left operand
        expands row k of Xᵀ, whose window ``row_gather`` returns."""
        from repro.algorithms.triangles import _oriented
        from repro.internals.containers import row_gather

        n, rows, cols, _ = rmat(12, 8, seed=11)
        g = to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64,
                      make_undirected=True, no_self_loops=True)
        low = Matrix.new(T.FP64, n, n)
        select(low, None, None, IU.TRIL, g, -1)

        def products(x):
            d = x._capture()
            lo, hi = row_gather(d.transpose(), d.col_indices)
            return int((hi - lo).sum())

        d = _oriented(g)
        assert d.nvals() == low.nvals()     # every edge, once
        given_order, by_degree = products(low), products(d)
        assert given_order >= 3 * by_degree, (given_order, by_degree)

    def test_full_operands_skip_the_index_search(self, monkeypatch):
        """A vxm over a u that covers A's nonempty rows runs over A's
        own arrays, and a full ⊕ full union merges by position: neither
        searches an index array.  A u missing one nonempty row still
        takes the row windows.  Counted, not timed."""
        from repro.core.binaryop import PLUS
        from repro.core.semiring import PLUS_TIMES_SEMIRING
        from repro.internals import ewise
        from repro.internals import mxm as kernels
        from repro.internals.containers import VecData

        calls = {"row_gather": 0, "_gather_expand": 0, "merge_sorted": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(kernels, "row_gather")
        counted(kernels, "_gather_expand")
        counted(ewise, "merge_sorted")

        n, rows, cols, _ = rmat(12, 8, seed=3)
        a = to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64,
                      make_undirected=True, no_self_loops=True)._capture()
        ring = PLUS_TIMES_SEMIRING[T.FP64]
        nonempty = np.flatnonzero(np.diff(a.indptr))
        assert len(nonempty) < n  # RMAT leaves some vertices isolated

        def vec(idx):
            return VecData(n, T.FP64, idx, np.linspace(1.0, 2.0, len(idx)))

        for idx in (np.arange(n, dtype=np.int64), nonempty):
            kernels.vxm(vec(idx), a, ring)
        full = vec(np.arange(n, dtype=np.int64))
        ewise.vec_union(full, full, PLUS[T.FP64], T.FP64)
        assert calls == {"row_gather": 0, "_gather_expand": 0,
                         "merge_sorted": 0}

        kernels.vxm(vec(nonempty[1:]), a, ring)
        assert calls["row_gather"] == calls["_gather_expand"] == 1

    def test_dense_vxm_visits_the_kernel_fault_site(self):
        """The covering-u path sits behind the same armed ``kernel.vxm``
        site: a transient fault there is injected and retried, and the
        answer is exact."""
        from repro.core.context import Context, Mode
        from repro.core.semiring import PLUS_TIMES_SEMIRING
        from repro.core.vector import Vector
        from repro.faults import PLANE, FaultSpec, suspended
        from repro.faults.plane import configure_from_env
        from repro.ops.mxm import vxm

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        n, rows, cols, _ = rmat(8, 8, seed=3)
        a = to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64,
                      no_self_loops=True, ctx=ctx)
        u = Vector.new(T.FP64, n, ctx)
        u.build(list(range(n)), [1.0 + i for i in range(n)])
        ring = PLUS_TIMES_SEMIRING[T.FP64]

        def run():
            w = Vector.new(T.FP64, n, ctx)
            vxm(w, None, None, ring, u, a)
            return w.to_dict()

        with suspended():
            expected = run()
        PLANE.configure(7, [FaultSpec(site="kernel.vxm", transient=True,
                                      max_hits=1)], armed_only=True)
        try:
            assert run() == expected
            assert PLANE.snapshot()["injected"] == {"kernel.vxm": 1}
        finally:
            PLANE.disable()
            configure_from_env()

    def test_masked_triangles_beat_unmasked(self):
        """Masks exist to prune work: masked D·Dᵀ ≤ Burkhardt wall-clock."""
        from repro.algorithms import (
            triangle_count,
            triangle_count_burkhardt,
        )
        n, rows, cols, _ = rmat(10, 8, seed=7)
        g = to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64,
                      make_undirected=True, no_self_loops=True)
        t_masked = _best(lambda: triangle_count(g), reps=2)
        t_unmasked = _best(lambda: triangle_count_burkhardt(g), reps=2)
        assert t_masked < t_unmasked, (
            f"masked {t_masked * 1e3:.1f} ms vs unmasked "
            f"{t_unmasked * 1e3:.1f} ms"
        )


class TestMaskedProductShapes:
    """A masked product folds through its mask: one slot table per call
    and thread gives each product its mask slot, and survivors fold by
    slot, with no sort and no membership search.  Counted with wrapped
    kernel helpers, never timed."""

    @staticmethod
    def _graph(ctx=None):
        n, rows, cols, _ = rmat(12, 8, seed=11)
        return to_matrix(n, rows, cols, np.ones(len(rows)), T.FP64,
                         make_undirected=True, no_self_loops=True, ctx=ctx)

    @staticmethod
    def _spy(monkeypatch, module, name):
        """Wrap ``module.name``; returns the list of ``(thread, args)``
        of every call."""
        calls = []
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((threading.get_ident(), args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
        return calls

    def _triangle_product(self):
        """(D, Dᵀ, ring, mask keys) of the triangle count's C⟨D⟩ = D·Dᵀ."""
        from repro.algorithms.triangles import _oriented
        from repro.core.semiring import PLUS_TIMES_SEMIRING
        from repro.internals.maskaccum import mat_mask_keys

        d = _oriented(self._graph())._capture()
        return (d, d.transpose(), PLUS_TIMES_SEMIRING[T.INT64],
                mat_mask_keys(d, True))

    @staticmethod
    def _assert_same(got, want):
        for g, w in ((got.indptr, want.indptr),
                     (got.col_indices, want.col_indices),
                     (got.values, want.values)):
            assert g.tobytes() == w.tobytes()

    def test_triangle_product_neither_sorts_nor_searches(self, monkeypatch):
        from repro.algorithms import triangle_count, triangle_count_burkhardt
        from repro.faults import suspended
        from repro.internals import config
        from repro.internals import mxm as kernels

        g = self._graph()
        expected = triangle_count_burkhardt(g)
        spies = {name: self._spy(monkeypatch, kernels, name)
                 for name in ("stable_argsort", "in_sorted", "fold_keys",
                              "_slot_table", "rows_of_keys")}
        # The mask must reach the kernel; a retried kernel call would
        # allocate again.
        with config.option("MASK_PUSHDOWN", True), suspended():
            assert triangle_count(g) == expected
        assert not spies["stable_argsort"]
        assert not spies["in_sorted"]
        assert not spies["fold_keys"]
        threads = [tid for tid, _ in spies["_slot_table"]]
        assert 1 <= len(threads) == len(set(threads))
        # rows_of_keys(mask_keys, r0, r0 + nb, ncols) runs once a block.
        spaces = [(hi - lo) * ncols
                  for _, (_, lo, hi, ncols) in spies["rows_of_keys"]]
        assert len(spaces) > 1
        assert max(spaces) <= kernels.SLOT_SPACE
        assert all(size <= kernels.SLOT_SPACE
                   for _, (size,) in spies["_slot_table"])

    def test_each_thread_allocates_one_table_per_call(self, monkeypatch):
        from repro.core.context import Context, Mode
        from repro.internals import mxm as kernels

        args = self._triangle_product()
        tables = self._spy(monkeypatch, kernels, "_slot_table")
        expected = kernels.mxm(*args)
        assert len(tables) == 1
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
        try:
            for _ in range(2):
                tables.clear()
                self._assert_same(kernels.mxm(*args, ctx=ctx), expected)
                threads = [tid for tid, _ in tables]
                assert 1 <= len(threads) == len(set(threads)) <= 2
        finally:
            ctx.free()

    def test_complemented_mask_folds_through_fold_keys(self, monkeypatch):
        """msbfs's F⟨¬Levels⟩ = F·A: the complemented mask takes the slot
        positions but folds through ``fold_keys``."""
        from repro.algorithms import bfs_levels
        from repro.algorithms.msbfs import msbfs_levels
        from repro.internals import mxm as kernels

        g = self._graph()
        sources = [0, 5, 17]
        expected = [bfs_levels(g, s).to_dict() for s in sources]
        folds = self._spy(monkeypatch, kernels, "fold_keys")
        levels = msbfs_levels(g, sources).to_dict()
        assert folds
        for row, want in enumerate(expected):
            assert {j: v for (i, j), v in levels.items() if i == row} == want

    def test_worker_fault_on_triangle_product_is_retried(self):
        from repro.algorithms import triangle_count, triangle_count_burkhardt
        from repro.core.context import Context, Mode
        from repro.engine.stats import STATS
        from repro.faults import PLANE, FaultSpec, suspended
        from repro.faults.plane import configure_from_env

        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
        g = self._graph(ctx)
        with suspended():
            expected = triangle_count_burkhardt(g)
        before = STATS.snapshot()["retries_recovered"]
        PLANE.configure(7, [FaultSpec(site="parallel.worker", transient=True,
                                      max_hits=1)])
        try:
            assert triangle_count(g) == expected
            assert PLANE.snapshot()["injected"] == {"parallel.worker": 1}
            assert STATS.snapshot()["retries_recovered"] > before
        finally:
            PLANE.disable()
            configure_from_env()
            ctx.free()

    def test_block_raising_mid_table_leaves_it_clean(self, monkeypatch):
        """A block that raises between writing its mask slots and
        resetting them leaves every table all −1, and the retried batch,
        which reuses the tables, is exact."""
        from repro.core.context import Context, Mode
        from repro.core.errors import OutOfMemoryError
        from repro.internals import mxm as kernels

        args = self._triangle_product()
        expected = kernels.mxm(*args)
        fired, tables = [], []

        class Flaky(np.ndarray):
            def __getitem__(self, idx):  # the slot gather
                if not fired:
                    fired.append(1)
                    raise OutOfMemoryError("slot gather failed")
                return np.asarray(self)[idx]

        make = kernels._slot_table

        def flaky_table(size):
            tables.append(make(size).view(Flaky))
            return tables[-1]
        monkeypatch.setattr(kernels, "_slot_table", flaky_table)
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
        try:
            got = kernels.mxm(*args, ctx=ctx)
        finally:
            ctx.free()
        assert fired
        self._assert_same(got, expected)
        assert tables and all((np.asarray(t) == -1).all() for t in tables)
