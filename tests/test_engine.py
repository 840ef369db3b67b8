"""The lazy expression-DAG engine: fusion, elision, scheduling, stats.

These tests pin the engine's *observable* contract:

* wait(COMPLETE) and wait(MATERIALIZE) are distinct — COMPLETE may
  legally leave a pure built-in chain deferred (§III completion), while
  MATERIALIZE always leaves the object with concrete storage (§V).
* fusion actually fires on in-place apply/select chains and produces
  results identical to step-by-step execution;
* transpose pairs cancel and value-independent selects hoist ahead of
  maps inside a fused pipeline;
* forcing one object settles exactly the needed subgraph (its inputs),
  not unrelated pending work;
* deferred execution errors surface at the forcing call with the §V
  guarantees intact even through fused pipelines;
* independent chains run concurrently when the context allows it.
"""

import numpy as np
import numpy.testing as npt
import pytest

from repro.core import binaryop as B
from repro.core import indexunaryop as IU
from repro.core import types as T
from repro.core import unaryop as U
from repro.core.context import Context, Mode, WaitMode, default_context
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.vector import Vector
from repro.engine.stats import STATS
from repro.ops.apply import apply
from repro.ops.ewise import ewise_mult
from repro.ops.mxm import mxm
from repro.ops.select import select
from repro.ops.transpose import transpose


@pytest.fixture(autouse=True)
def fresh_stats():
    STATS.reset()
    yield


def _graph(n=32, seed=0, density=0.1):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) * (rng.random((n, n)) < density)
    r, c = np.nonzero(d)
    m = Matrix.new(T.FP64, n, n)
    m.build(r, c, d[r, c])
    m.wait(WaitMode.MATERIALIZE)
    STATS.reset()  # setup noise (the build node) is not under test
    return m


def _mat_eq(a: Matrix, b: Matrix):
    da, db = a._capture(), b._capture()
    npt.assert_array_equal(da.indptr, db.indptr)
    npt.assert_array_equal(da.col_indices, db.col_indices)
    npt.assert_allclose(da.values, db.values)


class TestWaitModes:
    """Satellite: COMPLETE vs MATERIALIZE are observably distinct."""

    def test_complete_defers_pure_builtin_chain(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        c.wait(WaitMode.COMPLETE)
        assert STATS.snapshot()["completes_deferred"] == 1
        assert not c.is_materialized
        # The deferred kernel never ran.
        assert STATS.snapshot()["nodes_forced"] == 0

    def test_materialize_forces_the_same_chain(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        c.wait(WaitMode.MATERIALIZE)
        assert c.is_materialized
        assert STATS.snapshot()["completes_deferred"] == 0
        assert STATS.snapshot()["nodes_forced"] >= 1

    def test_complete_forces_chains_that_can_fail(self):
        """mxm can raise an execution error, so COMPLETE may not defer
        it — the §III completion contract requires the error be known."""
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(c, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        c.wait(WaitMode.COMPLETE)
        assert STATS.snapshot()["completes_deferred"] == 0
        assert STATS.snapshot()["nodes_forced"] >= 1

    def test_deferred_complete_still_reads_correctly(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        c.wait(WaitMode.COMPLETE)
        # A value read after the deferred COMPLETE forces and agrees.
        assert c.nvals() == a.nvals()


class TestFusion:
    def test_inplace_chain_fuses_to_one_kernel(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(c, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        apply(c, None, None, U.AINV[T.FP64], c)
        select(c, None, None, IU.TRIL, c, 0)
        c.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        assert snap["chains_fused"] == 1
        assert snap["nodes_fused"] == 2
        # One fused kernel ran instead of three separate ones.
        assert snap["kernel_count"] == {"fused:select": 1}

    def test_fused_matches_stepwise(self):
        a = _graph(seed=3)
        fused = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(fused, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        apply(fused, None, None, U.AINV[T.FP64], fused)
        select(fused, None, None, IU.TRIL, fused, 0)
        fused.wait(WaitMode.MATERIALIZE)

        step = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(step, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        step.wait(WaitMode.MATERIALIZE)
        step2 = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(step2, None, None, U.AINV[T.FP64], step)
        step2.wait(WaitMode.MATERIALIZE)
        step3 = Matrix.new(T.FP64, a.nrows, a.ncols)
        select(step3, None, None, IU.TRIL, step2, 0)
        step3.wait(WaitMode.MATERIALIZE)
        _mat_eq(fused, step3)

    def test_select_hoists_ahead_of_map(self):
        """TRIL is value-independent: the fused pipeline filters first so
        the map touches fewer stored values."""
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        select(c, None, None, IU.TRIL, c, 0)
        c.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["selects_hoisted"] == 1

    def test_value_select_does_not_hoist(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        select(c, None, None, IU.VALUELT[T.FP64], c, 0.0)
        c.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["selects_hoisted"] == 0
        # Sanity: AINV flips signs, so "< 0" keeps what was "> 0".
        d = a._capture()
        assert c.nvals() == int((d.values > 0).sum())

    def test_double_transpose_elides(self):
        a = _graph(seed=5)
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        transpose(c, None, None, c)
        transpose(c, None, None, c)
        select(c, None, None, IU.TRIL, c, 0)
        c.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["transposes_elided"] == 1

        ref = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(ref, None, None, U.AINV[T.FP64], a)
        ref.wait(WaitMode.MATERIALIZE)
        ref2 = Matrix.new(T.FP64, a.nrows, a.ncols)
        select(ref2, None, None, IU.TRIL, ref, 0)
        ref2.wait(WaitMode.MATERIALIZE)
        _mat_eq(c, ref2)

    def test_select_after_ewise_mult_fuses(self):
        a, b = _graph(seed=6), _graph(seed=7)
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        ewise_mult(c, None, None, B.TIMES[T.FP64], a, b)
        select(c, None, None, IU.TRIU, c, 0)
        c.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        assert snap["chains_fused"] == 1 and snap["nodes_fused"] == 1

    def test_cross_object_producer_not_elided(self):
        """A producer still visible as another object's tail must run —
        its owner can be read later."""
        a = _graph(seed=8)
        mid = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(mid, None, None, U.AINV[T.FP64], a)
        out = Matrix.new(T.FP64, a.nrows, a.ncols)
        select(out, None, None, IU.TRIL, mid, 0)
        out.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["chains_fused"] == 0
        # mid is intact and readable.
        assert mid.nvals() == a.nvals()

    def test_masked_consumer_does_not_fuse(self):
        """A masked write-back is impure — it merges with the carrier —
        so the producer under it must run as a standalone kernel."""
        a = _graph(seed=9)
        rr, cc, _ = a.extract_tuples()
        keep = rr >= cc
        m = Matrix.new(T.BOOL, a.nrows, a.ncols)
        m.build(rr[keep], cc[keep], np.ones(int(keep.sum()), bool))
        m.wait(WaitMode.MATERIALIZE)
        STATS.reset()

        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        select(c, m, None, IU.TRIL, c, 0)
        c.wait(WaitMode.MATERIALIZE)
        assert STATS.snapshot()["chains_fused"] == 0

        # Same two steps with a forced boundary in between agree exactly.
        ref = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(ref, None, None, U.AINV[T.FP64], a)
        ref.wait(WaitMode.MATERIALIZE)
        select(ref, m, None, IU.TRIL, ref, 0)
        ref.wait(WaitMode.MATERIALIZE)
        _mat_eq(c, ref)


class TestForcingScope:
    def test_force_settles_only_the_needed_subgraph(self):
        a = _graph()
        wanted = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(wanted, None, None, U.AINV[T.FP64], a)
        unrelated = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(unrelated, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        wanted.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        # The mxm on `unrelated` stayed pending.
        assert "mxm" not in snap["kernel_count"]
        assert not unrelated.is_materialized

    def test_force_pulls_in_producing_inputs(self):
        a = _graph()
        mid = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(mid, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        out = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(out, None, None, U.AINV[T.FP64], mid)
        out.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        assert snap["kernel_count"].get("mxm") == 1
        # mid's chain was settled as a side effect of forcing out.
        assert mid._tail is None or mid._tail.result is not None


class TestErrorSemantics:
    def test_error_through_fused_chain(self):
        """A failing UDF inside a fused pipeline surfaces at the wait
        with the §V wrapping and leaves the pre-failure carrier."""
        from repro.core.errors import PanicError

        def boom(x):
            raise RuntimeError("kaput")

        bad = U.UnaryOp.new(boom, T.FP64, T.FP64, name="boom")
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        apply(c, None, None, bad, c)
        with pytest.raises(PanicError, match="user-defined function raised"):
            c.wait(WaitMode.MATERIALIZE)
        assert "boom" in c.error() or "apply" in c.error()
        # Error surfaces exactly once; afterwards the object is usable.
        c.wait(WaitMode.MATERIALIZE)

    def test_failed_node_fails_dependents_without_running_them(self):
        from repro.core.errors import DuplicateIndexError

        bad = Matrix.new(T.FP64, 4, 4)
        bad.build([0, 0], [0, 0], [1.0, 2.0], dup=None)
        out = Matrix.new(T.FP64, 4, 4)
        apply(out, None, None, U.AINV[T.FP64], bad)
        with pytest.raises(DuplicateIndexError):
            out.wait(WaitMode.MATERIALIZE)
        # The apply kernel never ran on poisoned input.
        assert "apply" not in STATS.snapshot()["kernel_count"]


class TestScheduler:
    def test_independent_chains_run_in_parallel_batches(self):
        # nthreads parallelises inside mxm, not across the DAG: a diamond
        # of independent chains on a 4-thread context still comes out exact.
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        a = _mk_ctx_graph(ctx)
        outs = []
        for k in range(4):
            c = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
            apply(c, None, None, B.TIMES[T.FP64], a, float(k + 1))
            outs.append(c)
        lhs = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
        ewise_mult(lhs, None, None, B.PLUS[T.FP64], outs[0], outs[1])
        rhs = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
        ewise_mult(rhs, None, None, B.PLUS[T.FP64], outs[2], outs[3])
        final = Matrix.new(T.FP64, a.nrows, a.ncols, ctx)
        ewise_mult(final, None, None, B.TIMES[T.FP64], lhs, rhs)
        final.wait(WaitMode.MATERIALIZE)
        # (1+2)*(3+4) = 21 x a^2 values.
        da = a._capture()
        df = final._capture()
        npt.assert_allclose(df.values, 21.0 * da.values * da.values)

    def test_single_thread_context_stays_serial(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        d = Matrix.new(T.FP64, a.nrows, a.ncols)
        apply(c, None, None, U.AINV[T.FP64], a)
        apply(d, None, None, U.AINV[T.FP64], a)
        e = Matrix.new(T.FP64, a.nrows, a.ncols)
        ewise_mult(e, None, None, B.PLUS[T.FP64], c, d)
        e.wait(WaitMode.MATERIALIZE)
        assert default_context()._pool is None  # no worker pool was built


class TestNodeRelease:
    """A settled node keeps only its result: once the forcing ends
    nothing pins inputs, closures or owners, so algorithm intermediates
    die by refcount — no cycle is left for the collector."""

    @staticmethod
    def _run(name):
        import gc

        from repro import algorithms as alg
        from repro.engine.dag import Node
        from repro.faults import suspended
        from repro.generators import erdos_renyi, to_matrix

        n, rows, cols, _ = erdos_renyi(120, 0.06, seed=4)
        calls = {
            "pagerank": lambda a: alg.pagerank(a)[0].nvals(),
            "components": lambda a: alg.connected_components(a).nvals(),
            "triangle_count": alg.triangle_count,
        }
        for phase in ("warm-up", "measured"):   # imports leave cycles once
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            # Ambient chaos stays off: a retried fault's traceback is a
            # frame cycle of its own, whatever the engine releases.
            try:
                with suspended():
                    ctx = Context.new(Mode.NONBLOCKING, None, None)
                    a = to_matrix(n, rows, cols, np.ones(len(rows)),
                                  T.FP64, make_undirected=True,
                                  no_self_loops=True, ctx=ctx)
                    calls[name](a)
                    del a
                    ctx.free()
                    del ctx
                gc.collect()
                pinned = [type(o).__name__ for o in gc.garbage
                          if isinstance(o, (Node, Vector, Matrix))]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
        return pinned

    @pytest.mark.parametrize("name",
                             ["pagerank", "components", "triangle_count"])
    def test_no_cycles_left_behind(self, name):
        assert self._run(name) == []

    def test_settled_node_drops_its_links(self):
        a = _graph()
        c = Matrix.new(T.FP64, a.nrows, a.ncols)
        mxm(c, None, None, PLUS_TIMES_SEMIRING[T.FP64], a, a)
        apply(c, None, None, U.AINV[T.FP64], c)
        node = c._tail
        c.wait(WaitMode.MATERIALIZE)
        assert node.result is c._capture()
        assert (node.prev, node.inputs, node.owner) == (None, (), None)
        assert node.compute is node.writeback is node.stages is None


def _mk_ctx_graph(ctx, n=48, seed=1):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) * (rng.random((n, n)) < 0.1)
    r, c = np.nonzero(d)
    m = Matrix.new(T.FP64, n, n, ctx)
    m.build(r, c, d[r, c])
    m.wait(WaitMode.MATERIALIZE)
    return m


class TestStatsSurface:
    def test_context_engine_stats(self):
        ctx = default_context()
        snap = ctx.engine_stats()
        assert set(snap) >= {"nodes_built", "nodes_fused", "forces"}

    def test_vector_pipeline_fusion(self):
        v = Vector.new(T.FP64, 100)
        v.build(np.arange(0, 100, 3), np.arange(0, 100, 3, dtype=float))
        v.wait(WaitMode.MATERIALIZE)
        STATS.reset()
        w = Vector.new(T.FP64, 100)
        apply(w, None, None, B.TIMES[T.FP64], v, 2.0)
        apply(w, None, None, U.AINV[T.FP64], w)
        apply(w, None, None, B.PLUS[T.FP64], w, 1.0)
        w.wait(WaitMode.MATERIALIZE)
        snap = STATS.snapshot()
        assert snap["chains_fused"] == 1 and snap["nodes_fused"] == 2
        got = dict(zip(*w.extract_tuples()))
        expect = {int(i): -(2.0 * i) + 1.0 for i in range(0, 100, 3)}
        assert got == pytest.approx(expect)
