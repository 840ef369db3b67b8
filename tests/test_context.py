"""Experiment F2 conformance: the §IV / Fig. 2 context surface."""

import threading
import time

import pytest

from repro.core import types as T
from repro.core.binaryop import PLUS
from repro.core.context import (
    Context,
    Mode,
    context_switch,
    default_context,
    finalize,
    get_version,
    init,
    is_initialized,
)
from repro.core.errors import (
    InvalidValueError,
    PanicError,
    UninitializedObjectError,
)
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.vector import Vector
from repro.ops.ewise import ewise_add
from repro.ops.mxm import mxm


class TestLifecycle:
    def test_init_gives_top_level_context(self):
        # conftest already initialized; restart to observe the object
        finalize()
        top = init(Mode.BLOCKING)
        assert top.parent is None
        assert top.mode == Mode.BLOCKING
        assert top.depth == 0
        assert default_context() is top

    def test_double_init_is_panic(self):
        with pytest.raises(PanicError):
            init()

    def test_finalize_without_init_is_panic(self):
        finalize()
        with pytest.raises(PanicError):
            finalize()
        init()   # restore for the fixture's teardown

    def test_method_before_init_is_panic(self):
        finalize()
        with pytest.raises(PanicError):
            Matrix.new(T.FP64, 2, 2)
        init()

    def test_finalize_frees_all_contexts(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        finalize()
        assert ctx.is_freed
        assert not is_initialized()
        init()

    def test_no_worker_thread_outlives_finalize(self, monkeypatch):
        from repro.internals import mxm as kernels

        def live():
            return [t.name for t in threading.enumerate()
                    if t.name.startswith("grb-")]

        # One product per block: each 4×4 mxm runs on the context's pool.
        monkeypatch.setattr(kernels, "BLOCK_PRODUCTS", 1)
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        pt = PLUS_TIMES_SEMIRING[T.FP64]
        a = Matrix.new(T.FP64, 4, 4, ctx)
        a.build([0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])
        eye = Matrix.new(T.FP64, 4, 4, ctx)
        eye.build([0, 1, 2, 3], [0, 1, 2, 3], [1.0] * 4)
        c = Matrix.new(T.FP64, 4, 4, ctx)
        d = Matrix.new(T.FP64, 4, 4, ctx)
        e = Matrix.new(T.FP64, 4, 4, ctx)
        mxm(c, None, None, pt, a, a)    # two independent products ...
        mxm(d, None, None, pt, a, eye)
        ewise_add(e, None, None, PLUS[T.FP64], c, d)  # ... joined
        assert e.nvals() == 8
        assert live(), "the forcing should have used the worker pool"
        finalize()
        deadline = time.monotonic() + 1.0
        while live() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert live() == []
        init()

    def test_get_version(self):
        assert get_version() == (2, 0)

    def test_mode_enum_values(self):
        assert Mode.NONBLOCKING == 0
        assert Mode.BLOCKING == 1


class TestHierarchy:
    def test_new_nests_under_top_by_default(self):
        """Fig. 2: parent=GrB_NULL means the top-level context."""
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        assert ctx.parent is default_context()
        assert ctx.depth == 1

    def test_explicit_parent(self):
        p = Context.new(Mode.NONBLOCKING, None, {"nthreads": 8})
        c = Context.new(Mode.BLOCKING, p, None)
        assert c.parent is p
        assert c.depth == 2
        assert p.is_ancestor_of(c)
        assert not c.is_ancestor_of(p)

    def test_exec_spec_inheritance(self):
        p = Context.new(Mode.NONBLOCKING, None,
                        {"nthreads": 8, "memo_capacity": 64})
        c = Context.new(Mode.NONBLOCKING, p, {"nthreads": 2})
        assert c.nthreads == 2          # own value wins
        assert c.memo_capacity == 64    # inherited from parent
        assert p.nthreads == 8

    def test_default_exec_values(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        assert ctx.nthreads == 1
        assert ctx.memo_capacity is None

    def test_exec_spec_validation(self):
        with pytest.raises(InvalidValueError):
            Context.new(Mode.NONBLOCKING, None, {"nthreads": 0})
        with pytest.raises(InvalidValueError):
            Context.new(Mode.NONBLOCKING, None, {"bogus_key": 1})

    def test_context_new_before_init_is_panic(self):
        finalize()
        with pytest.raises(PanicError):
            Context.new(Mode.NONBLOCKING, None, None)
        init()

    def test_new_under_freed_parent_rejected(self):
        p = Context.new(Mode.NONBLOCKING, None, None)
        p.free()
        with pytest.raises(UninitializedObjectError):
            Context.new(Mode.NONBLOCKING, p, None)


class TestObjectBinding:
    def test_constructors_take_context(self):
        """Fig. 2: GrB_Matrix_new / GrB_Vector_new carry a ctx argument."""
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        m = Matrix.new(T.FP64, 2, 2, ctx)
        v = Vector.new(T.FP64, 2, ctx)
        assert m.context is ctx and v.context is ctx

    def test_default_context_binding(self):
        m = Matrix.new(T.FP64, 2, 2)
        assert m.context is default_context()

    def test_mixed_contexts_rejected(self):
        """§IV: all objects in a method must share a context."""
        c1 = Context.new(Mode.NONBLOCKING, None, None)
        c2 = Context.new(Mode.NONBLOCKING, None, None)
        A = Matrix.new(T.FP64, 2, 2, c1)
        B = Matrix.new(T.FP64, 2, 2, c2)
        C = Matrix.new(T.FP64, 2, 2, c1)
        with pytest.raises(InvalidValueError):
            mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, B)

    def test_context_switch_rehomes(self):
        """Fig. 2: GrB_Context_switch(<GrB Object>*, newCtx)."""
        c1 = Context.new(Mode.NONBLOCKING, None, None)
        c2 = Context.new(Mode.NONBLOCKING, None, None)
        A = Matrix.new(T.FP64, 2, 2, c1)
        B = Matrix.new(T.FP64, 2, 2, c2)
        C = Matrix.new(T.FP64, 2, 2, c1)
        context_switch(B, c1)
        assert B.context is c1
        mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, B)  # now fine

    def test_switch_to_freed_context_rejected(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        A = Matrix.new(T.FP64, 2, 2)
        ctx.free()
        with pytest.raises(UninitializedObjectError):
            context_switch(A, ctx)

    def test_creating_object_in_freed_context_rejected(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        ctx.free()
        with pytest.raises(UninitializedObjectError):
            Matrix.new(T.FP64, 2, 2, ctx)

    def test_free_cascades_to_children(self):
        p = Context.new(Mode.NONBLOCKING, None, None)
        c = Context.new(Mode.NONBLOCKING, p, None)
        p.free()
        assert c.is_freed


class TestContextLifetime:
    """A freed context is dropped by everything the library holds."""

    def test_new_free_cycles_do_not_grow_the_registries(self):
        from repro.core import context as ctx_mod

        top = default_context()
        live, children = len(ctx_mod._all_contexts), len(top._children)
        for _ in range(1000):
            ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 1})
            Context.new(Mode.NONBLOCKING, ctx, None)   # a child, freed with it
            ctx.free()
        assert len(ctx_mod._all_contexts) == live
        assert len(top._children) == children

    def test_freed_context_is_collectable(self):
        import weakref

        ctx = Context.new(Mode.NONBLOCKING, None, None)
        m = Matrix.new(T.FP64, 2, 2, ctx)
        m.set_element(1.0, 0, 0)
        assert m.nvals() == 1
        del m
        ref = weakref.ref(ctx)
        ctx.free()
        del ctx
        assert ref() is None

    def test_finalize_still_frees_every_live_context(self):
        kept = Context.new(Mode.NONBLOCKING, None, None)
        Context.new(Mode.NONBLOCKING, None, None).free()
        finalize()
        assert kept.is_freed
        init()


class TestModeSemantics:
    def test_blocking_context_runs_eagerly(self):
        ctx = Context.new(Mode.BLOCKING, None, None)
        m = Matrix.new(T.FP64, 2, 2, ctx)
        m.set_element(1.0, 0, 0)
        assert m.is_materialized

    def test_nonblocking_context_defers(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        m = Matrix.new(T.FP64, 2, 2, ctx)
        m.set_element(1.0, 0, 0)
        assert not m.is_materialized

    def test_parallel_context_produces_identical_results(self):
        import numpy as np
        from repro.generators import random_matrix_data
        rows, cols, vals = random_matrix_data(40, 40, 0.1, seed=9)
        serial = Context.new(Mode.NONBLOCKING, None, {"nthreads": 1})
        wide = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        outs = []
        for ctx in (serial, wide):
            A = Matrix.new(T.FP64, 40, 40, ctx)
            A.build(rows, cols, vals)
            C = Matrix.new(T.FP64, 40, 40, ctx)
            mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
            outs.append(C.to_dense())
        assert np.allclose(outs[0], outs[1])
