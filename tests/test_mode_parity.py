"""Mode transparency: BLOCKING and NONBLOCKING give identical results.

The spec's nonblocking mode is purely an execution-policy freedom — any
observable difference between modes (other than *when* errors surface)
is a bug.  This battery runs representative pipelines in both modes and
compares final states exactly, using the parametrized ``mode_ctx``
fixture.
"""

import numpy as np
import pytest

from repro.core import binaryop as B
from repro.core import monoid as M
from repro.core import semiring as S
from repro.core import types as T
from repro.core.context import Context, Mode
from repro.core.descriptor import DESC_RSC, DESC_S
from repro.core.matrix import Matrix
from repro.core.vector import Vector
from repro.ops.apply import apply
from repro.ops.assign import assign
from repro.ops.ewise import ewise_add, ewise_mult
from repro.ops.extract import extract
from repro.ops.mxm import mxm
from repro.ops.reduce import reduce_scalar
from repro.ops.select import select
from repro.ops.transpose import transpose


def _both_modes(pipeline):
    """Run `pipeline(ctx) -> comparable` in both modes; assert equal."""
    results = []
    for mode in (Mode.BLOCKING, Mode.NONBLOCKING):
        ctx = Context.new(mode, None, None)
        results.append(pipeline(ctx))
    assert results[0] == results[1]
    return results[0]


def _graph(ctx, seed=3, n=20):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    r, c = np.nonzero(d)
    m = Matrix.new(T.FP64, n, n, ctx)
    m.build(r, c, d[r, c])
    return m, n


class TestModeParity:
    def test_mxm_chain(self):
        def pipeline(ctx):
            a, n = _graph(ctx)
            c = Matrix.new(T.FP64, n, n, ctx)
            mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, a)
            mxm(c, None, B.PLUS[T.FP64], S.PLUS_TIMES_SEMIRING[T.FP64], a, a)
            return sorted(c.to_dict().items())
        _both_modes(pipeline)

    def test_masked_pipeline(self):
        def pipeline(ctx):
            a, n = _graph(ctx, seed=7)
            from repro.core.indexunaryop import TRIL
            low = Matrix.new(T.FP64, n, n, ctx)
            select(low, None, None, TRIL, a, -1)
            c = Matrix.new(T.FP64, n, n, ctx)
            mxm(c, low, None, S.PLUS_TIMES_SEMIRING[T.FP64], low, low,
                desc=DESC_S)
            return reduce_scalar(M.PLUS_MONOID[T.FP64], c)
        _both_modes(pipeline)

    def test_element_mutation_interleaving(self):
        def pipeline(ctx):
            v = Vector.new(T.INT64, 16, ctx)
            for i in range(16):
                v.set_element(i * i, i)
            for i in range(0, 16, 2):
                v.remove_element(i)
            v.set_element(-1, 0)
            return sorted(v.to_dict().items())
        _both_modes(pipeline)

    def test_bfs_in_both_modes(self):
        def pipeline(ctx):
            rng = np.random.default_rng(11)
            n = 30
            d = rng.random((n, n)) < 0.1
            r, c = np.nonzero(d)
            a = Matrix.new(T.BOOL, n, n, ctx)
            a.build(r, c, np.ones(len(r), bool))
            levels = Vector.new(T.INT64, n, ctx)
            frontier = Vector.new(T.BOOL, n, ctx)
            frontier.set_element(True, 0)
            depth = 0
            from repro.ops.mxm import vxm
            from repro.core.semiring import LOR_LAND_SEMIRING_BOOL
            while frontier.nvals():
                assign(levels, frontier, None, depth, None, desc=DESC_S)
                vxm(frontier, levels, None, LOR_LAND_SEMIRING_BOOL,
                    frontier, a, desc=DESC_RSC)
                depth += 1
            return sorted(levels.to_dict().items())
        _both_modes(pipeline)

    def test_extract_assign_roundtrip(self):
        def pipeline(ctx):
            a, n = _graph(ctx, seed=5)
            sub = Matrix.new(T.FP64, 5, 5, ctx)
            extract(sub, None, None, a, list(range(5)), list(range(5)))
            c = Matrix.new(T.FP64, n, n, ctx)
            assign(c, None, None, sub, list(range(5)), list(range(5)))
            return sorted(c.to_dict().items())
        _both_modes(pipeline)

    def test_apply_transpose_reduce(self):
        def pipeline(ctx):
            a, n = _graph(ctx, seed=9)
            at = Matrix.new(T.FP64, n, n, ctx)
            transpose(at, None, None, a)
            doubled = Matrix.new(T.FP64, n, n, ctx)
            apply(doubled, None, None, B.TIMES[T.FP64], at, 2.0)
            return reduce_scalar(M.PLUS_MONOID[T.FP64], doubled)
        _both_modes(pipeline)

    def test_error_timing_differs_but_state_agrees(self):
        """The one sanctioned difference: *when* the error surfaces."""
        from repro.core.errors import DuplicateIndexError

        # Blocking: raises at build.
        bl = Context.new(Mode.BLOCKING, None, None)
        m1 = Matrix.new(T.FP64, 2, 2, bl)
        with pytest.raises(DuplicateIndexError):
            m1.build([0, 0], [0, 0], [1.0, 2.0], dup=None)

        # Nonblocking: raises at the forcing call.
        nb = Context.new(Mode.NONBLOCKING, None, None)
        m2 = Matrix.new(T.FP64, 2, 2, nb)
        m2.build([0, 0], [0, 0], [1.0, 2.0], dup=None)
        with pytest.raises(DuplicateIndexError):
            m2.wait()

        # Final state agrees: both empty, both with error text.
        assert m1.nvals() == m2.nvals() == 0
        assert "duplicate" in m1.error() and "duplicate" in m2.error()

    def test_mode_ctx_fixture(self, mode_ctx):
        """The shared fixture exposes both modes to any battery."""
        v = Vector.new(T.FP64, 3, mode_ctx)
        v.set_element(1.0, 0)
        expected_materialized = mode_ctx.mode == Mode.BLOCKING
        assert v.is_materialized == expected_materialized
        assert v.extract_element(0) == 1.0


# ---------------------------------------------------------------------------
# Property-based parity: random op chains, both modes, exact agreement.
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.context import WaitMode  # noqa: E402
from repro.core.errors import GraphBLASError  # noqa: E402
from repro.core.indexunaryop import TRIL, TRIU, VALUEGT  # noqa: E402
from repro.core.unaryop import AINV, UnaryOp  # noqa: E402

_N = 8

#: Op menu for generated chains.  Each entry takes (c, a, ctx, p) where
#: ``p`` is a small integer parameter from the strategy.
_OP_NAMES = (
    "apply_ainv",
    "apply_times",
    "select_tril",
    "select_triu",
    "select_valuegt",
    "transpose",
    "ewise_mult",
    "ewise_add",
    "mxm",
    "mxm_masked_rsc",
    "apply_masked_rsc",
    "dup_mxm_sum",
    "set_element",
    "remove_element",
    "clear",
    "assign_scalar",
    "wait_complete",
    "wait_materialize",
    "read_nvals",
)

_chain = st.lists(
    st.tuples(st.sampled_from(_OP_NAMES), st.integers(0, _N * _N - 1)),
    min_size=1, max_size=10,
)


def _apply_op(name, p, c, a, ctx):
    if name == "apply_ainv":
        apply(c, None, None, AINV[T.FP64], c)
    elif name == "apply_times":
        apply(c, None, None, B.TIMES[T.FP64], c, float((p % 5) - 2))
    elif name == "select_tril":
        select(c, None, None, TRIL, c, (p % 5) - 2)
    elif name == "select_triu":
        select(c, None, None, TRIU, c, (p % 5) - 2)
    elif name == "select_valuegt":
        select(c, None, None, VALUEGT[T.FP64], c, (p % 7) / 7.0 - 0.5)
    elif name == "transpose":
        transpose(c, None, None, c)
    elif name == "ewise_mult":
        ewise_mult(c, None, None, B.TIMES[T.FP64], c, a)
    elif name == "ewise_add":
        ewise_add(c, None, None, B.PLUS[T.FP64], c, a)
    elif name == "mxm":
        mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], c, a)
    elif name == "mxm_masked_rsc":
        # Masked in-place product: its own mask reaches the kernel.
        mxm(c, a, None, S.PLUS_TIMES_SEMIRING[T.FP64], c, a, desc=DESC_RSC)
    elif name == "apply_masked_rsc":
        # Masked in-place map right after whatever produced c — when the
        # producer is an unreferenced mxm the map fuses it; otherwise
        # the legality guards must refuse without changing the result.
        apply(c, a, None, AINV[T.FP64], c, DESC_RSC)
    elif name == "dup_mxm_sum":
        # Textually repeated subexpression: each product runs its own
        # kernel in both modes, and the sum must agree.
        t1 = Matrix.new(T.FP64, _N, _N, ctx)
        mxm(t1, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], c, a)
        t2 = Matrix.new(T.FP64, _N, _N, ctx)
        mxm(t2, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], c, a)
        ewise_add(c, None, None, B.PLUS[T.FP64], t1, t2)
    elif name == "set_element":
        c.set_element(float(p), p // _N, p % _N)
    elif name == "remove_element":
        c.remove_element(p // _N, p % _N)
    elif name == "clear":
        c.clear()
    elif name == "assign_scalar":
        assign(c, None, None, float(p), [p // _N], [p % _N])
    elif name == "wait_complete":
        c.wait(WaitMode.COMPLETE)
    elif name == "wait_materialize":
        c.wait(WaitMode.MATERIALIZE)
    elif name == "read_nvals":
        c.nvals()
    else:  # pragma: no cover - menu is exhaustive
        raise AssertionError(name)


def _run_chain(ctx, ops):
    a, _ = _graph(ctx, seed=13, n=_N)
    c = Matrix.new(T.FP64, _N, _N, ctx)
    mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, a)
    for name, p in ops:
        _apply_op(name, p, c, a, ctx)
    c.wait(WaitMode.MATERIALIZE)
    return sorted(c.to_dict().items())


class TestModeParityProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_chain)
    def test_random_chain_parity(self, ops):
        """Any generated op chain gives bit-identical results in both
        modes — deferral, fusion, and elision are unobservable."""
        results = [_run_chain(Context.new(mode, None, None), ops)
                   for mode in (Mode.BLOCKING, Mode.NONBLOCKING)]
        assert results[0] == results[1]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_chain)
    def test_error_parity(self, ops):
        """A failing op at the end of any chain leaves the same error
        text and the same final state in both modes; only the raise
        site differs (§V)."""

        def boom(x):
            raise ValueError("deliberate failure")

        bad = UnaryOp.new(boom, T.FP64, T.FP64, name="boom")

        outcomes = []
        for mode in (Mode.BLOCKING, Mode.NONBLOCKING):
            ctx = Context.new(mode, None, None)
            a, _ = _graph(ctx, seed=13, n=_N)
            c = Matrix.new(T.FP64, _N, _N, ctx)
            mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, a)
            for name, p in ops:
                _apply_op(name, p, c, a, ctx)
            err = None
            try:
                apply(c, None, None, bad, c)
                c.wait(WaitMode.MATERIALIZE)
            except GraphBLASError as exc:
                err = type(exc).__name__
            outcomes.append((err, c.error(), sorted(c.to_dict().items())))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_chain, seed=st.integers(0, 2**20))
    def test_chaos_chain_parity(self, ops, seed):
        """Low-probability transient faults at every kernel — plus
        non-transient faults at every planner pass boundary — must be
        absorbed without changing any chain's result: retries recover
        the kernels, and a faulted pass is skipped, degrading the plan,
        never the answer.

        ``max_hits`` caps kernel injections at the retry budget:
        Hypothesis *searches* the seed space, so without a cap it
        eventually finds a seed whose keyed hash fires on every retry
        of one kernel and the fault legitimately surfaces (a different
        §V contract than the absorption this test pins).
        """
        from repro.faults.plane import PLANE, FaultSpec
        from repro.internals import config

        oracle = _run_chain(Context.new(Mode.BLOCKING, None, None), ops)
        retry_budget = int(config.get_option("RETRY_MAX"))
        PLANE.configure(
            seed,
            [FaultSpec(site="kernel.*", rate=0.05, transient=True,
                       max_hits=retry_budget),
             FaultSpec(site="planner.*", rate=0.25)],
            armed_only=True,
        )
        try:
            got = _run_chain(Context.new(Mode.NONBLOCKING, None, None), ops)
        finally:
            PLANE.disable()
        assert got == oracle


# ---------------------------------------------------------------------------
# Pending tuples: random interleavings of element writes, captures and reads
# on one object, both modes, Vector and Matrix (CSR and DCSR), bit-exact.
# ---------------------------------------------------------------------------

from repro.core.scalar import Scalar  # noqa: E402

from .test_dcsr import force_csr, force_dcsr  # noqa: E402

_W = 6

_write_op = st.one_of(
    st.tuples(st.just("set"), st.integers(0, _W * _W - 1),
              st.integers(-3, 3)),
    st.tuples(st.just("remove"), st.integers(0, _W * _W - 1), st.none()),
    st.tuples(st.just("set_scalar"), st.integers(0, _W * _W - 1),
              st.one_of(st.none(), st.integers(-3, 3))),
    st.tuples(st.sampled_from(
        ("apply", "assign", "dup", "nvals", "extract",
         "wait_complete", "wait_materialize")),
        st.integers(0, _W * _W - 1), st.none()),
)
_write_chain = st.lists(_write_op, min_size=1, max_size=24)


def _exact(obj):
    """Every stored entry, position and value bytes included."""
    return tuple((a.dtype.str, a.tolist()) for a in obj.extract_tuples())


def _run_writes(ctx, ops, matrix: bool):
    """Play *ops* against one object; returns everything observable:
    each read, each captured consumer's value, and the final state."""
    t = T.FP64
    if matrix:
        obj = Matrix.new(t, _W, _W, ctx)
        coord = lambda p: (p // _W, p % _W)  # noqa: E731
        fresh = lambda: Matrix.new(t, _W, _W, ctx)  # noqa: E731
    else:
        obj = Vector.new(t, _W * _W, ctx)
        coord = lambda p: (p,)  # noqa: E731
        fresh = lambda: Vector.new(t, _W * _W, ctx)  # noqa: E731
    seen, captured = [], []
    for name, p, x in ops:
        if name == "set":
            obj.set_element(float(x), *coord(p))
        elif name == "remove":
            obj.remove_element(*coord(p))
        elif name == "set_scalar":
            s = Scalar.new(t, ctx)
            if x is not None:
                s.set_element(float(x))
            obj.set_element(s, *coord(p))
        elif name == "apply":
            out = fresh()
            apply(out, None, None, AINV[t], obj)
            captured.append(out)
        elif name == "assign":
            out = fresh()
            if matrix:
                assign(out, obj, None, obj, None, None, desc=DESC_S)
            else:
                assign(out, obj, None, obj, None, desc=DESC_S)
            captured.append(out)
        elif name == "dup":
            captured.append(obj.dup())
        elif name == "nvals":
            seen.append(obj.nvals())
        elif name == "extract":
            probe = Scalar.new(t, ctx)
            obj.extract_element(*coord(p), out=probe)
            seen.append(probe.extract_element() if probe.nvals() else None)
        elif name == "wait_complete":
            obj.wait(WaitMode.COMPLETE)
        else:
            obj.wait(WaitMode.MATERIALIZE)
    # Consumers are forced last: each must hold what it captured.
    return seen, [_exact(c) for c in captured], _exact(obj)


def _write_parity(ops, matrix):
    results = [_run_writes(Context.new(mode, None, None), ops, matrix)
               for mode in (Mode.BLOCKING, Mode.NONBLOCKING)]
    assert results[0] == results[1]


class TestPendingTupleParity:
    @settings(max_examples=60, deadline=None)
    @given(ops=_write_chain)
    def test_vector(self, ops):
        _write_parity(ops, matrix=False)

    @settings(max_examples=40, deadline=None)
    @given(ops=_write_chain)
    def test_matrix_csr(self, ops):
        with force_csr():
            _write_parity(ops, matrix=True)

    @settings(max_examples=40, deadline=None)
    @given(ops=_write_chain)
    def test_matrix_dcsr(self, ops):
        with force_dcsr():
            _write_parity(ops, matrix=True)
