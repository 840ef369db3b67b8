"""Fault-injection plane + resilience machinery (§V stress tests).

Covers the plane itself (determinism, gating, spec matching), the
retry envelope, the transactional commit gate, and the ladder around
``mxm``'s threaded row blocks: worker faults retried or absorbed by a
serial re-run, with per-Context degradation.
"""

import numpy as np
import pytest

from repro.core import types as T
from repro.core.context import DEGRADE_AFTER_FAULTS, Context, Mode, WaitMode
from repro.core.errors import (
    InsufficientSpaceError,
    InvalidObjectError,
    OutOfMemoryError,
    PanicError,
)
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.sequence import wait
from repro.engine import txn
from repro.engine.stats import STATS
from repro.faults import (
    PLANE,
    SITES,
    FaultPlane,
    FaultSpec,
    enable_chaos,
    is_transient,
    maybe_inject,
    suspended,
    with_retry,
)
from repro.faults.plane import configure_from_env
from repro.internals import config
from repro.internals.containers import MatData, VecData
from repro.ops.mxm import mxm
from repro.validate import check_object

from .helpers import mat_from_dict

PT = PLUS_TIMES_SEMIRING[T.FP64]


@pytest.fixture(autouse=True)
def _plane_off():
    """Each test gets a quiet plane; ambient env chaos re-arms after."""
    PLANE.disable()
    yield
    PLANE.disable()
    configure_from_env()


def _stat(name):
    return STATS.snapshot()[name]


def _mat(d, n=4, ctx=None):
    return mat_from_dict(d, n, n, ctx=ctx)


D1 = {(0, 1): 2.0, (1, 2): 3.0, (2, 0): 4.0, (3, 3): 1.0}


# -- the plane itself ---------------------------------------------------------


class TestFaultPlane:
    def test_inactive_is_noop(self):
        maybe_inject("kernel.mxm")  # must not raise
        assert PLANE.fire("kernel.ewise") is None

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="x", rate=1.5)

    def test_error_injection_and_metadata(self):
        p = FaultPlane()
        p.configure(1, [FaultSpec(site="kernel.*", error=InsufficientSpaceError,
                                  transient=True)])
        with pytest.raises(InsufficientSpaceError) as ei:
            p.fire("kernel.mxm")
        assert ei.value.transient is True
        assert ei.value.injected is True
        assert "kernel.mxm" in str(ei.value)
        assert p.snapshot()["injected"] == {"kernel.mxm": 1}

    def test_pattern_and_where_matching(self):
        p = FaultPlane()
        p.configure(1, [FaultSpec(site="kernel.*", where={"domain": "t1"},
                                  error=PanicError)])
        p.fire("kernel.mxm", domain="t0")    # wrong domain: no injection
        p.fire("txn.commit", domain="t1")    # wrong site: no injection
        with pytest.raises(PanicError):
            p.fire("kernel.mxm", domain="t1")

    def test_max_hits_bounds_injections(self):
        p = FaultPlane()
        p.configure(1, [FaultSpec(site="s", max_hits=2)])
        for _ in range(2):
            with pytest.raises(OutOfMemoryError):
                p.fire("s")
        p.fire("s")  # budget spent: silent
        assert p.snapshot()["injected_total"] == 2

    def test_deterministic_across_planes(self):
        """Same seed + schedule + visit sequence => same decisions."""
        def pattern(seed):
            p = FaultPlane()
            p.configure(seed, [FaultSpec(site="k", rate=0.5)])
            out = []
            for _ in range(40):
                try:
                    p.fire("k")
                    out.append(0)
                except OutOfMemoryError:
                    out.append(1)
            return out

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # and the seed matters
        assert 0 < sum(pattern(7)) < 40  # rate actually thins

    def test_armed_only_gates_bare_calls(self):
        enable_chaos(3, rate=1.0)  # armed_only=True
        maybe_inject("kernel.mxm")  # unarmed: must not raise
        with pytest.raises(OutOfMemoryError):
            with_retry(lambda: maybe_inject("kernel.mxm"))

    def test_suspended_context_manager(self):
        PLANE.configure(1, [FaultSpec(site="s")])
        with suspended():
            maybe_inject("s")  # inactive inside
        with pytest.raises(OutOfMemoryError):
            maybe_inject("s")

    def test_configure_from_env(self):
        assert not configure_from_env({})
        assert configure_from_env({
            "REPRO_CHAOS_SEED": "11",
            "REPRO_CHAOS_RATE": "1.0",
            "REPRO_CHAOS_SITES": "kernel.mxm",
            "REPRO_CHAOS_ERROR": "InsufficientSpaceError",
        })
        assert PLANE.active and PLANE.armed_only
        with pytest.raises(InsufficientSpaceError) as ei:
            with_retry(lambda: maybe_inject("kernel.mxm"))
        assert is_transient(ei.value)

    def test_site_registry_names_are_hierarchical(self):
        assert "kernel.mxm" in SITES
        assert all("." in s for s in SITES)


# -- retry envelope -----------------------------------------------------------


class TestRetry:
    def test_transient_recovers_and_counts(self):
        calls = []
        before = {k: _stat(k) for k in ("retries", "retries_recovered")}

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OutOfMemoryError("transient blip")
            return "ok"

        assert with_retry(flaky) == "ok"
        assert len(calls) == 3
        assert _stat("retries") == before["retries"] + 2
        assert _stat("retries_recovered") == before["retries_recovered"] + 1

    def test_persistent_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise PanicError("wedged")

        with pytest.raises(PanicError):
            with_retry(broken)
        assert len(calls) == 1

    def test_budget_exhaustion(self):
        before = _stat("retries_exhausted")
        with config.option("RETRY_MAX", 2), config.option("RETRY_BASE_DELAY", 0.0):
            calls = []

            def always():
                calls.append(1)
                raise OutOfMemoryError("never clears")

            with pytest.raises(OutOfMemoryError):
                with_retry(always)
            assert len(calls) == 3  # 1 first attempt + 2 retries
        assert _stat("retries_exhausted") == before + 1

    def test_explicit_transient_attr_wins(self):
        exc = PanicError("but retryable")
        exc.transient = True
        assert is_transient(exc)
        exc2 = OutOfMemoryError("but hopeless")
        exc2.transient = False
        assert not is_transient(exc2)


# -- transactional commit -----------------------------------------------------


class TestTxnCommit:
    def test_valid_carriers_pass_through(self):
        m = MatData(2, 2, T.FP64, np.array([0, 1, 2]), np.array([0, 1]),
                    np.array([1.0, 2.0]))
        assert txn.commit("mxm", m) is m
        v = VecData(3, T.FP64, np.array([1]), np.array([5.0]))
        assert txn.commit("assign", v) is v
        assert txn.commit("reduce", 42.0) == 42.0  # scalars pass through

    def test_corrupt_matrix_refused(self):
        bad = MatData(2, 2, T.FP64, np.array([0, 1]),  # indptr too short
                      np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidObjectError, match="corrupt scratch"):
            txn.commit("mxm", bad)
        bad2 = MatData(2, 2, T.FP64, np.array([0, 1, 1]),  # span mismatch
                       np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidObjectError):
            txn.commit("mxm", bad2)

    def test_corrupt_vector_refused(self):
        bad = VecData(3, T.FP64, np.array([0, 1]), np.array([5.0]))
        with pytest.raises(InvalidObjectError):
            txn.commit("assign", bad)

    def test_commit_site_fault_leaves_blocking_object_unchanged(self):
        """§V transactional guarantee, blocking mode: a fault at the
        commit gate aborts before the reference store."""
        ctx = Context.new(Mode.BLOCKING, None, None)
        m = _mat(D1, ctx=ctx)
        before = m.to_dict()
        PLANE.configure(1, [FaultSpec(site="txn.commit", error=PanicError,
                                      where={"label": "mxm"})])
        other = Matrix.new(T.FP64, 4, 4, ctx)
        with suspended():
            o = _mat({(0, 0): 1.0}, ctx=ctx)
        with pytest.raises(PanicError):
            mxm(m, None, None, PT, m, o)
        PLANE.disable()
        assert m.to_dict() == before
        assert "injected" in m.error()
        check_object(m)
        del other

    def test_commit_site_fault_nonblocking_pre_op_state(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        m = _mat(D1, ctx=ctx)
        wait(m, WaitMode.MATERIALIZE)
        before = m.to_dict()
        with suspended():
            o = _mat({(1, 1): 2.0}, ctx=ctx)
        PLANE.configure(1, [FaultSpec(site="txn.commit", error=PanicError,
                                      where={"label": "mxm"})])
        mxm(m, None, None, PT, m, o)
        with pytest.raises(PanicError):
            wait(m, WaitMode.MATERIALIZE)
        PLANE.disable()
        assert m.to_dict() == before
        assert m.error() != ""
        check_object(m)


# -- kernel sites through the ops layer ---------------------------------------


class TestKernelSiteResilience:
    @pytest.mark.parametrize("mode", [Mode.BLOCKING, Mode.NONBLOCKING],
                             ids=["blocking", "nonblocking"])
    def test_transient_kernel_fault_recovered_exactly(self, mode):
        ctx = Context.new(mode, None, None)
        a = _mat(D1, ctx=ctx)
        c = Matrix.new(T.FP64, 4, 4, ctx)
        with suspended():
            ref = _mat(D1, ctx=ctx)
            r = Matrix.new(T.FP64, 4, 4, ctx)
            mxm(r, None, None, PT, ref, ref)
            wait(r)
            expected = r.to_dict()
        before = _stat("retries_recovered")
        PLANE.configure(5, [FaultSpec(site="kernel.mxm", transient=True,
                                      max_hits=2)])
        mxm(c, None, None, PT, a, a)
        wait(c)
        PLANE.disable()
        assert c.to_dict() == expected
        assert _stat("retries_recovered") >= before + 1

    def test_persistent_kernel_fault_defers_with_pre_op_state(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        m = _mat(D1, ctx=ctx)
        wait(m, WaitMode.MATERIALIZE)
        before_d = m.to_dict()
        before_stat = _stat("errors_deferred")
        with suspended():
            o = _mat({(2, 2): 1.0}, ctx=ctx)
        PLANE.configure(5, [FaultSpec(site="kernel.mxm",
                                      error=InsufficientSpaceError)])
        mxm(m, None, None, PT, m, o)
        with pytest.raises(InsufficientSpaceError):
            wait(m)
        PLANE.disable()
        assert m.to_dict() == before_d
        assert "injected persistent fault" in m.error()
        assert _stat("errors_deferred") == before_stat + 1
        check_object(m)


# -- mxm block-worker faults + degradation ------------------------------------


@pytest.fixture
def small_blocks(monkeypatch):
    """One product per block: even a 4×4 mxm splits into several blocks,
    so a context with ``nthreads > 1`` runs them on its worker pool."""
    from repro.internals import mxm as kernels

    monkeypatch.setattr(kernels, "BLOCK_PRODUCTS", 1)


def _two_source_program(ctx):
    """A diamond of two mxm chains joined by an eWise add: two threaded
    block batches per forcing."""
    a = _mat(D1, ctx=ctx)
    b = _mat({(0, 0): 1.0, (1, 1): 2.0, (2, 3): 3.0}, ctx=ctx)
    c = Matrix.new(T.FP64, 4, 4, ctx)
    d = Matrix.new(T.FP64, 4, 4, ctx)
    e = Matrix.new(T.FP64, 4, 4, ctx)
    mxm(c, None, None, PT, a, a)
    mxm(d, None, None, PT, b, b)
    from repro.ops.ewise import ewise_add
    import repro.core.binaryop as B

    ewise_add(e, None, None, B.PLUS[T.FP64], c, d)
    return e


@pytest.mark.usefixtures("small_blocks")
class TestWorkerCrashAbsorption:
    def test_crash_absorbed_and_result_correct(self):
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
        with suspended():
            ref = _two_source_program(ctx)
            wait(ref)
            expected = ref.to_dict()
        before = _stat("worker_faults")
        PLANE.configure(3, [FaultSpec(site="parallel.worker", max_hits=1,
                                      error=PanicError)])
        e = _two_source_program(ctx)
        wait(e)
        PLANE.disable()
        assert e.to_dict() == expected
        assert _stat("worker_faults") == before + 1
        assert not ctx.is_degraded  # one fault is below the threshold

    def test_repeated_crashes_degrade_context_to_serial(self):
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        before = _stat("degraded_serial")
        for _ in range(DEGRADE_AFTER_FAULTS - 1):
            assert not ctx.record_worker_fault()
            assert not ctx.is_degraded
        assert ctx.record_worker_fault()  # crosses the threshold
        assert ctx.is_degraded
        assert ctx.record_worker_fault() is False  # only flips once
        # a degraded context's mxm blocks never reach a pool worker
        PLANE.configure(5, [FaultSpec(site="parallel.worker",
                                      error=PanicError)])
        wait(_two_source_program(ctx))
        assert PLANE.snapshot()["injected"].get("parallel.worker", 0) == 0
        PLANE.disable()
        assert ctx._pool is None
        ctx.restore()
        assert not ctx.is_degraded
        assert _stat("degraded_serial") == before

    def test_degraded_end_to_end_still_correct(self):
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
        with suspended():
            ref = _two_source_program(ctx)
            wait(ref)
            expected = ref.to_dict()
        before = _stat("degraded_serial")
        # Every pool worker faults: each mxm's batch re-runs serially
        # and counts one fault, which degrades the context.
        PLANE.configure(9, [FaultSpec(site="parallel.worker",
                                      error=PanicError)])
        e = _two_source_program(ctx)
        wait(e)
        PLANE.disable()
        assert e.to_dict() == expected
        assert ctx.is_degraded
        assert _stat("degraded_serial") == before + DEGRADE_AFTER_FAULTS
        # and degraded execution remains correct
        e2 = _two_source_program(ctx)
        wait(e2)
        assert e2.to_dict() == expected


# -- block batch path ---------------------------------------------------------


@pytest.mark.usefixtures("small_blocks")
class TestParallelDegradation:
    def _operands(self):
        rng = np.random.default_rng(0)
        d = {(i, j): float(rng.integers(1, 5))
             for i in range(16) for j in range(16) if rng.random() < 0.4}
        with suspended():
            a = _mat(d, n=16)
        wait(a, WaitMode.MATERIALIZE)
        return a._data

    def test_persistent_fault_falls_back_to_serial(self):
        a = self._operands()
        from repro.internals.mxm import mxm as kernel_mxm

        with suspended():
            expected = kernel_mxm(a, a, PT)
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        before = _stat("degraded_serial")
        PLANE.configure(2, [FaultSpec(site="parallel.worker",
                                      error=PanicError)])
        got = kernel_mxm(a, a, PT, ctx=ctx)
        PLANE.disable()
        assert _stat("degraded_serial") == before + 1
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.col_indices, expected.col_indices)
        assert np.allclose(got.values, expected.values)

    def test_failing_user_op_is_not_a_worker_fault(self):
        from repro.core.binaryop import BinaryOp
        from repro.core.monoid import Monoid
        from repro.core.semiring import Semiring
        from repro.internals.mxm import mxm as kernel_mxm

        def bad_mult(x, y):
            raise PanicError("mult exploded")

        sr = Semiring.new(Monoid.new(PT.add.op, 0.0),
                          BinaryOp.new(bad_mult, T.FP64, T.FP64, T.FP64))
        a = self._operands()
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        before = _stat("worker_faults")
        for _ in range(DEGRADE_AFTER_FAULTS):
            with pytest.raises(PanicError):
                kernel_mxm(a, a, sr, ctx=ctx)
        assert _stat("worker_faults") == before
        assert not ctx.is_degraded

    def test_transient_fault_retried_at_node_level(self):
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        rng = np.random.default_rng(1)
        d = {(i, j): float(rng.integers(1, 5))
             for i in range(16) for j in range(16) if rng.random() < 0.4}
        with suspended():
            a = _mat(d, n=16, ctx=ctx)
            ref = Matrix.new(T.FP64, 16, 16, ctx)
            mxm(ref, None, None, PT, a, a)
            wait(ref)
            expected = ref.to_dict()
        before = _stat("retries_recovered")
        c = Matrix.new(T.FP64, 16, 16, ctx)
        PLANE.configure(4, [FaultSpec(site="parallel.worker", transient=True,
                                      max_hits=1)])
        mxm(c, None, None, PT, a, a)
        wait(c)
        PLANE.disable()
        assert c.to_dict() == expected
        assert _stat("retries_recovered") >= before + 1


# -- surfacing ----------------------------------------------------------------


class TestObservability:
    def test_engine_stats_exposes_fault_counters(self):
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        PLANE.configure(1, [FaultSpec(site="nowhere.real")])
        snap = ctx.engine_stats()
        for key in ("faults_injected", "retries", "retries_recovered",
                    "worker_faults", "degraded_serial", "fault_sites",
                    "context_degraded"):
            assert key in snap
        assert snap["context_degraded"] is False

    def test_cli_chaos_flag(self, capsys):
        from repro.cli import main
        from repro.core.context import finalize, is_initialized

        if is_initialized():
            finalize()
        import io

        out = io.StringIO()
        rc = main(["--chaos", "7", "--chaos-rate", "0.3", "selftest"], out=out)
        assert rc == 0
        text = out.getvalue()
        assert "selftest: 5/5" in text
        assert "fault plane: seed=7" in text
        assert not PLANE.active  # CLI turns the plane off afterwards


@pytest.mark.usefixtures("small_blocks")
class TestPoolAfterFree:
    def test_deferred_forcing_after_free_does_not_resurrect_pool(self):
        # Regression: ``worker_pool()`` used to rebuild a fresh executor
        # when called after ``free()`` (the release path had already
        # shut the old one down), leaking threads nothing would ever
        # join.  A deferred forcing that outlives the context must now
        # degrade to the serial kernel instead.
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        rng = np.random.default_rng(2)
        d = {(i, j): float(rng.integers(1, 5))
             for i in range(16) for j in range(16) if rng.random() < 0.4}
        a = _mat(d, n=16, ctx=ctx)
        ref = Matrix.new(T.FP64, 16, 16, ctx)
        mxm(ref, None, None, PT, a, a)
        wait(ref)
        expected = ref.to_dict()
        c = Matrix.new(T.FP64, 16, 16, ctx)
        mxm(c, None, None, PT, a, a)         # deferred
        before = _stat("degraded_serial")
        ctx.free()                           # pool finalized, work in flight
        assert ctx.worker_pool() is None
        wait(c)                              # forcing outlives the context
        assert _stat("degraded_serial") == before + 1
        assert c.to_dict() == expected
        assert ctx._pool is None, "free() left a resurrectable worker pool"
