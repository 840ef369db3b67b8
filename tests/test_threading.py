"""Multithreading battery (§III): thread safety and the Fig. 1 hand-off."""

import sys
import threading

import numpy as np

from repro.core import types as T
from repro.core.context import Context, Mode, WaitMode
from repro.core.matrix import Matrix
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.sequence import error_string, wait
from repro.core.vector import Vector
from repro.ops.mxm import mxm

from .helpers import mat_from_dict

PT = PLUS_TIMES_SEMIRING[T.FP64]


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestIndependentThreadSafety:
    """§III: independent method calls from multiple threads must return
    the same results as some sequential interleaving."""

    def test_independent_matrices_across_threads(self):
        results = {}
        errors = []

        def worker(tid: int):
            try:
                rng = np.random.default_rng(tid)
                d = {(i, j): float(rng.integers(1, 5))
                     for i in range(12) for j in range(12)
                     if rng.random() < 0.3}
                A = mat_from_dict(d, 12, 12)
                C = Matrix.new(T.FP64, 12, 12)
                mxm(C, None, None, PT, A, A)
                wait(C, WaitMode.MATERIALIZE)
                results[tid] = (C.to_dense(), A.to_dense())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_threads(*(lambda tid=k: worker(tid) for k in range(8)))
        assert not errors
        for tid, (got, da) in results.items():
            assert np.allclose(got, da @ da), f"thread {tid} corrupted"

    def test_concurrent_setelement_same_object_serializes(self):
        """Per-object locking: concurrent mutations interleave safely."""
        v = Vector.new(T.INT64, 1024)

        def writer(base: int):
            for i in range(base, 1024, 4):
                v.set_element(i, i)

        _run_threads(*(lambda b=k: writer(b) for k in range(4)))
        wait(v)
        idx, vals = v.extract_tuples()
        assert len(idx) == 1024
        assert np.array_equal(idx, vals)

    def test_concurrent_error_queries_thread_safe(self):
        """§V: two threads may call GrB_error on the same object."""
        m = Matrix.new(T.FP64, 2, 2)
        m.build([0, 0], [0, 0], [1.0, 2.0], dup=None)
        try:
            wait(m)
        except Exception:
            pass
        seen = []

        def reader():
            for _ in range(100):
                seen.append(error_string(m))

        _run_threads(reader, reader)
        assert all("duplicate" in s for s in seen)


class TestPendingTupleRace:
    """Appends run under the owner's lock, forcings under the engine's:
    a write acknowledged before a forcing collects the run is in the
    forced result, a write racing the forcing opens a new run — never
    lost, never applied twice."""

    def test_append_vs_force(self):
        n_writes, n_forcers = 4000, 3    # more threads than cores
        ctx = Context.new(Mode.NONBLOCKING, None, None)
        v = Vector.new(T.INT64, n_writes + 1, ctx)
        acked = [0]                      # writes acknowledged so far
        done = threading.Event()
        failures = []

        def writer():
            try:
                for i in range(n_writes):
                    v.set_element(i, i)          # a new coordinate
                    v.set_element(i, n_writes)   # a rewritten one
                    acked[0] = i + 1
            except Exception as exc:  # pragma: no cover
                failures.append(exc)
            finally:
                done.set()

        def forcer():
            try:
                last = 0
                while not done.is_set():
                    before = acked[0]
                    idx, vals = v.extract_tuples()
                    rewritten = len(idx) > 0 and idx[-1] == n_writes
                    seen = len(idx) - rewritten   # coordinates 0..seen-1
                    # Every write acknowledged before the forcing began
                    # is in its result, and nothing ever disappears.
                    assert seen >= before, (seen, before)
                    assert seen >= last, (seen, last)
                    last = seen
                    assert np.array_equal(idx[:seen], np.arange(seen))
                    assert np.array_equal(vals[:seen], np.arange(seen))
                    if rewritten:
                        # Written right after coordinate i with value i:
                        # it holds the latest counter or the one before
                        # — never an older run's, re-applied.
                        assert seen - 2 <= vals[-1] <= seen - 1, (vals[-1], seen)
                    else:
                        assert seen <= 1
            except Exception as exc:
                failures.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=forcer)
                        for _ in range(n_forcers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert not failures, failures[0]
        idx, vals = v.extract_tuples()
        assert len(idx) == n_writes + 1
        assert np.array_equal(idx[:-1], vals[:-1])
        assert vals[-1] == n_writes - 1


class TestFigOnePattern:
    """The Fig. 1 program shape: produce → wait(COMPLETE) → publish →
    consume on another thread after a synchronized-with edge."""

    def test_shared_object_handoff(self):
        n = 24

        def mk(seed):
            return {
                (i, j): float(np.random.default_rng(seed).integers(1, 5))
                for i in range(n) for j in range(n)
                if np.random.default_rng(seed * 977 + i * n + j).random() < 0.2
            }
        a_d, b_d, d_d, e_d, f_d = (mk(s) for s in range(5))
        flag = threading.Event()
        Esh = Matrix.new(T.FP64, n, n)
        Hres = Matrix.new(T.FP64, n, n)
        Dres = Matrix.new(T.FP64, n, n)

        def thread0():
            A = mat_from_dict(a_d, n, n)
            B = mat_from_dict(b_d, n, n)
            D = mat_from_dict(d_d, n, n)
            C = Matrix.new(T.FP64, n, n)
            mxm(C, None, None, PT, A, B)
            mxm(Esh, None, None, PT, D, C)
            wait(Esh, WaitMode.COMPLETE)
            flag.set()                       # release
            mxm(Dres, None, None, PT, A, Esh)
            wait(Dres, WaitMode.COMPLETE)

        def thread1():
            E = mat_from_dict(e_d, n, n)
            F = mat_from_dict(f_d, n, n)
            G = Matrix.new(T.FP64, n, n)
            mxm(G, None, None, PT, E, F)
            flag.wait()                      # acquire
            mxm(Hres, None, None, PT, G, Esh)
            wait(Hres, WaitMode.COMPLETE)

        _run_threads(thread0, thread1)
        wait(Dres, WaitMode.MATERIALIZE)
        wait(Hres, WaitMode.MATERIALIZE)

        # sequential reference
        import numpy as _np
        def to_dense(d):
            out = _np.zeros((n, n))
            for (i, j), v in d.items():
                out[i, j] = v
            return out
        dA, dB, dD, dE, dF = map(to_dense, (a_d, b_d, d_d, e_d, f_d))
        dEsh = dD @ (dA @ dB)
        assert np.allclose(Dres.to_dense(), dA @ dEsh)
        assert np.allclose(Hres.to_dense(), (dE @ dF) @ dEsh)

    def test_repeated_handoffs_stress(self):
        """Run the hand-off pattern repeatedly to shake out races."""
        n = 8
        for trial in range(10):
            flag = threading.Event()
            shared = Vector.new(T.INT64, n)
            result = {}

            def producer():
                for i in range(n):
                    shared.set_element(i * 10, i)
                wait(shared, WaitMode.COMPLETE)
                flag.set()

            def consumer():
                flag.wait()
                result["vals"] = shared.to_dict()

            _run_threads(producer, consumer)
            assert result["vals"] == {i: i * 10 for i in range(n)}

    def test_parallel_contexts_in_threads(self):
        """Each thread works in its own context with its own threads."""
        outs = {}

        def worker(tid):
            ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
            d = {(i, (i * 3) % 10): 1.0 + i for i in range(10)}
            A = mat_from_dict(d, 10, 10, ctx=ctx)
            C = Matrix.new(T.FP64, 10, 10, ctx)
            mxm(C, None, None, PT, A, A)
            wait(C)
            outs[tid] = C.to_dense()

        _run_threads(*(lambda k=k: worker(k) for k in range(4)))
        base = next(iter(outs.values()))
        for o in outs.values():
            assert np.allclose(o, base)
