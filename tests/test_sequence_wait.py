"""Experiment F1/§V conformance: sequences, completion, deferred errors."""

import numpy as np
import pytest

from repro.core import binaryop as B
from repro.core import types as T
from repro.core import unaryop as U
from repro.core.context import Context, Mode, WaitMode
from repro.core.errors import (
    DimensionMismatchError,
    DuplicateIndexError,
    IndexOutOfBoundsError,
    InvalidIndexError,
)
from repro.core.matrix import Matrix
from repro.core.scalar import Scalar
from repro.core.semiring import PLUS_TIMES_SEMIRING
from repro.core.sequence import error_string, wait
from repro.core.vector import Vector
from repro.engine.stats import STATS
from repro.ops.apply import apply
from repro.ops.assign import assign
from repro.ops.mxm import mxm

from .helpers import force_format, mat_from_dict


@pytest.fixture
def nb():
    return Context.new(Mode.NONBLOCKING, None, None)


@pytest.fixture
def bl():
    return Context.new(Mode.BLOCKING, None, None)


class TestDeferral:
    def test_operations_defer_in_nonblocking(self, nb):
        A = mat_from_dict({(0, 0): 2.0}, 2, 2, ctx=nb)
        C = Matrix.new(T.FP64, 2, 2, nb)
        mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
        assert not C.is_materialized
        wait(C, WaitMode.COMPLETE)
        assert C.nvals() == 1

    def test_wait_mode_enum_values(self):
        assert WaitMode.COMPLETE == 0
        assert WaitMode.MATERIALIZE == 1

    def test_sequence_order_preserved(self, nb):
        """Multiple deferred ops on one object run in program order."""
        v = Vector.new(T.INT64, 3, nb)
        v.set_element(1, 0)
        v.set_element(2, 0)     # overwrites
        v.set_element(3, 1)
        v.remove_element(1)
        wait(v)
        assert v.to_dict() == {0: 2}

    def test_accumulation_chain_defers_and_composes(self, nb):
        A = mat_from_dict({(0, 0): 1.0}, 2, 2, ctx=nb)
        C = Matrix.new(T.FP64, 2, 2, nb)
        mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
        mxm(C, None, B.PLUS[T.FP64], PLUS_TIMES_SEMIRING[T.FP64], A, A)
        mxm(C, None, B.PLUS[T.FP64], PLUS_TIMES_SEMIRING[T.FP64], A, A)
        assert not C.is_materialized
        wait(C)
        assert C.extract_element(0, 0) == 3.0

    def test_reading_forces(self, nb):
        v = Vector.new(T.INT64, 3, nb)
        v.set_element(7, 1)
        # nvals is a value-reading method: it forces the sequence.
        assert v.nvals() == 1

    def test_use_as_input_forces(self, nb):
        A = Matrix.new(T.FP64, 2, 2, nb)
        A.set_element(3.0, 0, 0)        # pending
        C = Matrix.new(T.FP64, 2, 2, nb)
        mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
        wait(C)
        assert C.extract_element(0, 0) == 9.0

    def test_blocking_mode_never_pends(self, bl):
        A = mat_from_dict({(0, 0): 2.0}, 2, 2, ctx=bl)
        C = Matrix.new(T.FP64, 2, 2, bl)
        mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
        assert C.is_materialized

    def test_capture_snapshot_semantics(self, nb):
        """An input mutated after the call does not change the result."""
        A = mat_from_dict({(0, 0): 2.0}, 2, 2, ctx=nb)
        C = Matrix.new(T.FP64, 2, 2, nb)
        mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
        A.set_element(100.0, 0, 0)      # after the call
        wait(C)
        assert C.extract_element(0, 0) == 4.0


class TestErrorModel:
    def test_api_errors_never_deferred(self, nb):
        """§V: API errors are raised at the call, even in nonblocking
        mode, and modify nothing."""
        A = Matrix.new(T.FP64, 2, 3, nb)
        C = Matrix.new(T.FP64, 2, 2, nb)
        with pytest.raises(DimensionMismatchError):
            mxm(C, None, None, PLUS_TIMES_SEMIRING[T.FP64], A, A)
        assert C.is_materialized        # nothing was enqueued
        assert C.nvals() == 0

    def test_execution_error_deferred_to_wait(self, nb):
        m = Matrix.new(T.FP64, 2, 2, nb)
        m.build([0, 0], [0, 0], [1.0, 2.0], dup=None)
        # Not raised yet:
        assert error_string(m) == ""
        with pytest.raises(DuplicateIndexError):
            wait(m, WaitMode.MATERIALIZE)

    def test_execution_error_immediate_in_blocking(self, bl):
        m = Matrix.new(T.FP64, 2, 2, bl)
        with pytest.raises(DuplicateIndexError):
            m.build([0, 0], [0, 0], [1.0, 2.0], dup=None)

    def test_error_string_recorded(self, nb):
        """§V: GrB_error returns an implementation-defined string."""
        m = Matrix.new(T.FP64, 2, 2, nb)
        m.build([0], [9], [1.0])
        with pytest.raises(IndexOutOfBoundsError):
            m.nvals()
        assert "out of range" in error_string(m)

    def test_error_surfaces_once_then_state_remains(self, nb):
        m = Matrix.new(T.FP64, 2, 2, nb)
        m.build([0, 0], [0, 0], [1.0, 2.0], dup=None)
        with pytest.raises(DuplicateIndexError):
            wait(m)
        # After surfacing, the object is usable again; its state is the
        # pre-failure state (defined by our implementation; the spec
        # leaves it undefined).
        wait(m, WaitMode.MATERIALIZE)
        assert m.nvals() == 0
        assert error_string(m) != ""

    def test_failed_op_drops_rest_of_sequence(self, nb):
        v = Vector.new(T.FP64, 3, nb)
        v.build([9], [1.0])            # will fail
        v.set_element(5.0, 0)          # queued after the failure
        with pytest.raises(IndexOutOfBoundsError):
            wait(v)
        assert v.nvals() == 0          # the set_element was dropped (§V)

    def test_materialize_also_completes(self, nb):
        """GrB_wait(obj, MATERIALIZE) always includes COMPLETE (§V)."""
        v = Vector.new(T.FP64, 3, nb)
        v.set_element(1.0, 0)
        wait(v, WaitMode.MATERIALIZE)
        assert v.is_materialized

    def test_complete_then_materialize_split(self, nb):
        """§V: a thread can COMPLETE, another can continue and MATERIALIZE."""
        v = Vector.new(T.FP64, 3, nb)
        v.set_element(1.0, 0)
        wait(v, WaitMode.COMPLETE)
        v.set_element(2.0, 1)          # sequence continues
        wait(v, WaitMode.MATERIALIZE)
        assert v.to_dict() == {0: 1.0, 1: 2.0}

    def test_error_default_is_empty_string(self, nb):
        assert error_string(Matrix.new(T.FP64, 2, 2, nb)) == ""


# ---------------------------------------------------------------------------
# Pending tuples: a run of element writes is one node, flushed in one merge
# ---------------------------------------------------------------------------


def _nodes_built(fn) -> int:
    before = STATS.snapshot()["nodes_built"]
    fn()
    return STATS.snapshot()["nodes_built"] - before


class TestPendingTuples:
    def test_k_writes_build_one_node(self, nb):
        v = Vector.new(T.INT64, 64, nb)

        def run():
            for i in range(50):
                v.set_element(i, i)
            for i in range(0, 50, 2):
                v.remove_element(i)

        assert _nodes_built(run) == 1
        assert v._sequence_labels() == ["Vector_setElement"]
        assert v.to_dict() == {i: i for i in range(1, 50, 2)}

    def test_every_write_advances_the_version_once(self, nb):
        v = Vector.new(T.INT64, 8, nb)
        before = v._version
        v.set_element(1, 0)
        v.set_element(2, 0)
        v.remove_element(0)
        assert v._version == before + 3

    def test_last_writer_wins_on_a_repeated_coordinate(self, nb):
        v = Vector.new(T.INT64, 4, nb)
        for x in range(10):
            v.set_element(x, 2)
        assert v.to_dict() == {2: 9}

    def test_remove_after_set_and_set_after_remove_in_one_run(self, nb):
        v = Vector.new(T.FP64, 6, nb)
        v.set_element(1.0, 0)
        v.set_element(2.0, 1)
        v.wait()                        # the base the run merges into
        v.set_element(5.0, 3)
        v.remove_element(3)             # set then remove: gone
        v.remove_element(0)
        v.set_element(7.0, 0)           # remove then set: back, new value
        v.remove_element(1)             # remove of a base entry
        v.remove_element(4)             # remove of nothing
        assert len(v._sequence_labels()) == 1
        assert v.to_dict() == {0: 7.0}

    @pytest.mark.parametrize("fmt", ["csr", "dcsr"])
    def test_matrix_run_in_both_formats(self, nb, fmt):
        with force_format(fmt):
            m = Matrix.new(T.FP64, 5, 5, nb)
            m.set_element(1.0, 0, 0)
            m.set_element(2.0, 4, 4)
            m.set_element(3.0, 2, 1)
            m.wait()

            def run():
                m.set_element(9.0, 2, 1)       # overwrite
                m.set_element(4.0, 2, 3)       # insert into a stored row
                m.set_element(5.0, 3, 0)       # insert into an empty row
                m.remove_element(0, 0)         # empties row 0
                m.remove_element(1, 1)         # was never there
                m.set_element(6.0, 4, 4)
                m.remove_element(4, 4)         # set then remove
                m.remove_element(2, 3)
                m.set_element(8.0, 2, 3)       # remove then set

            assert _nodes_built(run) == 1
            assert m.to_dict() == {(2, 1): 9.0, (2, 3): 8.0, (3, 0): 5.0}
            assert (m._capture().row_ids is not None) == (fmt == "dcsr")
            m._capture().check()

    def test_bool_domain(self, nb):
        v = Vector.new(T.BOOL, 5, nb)
        v.set_element(True, 1)
        v.set_element(0, 2)             # coerced at the call: stored False
        v.set_element(True, 2)
        v.set_element(False, 1)
        idx, vals = v.extract_tuples()
        assert vals.dtype == np.bool_
        assert dict(zip(idx.tolist(), vals.tolist())) == {1: False, 2: True}

    def test_udt_domain_keeps_tuple_values_whole(self, nb):
        point = T.Type.new(
            "PendingPoint", size=16,
            cast=lambda p: (float(p[0]), float(p[1])))
        v = Vector.new(point, 5, nb)
        v.set_element((1, 2), 3)
        v.set_element((3, 4), 0)
        v.set_element((5, 6), 3)        # last writer wins
        v.remove_element(0)
        v.set_element((7, 8), 4)
        assert v.to_dict() == {3: (5.0, 6.0), 4: (7.0, 8.0)}
        m = Matrix.new(point, 3, 3, nb)
        m.set_element((1, 1), 0, 2)
        m.set_element((2, 2), 2, 0)
        m.set_element((9, 9), 0, 2)
        m.remove_element(2, 0)
        assert m.to_dict() == {(0, 2): (9.0, 9.0)}

    def test_scalar_valued_writes(self, nb):
        """A ``GrB_Scalar`` value is resolved at the call: present ->
        set, empty -> remove (§VI), both joining the run."""
        full = Scalar.new(T.INT64, nb)
        full.set_element(42)
        empty = Scalar.new(T.INT64, nb)
        v = Vector.new(T.INT64, 4, nb)

        def run():
            v.set_element(1, 0)
            v.set_element(full, 1)
            v.set_element(empty, 0)
            full.set_element(7)         # after the call: not seen
            v.set_element(empty, 3)

        assert _nodes_built(run) == 2   # the run + the scalar's own write
        assert v.to_dict() == {1: 42}

    def test_api_errors_are_raised_at_the_call(self, nb):
        v = Vector.new(T.INT64, 4, nb)
        v.set_element(1, 0)
        with pytest.raises(InvalidIndexError):
            v.set_element(1, 4)
        with pytest.raises(ValueError):
            v.set_element("not a number", 1)
        m = Matrix.new(T.INT64, 2, 2, nb)
        with pytest.raises(InvalidIndexError):
            m.remove_element(0, 2)
        assert v.to_dict() == {0: 1}    # the run holds only valid writes

    def test_wait_complete_defers_and_materialize_flushes(self, nb):
        v = Vector.new(T.INT64, 8, nb)
        for i in range(8):
            v.set_element(i, i)
        before = STATS.snapshot()["completes_deferred"]
        wait(v, WaitMode.COMPLETE)
        assert STATS.snapshot()["completes_deferred"] == before + 1
        assert not v.is_materialized
        assert len(v._sequence_labels()) == 1       # still pending
        v.set_element(99, 0)                        # and still open
        assert len(v._sequence_labels()) == 1
        wait(v, WaitMode.MATERIALIZE)
        assert v.is_materialized
        assert v._sequence_labels() == []
        assert v.to_dict() == {0: 99, **{i: i for i in range(1, 8)}}

    def test_capture_by_an_operation_seals_the_run(self, nb):
        """apply captured v after two writes: the third write opens a
        new node, and the consumer never sees it."""
        v = Vector.new(T.FP64, 4, nb)
        w = Vector.new(T.FP64, 4, nb)

        def run():
            v.set_element(1.0, 0)
            v.set_element(2.0, 1)
            apply(w, None, None, U.AINV[T.FP64], v)
            v.set_element(3.0, 2)
            v.remove_element(0)

        assert _nodes_built(run) == 3   # run, apply, second run
        assert w.to_dict() == {0: -1.0, 1: -2.0}    # forces only its past
        assert len(v._sequence_labels()) == 1       # v's second run pending
        assert v.to_dict() == {1: 2.0, 2: 3.0}

    def test_capture_as_mask_and_value_of_assign(self, nb):
        v = Vector.new(T.INT64, 4, nb)
        out = Vector.new(T.INT64, 4, nb)
        v.set_element(5, 1)
        v.set_element(6, 3)
        assign(out, v, None, v, None)   # out<v> = v
        v.set_element(7, 0)             # after the capture
        v.remove_element(1)
        assert out.to_dict() == {1: 5, 3: 6}
        assert v.to_dict() == {0: 7, 3: 6}

    def test_dup_is_a_snapshot(self, nb):
        m = Matrix.new(T.INT64, 3, 3, nb)
        m.set_element(1, 0, 0)
        m.set_element(2, 1, 1)
        copy = m.dup()                  # forces the run
        m.set_element(3, 2, 2)
        m.remove_element(0, 0)
        assert copy.to_dict() == {(0, 0): 1, (1, 1): 2}
        assert m.to_dict() == {(1, 1): 2, (2, 2): 3}

    def test_a_method_between_writes_ends_the_run(self, nb):
        v = Vector.new(T.INT64, 4, nb)

        def run():
            v.set_element(1, 0)
            v.clear()
            v.set_element(2, 1)
            v.resize(8)
            v.set_element(3, 7)

        assert _nodes_built(run) == 5
        assert v.to_dict() == {1: 2, 7: 3}

    def test_blocking_mode_builds_no_nodes(self, bl):
        v = Vector.new(T.INT64, 4, bl)

        def run():
            v.set_element(1, 0)
            v.remove_element(0)
            v.set_element(2, 1)

        assert _nodes_built(run) == 0
        assert v.is_materialized
        assert v.to_dict() == {1: 2}
