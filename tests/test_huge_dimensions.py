"""Astronomically-shaped containers and the exact-key fallback.

``GrB_Index`` is 64-bit.  Columns and vector sizes here go to 2^61 —
pushing the pair-key encoding ``row * ncols + col`` past int64 so the
exact (object-key) fallback path runs under real operations.  Row
counts are capped by the documented CSR limit (the dense row pointer);
exceeding it is a defined ``GrB_OUT_OF_MEMORY``, not a crash.
"""

import numpy as np
import pytest

from repro.core import binaryop as B
from repro.core import monoid as M
from repro.core import semiring as S
from repro.core import types as T
from repro.core.errors import OutOfMemoryError
from repro.core.indexunaryop import COLGT
from repro.core.matrix import Matrix
from repro.core.vector import Vector
from repro.internals.containers import MAX_NROWS, pair_keys
from repro.ops.apply import apply
from repro.ops.ewise import ewise_add, ewise_mult
from repro.ops.extract import extract
from repro.ops.mxm import mxm, vxm
from repro.ops.reduce import reduce_scalar
from repro.ops.select import select

WIDE = 1 << 61   # 8 rows x 2^61 cols: keys overflow int64 -> object path


def _wide_matrix(entries: dict, nrows: int = 8) -> Matrix:
    m = Matrix.new(T.FP64, nrows, WIDE)
    rows, cols = zip(*entries.keys())
    m.build(list(rows), list(cols), list(entries.values()))
    m.wait()
    return m


ENTRIES = {
    (0, 0): 1.0,
    (0, WIDE - 1): 2.0,
    (3, 7): 3.0,
    (7, WIDE - 1): 4.0,
    (7, 0): 5.0,
}


class TestKeyFallback:
    def test_pair_keys_switch_to_objects(self):
        rows = np.array([7], dtype=np.int64)
        cols = np.array([WIDE - 1], dtype=np.int64)
        keys = pair_keys(rows, cols, WIDE)
        assert keys.dtype == object
        assert keys[0] == 7 * WIDE + WIDE - 1

    def test_small_shapes_stay_int64(self):
        keys = pair_keys(np.array([1]), np.array([2]), 100)
        assert keys.dtype == np.int64


class TestWideMatrices:
    def test_build_and_read_back(self):
        m = _wide_matrix(ENTRIES)
        assert m.nvals() == len(ENTRIES)
        assert m.to_dict() == ENTRIES
        assert m.extract_element(0, WIDE - 1) == 2.0

    def test_set_element_at_extreme_column(self):
        m = Matrix.new(T.FP64, 2, WIDE)
        m.set_element(9.5, 1, WIDE - 1)
        assert m.extract_element(1, WIDE - 1) == 9.5

    def test_ewise_union_object_keys(self):
        a = _wide_matrix(ENTRIES)
        b = _wide_matrix({(0, 0): 10.0, (5, 5): 20.0})
        c = Matrix.new(T.FP64, 8, WIDE)
        ewise_add(c, None, None, B.PLUS[T.FP64], a, b)
        got = c.to_dict()
        assert got[(0, 0)] == 11.0
        assert got[(5, 5)] == 20.0
        assert got[(7, 0)] == 5.0

    def test_ewise_intersection_object_keys(self):
        a = _wide_matrix(ENTRIES)
        b = _wide_matrix({(0, 0): 2.0, (7, WIDE - 1): 3.0, (1, 1): 9.0})
        c = Matrix.new(T.FP64, 8, WIDE)
        ewise_mult(c, None, None, B.TIMES[T.FP64], a, b)
        assert c.to_dict() == {(0, 0): 2.0, (7, WIDE - 1): 12.0}

    def test_mxm_into_wide_output(self):
        a = Matrix.new(T.FP64, 4, 4)
        a.build([0, 3], [2, 2], [2.0, 4.0])
        b = Matrix.new(T.FP64, 4, WIDE)
        b.build([2], [WIDE - 1], [10.0])
        c = Matrix.new(T.FP64, 4, WIDE)
        mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, b)
        assert c.to_dict() == {(0, WIDE - 1): 20.0, (3, WIDE - 1): 40.0}

    def test_masked_mxm_pushdown_object_keys(self):
        from repro.core.descriptor import DESC_S
        a = Matrix.new(T.FP64, 4, 4)
        a.build([0, 1], [2, 2], [2.0, 4.0])
        b = Matrix.new(T.FP64, 4, WIDE)
        b.build([2, 2], [0, WIDE - 1], [10.0, 20.0])
        mask = Matrix.new(T.BOOL, 4, WIDE)
        mask.set_element(True, 0, WIDE - 1)
        c = Matrix.new(T.FP64, 4, WIDE)
        mxm(c, mask, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, b, desc=DESC_S)
        assert c.to_dict() == {(0, WIDE - 1): 40.0}

    def test_select_and_apply_on_wide(self):
        m = _wide_matrix(ENTRIES)
        right = Matrix.new(T.FP64, 8, WIDE)
        select(right, None, None, COLGT, m, 10)
        assert set(right.to_dict()) == \
            {k for k in ENTRIES if k[1] > 10}
        doubled = Matrix.new(T.FP64, 8, WIDE)
        apply(doubled, None, None, B.TIMES[T.FP64], m, 2.0)
        assert doubled.extract_element(7, WIDE - 1) == 8.0

    def test_reduce_scalar_wide(self):
        m = _wide_matrix(ENTRIES)
        assert reduce_scalar(M.PLUS_MONOID[T.FP64], m) == \
            pytest.approx(sum(ENTRIES.values()))

    def test_extract_corners(self):
        m = _wide_matrix(ENTRIES)
        sub = Matrix.new(T.FP64, 2, 2)
        extract(sub, None, None, m, [0, 7], [0, WIDE - 1])
        assert sub.to_dict() == {(0, 0): 1.0, (0, 1): 2.0,
                                 (1, 0): 5.0, (1, 1): 4.0}

    def test_serialize_roundtrip_wide(self):
        from repro.formats import matrix_deserialize, matrix_serialize
        m = _wide_matrix(ENTRIES)
        back = matrix_deserialize(matrix_serialize(m))
        assert back.to_dict() == ENTRIES
        assert back.ncols == WIDE


class TestHugeVectors:
    HUGE = 1 << 60

    def test_sparse_vector_at_extremes(self):
        v = Vector.new(T.FP64, self.HUGE)
        v.set_element(1.0, 0)
        v.set_element(2.0, self.HUGE - 1)
        assert v.nvals() == 2
        assert v.extract_element(self.HUGE - 1) == 2.0

    def test_vxm_into_huge_output(self):
        a = Matrix.new(T.FP64, 4, WIDE)
        a.build([1], [WIDE - 1], [3.0])
        u = Vector.new(T.FP64, 4)
        u.set_element(2.0, 1)
        w = Vector.new(T.FP64, WIDE)
        vxm(w, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], u, a)
        assert w.to_dict() == {WIDE - 1: 6.0}

    def test_huge_vector_ewise(self):
        u = Vector.new(T.FP64, self.HUGE)
        u.set_element(1.0, self.HUGE - 2)
        v = Vector.new(T.FP64, self.HUGE)
        v.set_element(2.0, self.HUGE - 2)
        w = Vector.new(T.FP64, self.HUGE)
        ewise_mult(w, None, None, B.TIMES[T.FP64], u, v)
        assert w.to_dict() == {self.HUGE - 2: 2.0}


class TestRowLimit:
    def test_exceeding_nrows_defaults_to_hypersparse(self):
        """Past the dense row pointer limit a matrix simply constructs
        with a row list — O(nnz) memory, no limit."""
        m = Matrix.new(T.FP64, MAX_NROWS + 1, 4)
        m.set_element(1.5, MAX_NROWS, 3)
        assert m.nvals() == 1
        assert m.extract_element(MAX_NROWS, 3) == 1.5

    def test_dense_row_pointer_demands_are_out_of_memory(self):
        """What needs a dense row pointer past the limit — Table III
        CSR/CSC export and a GrB_ALL scalar fill — is the defined
        ``GrB_OUT_OF_MEMORY``, never a ``MemoryError`` crash."""
        from repro.formats import Format, matrix_export
        from repro.ops.assign import assign

        n = 1 << 40

        def two_entries():
            m = Matrix.new(T.FP64, n, n)
            m.build([0, n - 1], [n - 1, 0], [1.0, 2.0])
            return m

        for fmt in (Format.CSR_MATRIX, Format.CSC_MATRIX):
            with pytest.raises(OutOfMemoryError) as ei:
                matrix_export(two_entries(), fmt)
            assert "row list" in str(ei.value)
        m = two_entries()
        with pytest.raises(OutOfMemoryError):
            assign(m, None, None, 3.0, None, None)
            m.nvals()

    def test_limit_is_generous_for_real_graphs(self):
        assert MAX_NROWS >= 100_000_000
