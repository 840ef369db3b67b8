"""Kernel-layer unit battery: carriers, build, threaded mxm blocks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import binaryop as B
from repro.core import semiring as S
from repro.core import types as T
from repro.core.context import Context, Mode
from repro.core.errors import DuplicateIndexError, IndexOutOfBoundsError
from repro.internals import mxm as mxm_kernels
from repro.internals.build import build_matrix, build_vector, dedup_sorted
from repro.internals.containers import (
    VecData,
    coo_to_csr,
    csr_to_coo_rows,
    empty_mat,
    empty_vec,
    merge_column,
    merge_slots,
    merge_sorted,
    pair_keys,
)


class TestContainers:
    def test_empty_constructors(self):
        v = empty_vec(5, T.FP64)
        v.check()
        assert v.nvals == 0 and v.size == 5
        m = empty_mat(3, 4, T.INT32)
        m.check()
        assert m.nvals == 0 and (m.nrows, m.ncols) == (3, 4)

    def test_coo_to_csr_sorts(self):
        m = coo_to_csr(3, 3, T.FP64,
                       np.array([2, 0, 0]), np.array([1, 2, 0]),
                       np.array([3.0, 2.0, 1.0]))
        m.check()
        assert m.indptr.tolist() == [0, 2, 2, 3]
        assert m.col_indices.tolist() == [0, 2, 1]

    def test_row_expansion_roundtrip(self):
        m = coo_to_csr(4, 4, T.FP64,
                       np.array([0, 0, 2, 3]), np.array([1, 3, 0, 2]),
                       np.ones(4))
        rows = csr_to_coo_rows(m.indptr, m.nrows)
        assert rows.tolist() == [0, 0, 2, 3]

    def test_transpose_involution(self):
        m = coo_to_csr(3, 5, T.FP64,
                       np.array([0, 1, 2]), np.array([4, 0, 2]),
                       np.array([1.0, 2.0, 3.0]))
        tt = m.transpose().transpose()
        assert np.array_equal(tt.indptr, m.indptr)
        assert np.array_equal(tt.col_indices, m.col_indices)
        assert np.array_equal(tt.values, m.values)

    def test_pair_keys_int64(self):
        keys = pair_keys(np.array([0, 1]), np.array([2, 3]), 10)
        assert keys.tolist() == [2, 13]
        assert keys.dtype == np.int64

    def test_pair_keys_overflow_fallback(self):
        """Huge shapes switch to exact object keys instead of overflowing."""
        big = 2 ** 40
        keys = pair_keys(np.array([big], dtype=np.int64),
                         np.array([big - 1], dtype=np.int64), 2 ** 41)
        assert keys.dtype == object
        assert keys[0] == big * 2 ** 41 + big - 1

    def test_astype(self):
        v = VecData(3, T.FP64, np.array([1], dtype=np.int64), np.array([2.5]))
        w = v.astype(T.INT32)
        assert w.values.dtype == np.int32 and w.values[0] == 2
        assert v.astype(T.FP64) is v

    def test_to_dense(self):
        v = VecData(3, T.FP64, np.array([1], dtype=np.int64), np.array([2.5]))
        assert v.to_dense().tolist() == [0.0, 2.5, 0.0]


_KEYS = st.sets(st.integers(-(1 << 40), 1 << 40), max_size=24) | \
    st.sets(st.integers(0, 12))


class TestMergeSorted:
    """The two-sorted-streams primitive under eWise union/intersection,
    the delta merge and pending tuples, against ``np.intersect1d``,
    ``np.unique`` of the concatenation and a dict."""

    @settings(max_examples=200, deadline=None)
    @given(a=_KEYS, b=_KEYS)
    @example(a=set(), b=set())
    @example(a=set(), b={3, 4})
    @example(a={3, 4}, b=set())
    @example(a={1, 2, 3}, b={7, 8})          # disjoint, b after a
    @example(a={7, 8}, b={1, 2, 3})          # disjoint, b before a
    @example(a={1, 5, 9}, b={1, 5, 9})       # identical
    @example(a={1, 3, 5, 7, 9}, b={3, 7})    # b inside a
    @example(a={3, 7}, b={1, 3, 5, 7, 9})    # a inside b
    def test_union_intersection_upsert(self, a, b):
        a = np.array(sorted(a), dtype=np.int64)
        b = np.array(sorted(b), dtype=np.int64)
        pos, hit = merge_sorted(a, b)
        assert np.array_equal(b[hit], np.intersect1d(a, b))
        assert np.array_equal(a[pos[hit]], b[hit])
        from_a, dst_b = merge_slots(len(a), pos, hit)
        union = merge_column(from_a, dst_b, a, b)
        assert union.dtype == np.int64
        assert np.array_equal(union, np.unique(np.concatenate((a, b))))
        # last-write-wins upsert of b's values into a's
        want = {**{int(k): 10 * int(k) for k in a}, **{int(k): -1 for k in b}}
        got = merge_column(from_a, dst_b, 10 * a, np.full(len(b), -1))
        assert dict(zip(union.tolist(), got.tolist())) == want


class TestBuildKernels:
    def test_dedup_sorted_no_dups_passthrough(self):
        keys = np.array([1, 3, 5])
        vals = np.array([1.0, 2.0, 3.0])
        k, v = dedup_sorted(keys, vals, None, T.FP64)
        assert k is keys

    def test_dedup_sorted_folds_left_to_right(self):
        keys = np.array([1, 1, 1, 2])
        vals = np.array([8.0, 4.0, 2.0, 9.0])
        k, v = dedup_sorted(keys, vals, B.DIV[T.FP64], T.FP64)
        assert k.tolist() == [1, 2]
        assert v.tolist() == [1.0, 9.0]   # (8/4)/2

    def test_dedup_sorted_null_dup_raises(self):
        with pytest.raises(DuplicateIndexError):
            dedup_sorted(np.array([1, 1]), np.array([1.0, 2.0]), None, T.FP64)

    def test_build_vector_scalar_broadcast(self):
        v = build_vector(5, T.FP64, [1, 3], np.asarray(7.0), None)
        assert v.values.tolist() == [7.0, 7.0]

    def test_build_matrix_bounds(self):
        with pytest.raises(IndexOutOfBoundsError):
            build_matrix(2, 2, T.FP64, [0], [5], [1.0], None)
        with pytest.raises(IndexOutOfBoundsError):
            build_matrix(2, 2, T.FP64, [-1], [0], [1.0], None)

    def test_build_matrix_udf_dup(self):
        op = B.BinaryOp.new(lambda x, y: x * 100 + y, T.INT64, T.INT64, T.INT64)
        m = build_matrix(2, 2, T.INT64, [0, 0, 0], [0, 0, 0], [1, 2, 3], op)
        assert m.values[0] == 10203


class TestParallel:
    @pytest.mark.parametrize("nthreads", [1, 2, 4, 7])
    def test_parallel_mxm_matches_serial(self, nthreads, monkeypatch):
        monkeypatch.setattr(mxm_kernels, "BLOCK_PRODUCTS", 4)
        rng = np.random.default_rng(0)
        d = rng.random((17, 13)) * (rng.random((17, 13)) < 0.3)
        e = rng.random((13, 11)) * (rng.random((13, 11)) < 0.3)
        r, c = np.nonzero(d)
        A = coo_to_csr(17, 13, T.FP64, r, c, d[r, c])
        r, c = np.nonzero(e)
        Bm = coo_to_csr(13, 11, T.FP64, r, c, e[r, c])
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": nthreads})
        out = mxm_kernels.mxm(A, Bm, S.PLUS_TIMES_SEMIRING[T.FP64], ctx=ctx)
        out.check()
        assert np.allclose(out.to_dense(), d @ e)

    def test_parallel_mxm_empty_result(self):
        A = empty_mat(4, 4, T.FP64)
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        out = mxm_kernels.mxm(A, A, S.PLUS_TIMES_SEMIRING[T.FP64], ctx=ctx)
        assert out.nvals == 0
