"""mxm / mxv / vxm battery: semirings, masks, accumulators, transposes."""

import numpy as np
import pytest

from repro.core import binaryop as B
from repro.core import semiring as S
from repro.core import types as T
from repro.core.context import Context, Mode
from repro.core.descriptor import (
    DESC_C,
    DESC_R,
    DESC_RC,
    DESC_S,
    DESC_T0,
    DESC_T0T1,
    DESC_T1,
)
from repro.core.errors import DimensionMismatchError, DomainMismatchError
from repro.core.matrix import Matrix
from repro.core.vector import Vector
from repro.ops.mxm import mxm, mxv, vxm

from .helpers import (
    assert_mat_equal,
    assert_vec_equal,
    mat_from_dict,
    mat_to_dict,
    vec_from_dict,
)
from .reference import ref_mxm, ref_mxv, ref_vxm, ref_write_back

PT = S.PLUS_TIMES_SEMIRING[T.FP64]


@pytest.fixture
def abc():
    rng = np.random.default_rng(5)
    a = {(i, j): float(rng.integers(1, 5))
         for i in range(6) for j in range(7) if rng.random() < 0.4}
    b = {(i, j): float(rng.integers(1, 5))
         for i in range(7) for j in range(5) if rng.random() < 0.4}
    return a, b


class TestMxm:
    def test_plus_times_matches_reference(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        C = Matrix.new(T.FP64, 6, 5)
        mxm(C, None, None, PT, A, Bm)
        expected = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)
        assert_mat_equal(C, expected, "mxm")

    def test_min_plus_semiring(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        C = Matrix.new(T.FP64, 6, 5)
        mxm(C, None, None, S.MIN_PLUS_SEMIRING[T.FP64], A, Bm)
        expected = ref_mxm(a, b, min, lambda x, y: x + y, np.inf)
        assert_mat_equal(C, expected, "min_plus")

    def test_bool_lor_land(self):
        a = {(0, 1): True, (1, 2): True}
        b = {(1, 0): True, (2, 2): True}
        A = mat_from_dict(a, 3, 3, T.BOOL)
        Bm = mat_from_dict(b, 3, 3, T.BOOL)
        C = Matrix.new(T.BOOL, 3, 3)
        mxm(C, None, None, S.LOR_LAND_SEMIRING_BOOL, A, Bm)
        assert mat_to_dict(C) == {(0, 0): True, (1, 2): True}

    def test_transpose_inputs(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        at = {(j, i): v for (i, j), v in a.items()}
        bt = {(j, i): v for (i, j), v in b.items()}
        At = mat_from_dict(at, 7, 6)
        Bt = mat_from_dict(bt, 5, 7)
        expected = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)

        C1 = Matrix.new(T.FP64, 6, 5)
        mxm(C1, None, None, PT, At, Bm, desc=DESC_T0)
        assert_mat_equal(C1, expected, "T0")

        C2 = Matrix.new(T.FP64, 6, 5)
        mxm(C2, None, None, PT, A, Bt, desc=DESC_T1)
        assert_mat_equal(C2, expected, "T1")

        C3 = Matrix.new(T.FP64, 6, 5)
        mxm(C3, None, None, PT, At, Bt, desc=DESC_T0T1)
        assert_mat_equal(C3, expected, "T0T1")

    def test_mask_valued_and_complement(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        mask = {(i, j): (i + j) % 2 == 0 for i in range(6) for j in range(5)}
        Mk = mat_from_dict(mask, 6, 5, T.BOOL)
        t = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)

        C = Matrix.new(T.FP64, 6, 5)
        mxm(C, Mk, None, PT, A, Bm)
        assert_mat_equal(C, ref_write_back({}, t, mask, None), "mask")

        Cc = Matrix.new(T.FP64, 6, 5)
        mxm(Cc, Mk, None, PT, A, Bm, desc=DESC_C)
        assert_mat_equal(Cc, ref_write_back({}, t, mask, None, complement=True),
                         "comp mask")

    def test_structural_mask_ignores_false_values(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        mask = {(0, 0): False, (1, 1): True}   # both count structurally
        Mk = mat_from_dict(mask, 6, 5, T.BOOL)
        t = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)
        C = Matrix.new(T.FP64, 6, 5)
        mxm(C, Mk, None, PT, A, Bm, desc=DESC_S)
        assert_mat_equal(C, ref_write_back({}, t, mask, None, structure=True),
                         "structure")

    def test_accumulate_and_replace(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        c0 = {(0, 0): 100.0, (5, 4): 50.0, (2, 2): 7.0}
        t = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)

        C = mat_from_dict(c0, 6, 5)
        mxm(C, None, B.PLUS[T.FP64], PT, A, Bm)
        assert_mat_equal(C, ref_write_back(c0, t, None, lambda x, y: x + y),
                         "accum")

        mask = {(0, 0): True}
        Mk = mat_from_dict(mask, 6, 5, T.BOOL)
        Cr = mat_from_dict(c0, 6, 5)
        mxm(Cr, Mk, B.PLUS[T.FP64], PT, A, Bm, desc=DESC_R)
        assert_mat_equal(
            Cr,
            ref_write_back(c0, t, mask, lambda x, y: x + y, replace=True),
            "accum+replace",
        )

    def test_replace_with_complement_of_missing_mask_clears(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        C = mat_from_dict({(0, 0): 1.0}, 6, 5)
        mxm(C, None, None, PT, A, Bm, desc=DESC_RC)
        assert C.nvals() == 0

    def test_dimension_mismatches(self):
        A = Matrix.new(T.FP64, 3, 4)
        Bm = Matrix.new(T.FP64, 5, 2)
        C = Matrix.new(T.FP64, 3, 2)
        with pytest.raises(DimensionMismatchError):
            mxm(C, None, None, PT, A, Bm)
        C2 = Matrix.new(T.FP64, 9, 9)
        B2 = Matrix.new(T.FP64, 4, 2)
        with pytest.raises(DimensionMismatchError):
            mxm(C2, None, None, PT, A, B2)
        Mk = Matrix.new(T.BOOL, 1, 1)
        C3 = Matrix.new(T.FP64, 3, 2)
        with pytest.raises(DimensionMismatchError):
            mxm(C3, Mk, None, PT, A, B2)

    def test_semiring_type_check(self):
        A = Matrix.new(T.FP64, 2, 2)
        C = Matrix.new(T.FP64, 2, 2)
        with pytest.raises(DomainMismatchError):
            mxm(C, None, None, B.PLUS[T.FP64], A, A)  # binop is not a semiring

    def test_output_casts_to_its_domain(self, abc):
        a, b = abc
        A = mat_from_dict(a, 6, 7)
        Bm = mat_from_dict(b, 7, 5)
        C = Matrix.new(T.INT64, 6, 5)     # integer output of FP64 semiring
        mxm(C, None, None, PT, A, Bm)
        expected = {
            k: int(v)
            for k, v in ref_mxm(a, b, lambda x, y: x + y,
                                lambda x, y: x * y, 0.0).items()
        }
        assert_mat_equal(C, expected, "cast")

    def test_parallel_context_matches_serial(self, abc):
        a, b = abc
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 4})
        A = mat_from_dict(a, 6, 7, ctx=ctx)
        Bm = mat_from_dict(b, 7, 5, ctx=ctx)
        C = Matrix.new(T.FP64, 6, 5, ctx)
        mxm(C, None, None, PT, A, Bm)
        expected = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)
        assert_mat_equal(C, expected, "parallel")

    def test_same_object_as_both_inputs(self):
        a = {(0, 1): 2.0, (1, 0): 3.0}
        A = mat_from_dict(a, 2, 2)
        C = Matrix.new(T.FP64, 2, 2)
        mxm(C, None, None, PT, A, A)
        assert mat_to_dict(C) == {(0, 0): 6.0, (1, 1): 6.0}

    def test_output_can_be_an_input(self):
        """C = C*B with C as input: captured before the write."""
        c0 = {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0}
        C = mat_from_dict(c0, 2, 2)
        Bm = mat_from_dict({(0, 0): 1.0, (1, 1): 1.0}, 2, 2)  # identity
        mxm(C, None, None, PT, C, Bm)
        assert_mat_equal(C, c0, "self-mxm")


class TestBlockedSpgemmMemory:
    def test_masked_wedges_peak_is_one_block(self):
        """Kernel-level C⟨L⟩ = L·Lᵀ on a scale-12 RMAT (53k nnz): the
        row-blocked kernel keeps one block of products alive, not every
        wedge (one global product stream peaked above 100 MB here)."""
        import tracemalloc

        from repro.generators import rmat
        from repro.internals import mxm as kernels
        from repro.internals.containers import coo_to_csr, pair_keys

        sp = pytest.importorskip("scipy.sparse")
        n, rows, cols, _ = rmat(12, 8, seed=42)
        keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
        r, c = keys // n, keys % n
        assert int((r != c).sum()) == 53312
        low = r > c
        r, c = r[low], c[low]
        ones = np.ones(len(r), dtype=np.int64)
        L = coo_to_csr(n, n, T.INT64, r, c, ones, presorted=True)
        Lt = L.transpose()
        mask = pair_keys(r, c, n)
        tracemalloc.start()
        try:
            wedges = kernels.mxm(L, Lt, S.PLUS_TIMES_SEMIRING[T.INT64],
                                 mask_keys=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"
        ls = sp.csr_matrix((ones, (r, c)), shape=(n, n))
        assert int(wedges.values.sum()) == int((ls @ ls.T).multiply(ls).sum())


class TestMxvVxm:
    def test_mxv_matches_reference(self, abc):
        a, _ = abc
        u = {1: 2.0, 3: 1.0, 6: 4.0}
        A = mat_from_dict(a, 6, 7)
        U = vec_from_dict(u, 7)
        w = Vector.new(T.FP64, 6)
        mxv(w, None, None, PT, A, U)
        assert_vec_equal(w, ref_mxv(a, u, lambda x, y: x + y,
                                    lambda x, y: x * y), "mxv")

    def test_vxm_matches_reference(self, abc):
        a, _ = abc
        u = {0: 1.0, 2: 3.0, 5: 2.0}
        A = mat_from_dict(a, 6, 7)
        U = vec_from_dict(u, 6)
        w = Vector.new(T.FP64, 7)
        vxm(w, None, None, PT, U, A)
        assert_vec_equal(w, ref_vxm(u, a, lambda x, y: x + y,
                                    lambda x, y: x * y), "vxm")

    def test_mxv_transpose_equals_vxm(self, abc):
        a, _ = abc
        u = {0: 1.0, 2: 3.0, 5: 2.0}
        A = mat_from_dict(a, 6, 7)
        U = vec_from_dict(u, 6)
        w1 = Vector.new(T.FP64, 7)
        mxv(w1, None, None, PT, A, U, desc=DESC_T0)
        w2 = Vector.new(T.FP64, 7)
        vxm(w2, None, None, PT, U, A)
        assert_vec_equal(w1, {k: v for k, v in
                              ref_vxm(u, a, lambda x, y: x + y,
                                      lambda x, y: x * y).items()}, "Aᵀu")
        ui1, uv1 = w1.extract_tuples()
        ui2, uv2 = w2.extract_tuples()
        assert ui1.tolist() == ui2.tolist()
        assert np.allclose(uv1, uv2)

    def test_mxv_mask_accum(self, abc):
        a, _ = abc
        u = {1: 2.0, 3: 1.0}
        w0 = {0: 9.0, 5: 9.0}
        mask = {0: True, 1: True, 2: True}
        A = mat_from_dict(a, 6, 7)
        U = vec_from_dict(u, 7)
        W = vec_from_dict(w0, 6)
        Mv = vec_from_dict(mask, 6, T.BOOL)
        mxv(W, Mv, B.PLUS[T.FP64], PT, A, U)
        t = ref_mxv(a, u, lambda x, y: x + y, lambda x, y: x * y)
        assert_vec_equal(W, ref_write_back(w0, t, mask, lambda x, y: x + y),
                         "mxv mask accum")

    def test_mxv_dimension_checks(self):
        A = Matrix.new(T.FP64, 3, 4)
        u = Vector.new(T.FP64, 9)
        w = Vector.new(T.FP64, 3)
        with pytest.raises(DimensionMismatchError):
            mxv(w, None, None, PT, A, u)
        u2 = Vector.new(T.FP64, 4)
        w2 = Vector.new(T.FP64, 5)
        with pytest.raises(DimensionMismatchError):
            mxv(w2, None, None, PT, A, u2)

    def test_vxm_transpose1(self, abc):
        a, _ = abc
        u = {1: 2.0, 3: 1.0, 6: 4.0}
        A = mat_from_dict(a, 6, 7)
        U = vec_from_dict(u, 7)
        w = Vector.new(T.FP64, 6)
        vxm(w, None, None, PT, U, A, desc=DESC_T1)   # u'Aᵀ == Au
        assert_vec_equal(w, ref_mxv(a, u, lambda x, y: x + y,
                                    lambda x, y: x * y), "vxm T1")
