"""Property-based tests (hypothesis): the sparse implementation against
the dense reference interpreter, plus structural invariants.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import binaryop as B
from repro.core import indexunaryop as IU
from repro.core import monoid as M
from repro.core import semiring as S
from repro.core import types as T
from repro.core.context import Context, Mode
from repro.core.matrix import Matrix
from repro.core.vector import Vector
from repro.formats import (
    Format,
    matrix_deserialize,
    matrix_export,
    matrix_import,
    matrix_serialize,
)
from repro.internals import assign as kernels_assign
from repro.internals import ewise as kernels_ewise
from repro.internals import mxm as kernels
from repro.internals.containers import VecData, coo_to_csr, coo_to_dcsr
from repro.internals.maskaccum import mat_mask_keys, vec_mask_keys
from repro.ops.apply import apply
from repro.ops.ewise import ewise_add, ewise_mult
from repro.ops.extract import extract
from repro.ops.mxm import mxm, mxv
from repro.ops.reduce import reduce_scalar
from repro.ops.select import select
from repro.ops.transpose import transpose

from .helpers import (
    assert_mat_equal,
    assert_vec_equal,
    mat_from_dict,
    mat_to_dict,
    vec_from_dict,
)
from .reference import (
    ref_ewise_add,
    ref_ewise_mult,
    ref_mxm,
    ref_mxv,
    ref_vxm,
    ref_select,
    ref_transpose,
    ref_write_back,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def dict_matrix(nrows=5, ncols=5, values=st.integers(1, 9)):
    keys = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    return st.dictionaries(keys, values.map(float), max_size=nrows * ncols)


def dict_vector(size=8, values=st.integers(1, 9)):
    return st.dictionaries(st.integers(0, size - 1), values.map(float),
                           max_size=size)


class TestMxmProperties:
    @SETTINGS
    @given(a=dict_matrix(4, 5), b=dict_matrix(5, 3))
    def test_plus_times_vs_reference(self, a, b):
        C = Matrix.new(T.FP64, 4, 3)
        mxm(C, None, None, S.PLUS_TIMES_SEMIRING[T.FP64],
            mat_from_dict(a, 4, 5), mat_from_dict(b, 5, 3))
        expected = ref_mxm(a, b, lambda x, y: x + y, lambda x, y: x * y, 0.0)
        assert_mat_equal(C, expected)

    @SETTINGS
    @given(a=dict_matrix(4, 4), b=dict_matrix(4, 4))
    def test_min_plus_vs_reference(self, a, b):
        C = Matrix.new(T.FP64, 4, 4)
        mxm(C, None, None, S.MIN_PLUS_SEMIRING[T.FP64],
            mat_from_dict(a, 4, 4), mat_from_dict(b, 4, 4))
        expected = ref_mxm(a, b, min, lambda x, y: x + y, None)
        assert_mat_equal(C, expected)

    @SETTINGS
    @given(a=dict_matrix(4, 4), u=dict_vector(4))
    def test_mxv_vs_reference(self, a, u):
        w = Vector.new(T.FP64, 4)
        mxv(w, None, None, S.PLUS_TIMES_SEMIRING[T.FP64],
            mat_from_dict(a, 4, 4), vec_from_dict(u, 4))
        assert_vec_equal(w, ref_mxv(a, u, lambda x, y: x + y,
                                    lambda x, y: x * y))

    @SETTINGS
    @given(a=dict_matrix(4, 4), b=dict_matrix(4, 4), c=dict_matrix(4, 4))
    def test_mxm_associativity(self, a, b, c):
        """(AB)C == A(BC) over integer-valued PLUS_TIMES."""
        A, Bm, Cm = (mat_from_dict(d, 4, 4) for d in (a, b, c))
        sr = S.PLUS_TIMES_SEMIRING[T.FP64]
        AB = Matrix.new(T.FP64, 4, 4)
        mxm(AB, None, None, sr, A, Bm)
        AB_C = Matrix.new(T.FP64, 4, 4)
        mxm(AB_C, None, None, sr, AB, Cm)
        BC = Matrix.new(T.FP64, 4, 4)
        mxm(BC, None, None, sr, Bm, Cm)
        A_BC = Matrix.new(T.FP64, 4, 4)
        mxm(A_BC, None, None, sr, A, BC)
        assert mat_to_dict(AB_C) == mat_to_dict(A_BC)


# -- kernel fast-path parity ---------------------------------------------------
#
# The multiply kernels pick a path from each call's inputs alone: dense
# accumulation or sort for the fold (``len(keys) * 8 >= space``), a slot
# table or a binary search for mxv's column lookup, A's own arrays or
# row windows in vxm (does u cover A's nonempty rows?), positions or a
# merge for a full eWise / GrB_ALL assign operand, row blocks of
# ``BLOCK_PRODUCTS`` products in mxm, and a masked mxm's slot table or
# ``searchsorted`` (``SLOT_SPACE``).  Shapes are drawn on both sides of
# each rule; the block size runs at 1 and 3 (many blocks, a single row
# over budget, blocks the mask empties) and at its default.  Each mxm
# case also runs its blocks on a 2-worker context pool and must match
# the serial kernel bit for bit.

_EXACT_INT = T.Type.new("ExactInt", cast=int)
_UDT_RING = S.Semiring.new(
    M.Monoid.new(B.BinaryOp.new(lambda x, y: x + y, _EXACT_INT, _EXACT_INT,
                                _EXACT_INT, "exact_add"), 0),
    B.BinaryOp.new(lambda x, y: x * y, _EXACT_INT, _EXACT_INT, _EXACT_INT,
                   "exact_mul"),
    "exact_plus_times",
)
_FLOATS = st.floats(-4, 4, allow_nan=False, allow_subnormal=False)
_INTS = st.integers(-50, 50)
_ADD = lambda x, y: x + y  # noqa: E731
_MUL = lambda x, y: x * y  # noqa: E731

#: name -> (semiring, value type, values, ⊕, ⊗, bit-exact)
PARITY_RINGS = {
    "plus_times_fp64": (S.PLUS_TIMES_SEMIRING[T.FP64], T.FP64, _FLOATS,
                        _ADD, _MUL, False),
    "plus_times_int64": (S.PLUS_TIMES_SEMIRING[T.INT64], T.INT64, _INTS,
                         _ADD, _MUL, True),
    "min_plus_fp64": (S.MIN_PLUS_SEMIRING[T.FP64], T.FP64, _FLOATS,
                      min, _ADD, True),
    "min_first_int64": (S.MIN_FIRST_SEMIRING[T.INT64], T.INT64, _INTS,
                        min, lambda x, y: x, True),
    "max_second_fp64": (S.MAX_SECOND_SEMIRING[T.FP64], T.FP64, _FLOATS,
                        max, lambda x, y: y, True),
    "lor_land_bool": (S.LOR_LAND_SEMIRING_BOOL, T.BOOL, st.booleans(),
                      lambda x, y: x or y, lambda x, y: x and y, True),
    "user_defined": (_UDT_RING, _EXACT_INT, _INTS, _ADD, _MUL, True),
    # A user-defined ⊕ over a built-in domain: no ufunc, int64 values.
    "user_monoid_int64": (S.Semiring.new(
        M.Monoid.new(B.BinaryOp.new(_ADD, T.INT64, T.INT64, T.INT64,
                                    "int_add"), 0),
        B.TIMES[T.INT64], "int_user_plus_times"), T.INT64, _INTS,
        _ADD, _MUL, True),
}
MASK_KINDS = ["none", "structural", "valued", "comp_structural", "comp_valued"]
#: (m, k, n): A is m x k; mxm's B is k x n.  The first shape folds
#: densely; the wide ones leave far fewer products than key slots.
PARITY_SHAPES = [(4, 5, 3), (3, 6, 120), (5, 160, 4)]

_NONZERO = st.integers(-9, 9).filter(bool)  # DIV operands
#: name -> (op, operand type, output type, values, Python reference);
#: none of these ops commutes, and "div_cast" casts on the way in and out.
FULL_OPS = {
    "minus": (B.MINUS[T.FP64], T.FP64, T.FP64, _NONZERO.map(float),
              lambda x, y: x - y),
    "div": (B.DIV[T.FP64], T.FP64, T.FP64, _NONZERO.map(float),
            lambda x, y: x / y),
    "first": (B.FIRST[T.FP64], T.FP64, T.FP64, _NONZERO.map(float),
              lambda x, y: x),
    "second": (B.SECOND[T.FP64], T.FP64, T.FP64, _NONZERO.map(float),
               lambda x, y: y),
    "div_cast": (B.DIV[T.FP64], T.INT64, T.INT32, _NONZERO,
                 lambda x, y: x / y),
}


def _entries(draw, keys, values, min_size=2):
    return draw(st.dictionaries(keys, values, min_size=min_size, max_size=16))


def _mat_entries(draw, nrows, ncols, values, min_size=2):
    return _entries(draw, st.tuples(st.integers(0, nrows - 1),
                                    st.integers(0, ncols - 1)), values,
                    min_size)


def _carrier(d, nrows, ncols, t, fmt):
    keys = sorted(d)
    vals = np.empty(len(keys), dtype=t.np_dtype)
    vals[:] = [d[k] for k in keys]
    make = coo_to_csr if fmt == "csr" else coo_to_dcsr
    return make(nrows, ncols, t, np.array([k[0] for k in keys], dtype=np.int64),
                np.array([k[1] for k in keys], dtype=np.int64), vals,
                presorted=True)


def _vec(d, size, t):
    keys = sorted(d)
    vals = np.empty(len(keys), dtype=t.np_dtype)
    vals[:] = [d[k] for k in keys]
    return VecData(size, t, np.array(keys, dtype=np.int64), vals)


def _mask_args(mask, kind, shape):
    """(mask_keys, complement) for the kernel, from a {key: bool} mask."""
    if kind == "none":
        return None, False
    structure = kind.endswith("structural")
    if isinstance(shape, tuple):
        keys = mat_mask_keys(_carrier(mask, *shape, T.BOOL, "csr"), structure)
    else:
        keys = vec_mask_keys(_vec(mask, shape, T.BOOL), structure)
    return keys, kind.startswith("comp")


def _masked(ref, mask, kind):
    if kind == "none":
        return ref
    structure, comp = kind.endswith("structural"), kind.startswith("comp")
    return {k: v for k, v in ref.items()
            if (k in mask if structure else bool(mask.get(k, False))) != comp}


def _assert_parity(got, expected, exact):
    got.check()
    if isinstance(got, VecData):
        pairs = zip(got.indices.tolist(), got.values)
    else:
        pairs = zip(zip(got.row_indices().tolist(), got.col_indices.tolist()),
                    got.values)
    got = dict(pairs)
    assert set(got) == set(expected)
    for k, v in expected.items():
        if exact:
            assert got[k] == v, k
        else:
            assert got[k] == pytest.approx(v, rel=1e-12, abs=1e-12), k


def _assert_identical(got, want):
    """Bit for bit: same carrier format, same index and value arrays."""
    assert type(got) is type(want)
    if isinstance(got, VecData):
        index_pairs = [(got.indices, want.indices)]
    else:
        index_pairs = [(got.row_indices(), want.row_indices()),
                       (got.col_indices, want.col_indices)]
    for g, w in index_pairs + [(got.values, want.values)]:
        assert g.dtype == w.dtype
        if g.dtype == object:
            assert g.tolist() == w.tolist()
        else:
            assert g.tobytes() == w.tobytes()


PARITY_SETTINGS = settings(SETTINGS, max_examples=120)
PARITY_CASES = given(data=st.data(), ring=st.sampled_from(sorted(PARITY_RINGS)),
                     fmt=st.sampled_from(["csr", "dcsr"]),
                     shape=st.sampled_from(PARITY_SHAPES),
                     kind=st.sampled_from(MASK_KINDS))


class TestKernelFastPathParity:
    """mxm / vxm / mxv and the full-operand eWise and assign paths
    against the dict reference, every path."""

    @PARITY_SETTINGS
    @PARITY_CASES
    def test_mxm(self, data, ring, fmt, shape, kind):
        """Each block size runs under three ``SLOT_SPACE``s: one slot
        table for the whole call, two rows' worth (row cuts, so many
        blocks share one table), and less than ``ncols`` (slots by
        ``searchsorted``).  Integer, boolean and user-defined rings give
        the same bits under all three; a floating ⊕ keeps the tolerance,
        since ``ufunc.at`` folds in order and ``reduceat`` pairwise."""
        sr, t, values, add, mult, exact = PARITY_RINGS[ring]
        m, k, n = shape
        a = _mat_entries(data.draw, m, k, values)
        b = _mat_entries(data.draw, k, n, values)
        mask = _mat_entries(data.draw, m, n, st.booleans(), 0)
        mask_keys, comp = _mask_args(mask, kind, (m, n))
        expected = _masked(ref_mxm(a, b, add, mult, None), mask, kind)
        args = (_carrier(a, m, k, t, fmt), _carrier(b, k, n, t, fmt), sr,
                mask_keys, comp)
        ctx = Context.new(Mode.NONBLOCKING, None, {"nthreads": 2})
        try:
            for block in (1, 3, kernels.BLOCK_PRODUCTS):
                outs = []
                for slot_space in (kernels.SLOT_SPACE, 2 * n, n - 1):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(kernels, "BLOCK_PRODUCTS", block)
                        mp.setattr(kernels, "SLOT_SPACE", slot_space)
                        got = kernels.mxm(*args)
                        threaded = kernels.mxm(*args, ctx=ctx)
                    _assert_parity(got, expected, exact)
                    _assert_identical(threaded, got)
                    outs.append(got)
                if t is not T.FP64:
                    for got in outs[1:]:
                        _assert_identical(got, outs[0])
        finally:
            ctx.free()

    @pytest.mark.parametrize("ring, kind, by_slot", [
        ("plus_times_int64", "structural", True),
        ("lor_land_bool", "valued", True),
        ("plus_times_int64", "comp_structural", False),
        ("user_monoid_int64", "structural", False),
        ("user_defined", "valued", False),
    ])
    def test_mxm_fold_path(self, monkeypatch, ring, kind, by_slot):
        """A masked product folds by slot only when the mask is not
        complemented and ⊕ is a ufunc over non-object values; a
        complemented mask, a user-defined monoid and a user-defined type
        still fold through ``fold_keys``."""
        sr, t, values, add, mult, exact = PARITY_RINGS[ring]
        rng = np.random.default_rng(3)

        def draw(nrows, ncols, make):
            return {(i, j): make(rng) for i in range(nrows)
                    for j in range(ncols) if rng.random() < 0.4}

        make = bool if t is T.BOOL else int
        a = draw(12, 9, lambda r: make(r.integers(0, 3)))
        b = draw(9, 10, lambda r: make(r.integers(0, 3)))
        mask = draw(12, 10, lambda r: bool(r.integers(0, 2)))
        mask_keys, comp = _mask_args(mask, kind, (12, 10))
        folds = []
        fold_keys = kernels.fold_keys
        monkeypatch.setattr(kernels, "fold_keys",
                            lambda *args: folds.append(1) or fold_keys(*args))
        got = kernels.mxm(_carrier(a, 12, 9, t, "csr"),
                          _carrier(b, 9, 10, t, "csr"), sr, mask_keys, comp)
        _assert_parity(got, _masked(ref_mxm(a, b, add, mult, None), mask,
                                    kind), exact)
        assert (not folds) == by_slot

    @PARITY_SETTINGS
    @PARITY_CASES
    def test_vxm(self, data, ring, fmt, shape, kind):
        """u is drawn at random, or to cover A's rows: exactly its
        nonempty rows or every row (the fast path over A's own arrays),
        or every row but one nonempty one (the row-window path)."""
        sr, t, values, add, mult, exact = PARITY_RINGS[ring]
        m, k, _ = shape
        a = _mat_entries(data.draw, m, k, values)
        cover = data.draw(st.sampled_from(
            ["random", "nonempty_rows", "all_rows", "all_but_one"]))
        if cover == "random":
            u = _entries(data.draw, st.integers(0, m - 1), values)
        else:
            nonempty = sorted({i for i, _ in a})
            rows = {"nonempty_rows": nonempty, "all_rows": range(m),
                    "all_but_one": set(range(m)) - {
                        data.draw(st.sampled_from(nonempty))}}[cover]
            u = {i: data.draw(values) for i in rows}
        mask = _entries(data.draw, st.integers(0, k - 1), st.booleans(), 0)
        mask_keys, comp = _mask_args(mask, kind, k)
        args = (_vec(u, m, t), _carrier(a, m, k, t, fmt), sr, mask_keys, comp)
        if cover != "random":
            covered = kernels._covering_slots(*args[:2]) is not None
            assert covered == (cover != "all_but_one")
        got = kernels.vxm(*args)
        _assert_parity(got, _masked(ref_vxm(u, a, add, mult), mask, kind),
                       exact)
        # Both paths expand the same products in the same order.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_covering_slots", lambda u, a: None)
            _assert_identical(got, kernels.vxm(*args))

    @PARITY_SETTINGS
    @PARITY_CASES
    def test_mxv(self, data, ring, fmt, shape, kind):
        sr, t, values, add, mult, exact = PARITY_RINGS[ring]
        m, k, _ = shape
        a = _mat_entries(data.draw, m, k, values)
        u = _entries(data.draw, st.integers(0, k - 1), values)
        mask = _entries(data.draw, st.integers(0, m - 1), st.booleans(), 0)
        mask_keys, comp = _mask_args(mask, kind, m)
        got = kernels.mxv(_carrier(a, m, k, t, fmt), _vec(u, k, t), sr,
                          mask_keys, comp)
        _assert_parity(got, _masked(ref_mxv(a, u, add, mult), mask, kind),
                       exact)

    @PARITY_SETTINGS
    @given(data=st.data(), op=st.sampled_from(sorted(FULL_OPS)),
           full=st.sampled_from(["a", "b", "both", "neither"]),
           size=st.integers(1, 12), use_accum=st.booleans())
    def test_full_operands(self, data, op, full, size, use_accum):
        """eWise union / intersection and GrB_ALL assign, with either
        side storing every index, both, or neither: a full operand is
        read by position, and the operand order must survive."""
        binop, t, out_t, values, fn = FULL_OPS[op]
        cast = out_t.coerce_scalar

        def draw_side(is_full):
            keys = range(size) if is_full else data.draw(
                st.sets(st.integers(0, size - 1)))
            return {i: data.draw(values) for i in keys}

        a = draw_side(full in ("a", "both"))
        b = draw_side(full in ("b", "both"))

        def union(x, y):
            return {k: cast(fn(x[k], y[k]) if k in x and k in y
                            else x.get(k, y.get(k)))
                    for k in x.keys() | y.keys()}

        a_vec, b_vec = _vec(a, size, t), _vec(b, size, t)
        _assert_parity(kernels_ewise.vec_union(a_vec, b_vec, binop, out_t),
                       union(a, b), True)
        _assert_parity(
            kernels_ewise.vec_intersect(a_vec, b_vec, binop, out_t),
            {k: cast(fn(a[k], b[k])) for k in a.keys() & b.keys()}, True)

        # w(GrB_ALL) = [accum] u, and w(GrB_ALL) = [accum] s.
        accum = binop if use_accum else None
        a_out = {k: cast(v) for k, v in a.items()}
        b_out = {k: cast(v) for k, v in b.items()}
        _assert_parity(
            kernels_assign.vec_assign(a_vec, b_vec, None, accum, out_t),
            union(a_out, b_out) if use_accum else b_out, True)
        s = data.draw(st.none() | values)
        fill = {} if s is None else {i: cast(s) for i in range(size)}
        _assert_parity(
            kernels_assign.vec_assign_scalar(a_vec, s, None, accum, out_t),
            union(a_out, fill) if use_accum else fill, True)


class TestEwiseProperties:
    @SETTINGS
    @given(a=dict_matrix(), b=dict_matrix())
    def test_add_vs_reference(self, a, b):
        C = Matrix.new(T.FP64, 5, 5)
        ewise_add(C, None, None, B.PLUS[T.FP64],
                  mat_from_dict(a, 5, 5), mat_from_dict(b, 5, 5))
        assert_mat_equal(C, ref_ewise_add(a, b, lambda x, y: x + y))

    @SETTINGS
    @given(a=dict_matrix(), b=dict_matrix())
    def test_mult_vs_reference(self, a, b):
        C = Matrix.new(T.FP64, 5, 5)
        ewise_mult(C, None, None, B.TIMES[T.FP64],
                   mat_from_dict(a, 5, 5), mat_from_dict(b, 5, 5))
        assert_mat_equal(C, ref_ewise_mult(a, b, lambda x, y: x * y))

    @SETTINGS
    @given(a=dict_matrix(), b=dict_matrix())
    def test_add_commutes_mult_commutes(self, a, b):
        C1 = Matrix.new(T.FP64, 5, 5)
        ewise_add(C1, None, None, B.PLUS[T.FP64],
                  mat_from_dict(a, 5, 5), mat_from_dict(b, 5, 5))
        C2 = Matrix.new(T.FP64, 5, 5)
        ewise_add(C2, None, None, B.PLUS[T.FP64],
                  mat_from_dict(b, 5, 5), mat_from_dict(a, 5, 5))
        assert mat_to_dict(C1) == mat_to_dict(C2)

    @SETTINGS
    @given(a=dict_matrix())
    def test_mult_with_self_squares(self, a):
        C = Matrix.new(T.FP64, 5, 5)
        A = mat_from_dict(a, 5, 5)
        ewise_mult(C, None, None, B.TIMES[T.FP64], A, A)
        assert_mat_equal(C, {k: v * v for k, v in a.items()})


class TestMaskWriteBackProperties:
    @SETTINGS
    @given(
        a=dict_matrix(4, 4), b=dict_matrix(4, 4), c=dict_matrix(4, 4),
        mask=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.booleans(), max_size=16,
        ),
        complement=st.booleans(),
        structure=st.booleans(),
        replace=st.booleans(),
        use_accum=st.booleans(),
    )
    def test_full_write_back_rule(self, a, b, c, mask, complement,
                                  structure, replace, use_accum):
        """The crown property: every descriptor/mask/accum combination of
        an eWiseAdd matches the reference write-back rule."""
        from repro.core.descriptor import Descriptor
        kw = {}
        if complement:
            kw["comp"] = True
        if structure:
            kw["structure"] = True
        if replace:
            kw["replace"] = True
        desc = Descriptor(**kw) if kw else None

        C = mat_from_dict(c, 4, 4)
        ewise_add(C, mat_from_dict(mask, 4, 4, T.BOOL) if mask else None,
                  B.PLUS[T.FP64] if use_accum else None,
                  B.PLUS[T.FP64],
                  mat_from_dict(a, 4, 4), mat_from_dict(b, 4, 4),
                  desc=desc)
        t = ref_ewise_add(a, b, lambda x, y: x + y)
        expected = ref_write_back(
            c, t, mask if mask else None,
            (lambda x, y: x + y) if use_accum else None,
            complement=complement, structure=structure, replace=replace,
        )
        assert_mat_equal(C, expected)


class TestSelectApplyProperties:
    @SETTINGS
    @given(a=dict_matrix(5, 5), s=st.integers(-4, 4))
    def test_tril_triu_partition(self, a, s):
        A = mat_from_dict(a, 5, 5)
        lo = Matrix.new(T.FP64, 5, 5)
        select(lo, None, None, IU.TRIL, A, s)
        hi = Matrix.new(T.FP64, 5, 5)
        select(hi, None, None, IU.TRIU, A, s + 1)
        keys = set(mat_to_dict(lo)) | set(mat_to_dict(hi))
        overlap = set(mat_to_dict(lo)) & set(mat_to_dict(hi))
        assert keys == set(a) and not overlap

    @SETTINGS
    @given(a=dict_matrix(5, 5), s=st.floats(0, 10))
    def test_value_select_vs_reference(self, a, s):
        A = mat_from_dict(a, 5, 5)
        out = Matrix.new(T.FP64, 5, 5)
        select(out, None, None, IU.VALUEGT[T.FP64], A, s)
        expected = ref_select(a, lambda v, i, j, sc: v > sc, s, is_matrix=True)
        assert_mat_equal(out, expected)

    @SETTINGS
    @given(a=dict_matrix(5, 5))
    def test_select_is_subset_preserving_values(self, a):
        A = mat_from_dict(a, 5, 5)
        out = Matrix.new(T.FP64, 5, 5)
        select(out, None, None, IU.OFFDIAG, A, 0)
        got = mat_to_dict(out)
        assert set(got) <= set(a)
        for k, v in got.items():
            assert v == a[k]

    @SETTINGS
    @given(a=dict_matrix(5, 5), s=st.integers(0, 5))
    def test_apply_rowindex_formula(self, a, s):
        A = mat_from_dict(a, 5, 5)
        out = Matrix.new(T.INT64, 5, 5)
        apply(out, None, None, IU.ROWINDEX[T.INT64], A, s)
        assert mat_to_dict(out) == {k: k[0] + s for k in a}

    @SETTINGS
    @given(a=dict_matrix(5, 5))
    def test_apply_preserves_structure(self, a):
        from repro.core.unaryop import AINV
        A = mat_from_dict(a, 5, 5)
        out = Matrix.new(T.FP64, 5, 5)
        apply(out, None, None, AINV[T.FP64], A)
        assert set(mat_to_dict(out)) == set(a)


class TestStructuralProperties:
    @SETTINGS
    @given(a=dict_matrix(5, 4))
    def test_transpose_involution(self, a):
        A = mat_from_dict(a, 5, 4)
        At = Matrix.new(T.FP64, 4, 5)
        transpose(At, None, None, A)
        Att = Matrix.new(T.FP64, 5, 4)
        transpose(Att, None, None, At)
        assert mat_to_dict(Att) == mat_to_dict(A)
        assert mat_to_dict(At) == ref_transpose(a)

    @SETTINGS
    @given(a=dict_matrix(5, 5))
    def test_reduce_equals_sum_of_values(self, a):
        A = mat_from_dict(a, 5, 5)
        got = reduce_scalar(M.PLUS_MONOID[T.FP64], A)
        assert got == pytest.approx(sum(a.values()))

    @SETTINGS
    @given(a=dict_matrix(5, 5))
    def test_csr_invariants_always_hold(self, a):
        A = mat_from_dict(a, 5, 5)
        A._capture().check()

    @SETTINGS
    @given(a=dict_matrix(5, 5))
    def test_serialize_roundtrip(self, a):
        A = mat_from_dict(a, 5, 5)
        back = matrix_deserialize(matrix_serialize(A))
        assert mat_to_dict(back) == a

    @SETTINGS
    @given(a=dict_matrix(4, 6), fmt=st.sampled_from([
        Format.CSR_MATRIX, Format.CSC_MATRIX, Format.COO_MATRIX,
        Format.DENSE_ROW_MATRIX, Format.DENSE_COL_MATRIX,
    ]))
    def test_import_export_roundtrip_all_formats(self, a, fmt):
        A = mat_from_dict(a, 4, 6)
        ip, ind, vals = matrix_export(A, fmt)
        back = matrix_import(T.FP64, 4, 6, ip, ind, vals, fmt)
        assert np.allclose(back.to_dense(), A.to_dense())

    @SETTINGS
    @given(
        u=dict_vector(8),
        indices=st.lists(st.integers(0, 7), min_size=1, max_size=10),
    )
    def test_extract_then_gather_matches_dense(self, u, indices):
        U = vec_from_dict(u, 8)
        w = Vector.new(T.FP64, len(indices))
        extract(w, None, None, U, indices)
        dense = np.zeros(8)
        stored = np.zeros(8, dtype=bool)
        for k, v in u.items():
            dense[k] = v
            stored[k] = True
        got = w.to_dict()
        for out_pos, src in enumerate(indices):
            if stored[src]:
                assert got[out_pos] == dense[src]
            else:
                assert out_pos not in got


class TestPushdownEquivalence:
    """The kernel mask push-down must be invisible: identical results
    with the optimization on and off, for every mask flavour."""

    @SETTINGS
    @given(
        a=dict_matrix(4, 4), b=dict_matrix(4, 4),
        mask=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.booleans(), max_size=16,
        ),
        complement=st.booleans(),
        structure=st.booleans(),
        replace=st.booleans(),
    )
    def test_masked_mxm_pushdown_invisible(self, a, b, mask, complement,
                                           structure, replace):
        from repro.core.descriptor import Descriptor
        from repro.internals import config
        kw = {}
        if complement:
            kw["comp"] = True
        if structure:
            kw["structure"] = True
        if replace:
            kw["replace"] = True
        desc = Descriptor(**kw) if kw else None
        Mk = mat_from_dict(mask, 4, 4, T.BOOL) if mask else None
        outs = []
        for opt in (True, False):
            with config.option("MASK_PUSHDOWN", opt):
                C = Matrix.new(T.FP64, 4, 4)
                mxm(C, Mk, None, S.PLUS_TIMES_SEMIRING[T.FP64],
                    mat_from_dict(a, 4, 4), mat_from_dict(b, 4, 4),
                    desc=desc)
                outs.append(mat_to_dict(C))
        assert outs[0] == outs[1]

    @SETTINGS
    @given(
        a=dict_matrix(4, 4), u=dict_vector(4),
        mask=st.dictionaries(st.integers(0, 3), st.booleans(), max_size=4),
        complement=st.booleans(),
        structure=st.booleans(),
    )
    def test_masked_mxv_pushdown_invisible(self, a, u, mask, complement,
                                           structure):
        from repro.core.descriptor import Descriptor
        from repro.internals import config
        kw = {}
        if complement:
            kw["comp"] = True
        if structure:
            kw["structure"] = True
        desc = Descriptor(**kw) if kw else None
        Mv = vec_from_dict(mask, 4, T.BOOL) if mask else None
        outs = []
        for opt in (True, False):
            with config.option("MASK_PUSHDOWN", opt):
                w = Vector.new(T.FP64, 4)
                mxv(w, Mv, None, S.PLUS_TIMES_SEMIRING[T.FP64],
                    mat_from_dict(a, 4, 4), vec_from_dict(u, 4), desc=desc)
                outs.append(w.to_dict())
        assert outs[0] == outs[1]


class TestAssignProperties:
    @SETTINGS
    @given(
        c=dict_matrix(5, 5),
        a=dict_matrix(3, 2),
        data=st.data(),
        use_accum=st.booleans(),
    )
    def test_assign_vs_reference(self, c, a, data, use_accum):
        from repro.ops.assign import assign as _assign
        from .reference import ref_assign
        I = data.draw(st.permutations(range(5)))[:3]
        J = data.draw(st.permutations(range(5)))[:2]
        C = mat_from_dict(c, 5, 5)
        A = mat_from_dict(a, 3, 2)
        _assign(C, None, B.PLUS[T.FP64] if use_accum else None, A,
                list(I), list(J))
        expected = ref_assign(
            c, a, list(I), list(J),
            (lambda x, y: x + y) if use_accum else None, 5, 5,
        )
        assert_mat_equal(C, expected)

    @SETTINGS
    @given(c=dict_matrix(4, 4), a=dict_matrix(4, 4))
    def test_assign_all_all_without_accum_replaces(self, c, a):
        from repro.ops.assign import assign as _assign
        C = mat_from_dict(c, 4, 4)
        _assign(C, None, None, mat_from_dict(a, 4, 4), None, None)
        assert mat_to_dict(C) == a

    @SETTINGS
    @given(
        u=dict_vector(6),
        data=st.data(),
        fill=st.integers(1, 9).map(float),
    )
    def test_vector_scalar_fill_vs_model(self, u, data, fill):
        from repro.ops.assign import assign as _assign
        I = data.draw(st.permutations(range(6)))[:3]
        w = vec_from_dict(u, 6)
        _assign(w, None, None, fill, list(I))
        expected = dict(u)
        for i in I:
            expected[i] = fill
        assert_vec_equal(w, expected)


class TestBuildProperties:
    @SETTINGS
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.integers(1, 9)),
            max_size=30,
        )
    )
    def test_build_plus_dup_equals_dict_sum(self, entries):
        m = Matrix.new(T.INT64, 6, 6)
        if entries:
            rows, cols, vals = zip(*entries)
            m.build(list(rows), list(cols), list(vals), dup=B.PLUS[T.INT64])
        expected = {}
        for i, j, v in entries:
            expected[(i, j)] = expected.get((i, j), 0) + v
        assert m.to_dict() == expected

    @SETTINGS
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.integers(1, 9)),
            max_size=30,
        )
    )
    def test_build_second_dup_is_last_wins(self, entries):
        m = Matrix.new(T.INT64, 6, 6)
        if entries:
            rows, cols, vals = zip(*entries)
            m.build(list(rows), list(cols), list(vals),
                    dup=B.SECOND[T.INT64])
        expected = {}
        for i, j, v in entries:
            expected[(i, j)] = v
        assert m.to_dict() == expected
