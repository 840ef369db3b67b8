"""The hypersparse form (a ``MatData`` with a row list): round trips,
parity, soundness.

Battery structure:

* round trips — COO → row list ↔ dense pointer conversions preserve the
  value stream and the row-list invariants at dimensions up to 2^32,
  with O(nnz) allocation (Hypothesis);
* kernel parity — every kernel family gives identical results with and
  without row lists, driven through the public ops surface with the
  policy forced each way (``helpers.force_format``);
* commit/checkpoint soundness — the commit gate adds or drops the row
  list when the policy says so, and a hypersparse graph survives
  checkpoint/restore byte-identically;
* a 2^58-row matrix — far past the dense row pointer limit — driven
  through the public ops: operators see global row ids, storage stays
  O(nnz).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import binaryop as B
from repro.core import monoid as M
from repro.core import semiring as S
from repro.core import types as T
from repro.core.descriptor import DESC_T0
from repro.core.errors import (
    DimensionMismatchError,
    IndexOutOfBoundsError,
    InvalidIndexError,
    NoValue,
)
from repro.core.indexunaryop import ROWGT, ROWLE, TRIL, VALUEGT
from repro.core.matrix import Matrix
from repro.core.unaryop import AINV
from repro.core.vector import Vector
from repro.internals.containers import coo_to_csr, coo_to_dcsr
from repro.ops.apply import apply
from repro.ops.assign import assign
from repro.ops.ewise import ewise_add, ewise_mult
from repro.ops.extract import extract
from repro.ops.kronecker import kronecker
from repro.ops.mxm import mxm, mxv, vxm
from repro.ops.reduce import reduce_scalar, reduce_to_vector
from repro.ops.select import select
from repro.ops.transpose import transpose

from .helpers import (
    force_format,
    mat_from_dict,
    mat_to_dict,
    random_dict_matrix,
    vec_from_dict,
)

HUGE = 1 << 32   # past any dense row pointer; nnz stays <= 10^3

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def coo_triples(draw, max_dim=HUGE, max_nnz=50):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    n = draw(st.integers(0, max_nnz))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        min_size=n, max_size=n, unique=True,
    ))
    vals = [float(i + 1) for i in range(len(pairs))]
    return nrows, ncols, pairs, vals


def _sorted_stream(pairs, vals):
    order = sorted(range(len(pairs)), key=lambda i: pairs[i])
    return ([pairs[i][0] for i in order], [pairs[i][1] for i in order],
            [vals[i] for i in order])


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

class TestRoundTrips:
    @SETTINGS
    @given(t=coo_triples())
    def test_coo_to_dcsr_round_trip(self, t):
        nrows, ncols, pairs, vals = t
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        cols = np.array([p[1] for p in pairs], dtype=np.int64)
        d = coo_to_dcsr(nrows, ncols, T.FP64, rows, cols, np.array(vals))
        d.check()
        # O(nnz) representation: no array scales with nrows.
        assert len(d.indptr) == len(d.row_ids) + 1 <= len(pairs) + 1
        sr, sc, sv = _sorted_stream(pairs, vals)
        assert d.row_indices().tolist() == sr
        assert d.col_indices.tolist() == sc
        assert d.values.tolist() == sv

    @SETTINGS
    @given(t=coo_triples(max_dim=1 << 10))
    def test_dcsr_csr_conversions_agree(self, t):
        nrows, ncols, pairs, vals = t
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        cols = np.array([p[1] for p in pairs], dtype=np.int64)
        vals = np.array(vals)
        csr = coo_to_csr(nrows, ncols, T.FP64, rows, cols, vals)
        dcsr = coo_to_dcsr(nrows, ncols, T.FP64, rows, cols, vals)
        packed = csr.to_hypersparse()
        assert packed.row_ids.tolist() == dcsr.row_ids.tolist()
        assert packed.indptr.tolist() == dcsr.indptr.tolist()
        assert packed.col_indices.tolist() == dcsr.col_indices.tolist()
        assert packed.values.tolist() == dcsr.values.tolist()
        back = dcsr.to_csr()
        assert back.indptr.tolist() == csr.indptr.tolist()
        assert back.col_indices.tolist() == csr.col_indices.tolist()
        assert back.values.tolist() == csr.values.tolist()

    @SETTINGS
    @given(t=coo_triples())
    def test_serialize_round_trip_hypersparse(self, t):
        from repro.formats.serialize import carrier_deserialize, carrier_serialize

        nrows, ncols, pairs, vals = t
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        cols = np.array([p[1] for p in pairs], dtype=np.int64)
        d = coo_to_dcsr(nrows, ncols, T.FP64, rows, cols, np.array(vals))
        blob = carrier_serialize(d)
        out = carrier_deserialize(blob)
        assert out.row_ids is not None
        assert (out.nrows, out.ncols, out.nvals) == (nrows, ncols, len(pairs))
        assert out.row_ids.tolist() == d.row_ids.tolist()
        assert out.values.tolist() == d.values.tolist()
        # Deterministic encoding: re-serialization is byte-identical.
        assert carrier_serialize(out) == blob

    def test_thousand_nnz_at_2_32(self):
        """The acceptance shape: 2^32-row matrix, 10^3 entries, full
        handle-level round trip plus an mxv against a dict oracle."""
        rng = np.random.default_rng(7)
        rows = np.unique(rng.integers(0, HUGE, 1000, dtype=np.int64))
        cols = rng.integers(0, HUGE, len(rows), dtype=np.int64)
        vals = rng.random(len(rows))
        m = Matrix.new(T.FP64, HUGE, HUGE)
        m.build(rows, cols, vals)
        assert m.nvals() == len(rows)
        assert m._capture().row_ids is not None
        got = m.to_dict()
        assert got == {(int(i), int(j)): pytest.approx(v)
                       for i, j, v in zip(rows, cols, vals)}
        u = Vector.new(T.FP64, HUGE)
        for j in np.unique(cols)[:50]:
            u.set_element(2.0, int(j))
        w = Vector.new(T.FP64, HUGE)
        mxv(w, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], m, u)
        keep = np.isin(cols, np.unique(cols)[:50])
        want = {}
        for i, v in zip(rows[keep], vals[keep]):
            want[int(i)] = want.get(int(i), 0.0) + 2.0 * v
        got_w = w.to_dict()
        assert set(got_w) == set(want)
        for k, v in want.items():
            assert got_w[k] == pytest.approx(v)


# ---------------------------------------------------------------------------
# Kernels keep the row list
# ---------------------------------------------------------------------------

class TestDispatchCoverage:
    def test_assign_stays_hypersparse(self):
        """The region rewrite runs on the row stream: the output keeps
        its row list."""
        with force_format("dcsr"):
            c = mat_from_dict({(0, 0): 1.0, (2, 1): 2.0}, 4, 4)
            assert c._capture().row_ids is not None
            a = mat_from_dict({(0, 0): 9.0}, 2, 2)
            assign(c, None, None, a, [0, 2], [0, 1])
            c.wait()
            assert c._capture().row_ids is not None
            # (2,1) sits inside the region and A is empty there:
            # unaccumulated assign overwrites the region.
            assert mat_to_dict(c) == {(0, 0): 9.0}


# ---------------------------------------------------------------------------
# Kernel parity: row lists vs the dense-pointer oracle
# ---------------------------------------------------------------------------

def _both_formats(run):
    """Run the same op sequence with the policy forced each way and
    compare the results (dicts / scalars)."""
    with force_format("csr"):
        want = run()
    with force_format("dcsr"):
        got = run()
    assert got == want
    return want


class TestKernelParity:
    """Each case builds its inputs and reads its outputs inside the
    forced policy, so every build/commit/kernel runs on that form."""

    A = {(0, 0): 1.0, (0, 3): 2.0, (2, 1): 3.0, (5, 5): 4.0, (5, 0): 5.0}
    B2 = {(0, 1): 1.5, (1, 4): 2.5, (2, 1): -3.0, (4, 4): 1.0, (5, 5): 2.0}

    def test_policy_engages(self):
        with force_format("dcsr"):
            assert mat_from_dict(self.A, 6, 6)._capture().row_ids is not None
        with force_format("csr"):
            assert mat_from_dict(self.A, 6, 6)._capture().row_ids is None

    def test_mxm(self):
        def run():
            a = mat_from_dict(self.A, 6, 6)
            b = mat_from_dict(self.B2, 6, 6)
            c = Matrix.new(T.FP64, 6, 6)
            mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, b)
            return mat_to_dict(c)
        _both_formats(run)

    def test_mxm_transposed_and_masked(self):
        def run():
            a = mat_from_dict(self.A, 6, 6)
            b = mat_from_dict(self.B2, 6, 6)
            mask = mat_from_dict({(3, 1): 1.0, (0, 1): 1.0}, 6, 6, t=T.BOOL)
            c = Matrix.new(T.FP64, 6, 6)
            mxm(c, mask, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, b,
                desc=DESC_T0)
            return mat_to_dict(c)
        _both_formats(run)

    def test_mxv_and_vxm(self):
        def run():
            a = mat_from_dict(self.A, 6, 6)
            u = vec_from_dict({0: 2.0, 3: 1.0, 5: 4.0}, 6)
            w = Vector.new(T.FP64, 6)
            mxv(w, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, u)
            w2 = Vector.new(T.FP64, 6)
            vxm(w2, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], u, a)
            return (w.to_dict(), w2.to_dict())
        _both_formats(run)

    def test_ewise_union_and_intersect(self):
        def run():
            a = mat_from_dict(self.A, 6, 6)
            b = mat_from_dict(self.B2, 6, 6)
            u = Matrix.new(T.FP64, 6, 6)
            ewise_add(u, None, None, B.PLUS[T.FP64], a, b)
            i = Matrix.new(T.FP64, 6, 6)
            ewise_mult(i, None, None, B.TIMES[T.FP64], a, b)
            return (mat_to_dict(u), mat_to_dict(i))
        _both_formats(run)

    def test_apply_select_reduce(self):
        def run():
            a = mat_from_dict(self.A, 6, 6)
            doubled = Matrix.new(T.FP64, 6, 6)
            apply(doubled, None, None, B.TIMES[T.FP64], a, 2.0)
            low = Matrix.new(T.FP64, 6, 6)
            select(low, None, None, TRIL, a, 0)
            deg = Vector.new(T.FP64, 6)
            reduce_to_vector(deg, None, None, M.PLUS_MONOID[T.FP64], a)
            total = reduce_scalar(M.PLUS_MONOID[T.FP64], a)
            return (mat_to_dict(doubled), mat_to_dict(low),
                    deg.to_dict(), total)
        _both_formats(run)

    def test_extract_and_transpose(self):
        def run():
            a = mat_from_dict(self.A, 6, 6)
            sub = Matrix.new(T.FP64, 3, 3)
            extract(sub, None, None, a, [0, 2, 5], [0, 1, 5])
            tr = Matrix.new(T.FP64, 6, 6)
            transpose(tr, None, None, a)
            return (mat_to_dict(sub), mat_to_dict(tr))
        _both_formats(run)

    def test_assign_densify_parity(self):
        def run():
            c = mat_from_dict(self.A, 6, 6)
            a = mat_from_dict({(0, 0): 7.0, (1, 1): 8.0}, 2, 2)
            assign(c, None, None, a, [1, 4], [2, 3])
            return mat_to_dict(c)
        _both_formats(run)

    def test_kronecker(self):
        def run():
            a = mat_from_dict({(0, 1): 2.0, (1, 0): 3.0}, 2, 2)
            b = mat_from_dict({(0, 0): 1.0, (1, 1): 5.0}, 2, 2)
            c = Matrix.new(T.FP64, 4, 4)
            kronecker(c, None, None, B.TIMES[T.FP64], a, b)
            return mat_to_dict(c)
        _both_formats(run)

    def test_element_ops(self):
        def run():
            m = mat_from_dict(self.A, 6, 6)
            m.set_element(9.0, 3, 3)    # new row for the row list
            m.set_element(-1.0, 0, 0)   # overwrite
            m.remove_element(5, 0)
            m.remove_element(2, 1)      # row becomes empty
            m.resize(5, 5)
            return mat_to_dict(m)
        _both_formats(run)

    def test_random_battery(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            d1 = random_dict_matrix(rng, 12, 12, density=0.08)
            d2 = random_dict_matrix(rng, 12, 12, density=0.08)

            def run():
                a = mat_from_dict(d1, 12, 12)
                b = mat_from_dict(d2, 12, 12)
                c = Matrix.new(T.FP64, 12, 12)
                mxm(c, None, None, S.PLUS_TIMES_SEMIRING[T.FP64], a, b)
                u = Matrix.new(T.FP64, 12, 12)
                ewise_add(u, None, None, B.PLUS[T.FP64], c, a)
                return mat_to_dict(u)

            _both_formats(run)


# ---------------------------------------------------------------------------
# Commit & checkpoint soundness across policy changes
# ---------------------------------------------------------------------------

class TestFormatSoundness:
    GRAPH = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0, (3, 3): 1.0}

    def test_commit_repacks_format_on_policy_change(self):
        """The same committed handle gains a row list through the commit
        gate when a write lands under the flipped policy, and drops it
        again under the default one."""
        m = mat_from_dict(self.GRAPH, 8, 8)
        assert m._capture().row_ids is None
        with force_format("dcsr"):
            m.set_element(5.0, 7, 7)
            assert m._capture().row_ids is not None
        m.set_element(6.0, 6, 6)
        assert m._capture().row_ids is None
        assert m.to_dict()[(7, 7)] == 5.0

    def test_checkpoint_restore_byte_identical_hypersparse(self, tmp_path):
        """A hypersparse resident graph survives checkpoint + journal
        replay with a byte-identical carrier (row-list blobs flow
        through the §VII stream in both directions)."""
        from repro.formats.serialize import carrier_serialize
        from repro.serve import GraphService

        with force_format("dcsr"):
            svc = GraphService(checkpoint_dir=str(tmp_path))
            g = mat_from_dict(self.GRAPH, 8, 8)
            svc.register_graph("g", g)
            svc.mutate_graph("g", [4, 7], [5, 0], [2.0, 3.0])
            svc.checkpoint()
            svc.mutate_graph("g", [0], [7], [9.0])   # journaled post-snapshot
            live = svc._graphs["g"]
            assert live.row_ids is not None
            live_blob = carrier_serialize(live)
            svc.close()

            restored = GraphService.restore(str(tmp_path))
            back = restored._graphs["g"]
            assert back.row_ids is not None
            assert carrier_serialize(back) == live_blob
            restored.close()


# ---------------------------------------------------------------------------
# A 2^58-row matrix through the public ops
# ---------------------------------------------------------------------------

TALL = 1 << 58   # far beyond the dense row pointer limit
TALL_ENTRIES = {
    (0, 0): 1.0,
    (5, 2): 2.0,
    (TALL // 2, 1): 3.0,
    (TALL - 1, 0): 4.0,
    (TALL - 1, 3): 5.0,
}


class TestTallMatrix:
    """An ordinary ``Matrix`` at 2^58 x 4: every operation works on the
    stored rows only and reports *global* row indices."""

    SR = S.PLUS_TIMES_SEMIRING[T.FP64]

    @staticmethod
    def _tall() -> Matrix:
        return mat_from_dict(TALL_ENTRIES, TALL, 4)

    def test_build_round_trip(self):
        m = self._tall()
        assert (m.nrows, m.ncols) == (TALL, 4)
        assert m.nvals() == len(TALL_ENTRIES)
        carrier = m._capture()
        assert len(carrier.row_ids) == 4    # two entries share row TALL-1
        assert m.to_dict() == TALL_ENTRIES

    def test_element_access(self):
        m = self._tall()
        assert m.extract_element(TALL - 1, 3) == 5.0
        with pytest.raises(NoValue):
            m.extract_element(17, 0)        # row not stored
        with pytest.raises(NoValue):
            m.extract_element(5, 3)         # row stored, column not
        with pytest.raises(InvalidIndexError):
            m.extract_element(TALL, 0)

    def test_row_bounds_checked(self):
        m = Matrix.new(T.FP64, TALL, 4)
        m.build([TALL], [0], [1.0])
        with pytest.raises(IndexOutOfBoundsError):
            m.wait()

    def test_empty(self):
        m = Matrix.new(T.FP64, TALL, 4)
        assert m.nvals() == 0
        assert len(m._capture().row_ids) == 0

    def test_mxv_global_rows(self):
        u = vec_from_dict({0: 10.0, 1: 100.0}, 4)
        w = Vector.new(T.FP64, TALL)
        mxv(w, None, None, self.SR, self._tall(), u)
        assert w.to_dict() == {0: 10.0, TALL // 2: 300.0, TALL - 1: 40.0}

    def test_vxm_from_sparse_pattern(self):
        u = vec_from_dict({TALL - 1: 2.0, 5: 1.0}, TALL)
        w = Vector.new(T.FP64, 4)
        vxm(w, None, None, self.SR, u, self._tall())
        assert w.to_dict() == {0: 8.0, 2: 2.0, 3: 10.0}

    def test_vxm_ignores_rows_not_stored(self):
        u = vec_from_dict({17: 100.0}, TALL)
        w = Vector.new(T.FP64, 4)
        vxm(w, None, None, self.SR, u, self._tall())
        assert w.nvals() == 0

    def test_mxm_keeps_tall_rows(self):
        b = mat_from_dict({(0, 0): 10.0, (1, 1): 20.0}, 4, 2)
        c = Matrix.new(T.FP64, TALL, 2)
        mxm(c, None, None, self.SR, self._tall(), b)
        assert c.to_dict() == {
            (0, 0): 10.0, (TALL // 2, 1): 60.0, (TALL - 1, 0): 40.0,
        }
        assert c._capture().row_ids is not None

    def test_mxm_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            mxm(Matrix.new(T.FP64, TALL, 2), None, None, self.SR,
                self._tall(), Matrix.new(T.FP64, 9, 2))

    def test_select_sees_global_row_indices(self):
        m = self._tall()
        upper = Matrix.new(T.FP64, TALL, 4)
        select(upper, None, None, ROWLE, m, 5)      # rows <= 5 (global!)
        assert set(upper.to_dict()) == {(0, 0), (5, 2)}
        lower = Matrix.new(T.FP64, TALL, 4)
        select(lower, None, None, ROWGT, m, 5)
        assert set(lower.to_dict()) == {k for k in TALL_ENTRIES if k[0] > 5}

    def test_select_tril_with_global_rows(self):
        lo = Matrix.new(T.FP64, TALL, 4)
        select(lo, None, None, TRIL, self._tall(), 0)   # j <= i, globally
        assert set(lo.to_dict()) == \
            {k for k in TALL_ENTRIES if k[1] <= k[0]}

    def test_select_value_and_prune(self):
        big = Matrix.new(T.FP64, TALL, 4)
        select(big, None, None, VALUEGT[T.FP64], self._tall(), 3.5)
        assert big.to_dict() == \
            {k: v for k, v in TALL_ENTRIES.items() if v > 3.5}
        # rows that lost all entries were pruned from storage
        assert big._capture().row_ids.tolist() == [TALL - 1]

    def test_apply(self):
        neg = Matrix.new(T.FP64, TALL, 4)
        apply(neg, None, None, AINV[T.FP64], self._tall())
        assert neg.to_dict() == {k: -v for k, v in TALL_ENTRIES.items()}

    def test_reduce_rows_and_scalar(self):
        m = self._tall()
        sums = Vector.new(T.FP64, TALL)
        reduce_to_vector(sums, None, None, M.PLUS_MONOID[T.FP64], m)
        assert sums.to_dict() == \
            {0: 1.0, 5: 2.0, TALL // 2: 3.0, TALL - 1: 9.0}
        assert reduce_scalar(M.PLUS_MONOID[T.FP64], m) == \
            pytest.approx(sum(TALL_ENTRIES.values()))

    @pytest.mark.parametrize("swap", [False, True])
    def test_ewise_with_mixed_key_widths(self, swap):
        """At 2^58 x 64 ``pair_keys`` keys rows {1, 5} in int64 and rows
        {5, 2^57} in Python ints: the merge must take one of each."""
        lo = {(1, 0): 1.0, (5, 3): 2.0}
        hi = {(5, 3): 10.0, (1 << 57, 63): 20.0}
        a, b = (hi, lo) if swap else (lo, hi)
        am, bm = mat_from_dict(a, TALL, 64), mat_from_dict(b, TALL, 64)
        add = Matrix.new(T.FP64, TALL, 64)
        ewise_add(add, None, None, B.MINUS[T.FP64], am, bm)
        assert add.to_dict() == {
            **a, **b, (5, 3): a[(5, 3)] - b[(5, 3)]}
        mult = Matrix.new(T.FP64, TALL, 64)
        ewise_mult(mult, None, None, B.MINUS[T.FP64], am, bm)
        assert mult.to_dict() == {(5, 3): a[(5, 3)] - b[(5, 3)]}

    def test_transpose_of_tall_matrix(self):
        t = Matrix.new(T.FP64, 4, TALL)
        transpose(t, None, None, self._tall())
        assert (t.nrows, t.ncols) == (4, TALL)
        assert t.to_dict() == \
            {(j, i): v for (i, j), v in TALL_ENTRIES.items()}

    def test_agrees_with_csr_when_small(self):
        """The same 30 x 6 product in each form, random entries."""
        rng = np.random.default_rng(3)
        d = {(int(i), int(j)): float(rng.integers(1, 9))
             for i in rng.integers(0, 30, 12)
             for j in rng.integers(0, 6, 1)}

        def run():
            u = vec_from_dict({j: float(j + 1) for j in range(6)}, 6)
            w = Vector.new(T.FP64, 30)
            mxv(w, None, None, self.SR, mat_from_dict(d, 30, 6), u)
            return w.to_dict()
        assert _both_formats(run)
