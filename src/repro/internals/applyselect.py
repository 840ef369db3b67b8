"""Kernels for ``apply`` (unary / bound-binary / index-unary) and ``select``.

These are the Section VIII operations.  Apply maps every stored value;
select filters the structure using a boolean-returning index-unary
operator — "the equivalent of a functional input mask" (§VIII-C).

Index-aware kernels receive the stored values *and* their coordinates.
For vectors the column index passed to the operator is 0, so operators
like ROWLE work unchanged on vectors while COLINDEX degenerates to ``s``
(matching the 2.0 treatment that removes the paper's
undefined-behaviour corner for single-index operators).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.indexunaryop import IndexUnaryOp
from ..core.types import Type
from ..core.unaryop import UnaryOp
from ..faults.plane import maybe_inject
from .containers import MatData, VecData, mat_from_coo

__all__ = [
    "vec_apply_unary",
    "mat_apply_unary",
    "vec_apply_bind1st",
    "vec_apply_bind2nd",
    "mat_apply_bind1st",
    "mat_apply_bind2nd",
    "vec_apply_index",
    "mat_apply_index",
    "vec_select",
    "mat_select",
    "run_stages",
    "vec_pipeline",
    "mat_pipeline",
]

_INT = np.int64


# ---------------------------------------------------------------------------
# Unary apply
# ---------------------------------------------------------------------------

def vec_apply_unary(u: VecData, op: UnaryOp, out_type: Type) -> VecData:
    maybe_inject("kernel.apply")
    vals = op.vec(op.in_type.coerce_array(u.values))
    return VecData(u.size, out_type, u.indices, out_type.coerce_array(vals))


def mat_apply_unary(
    a: MatData, op: UnaryOp, out_type: Type
) -> MatData:
    maybe_inject("kernel.apply")
    vals = op.vec(op.in_type.coerce_array(a.values))
    # Value-only rewrite: the structure (row list included) is kept.
    return a.with_values(out_type, out_type.coerce_array(vals))


# ---------------------------------------------------------------------------
# Bound-binary apply (scalar bound to the first or second argument)
# ---------------------------------------------------------------------------

def _bind1st(op: BinaryOp, s: Any, values: np.ndarray, out_type: Type) -> np.ndarray:
    x = np.full(len(values), op.in1_type.coerce_scalar(s),
                dtype=op.in1_type.np_dtype)
    y = op.in2_type.coerce_array(values)
    return out_type.coerce_array(op.vec(x, y))


def _bind2nd(op: BinaryOp, values: np.ndarray, s: Any, out_type: Type) -> np.ndarray:
    x = op.in1_type.coerce_array(values)
    y = np.full(len(values), op.in2_type.coerce_scalar(s),
                dtype=op.in2_type.np_dtype)
    return out_type.coerce_array(op.vec(x, y))


def vec_apply_bind1st(s: Any, u: VecData, op: BinaryOp, out_type: Type) -> VecData:
    maybe_inject("kernel.apply")
    return VecData(u.size, out_type, u.indices, _bind1st(op, s, u.values, out_type))


def vec_apply_bind2nd(u: VecData, s: Any, op: BinaryOp, out_type: Type) -> VecData:
    maybe_inject("kernel.apply")
    return VecData(u.size, out_type, u.indices, _bind2nd(op, u.values, s, out_type))


def mat_apply_bind1st(
    s: Any, a: MatData, op: BinaryOp, out_type: Type
) -> MatData:
    maybe_inject("kernel.apply")
    return a.with_values(out_type, _bind1st(op, s, a.values, out_type))


def mat_apply_bind2nd(
    a: MatData, s: Any, op: BinaryOp, out_type: Type
) -> MatData:
    maybe_inject("kernel.apply")
    return a.with_values(out_type, _bind2nd(op, a.values, s, out_type))


# ---------------------------------------------------------------------------
# Index-unary apply / select (§VIII)
# ---------------------------------------------------------------------------

def _index_op_values(
    op: IndexUnaryOp,
    values: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    s: Any,
) -> np.ndarray:
    if op.in_type is not None:
        values = op.in_type.coerce_array(values)
    s = op.s_type.coerce_scalar(s)
    return op.vec(values, rows, cols, s)


def vec_apply_index(
    u: VecData, op: IndexUnaryOp, s: Any, out_type: Type
) -> VecData:
    """w = f(u, ind(u), 1, s) — §VIII-B vector variant."""
    maybe_inject("kernel.apply")
    cols = np.zeros(u.nvals, dtype=_INT)
    vals = _index_op_values(op, u.values, u.indices, cols, s)
    return VecData(u.size, out_type, u.indices, out_type.coerce_array(vals))


def mat_apply_index(
    a: MatData, op: IndexUnaryOp, s: Any, out_type: Type
) -> MatData:
    """C = f(A, ind(A), 2, s) — §VIII-B matrix variant."""
    maybe_inject("kernel.apply")
    rows = a.row_indices()
    vals = _index_op_values(op, a.values, rows, a.col_indices, s)
    return a.with_values(out_type, out_type.coerce_array(vals))


def vec_select(u: VecData, op: IndexUnaryOp, s: Any) -> VecData:
    """w = u⟨f(u, ind(u), 1, s)⟩ — §VIII-C vector variant."""
    maybe_inject("kernel.select")
    cols = np.zeros(u.nvals, dtype=_INT)
    keep = np.asarray(
        _index_op_values(op, u.values, u.indices, cols, s), dtype=bool
    )
    return VecData(u.size, u.type, u.indices[keep], u.values[keep])


def mat_select(
    a: MatData, op: IndexUnaryOp, s: Any
) -> MatData:
    """C = A⟨f(A, ind(A), 2, s)⟩ — §VIII-C matrix variant."""
    maybe_inject("kernel.select")
    rows = a.row_indices()
    keep = np.asarray(
        _index_op_values(op, a.values, rows, a.col_indices, s), dtype=bool
    )
    return mat_from_coo(
        a.nrows, a.ncols, a.type,
        rows[keep], a.col_indices[keep], a.values[keep],
        presorted=True,
    )


# ---------------------------------------------------------------------------
# Fused stage pipelines (engine kernel fusion entry points)
# ---------------------------------------------------------------------------
#
# The execution engine's fusion pass collapses apply/select/transpose
# chains into a *stage list* and runs it here in one pass over the
# stored entries — no intermediate carriers, and for matrices the CSR
# row pointer is rebuilt at most once at the end (plus at explicit
# transposes) instead of once per operation.  Stage tuples:
#
#   ('unary',   op, out_type)       elementwise unary apply
#   ('bind1st', op, s, out_type)    binary apply, scalar bound first
#   ('bind2nd', op, s, out_type)    binary apply, scalar bound second
#   ('index',   op, s, out_type)    index-unary apply (reads coords)
#   ('select',  op, s)              structural filter (§VIII-C)
#   ('transpose',)                  matrix transpose (matrix only)
#   ('cast',    out_type)           domain cast (no-op when equal)

def vec_pipeline(u: VecData, stages: list) -> VecData:
    """Run a fused stage list over a vector carrier in one pass."""
    maybe_inject("kernel.pipeline")
    t = u.type
    indices, values = u.indices, u.values
    for st in stages:
        kind = st[0]
        if kind == "unary":
            op, out_t = st[1], st[2]
            values = out_t.coerce_array(op.vec(op.in_type.coerce_array(values)))
            t = out_t
        elif kind == "bind1st":
            op, s, out_t = st[1], st[2], st[3]
            values = _bind1st(op, s, values, out_t)
            t = out_t
        elif kind == "bind2nd":
            op, s, out_t = st[1], st[2], st[3]
            values = _bind2nd(op, values, s, out_t)
            t = out_t
        elif kind == "index":
            op, s, out_t = st[1], st[2], st[3]
            cols = np.zeros(len(indices), dtype=_INT)
            values = out_t.coerce_array(
                _index_op_values(op, values, indices, cols, s)
            )
            t = out_t
        elif kind == "select":
            op, s = st[1], st[2]
            cols = np.zeros(len(indices), dtype=_INT)
            keep = np.asarray(
                _index_op_values(op, values, indices, cols, s), dtype=bool
            )
            indices = indices[keep]
            values = values[keep]
        elif kind == "cast":
            out_t = st[1]
            if out_t != t:
                values = out_t.coerce_array(values)
                t = out_t
        else:
            raise ValueError(f"vector pipeline cannot run stage {kind!r}")
    return VecData(u.size, t, indices, values)


def mat_pipeline(a: MatData, stages: list) -> MatData:
    """Run a fused stage list over a matrix carrier.

    COO row indices are materialized lazily (first coordinate-reading
    stage) and the row pointer is rebuilt only when a filter changed
    the structure — once at the end, or at a transpose boundary.
    Value-only chains keep the input's structure, row list included;
    structure-dirtying chains reassemble through the hypersparse policy.
    """
    maybe_inject("kernel.pipeline")
    cur = a         # structure donor (carrier whose pointer is current)
    nrows, ncols, t = a.nrows, a.ncols, a.type
    cols, values = a.col_indices, a.values
    rows = None     # COO rows; materialized on demand while cur is valid
    dirty = False   # True once a select invalidated cur's structure

    def _coo_rows():
        nonlocal rows
        if rows is None:
            rows = cur.row_indices()
        return rows

    def _finalize() -> MatData:
        if dirty:
            return mat_from_coo(nrows, ncols, t, rows, cols, values,
                                presorted=True)
        return cur.with_values(t, values)

    for st in stages:
        kind = st[0]
        if kind == "unary":
            op, out_t = st[1], st[2]
            values = out_t.coerce_array(op.vec(op.in_type.coerce_array(values)))
            t = out_t
        elif kind == "bind1st":
            op, s, out_t = st[1], st[2], st[3]
            values = _bind1st(op, s, values, out_t)
            t = out_t
        elif kind == "bind2nd":
            op, s, out_t = st[1], st[2], st[3]
            values = _bind2nd(op, values, s, out_t)
            t = out_t
        elif kind == "index":
            op, s, out_t = st[1], st[2], st[3]
            values = out_t.coerce_array(
                _index_op_values(op, values, _coo_rows(), cols, s)
            )
            t = out_t
        elif kind == "select":
            op, s = st[1], st[2]
            keep = np.asarray(
                _index_op_values(op, values, _coo_rows(), cols, s), dtype=bool
            )
            rows = rows[keep]
            cols = cols[keep]
            values = values[keep]
            dirty = True
        elif kind == "transpose":
            m = _finalize().transpose()
            cur = m
            nrows, ncols, t = m.nrows, m.ncols, m.type
            cols, values = m.col_indices, m.values
            rows = None
            dirty = False
        elif kind == "cast":
            out_t = st[1]
            if out_t != t:
                values = out_t.coerce_array(values)
                t = out_t
        else:
            raise ValueError(f"matrix pipeline cannot run stage {kind!r}")
    return _finalize()


def run_stages(carrier, stages: list):
    """Dispatch a fused stage list to the right pipeline runner."""
    if isinstance(carrier, VecData):
        return vec_pipeline(carrier, stages)
    return mat_pipeline(carrier, stages)
