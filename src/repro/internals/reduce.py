"""Reduction kernels: matrix→vector, matrix→scalar, vector→scalar.

Scalar reductions come in two flavours per §VI:

* the classic typed variant returns the monoid identity on an empty
  container;
* the ``GrB_Scalar`` variant (Table II) instead returns *empty* — the
  kernel layer signals that by returning ``None``, and the operations
  layer maps it onto an empty :class:`~repro.core.scalar.Scalar`.
  Table II also adds reduction with a plain associative ``GrB_BinaryOp``
  (no identity needed, since emptiness is now representable).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.monoid import Monoid
from ..core.types import Type
from ..faults.plane import maybe_inject
from .containers import MatData, VecData

__all__ = [
    "mat_reduce_rows",
    "mat_reduce_scalar",
    "vec_reduce_scalar",
    "reduce_with_binop",
]

_INT = np.int64


def mat_reduce_rows(a: MatData, monoid: Monoid, out_type: Type) -> VecData:
    """w(i) = ⊕_j A(i,j): fold each nonempty row's segment (empty rows
    absent) — O(nnz) with a row list, which *is* the output index set."""
    maybe_inject("kernel.reduce")
    rows, bounds = a.nonempty_rows()
    if len(rows) == 0:
        return VecData(a.nrows, out_type, np.empty(0, dtype=_INT),
                       out_type.empty(0))
    vals = monoid.reduceat(monoid.type.coerce_array(a.values), bounds[:-1])
    return VecData(a.nrows, out_type, rows.astype(_INT, copy=False),
                   out_type.coerce_array(vals))


def mat_reduce_scalar(a: MatData, monoid: Monoid) -> Any | None:
    """⊕ over all stored values; ``None`` when the matrix is empty."""
    maybe_inject("kernel.reduce")
    if a.nvals == 0:
        return None
    return monoid.reduce_array(monoid.type.coerce_array(a.values))


def vec_reduce_scalar(u: VecData, monoid: Monoid) -> Any | None:
    """⊕ over all stored values; ``None`` when the vector is empty."""
    maybe_inject("kernel.reduce")
    if u.nvals == 0:
        return None
    return monoid.reduce_array(monoid.type.coerce_array(u.values))


def reduce_with_binop(values: np.ndarray, op: BinaryOp) -> Any | None:
    """Left fold with a plain binary op (the Table II binop-reduce).

    The operator must be ``T x T -> T`` associative; with no identity
    available, an empty input folds to ``None`` (→ empty GrB_Scalar).
    """
    if len(values) == 0:
        return None
    values = op.in1_type.coerce_array(values)
    uf = op.ufunc
    if uf is not None and values.dtype != object:
        return op.out_type.coerce_scalar(uf.reduce(values))
    acc = values[0]
    sc = op.scalar
    for v in values[1:]:
        acc = sc(acc, v)
    return op.out_type.coerce_scalar(acc)
