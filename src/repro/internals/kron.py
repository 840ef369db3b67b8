"""Kronecker product kernel: C = A ⊗ B under a binary operator.

``C(i·nrowsB + k, j·ncolsB + l) = op(A(i,j), B(k,l))`` for every pair of
stored elements.  The expansion is a repeat/tile product of the two COO
streams — ``nnz(A)·nnz(B)`` output entries, built without Python loops.
"""

from __future__ import annotations

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.types import Type
from ..faults.plane import maybe_inject
from .containers import MatData, empty_mat, mat_from_coo

__all__ = ["kronecker"]

_INT = np.int64


def kronecker(
    a: MatData, b: MatData,
    op: BinaryOp, out_type: Type,
) -> MatData:
    maybe_inject("kernel.kron")
    nrows = a.nrows * b.nrows
    ncols = a.ncols * b.ncols
    if a.nvals == 0 or b.nvals == 0:
        return empty_mat(nrows, ncols, out_type)
    a_rows = a.row_indices()
    b_rows = b.row_indices()
    na, nb = a.nvals, b.nvals
    rows = np.repeat(a_rows * b.nrows, nb) + np.tile(b_rows, na)
    cols = np.repeat(a.col_indices * b.ncols, nb) + np.tile(b.col_indices, na)
    av = op.in1_type.coerce_array(a.values)
    bv = op.in2_type.coerce_array(b.values)
    vals = op.vec(np.repeat(av, nb), np.tile(bv, na))
    # A and B streams are row-major sorted, and the Kron index map is
    # monotone in (A-entry, B-entry) lexicographic order per output row
    # block — but across blocks ordering interleaves, so sort generally.
    # The output dimension is the *product* of the input dimensions, so
    # Kron is where a modest pair of hypersparse operands can exceed the
    # CSR row ceiling — assembling through the policy keeps it O(nnz).
    return mat_from_coo(nrows, ncols, out_type, rows, cols,
                        out_type.coerce_array(vals))
