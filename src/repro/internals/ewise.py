"""Elementwise union (eWiseAdd) and intersection (eWiseMult) kernels.

Both operate on the sorted index streams of the carriers through the
two-sorted-streams primitive (:func:`~repro.internals.containers.
merge_sorted`: one ``searchsorted``, neither stream re-sorted):

* **intersection** — only positions stored in *both* inputs survive;
  the operator is applied pairwise.
* **union** — positions stored in either input survive; where only one
  input has a value it is copied (cast) through unchanged, exactly as
  the GraphBLAS ``eWiseAdd`` definition requires (the "add" op is only
  applied where both are present).

The matrix kernels exploit that a canonical carrier's (row, col)
stream is globally sorted — true of CSR *and* of the hypersparse DCSR
tier — reducing matrix eWise to the vector merge over scalar pair-keys;
the whole family is format-polymorphic via ``carrier.row_indices()``
and assembles its output through the format policy.

**Full vector operands.**  A ``VecData`` with ``nvals == size`` stores
index i at position i (its indices are sorted, unique and in
``[0, size)``), so when either side of a vector union or (unmasked)
intersection is full, the other side's indices *are* positions in it:
no merge, just a gather and the operator, in ``(a, b)`` order for the
non-commutative ops.  Pagerank's and components' sweeps run on such
vectors.

The *intersection* kernels accept an optional planner-pushed mask
filter (``mask_keys`` — sorted keys in the output coordinate space,
``mask_complement``): surviving keys are membership-tested right after
the merge, before the operator runs, so off-mask entries never have
values computed — the eWise analogue of the masked-SpGEMM push-down.
The mxm convention applies: ``mask_keys=None`` means no filter, and an
*empty* key set with ``complement=True`` keeps everything.
"""

from __future__ import annotations

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.types import Type
from ..faults.plane import maybe_inject
from .containers import (
    DcsrData,
    MatData,
    VecData,
    in_sorted,
    mat_from_coo,
    merge_column,
    merge_slots,
    merge_sorted,
    pair_keys,
)
from .dispatch import register

__all__ = [
    "vec_intersect",
    "vec_union",
    "mat_intersect",
    "mat_union",
]


def _merged_values(
    op: BinaryOp,
    out_type: Type,
    a_vals: np.ndarray,
    b_vals: np.ndarray,
) -> np.ndarray:
    """Apply op to aligned value arrays, casting per the op's domains."""
    x = op.in1_type.coerce_array(a_vals)
    y = op.in2_type.coerce_array(b_vals)
    return out_type.coerce_array(op.vec(x, y))


def _intersect_sorted(
    a_keys: np.ndarray, b_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(idx_in_a, idx_in_b)`` of the common keys of two
    sorted unique key arrays — the shorter stream is searched into the
    longer one."""
    if len(a_keys) < len(b_keys):
        ib, hit = merge_sorted(b_keys, a_keys)
        return np.flatnonzero(hit), ib[hit]
    ia, hit = merge_sorted(a_keys, b_keys)
    return ia[hit], np.flatnonzero(hit)


def _union_values(
    a_vals: np.ndarray, b_vals: np.ndarray,
    pos: np.ndarray, hit: np.ndarray, from_a: np.ndarray, dst_b: np.ndarray,
    op: BinaryOp, out_type: Type,
) -> np.ndarray:
    """Values of the sorted union: one-sided entries cast through, the
    op applied where both streams store the key."""
    new = ~hit
    out = out_type.empty(len(from_a))
    out[from_a] = out_type.coerce_array(a_vals)
    out[dst_b[new]] = out_type.coerce_array(b_vals[new])
    if hit.any():
        out[dst_b[hit]] = _merged_values(
            op, out_type, a_vals[pos[hit]], b_vals[hit])
    return out


def _filter_common(a_keys, ia, ib, mask_keys, mask_complement, space):
    """Drop common keys the pushed mask filter rules out (pre-values)."""
    if mask_keys is None or (len(mask_keys) == 0 and mask_complement):
        return ia, ib
    keep = in_sorted(
        a_keys[ia], mask_keys, invert=mask_complement, space=space)
    return ia[keep], ib[keep]


def _full(v: VecData) -> bool:
    """Whether *v* stores every index: its indices are sorted, unique
    and in ``[0, size)``, so index i then sits at position i."""
    return v.nvals == v.size


def vec_intersect(
    a: VecData,
    b: VecData,
    op: BinaryOp,
    out_type: Type,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
) -> VecData:
    """w = A .* B over the structural intersection."""
    maybe_inject("kernel.ewise")
    if mask_keys is None and (_full(a) or _full(b)):
        # The other side's indices are the positions in the full one.
        if _full(b):
            idx, av, bv = a.indices, a.values, b.values[a.indices]
        else:
            idx, av, bv = b.indices, a.values[b.indices], b.values
        return VecData(a.size, out_type, idx,
                       _merged_values(op, out_type, av, bv))
    ia, ib = _filter_common(
        a.indices, *_intersect_sorted(a.indices, b.indices),
        mask_keys, mask_complement, a.size,
    )
    vals = _merged_values(op, out_type, a.values[ia], b.values[ib])
    return VecData(a.size, out_type, a.indices[ia], vals)


def vec_union(
    a: VecData, b: VecData, op: BinaryOp, out_type: Type
) -> VecData:
    """w = A + B over the structural union."""
    maybe_inject("kernel.ewise")
    if a.nvals == 0:
        return VecData(a.size, out_type, b.indices, out_type.coerce_array(b.values))
    if b.nvals == 0:
        return VecData(a.size, out_type, a.indices, out_type.coerce_array(a.values))
    if _full(a) or _full(b):
        return _union_full(a, b, op, out_type)
    pos, hit = merge_sorted(a.indices, b.indices)
    from_a, dst_b = merge_slots(a.nvals, pos, hit)
    return VecData(
        a.size, out_type,
        merge_column(from_a, dst_b, a.indices, b.indices),
        _union_values(
            a.values, b.values, pos, hit, from_a, dst_b, op, out_type),
    )


def _union_full(
    a: VecData, b: VecData, op: BinaryOp, out_type: Type
) -> VecData:
    """The union when one side is full: its indices are the result's, and
    the other side's indices are positions in it, where op runs."""
    full, part = (a, b) if _full(a) else (b, a)
    out = out_type.empty(full.size)
    out[:] = out_type.coerce_array(full.values)
    at = part.indices
    if full is a:
        out[at] = _merged_values(op, out_type, a.values[at], b.values)
    else:
        out[at] = _merged_values(op, out_type, a.values, b.values[at])
    return VecData(a.size, out_type, full.indices, out)


def mat_intersect(
    a: "MatData | DcsrData",
    b: "MatData | DcsrData",
    op: BinaryOp,
    out_type: Type,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
) -> "MatData | DcsrData":
    """C = A .* B over the structural intersection."""
    maybe_inject("kernel.ewise")
    a_rows = a.row_indices()
    a_keys = pair_keys(a_rows, a.col_indices, a.ncols)
    b_keys = pair_keys(b.row_indices(), b.col_indices, b.ncols)
    ia, ib = _filter_common(
        a_keys, *_intersect_sorted(a_keys, b_keys),
        mask_keys, mask_complement, a.nrows * a.ncols,
    )
    vals = _merged_values(op, out_type, a.values[ia], b.values[ib])
    return mat_from_coo(a.nrows, a.ncols, out_type,
                        a_rows[ia], a.col_indices[ia], vals,
                        presorted=True)


def mat_union(
    a: "MatData | DcsrData",
    b: "MatData | DcsrData",
    op: BinaryOp,
    out_type: Type,
) -> "MatData | DcsrData":
    """C = A + B over the structural union."""
    maybe_inject("kernel.ewise")
    if a.nvals == 0:
        return b.astype(out_type)
    if b.nvals == 0:
        return a.astype(out_type)
    a_rows, b_rows = a.row_indices(), b.row_indices()
    pos, hit = merge_sorted(
        pair_keys(a_rows, a.col_indices, a.ncols),
        pair_keys(b_rows, b.col_indices, b.ncols),
    )
    from_a, dst_b = merge_slots(a.nvals, pos, hit)
    # The (row, col) columns ride the merge themselves: no union key
    # array is built (the operands' keys may differ in dtype) and none
    # is decoded back.
    return mat_from_coo(
        a.nrows, a.ncols, out_type,
        merge_column(from_a, dst_b, a_rows, b_rows),
        merge_column(from_a, dst_b, a.col_indices, b.col_indices),
        _union_values(
            a.values, b.values, pos, hit, from_a, dst_b, op, out_type),
        presorted=True,
    )


# eWise merges run over pair keys of the sorted row stream — native on
# both storage tiers.
register("ewise_intersect", "csr", "dcsr")(mat_intersect)
register("ewise_union", "csr", "dcsr")(mat_union)
