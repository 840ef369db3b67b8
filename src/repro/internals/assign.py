"""Assignment kernels: ``C(I,J) = A``, row/col assign, scalar fill.

These kernels compute the *pre-mask* result Z of an assign: the content
of the output over its full extent, with the (I, J) region updated.  The
operations layer then funnels Z through the standard write-back
(:mod:`.maskaccum`), since ``GrB_assign`` masks span the whole output.

Semantics captured here:

* Without an accumulator the region is **overwritten**: region positions
  with no corresponding stored input element become empty.
* With an accumulator the region is **merged**: existing C entries
  survive, overlaps are folded with the accumulator.
* Index lists may be ``None`` (GrB_ALL) and must not contain duplicates
  (duplicates make assignment order ambiguous → INVALID_INDEX).
* The scalar variants fill *every* position of the region — Table II's
  ``GrB_assign(…, GrB_Scalar, …)`` lands here with an empty scalar
  meaning "delete the region" when unaccumulated.
* A vector GrB_ALL assign without accumulator overwrites everything, so
  Z is u's own (sorted) entries or the fill: no membership test, merge
  or sort.

All variants are format-polymorphic: the region rewrite works on the
COO row stream (``row_indices()``), which both CSR and doubly-
compressed carriers expose in row-major order, and results re-assemble
through :func:`~.containers.mat_from_coo` so the density policy picks
the output format.  Hypersparse graphs therefore survive streaming
writes without the old ``as_csr`` densify fallback; the one inherently
dense case left is a GrB_ALL *scalar fill* (the region is every row),
which raises the documented resource-limit error above the CSR row
ceiling instead of materializing an O(nrows) index range.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.errors import InvalidIndexError
from ..core.types import Type
from ..faults.plane import maybe_inject
from .containers import (
    DcsrData,
    MatData,
    VecData,
    check_nrows_limit,
    empty_vec,
    mat_from_coo,
)
from .dispatch import register
from .ewise import mat_union, vec_union

__all__ = [
    "vec_assign",
    "vec_assign_scalar",
    "mat_assign",
    "mat_assign_scalar",
    "mat_assign_row",
    "mat_assign_col",
]

_INT = np.int64


def _indices_or_all(indices, limit: int, what: str) -> np.ndarray | None:
    if indices is None:
        return None
    idx = np.asarray(indices, dtype=_INT).reshape(-1)
    if len(idx) and (idx.min() < 0 or idx.max() >= limit):
        raise InvalidIndexError(f"{what} index out of range [0, {limit})")
    if len(np.unique(idx)) != len(idx):
        raise InvalidIndexError(f"duplicate {what} indices in assign")
    return idx


def vec_assign(
    c: VecData,
    u: VecData,
    indices,
    accum: BinaryOp | None,
    out_type: Type,
) -> VecData:
    """Z for ``w(I) = [accum] u``; len(I) must equal u.size."""
    maybe_inject("kernel.assign")
    idx = _indices_or_all(indices, c.size, "vector")
    region_len = c.size if idx is None else len(idx)
    if u.size != region_len:
        raise InvalidIndexError(
            f"assign source length {u.size} != index-list length {region_len}"
        )
    values = out_type.coerce_array(u.values)
    if idx is None:
        # u's own entries are sorted; without accum the region is
        # everything, so Z is u.
        mapped = VecData(c.size, out_type, u.indices, values)
        if accum is None:
            return mapped
    else:
        mapped = VecData(c.size, out_type,
                         *_sorted_pair(idx[u.indices], values))
    if accum is not None:
        return vec_union(c.astype(out_type), mapped, accum, out_type)
    keep = ~np.isin(c.indices, idx)
    outside_idx = c.indices[keep]
    outside_vals = out_type.coerce_array(c.values[keep])
    merged = np.concatenate([outside_idx, mapped.indices])
    merged_vals = np.concatenate([outside_vals, mapped.values])
    order = np.argsort(merged, kind="stable")
    return VecData(c.size, out_type, merged[order], merged_vals[order])


def _sorted_pair(indices: np.ndarray, values: np.ndarray):
    if len(indices) > 1:
        order = np.argsort(indices, kind="stable")
        return indices[order], values[order]
    return indices, values


def vec_assign_scalar(
    c: VecData,
    value: Any | None,
    indices,
    accum: BinaryOp | None,
    out_type: Type,
) -> VecData:
    """Z for ``w(I) = [accum] s`` — fills every region position.

    ``value=None`` (an empty GrB_Scalar) deletes the region when
    unaccumulated and is a no-op when accumulated.
    """
    maybe_inject("kernel.assign")
    idx = _indices_or_all(indices, c.size, "vector")
    if value is None:
        if accum is not None:
            return c.astype(out_type)
        if idx is None:
            return empty_vec(c.size, out_type)  # the region is everything
        keep = ~np.isin(c.indices, idx)
        return VecData(c.size, out_type, c.indices[keep],
                       out_type.coerce_array(c.values[keep]))
    region = np.arange(c.size, dtype=_INT) if idx is None else np.sort(idx)
    fill = np.full(len(region), out_type.coerce_scalar(value),
                   dtype=out_type.np_dtype)
    mapped = VecData(c.size, out_type, region, fill)
    if accum is not None:
        return vec_union(c.astype(out_type), mapped, accum, out_type)
    if idx is None:
        return mapped  # the region is everything: Z is the fill
    keep = ~np.isin(c.indices, region)
    merged = np.concatenate([c.indices[keep], region])
    merged_vals = np.concatenate(
        [out_type.coerce_array(c.values[keep]), fill]
    )
    order = np.argsort(merged, kind="stable")
    return VecData(c.size, out_type, merged[order], merged_vals[order])


# ---------------------------------------------------------------------------
# Matrix assigns
# ---------------------------------------------------------------------------

def _mat_region_update(
    c: "MatData | DcsrData",
    new_rows: np.ndarray,
    new_cols: np.ndarray,
    new_vals: np.ndarray,
    row_region: np.ndarray | None,
    col_region: np.ndarray | None,
    accum: BinaryOp | None,
    out_type: Type,
) -> "MatData | DcsrData":
    """Common tail: overwrite-or-merge the region entries into C."""
    mapped = mat_from_coo(
        c.nrows, c.ncols, out_type, new_rows, new_cols, new_vals
    )
    if accum is not None:
        return mat_union(c.astype(out_type), mapped, accum, out_type)
    c_rows = c.row_indices()
    in_rows = (
        np.ones(c.nvals, dtype=bool) if row_region is None
        else np.isin(c_rows, row_region)
    )
    in_cols = (
        np.ones(c.nvals, dtype=bool) if col_region is None
        else np.isin(c.col_indices, col_region)
    )
    keep = ~(in_rows & in_cols)
    rows = np.concatenate([c_rows[keep], new_rows])
    cols = np.concatenate([c.col_indices[keep], new_cols])
    vals = np.concatenate(
        [out_type.coerce_array(c.values[keep]), out_type.coerce_array(new_vals)]
    )
    return mat_from_coo(c.nrows, c.ncols, out_type, rows, cols, vals)


def mat_assign(
    c: "MatData | DcsrData",
    a: "MatData | DcsrData",
    row_indices,
    col_indices,
    accum: BinaryOp | None,
    out_type: Type,
) -> "MatData | DcsrData":
    """Z for ``C(I,J) = [accum] A``."""
    maybe_inject("kernel.assign")
    ridx = _indices_or_all(row_indices, c.nrows, "row")
    cidx = _indices_or_all(col_indices, c.ncols, "column")
    nr = c.nrows if ridx is None else len(ridx)
    nc = c.ncols if cidx is None else len(cidx)
    if (a.nrows, a.ncols) != (nr, nc):
        raise InvalidIndexError(
            f"assign source shape {(a.nrows, a.ncols)} != region shape {(nr, nc)}"
        )
    a_rows = a.row_indices()
    new_rows = a_rows if ridx is None else ridx[a_rows]
    new_cols = a.col_indices if cidx is None else cidx[a.col_indices]
    new_vals = out_type.coerce_array(a.values)
    return _mat_region_update(
        c, new_rows, new_cols, new_vals, ridx, cidx, accum, out_type
    )


def mat_assign_scalar(
    c: "MatData | DcsrData",
    value: Any | None,
    row_indices,
    col_indices,
    accum: BinaryOp | None,
    out_type: Type,
) -> "MatData | DcsrData":
    """Z for ``C(I,J) = [accum] s`` — the region densifies to |I|·|J|."""
    maybe_inject("kernel.assign")
    ridx = _indices_or_all(row_indices, c.nrows, "row")
    cidx = _indices_or_all(col_indices, c.ncols, "column")
    if value is None:
        if accum is not None:
            return c.astype(out_type)
        return _mat_region_update(
            c, np.empty(0, dtype=_INT), np.empty(0, dtype=_INT),
            out_type.empty(0), ridx, cidx, None, out_type,
        )
    # A GrB_ALL scalar fill densifies the region to every row: past the
    # CSR pointer ceiling that is O(nrows) storage no format can carry,
    # so it keeps the documented resource-limit error.
    if ridx is None:
        check_nrows_limit(c.nrows)
    rows_arr = np.arange(c.nrows, dtype=_INT) if ridx is None else ridx
    cols_arr = np.arange(c.ncols, dtype=_INT) if cidx is None else cidx
    grid_rows = np.repeat(rows_arr, len(cols_arr))
    grid_cols = np.tile(cols_arr, len(rows_arr))
    fill = np.full(len(grid_rows), out_type.coerce_scalar(value),
                   dtype=out_type.np_dtype)
    return _mat_region_update(
        c, grid_rows, grid_cols, fill, ridx, cidx, accum, out_type
    )


def mat_assign_row(
    c: "MatData | DcsrData",
    u: VecData,
    row: int,
    col_indices,
    accum: BinaryOp | None,
    out_type: Type,
) -> "MatData | DcsrData":
    """Z for ``C(i, J) = [accum] u`` (``GrB_Row_assign``)."""
    maybe_inject("kernel.assign")
    if not (0 <= row < c.nrows):
        raise InvalidIndexError(f"row {row} out of range [0, {c.nrows})")
    cidx = _indices_or_all(col_indices, c.ncols, "column")
    nc = c.ncols if cidx is None else len(cidx)
    if u.size != nc:
        raise InvalidIndexError(
            f"row-assign source length {u.size} != region width {nc}"
        )
    new_cols = u.indices if cidx is None else cidx[u.indices]
    new_rows = np.full(len(new_cols), row, dtype=_INT)
    return _mat_region_update(
        c, new_rows, new_cols, out_type.coerce_array(u.values),
        np.array([row], dtype=_INT), cidx, accum, out_type,
    )


def mat_assign_col(
    c: "MatData | DcsrData",
    u: VecData,
    row_indices,
    col: int,
    accum: BinaryOp | None,
    out_type: Type,
) -> "MatData | DcsrData":
    """Z for ``C(I, j) = [accum] u`` (``GrB_Col_assign``)."""
    maybe_inject("kernel.assign")
    if not (0 <= col < c.ncols):
        raise InvalidIndexError(f"column {col} out of range [0, {c.ncols})")
    ridx = _indices_or_all(row_indices, c.nrows, "row")
    nr = c.nrows if ridx is None else len(ridx)
    if u.size != nr:
        raise InvalidIndexError(
            f"col-assign source length {u.size} != region height {nr}"
        )
    new_rows = u.indices if ridx is None else ridx[u.indices]
    new_cols = np.full(len(new_rows), col, dtype=_INT)
    return _mat_region_update(
        c, new_rows, new_cols, out_type.coerce_array(u.values),
        ridx, np.array([col], dtype=_INT), accum, out_type,
    )


# Native on both formats: the region rewrite runs on the COO row
# stream, which CSR and DCSR carriers expose identically.
register("assign", "csr", "dcsr")(mat_assign)
