"""Extraction kernels: ``w = u(I)``, ``C = A(I,J)``, ``w = A(I,j)``.

GraphBLAS extract permits *duplicate* entries in the index lists (the
output then repeats the corresponding rows/columns).  The kernels handle
that generally: a sorted copy of the index list maps each source
coordinate to *all* of its output positions via a
``searchsorted(left)``/``searchsorted(right)`` window plus a ragged
expansion — no Python loop over indices.

``ALL`` (``GrB_ALL``) is represented by ``None`` index lists.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InvalidIndexError
from ..faults.plane import maybe_inject
from .containers import MatData, VecData, mat_from_coo, row_gather

__all__ = ["vec_extract", "mat_extract", "mat_extract_col"]

_INT = np.int64


def _validate(idx: np.ndarray, limit: int, what: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=_INT).reshape(-1)
    if len(idx) and (idx.min() < 0 or idx.max() >= limit):
        raise InvalidIndexError(f"{what} index out of range [0, {limit})")
    return idx


def _expand_matches(
    src: np.ndarray, targets_sorted: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each src coordinate, enumerate all output positions.

    ``targets_sorted`` is the sorted index list, ``order`` its argsort
    (so ``order[k]`` is the output position of ``targets_sorted[k]``).
    Returns (src_entry_index, out_positions, counts_per_src_entry).
    """
    lo = np.searchsorted(targets_sorted, src, side="left")
    hi = np.searchsorted(targets_sorted, src, side="right")
    counts = (hi - lo).astype(_INT)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=_INT), np.empty(0, dtype=_INT), counts
    excl = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(_INT)
    offsets = np.arange(total, dtype=_INT) - np.repeat(excl, counts)
    sorted_pos = np.repeat(lo, counts) + offsets
    out_pos = order[sorted_pos]
    src_entry = np.repeat(np.arange(len(src), dtype=_INT), counts)
    return src_entry, out_pos, counts


def vec_extract(u: VecData, indices: np.ndarray | None) -> VecData:
    """w = u(I); ``indices=None`` means GrB_ALL (a full copy)."""
    maybe_inject("kernel.extract")
    if indices is None:
        return VecData(u.size, u.type, u.indices, u.values)
    idx = _validate(indices, u.size, "vector")
    order = np.argsort(idx, kind="stable")
    idx_sorted = idx[order]
    src_entry, out_pos, _ = _expand_matches(u.indices, idx_sorted, order)
    vals = u.values[src_entry]
    if len(out_pos) > 1:
        o = np.argsort(out_pos, kind="stable")
        out_pos = out_pos[o]
        vals = vals[o]
    return VecData(len(idx), u.type, out_pos, vals)


def mat_extract(
    a: MatData,
    row_indices: np.ndarray | None,
    col_indices: np.ndarray | None,
) -> MatData:
    """C = A(I, J) with duplicates allowed in both index lists."""
    maybe_inject("kernel.extract")
    if row_indices is None and col_indices is None:
        # Fresh carrier sharing arrays, row list included.
        return a.with_values(a.type, a.values)

    # Row phase: gather the selected rows (with repetition), driven by
    # the row-window gather (rows absent from a row list gather empty).
    if row_indices is None:
        out_nrows = a.nrows
        rows = a.row_indices()
        cols = a.col_indices
        vals = a.values
    else:
        ridx = _validate(row_indices, a.nrows, "row")
        out_nrows = len(ridx)
        lo, hi = row_gather(a, ridx)
        counts = (hi - lo).astype(_INT)
        total = int(counts.sum())
        if total:
            starts = lo.astype(_INT)
            excl = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(_INT)
            offsets = np.arange(total, dtype=_INT) - np.repeat(excl, counts)
            flat = np.repeat(starts, counts) + offsets
            rows = np.repeat(np.arange(out_nrows, dtype=_INT), counts)
            cols = a.col_indices[flat]
            vals = a.values[flat]
        else:
            rows = np.empty(0, dtype=_INT)
            cols = np.empty(0, dtype=_INT)
            vals = a.type.empty(0)

    # Column phase: remap/filter columns (with repetition).
    if col_indices is None:
        out_ncols = a.ncols
        out_rows, out_cols, out_vals = rows, cols, vals
    else:
        cidx = _validate(col_indices, a.ncols, "column")
        out_ncols = len(cidx)
        order = np.argsort(cidx, kind="stable")
        cidx_sorted = cidx[order]
        src_entry, out_pos, _ = _expand_matches(cols, cidx_sorted, order)
        out_rows = rows[src_entry]
        out_cols = out_pos
        out_vals = vals[src_entry]

    return mat_from_coo(out_nrows, out_ncols, a.type, out_rows, out_cols,
                        out_vals)


def mat_extract_col(
    a: MatData, col: int, row_indices: np.ndarray | None
) -> VecData:
    """w = A(I, j) — one column as a vector (``Col_extract``)."""
    maybe_inject("kernel.extract")
    if not (0 <= col < a.ncols):
        raise InvalidIndexError(f"column {col} out of range [0, {a.ncols})")
    hit = a.col_indices == col
    rows = a.row_indices()[hit]
    vals = a.values[hit]
    column = VecData(a.nrows, a.type, rows, vals)
    return vec_extract(column, row_indices)
