"""Kernels for ``build`` — assembling containers from index/value tuples.

Implements the Section IX cleanup: the ``dup`` binary operator is now
*optional*.  With ``dup=None`` (``GrB_NULL``), any duplicated index is an
execution error (:class:`~repro.core.errors.DuplicateIndexError`); with a
``dup`` operator, runs of equal indices are folded left-to-right in the
order the tuples were supplied (matching the spec's sequential
definition) using ``dup(acc, next)``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.errors import DuplicateIndexError, IndexOutOfBoundsError
from ..core.types import Type
from ..faults.plane import maybe_inject
from .containers import MatData, VecData, mat_from_coo, pair_keys

__all__ = ["build_vector", "build_matrix", "dedup_sorted"]

_INT = np.int64


def _check_bounds(arr: np.ndarray, limit: int, what: str) -> None:
    if len(arr) == 0:
        return
    if arr.min() < 0 or arr.max() >= limit:
        bad = arr[(arr < 0) | (arr >= limit)][0]
        raise IndexOutOfBoundsError(f"{what} index {int(bad)} out of range [0, {limit})")


def dedup_sorted(
    keys: np.ndarray,
    values: np.ndarray,
    dup: BinaryOp | None,
    out_type: Type,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold duplicate runs in a key-sorted stream.

    ``keys`` must be sorted (stable order preserved within runs so the
    left-to-right fold matches input order).  Returns (unique_keys,
    folded_values).  ``dup=None`` raises on the first duplicate.
    """
    n = len(keys)
    if n == 0:
        return keys, out_type.coerce_array(values)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
    if is_start.all():
        return keys, out_type.coerce_array(values)
    if dup is None:
        first_dup = int(np.flatnonzero(~is_start)[0])
        raise DuplicateIndexError(
            f"duplicate index at sorted position {first_dup} with NULL dup"
        )
    starts = np.flatnonzero(is_start).astype(_INT)
    uniq_keys = keys[starts]
    ufunc = dup.ufunc
    if dup.name.startswith("GrB_FIRST_"):
        # Fold is "keep the first of each run": a pure gather.
        folded = values[starts]
    elif dup.name.startswith("GrB_SECOND_"):
        # "Keep the last of each run": gather at run ends.
        run_ends = np.empty(len(starts), dtype=_INT)
        run_ends[:-1] = starts[1:] - 1
        run_ends[-1] = n - 1
        folded = values[run_ends]
    elif ufunc is not None and values.dtype != object:
        folded = ufunc.reduceat(values, starts)
    else:
        ends = np.empty(len(starts), dtype=_INT)
        ends[:-1] = starts[1:]
        ends[-1] = n
        folded = np.empty(len(starts), dtype=dup.out_type.np_dtype)
        sc = dup.scalar
        for k in range(len(starts)):
            acc = values[starts[k]]
            for idx in range(starts[k] + 1, ends[k]):
                acc = sc(acc, values[idx])
            folded[k] = acc
    return uniq_keys, out_type.coerce_array(folded)


def build_vector(
    size: int,
    t: Type,
    indices: Any,
    values: Any,
    dup: BinaryOp | None,
) -> VecData:
    """``GrB_Vector_build`` kernel."""
    maybe_inject("kernel.build")
    idx = np.asarray(indices, dtype=_INT).reshape(-1)
    vals = np.asarray(values)
    if vals.ndim == 0:
        vals = np.full(len(idx), vals[()])
    vals = t.coerce_array(vals.reshape(-1))
    if len(idx) != len(vals):
        raise IndexOutOfBoundsError(
            f"indices ({len(idx)}) and values ({len(vals)}) length mismatch"
        )
    _check_bounds(idx, size, "vector")
    if len(idx) > 1:
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        vals = vals[order]
    idx, vals = dedup_sorted(idx, vals, dup, t)
    return VecData(size, t, idx, vals)


def build_matrix(
    nrows: int,
    ncols: int,
    t: Type,
    rows: Any,
    cols: Any,
    values: Any,
    dup: BinaryOp | None,
) -> MatData:
    """``GrB_Matrix_build`` kernel.

    Output assembly goes through the hypersparse policy: huge, sparse
    shapes come out with a row list instead of paying an O(nrows)
    pointer."""
    maybe_inject("kernel.build")
    r = np.asarray(rows, dtype=_INT).reshape(-1)
    c = np.asarray(cols, dtype=_INT).reshape(-1)
    vals = np.asarray(values)
    if vals.ndim == 0:
        vals = np.full(len(r), vals[()])
    vals = t.coerce_array(vals.reshape(-1))
    if not (len(r) == len(c) == len(vals)):
        raise IndexOutOfBoundsError("rows/cols/values length mismatch")
    _check_bounds(r, nrows, "row")
    _check_bounds(c, ncols, "column")
    if len(r) > 1:
        order = np.lexsort((c, r))
        r = r[order]
        c = c[order]
        vals = vals[order]
    keys = pair_keys(r, c, ncols)
    uniq_keys, vals = dedup_sorted(keys, vals, dup, t)
    if len(uniq_keys) != len(r):
        keep = np.searchsorted(keys, uniq_keys)  # first position of each run
        # NB: keys sorted; runs contiguous, so searchsorted-left lands on
        # the run start, matching the folded values order.
        r = r[keep]
        c = c[keep]
    return mat_from_coo(nrows, ncols, t, r, c, vals, presorted=True)
