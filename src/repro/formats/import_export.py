"""Import/export between GraphBLAS containers and Table III formats (§VII-A).

The export flow mirrors the three-call C protocol:

1. ``matrix_export_size(A, format)`` returns the lengths of the three
   output arrays so the caller can allocate them with any allocator
   (malloc, a memory-mapped file, …).
2. The caller allocates (or lets us allocate, the Python convenience).
3. ``matrix_export(A, format, indptr=, indices=, values=)`` fills the
   arrays.  Supplying too-small arrays is the INSUFFICIENT_SPACE error.

``matrix_export_hint(A)`` reports the format the implementation can
export most cheaply — ours is CSR (the internal storage), so the hint is
always ``Format.CSR_MATRIX`` for matrices and ``Format.SPARSE_VECTOR``
for vectors; a conforming implementation may instead refuse with
``GrB_NO_VALUE`` (we expose that path for testing via ``refuse=True``).

Table III deliberately contains only *non-opaque* exchange formats, and
their row pointers are dense in ``nrows`` — there is no hypersparse row
in the table.  A matrix the engine carries with a row list therefore
expands it at this boundary (``MatData.to_csr``): cheap below
``MAX_NROWS``, and past it the defined ``GrB_OUT_OF_MEMORY`` — the
exchange format itself cannot represent such a matrix.  Round-tripping
hypersparse data keeps O(nnz) cost only through the opaque §VII-B
serialization, which has a row-list blob kind.  Imports go through the
assembly funnel, which applies the hypersparse policy, so importing a
huge sparse COO lands on a row list automatically.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.context import Context
from ..core.errors import (
    DimensionMismatchError,
    InsufficientSpaceError,
    InvalidValueError,
    NoValue,
)
from ..core.matrix import Matrix
from ..core.types import Type
from ..core.vector import Vector
from ..internals.build import build_matrix, build_vector
from ..internals.containers import VecData, mat_from_coo
from .formats import MATRIX_FORMATS, VECTOR_FORMATS, Format

__all__ = [
    "matrix_import",
    "matrix_export",
    "matrix_export_size",
    "matrix_export_hint",
    "vector_import",
    "vector_export",
    "vector_export_size",
    "vector_export_hint",
]

_INT = np.int64


def _check_format(fmt: Format, allowed, what: str) -> Format:
    fmt = Format(fmt)
    if fmt not in allowed:
        raise InvalidValueError(f"{fmt.name} is not a {what} format")
    return fmt


# ---------------------------------------------------------------------------
# Matrix import
# ---------------------------------------------------------------------------

def matrix_import(
    t: Type,
    nrows: int,
    ncols: int,
    indptr: Any,
    indices: Any,
    values: Any,
    fmt: Format,
    ctx: Context | None = None,
) -> Matrix:
    """``GrB_Matrix_import`` — construct a matrix from external arrays.

    The arrays follow Table III (see :mod:`.formats`).  Input arrays
    are copied — the new object owns its data, as the C API requires of
    import (the caller's arrays remain the caller's).
    """
    fmt = _check_format(fmt, MATRIX_FORMATS, "matrix")
    values = np.asarray(values)

    if fmt == Format.CSR_MATRIX:
        indptr = np.asarray(indptr, dtype=_INT)
        cols = np.asarray(indices, dtype=_INT)
        if len(indptr) != nrows + 1:
            raise DimensionMismatchError("CSR indptr must have nrows+1 entries")
        if indptr[-1] != len(cols) or len(cols) != len(values):
            raise InvalidValueError("CSR indptr/indices/values are inconsistent")
        rows = np.repeat(np.arange(nrows, dtype=_INT), np.diff(indptr))
        # Rows need not be sorted by column on import (Table III).
        data = mat_from_coo(nrows, ncols, t, rows, cols, t.coerce_array(values))
    elif fmt == Format.CSC_MATRIX:
        indptr = np.asarray(indptr, dtype=_INT)
        rows = np.asarray(indices, dtype=_INT)
        if len(indptr) != ncols + 1:
            raise DimensionMismatchError("CSC indptr must have ncols+1 entries")
        if indptr[-1] != len(rows) or len(rows) != len(values):
            raise InvalidValueError("CSC indptr/indices/values are inconsistent")
        cols = np.repeat(np.arange(ncols, dtype=_INT), np.diff(indptr))
        data = mat_from_coo(nrows, ncols, t, rows, cols, t.coerce_array(values))
    elif fmt == Format.COO_MATRIX:
        # Table III: indptr carries the COLUMN indices, indices the ROW
        # indices, in any order; duplicates are invalid for import.
        cols = np.asarray(indptr, dtype=_INT)
        rows = np.asarray(indices, dtype=_INT)
        if not (len(rows) == len(cols) == len(values)):
            raise InvalidValueError("COO arrays must have equal length")
        data = build_matrix(nrows, ncols, t, rows, cols, values, None)
    elif fmt in (Format.DENSE_ROW_MATRIX, Format.DENSE_COL_MATRIX):
        if values.size != nrows * ncols:
            raise DimensionMismatchError(
                f"dense import needs nrows*ncols={nrows * ncols} values, "
                f"got {values.size}"
            )
        order = "C" if fmt == Format.DENSE_ROW_MATRIX else "F"
        dense = np.reshape(values, (nrows, ncols), order=order)
        rows, cols = np.divmod(np.arange(nrows * ncols, dtype=_INT), ncols)
        data = mat_from_coo(
            nrows, ncols, t, rows, cols,
            t.coerce_array(np.ascontiguousarray(dense).reshape(-1)),
            presorted=True,
        )
    else:  # pragma: no cover - exhaustive above
        raise InvalidValueError(f"unhandled format {fmt!r}")

    return Matrix.from_data(data, ctx)


# ---------------------------------------------------------------------------
# Matrix export
# ---------------------------------------------------------------------------

def matrix_export_size(A: Matrix, fmt: Format) -> tuple[int, int, int]:
    """``GrB_Matrix_exportSize`` → (len(indptr), len(indices), len(values))."""
    fmt = _check_format(fmt, MATRIX_FORMATS, "matrix")
    d = A._capture()
    nnz = d.nvals
    if fmt == Format.CSR_MATRIX:
        return (d.nrows + 1, nnz, nnz)
    if fmt == Format.CSC_MATRIX:
        return (d.ncols + 1, nnz, nnz)
    if fmt == Format.COO_MATRIX:
        return (nnz, nnz, nnz)
    return (0, 0, d.nrows * d.ncols)


def matrix_export_hint(A: Matrix, *, refuse: bool = False) -> Format:
    """``GrB_Matrix_exportHint`` — cheapest export format.

    Our storage is CSR, so the hint is CSR.  ``refuse=True`` exercises
    the spec-sanctioned refusal path (``GrB_NO_VALUE``), raised as
    :class:`NoValue` in the exception-style API.
    """
    A._check_valid()
    if refuse:
        raise NoValue("implementation declines to provide a hint")
    return Format.CSR_MATRIX


def _fill(target: np.ndarray | None, source: np.ndarray, what: str) -> np.ndarray:
    """Fill a caller-allocated array, or hand back ``source`` directly."""
    if target is None:
        return source
    target = np.asarray(target)
    if target.size < source.size:
        raise InsufficientSpaceError(
            f"{what} array has {target.size} slots, need {source.size}"
        )
    target[: source.size] = source
    return target


def matrix_export(
    A: Matrix,
    fmt: Format,
    indptr: np.ndarray | None = None,
    indices: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """``GrB_Matrix_export`` — write the matrix in format ``fmt``.

    Pass pre-allocated arrays to mirror the C flow (sized per
    ``matrix_export_size``), or ``None`` to let the library allocate.
    Returns ``(indptr, indices, values)`` with unused slots ``None``.
    """
    fmt = _check_format(fmt, MATRIX_FORMATS, "matrix")
    d = A._capture()

    if fmt == Format.CSR_MATRIX:
        # Table III's CSR has a dense nrows+1 pointer: a row list
        # expands here, and past MAX_NROWS that raises the documented
        # resource error (no dense pointer exists).
        d = d.to_csr()
        return (
            _fill(indptr, d.indptr, "indptr"),
            _fill(indices, d.col_indices, "indices"),
            _fill(values, d.values, "values"),
        )
    if fmt == Format.CSC_MATRIX:
        tr = d.transpose().to_csr()
        return (
            _fill(indptr, tr.indptr, "indptr"),
            _fill(indices, tr.col_indices, "indices"),
            _fill(values, tr.values, "values"),
        )
    if fmt == Format.COO_MATRIX:
        rows = d.row_indices()
        return (
            _fill(indptr, d.col_indices, "indptr"),   # Table III: cols here
            _fill(indices, rows, "indices"),          # Table III: rows here
            _fill(values, d.values, "values"),
        )
    dense = d.to_dense()
    flat = dense.reshape(-1, order="C" if fmt == Format.DENSE_ROW_MATRIX else "F")
    return (None, None, _fill(values, flat, "values"))


# ---------------------------------------------------------------------------
# Vector import / export
# ---------------------------------------------------------------------------

def vector_import(
    t: Type,
    size: int,
    indices: Any,
    values: Any,
    fmt: Format,
    ctx: Context | None = None,
) -> Vector:
    """``GrB_Vector_import``."""
    fmt = _check_format(fmt, VECTOR_FORMATS, "vector")
    values = np.asarray(values)
    if fmt == Format.SPARSE_VECTOR:
        idx = np.asarray(indices, dtype=_INT)
        if len(idx) != len(values):
            raise InvalidValueError("sparse vector indices/values length mismatch")
        data = build_vector(size, t, idx, values, None)
    else:
        if values.size != size:
            raise DimensionMismatchError(
                f"dense vector import needs {size} values, got {values.size}"
            )
        data = VecData(
            size, t, np.arange(size, dtype=_INT),
            t.coerce_array(values.reshape(-1)),
        )
    return Vector.from_data(data, ctx)


def vector_export_size(u: Vector, fmt: Format) -> tuple[int, int]:
    """``GrB_Vector_exportSize`` → (len(indices), len(values))."""
    fmt = _check_format(fmt, VECTOR_FORMATS, "vector")
    d: VecData = u._capture()
    if fmt == Format.SPARSE_VECTOR:
        return (d.nvals, d.nvals)
    return (0, d.size)


def vector_export_hint(u: Vector, *, refuse: bool = False) -> Format:
    """``GrB_Vector_exportHint``."""
    u._check_valid()
    if refuse:
        raise NoValue("implementation declines to provide a hint")
    return Format.SPARSE_VECTOR


def vector_export(
    u: Vector,
    fmt: Format,
    indices: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """``GrB_Vector_export``."""
    fmt = _check_format(fmt, VECTOR_FORMATS, "vector")
    d: VecData = u._capture()
    if fmt == Format.SPARSE_VECTOR:
        return (
            _fill(indices, d.indices, "indices"),
            _fill(values, d.values, "values"),
        )
    return (None, _fill(values, d.to_dense(), "values"))
