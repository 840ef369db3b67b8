"""``GrB_Matrix`` — the opaque sparse matrix object.

Wraps a CSR :class:`~repro.internals.containers.MatData` or hypersparse
DCSR :class:`~repro.internals.containers.DcsrData` carrier behind the
sequence/completion machinery; the format policy
(:func:`~repro.internals.containers.choose_mat_format`) picks between
them from the shape/occupancy, so row counts past the CSR pointer limit
work transparently when ``FORMAT_AUTO`` is on.  Constructors accept the
optional ``GrB_Context`` argument introduced in 2.0 (§IV, Fig. 2):

    ``GrB_Matrix_new(&A, type, nrows, ncols, ctx)``
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..internals.build import build_matrix
from ..internals.containers import (
    DcsrData,
    MatData,
    empty_mat_auto,
    insert_value,
    mat_from_coo,
    row_gather,
)
from ..internals.stream import REMOVED, apply_matrix_writes
from .binaryop import BinaryOp
from .context import Context
from .errors import (
    IndexOutOfBoundsError,
    InvalidIndexError,
    InvalidValueError,
    NoValue,
    NullPointerError,
    OutputNotEmptyError,
)
from .scalar import Scalar
from .sequence import OpaqueObject
from .types import Type

__all__ = ["Matrix"]

_INT = np.int64


class Matrix(OpaqueObject):
    """An opaque sparse matrix of a fixed domain and shape."""

    __slots__ = ("_type", "_nrows", "_ncols")

    def __init__(
        self, t: Type, nrows: int, ncols: int, ctx: Context | None = None
    ):
        if t is None:
            raise NullPointerError("matrix type is NULL")
        if nrows < 0 or ncols < 0:
            raise InvalidValueError(f"matrix shape must be >= 0, got {(nrows, ncols)}")
        super().__init__(ctx)
        self._type = t
        self._nrows = int(nrows)
        self._ncols = int(ncols)
        # Raises the documented resource-limit error when the policy
        # pins CSR (FORMAT_AUTO=0) and nrows exceeds the pointer limit.
        self._data = empty_mat_auto(self._nrows, self._ncols, t)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def new(
        cls, t: Type, nrows: int, ncols: int, ctx: Context | None = None
    ) -> "Matrix":
        """``GrB_Matrix_new(&A, d, nrows, ncols, ctx)`` (Fig. 2 signature)."""
        return cls(t, nrows, ncols, ctx)

    def dup(self) -> "Matrix":
        """``GrB_Matrix_dup``."""
        data = self._capture()
        out = Matrix(self._type, self._nrows, self._ncols, self._ctx)
        out._data = data
        return out

    @classmethod
    def from_data(
        cls, data: "MatData | DcsrData", ctx: Context | None = None
    ) -> "Matrix":
        """Internal/advanced: wrap an existing carrier (no copy)."""
        out = cls(data.type, data.nrows, data.ncols, ctx)
        out._data = data
        return out

    @classmethod
    def diag(cls, v, k: int = 0, ctx: Context | None = None) -> "Matrix":
        """``GrB_Matrix_diag`` — square matrix with ``v`` on diagonal ``k``."""
        d = v._capture()
        n = d.size + abs(int(k))
        rows = d.indices if k >= 0 else d.indices - k
        cols = d.indices + k if k >= 0 else d.indices
        out = cls(d.type, n, n, ctx)
        out._data = build_matrix(n, n, d.type, rows, cols, d.values, None)
        return out

    # -- shape / pattern -----------------------------------------------------------

    @property
    def type(self) -> Type:
        return self._type

    @property
    def nrows(self) -> int:
        """``GrB_Matrix_nrows``."""
        return self._nrows

    @property
    def ncols(self) -> int:
        """``GrB_Matrix_ncols``."""
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    def nvals(self) -> int:
        """``GrB_Matrix_nvals`` (forces the sequence)."""
        return self._capture().nvals

    # -- element access ---------------------------------------------------------------

    def build(
        self,
        row_indices: Iterable[int],
        col_indices: Iterable[int],
        values: Iterable[Any],
        dup: BinaryOp | None = None,
    ) -> None:
        """``GrB_Matrix_build`` with the §IX optional-``dup`` rule.

        With ``dup=None`` (``GrB_NULL``) duplicates raise
        :class:`~repro.core.errors.DuplicateIndexError` — an execution
        error, deferred in nonblocking mode.
        """
        if self.nvals() != 0:
            raise OutputNotEmptyError("build requires an empty matrix")
        r = np.asarray(list(row_indices) if not isinstance(row_indices, np.ndarray) else row_indices)
        c = np.asarray(list(col_indices) if not isinstance(col_indices, np.ndarray) else col_indices)
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if not (r.size == c.size == v.size):
            raise InvalidValueError("rows/cols/values length mismatch")
        nrows, ncols, t = self._nrows, self._ncols, self._type
        self._submit(
            lambda _d: build_matrix(nrows, ncols, t, r, c, v, dup),
            "Matrix_build",
        )

    def update_batch(self, row_indices, col_indices, values) -> dict:
        """Batched edge upsert — the streaming-ingest fast path (GxB ext).

        Applies a COO batch against the current carrier in one sorted
        positional merge (O(nnz + d log d), no full re-sort; duplicates
        within the batch resolve last-write-wins like ``build`` with a
        SECOND dup).  Unlike ``build`` the matrix need not be empty:
        existing keys are overwritten, new keys inserted.

        Eager in *both* modes: the merge is the materialization, and
        committing before the version advances is what makes the memo's
        delta tier sound — dependent blocks are patched from the write
        set (``ENGINE_DELTA``) only after the new carrier passed the
        transactional commit gate, so a mid-merge fault leaves both the
        carrier and every cached block at their pre-write state.

        Returns ``{"inserted": ..., "updated": ..., "nvals": ...}``.
        """
        from ..internals.stream import apply_delta, build_delta

        while True:
            # Drain any deferred sequence first (lock released while the
            # engine forces); re-check under the lock in case a racing
            # writer appended another node.
            self._capture()
            with self._lock:
                self._check_valid()
                if self._tail is not None:
                    continue
                base = self._data
                # Validates lengths/bounds/dtype eagerly (API errors are
                # never deferred) before any state moves.
                try:
                    delta = build_delta(
                        base, row_indices, col_indices, values
                    )
                except IndexOutOfBoundsError as exc:
                    raise InvalidIndexError(str(exc)) from None
                if delta.n:
                    self._data = self._run_now(
                        "Matrix_updateBatch", lambda: apply_delta(base, delta)
                    )
                    self._materialized = True
                    self._advance(delta)
                return {
                    "inserted": delta.n_new,
                    "updated": delta.n - delta.n_new,
                    "nvals": self._data.nvals,
                }

    def set_element(self, value: Any, row: int, col: int) -> None:
        """``GrB_Matrix_setElement`` (plain value or ``GrB_Scalar``)."""
        row, col = int(row), int(col)
        self._check_coords(row, col)
        if isinstance(value, Scalar):
            src = value._capture()
            if not src.present:
                self.remove_element(row, col)
                return
            value = src.value
        self._submit_write(
            (row, col), self._type.coerce_scalar(value), "Matrix_setElement"
        )

    def remove_element(self, row: int, col: int) -> None:
        """``GrB_Matrix_removeElement``."""
        row, col = int(row), int(col)
        self._check_coords(row, col)
        self._submit_write((row, col), REMOVED, "Matrix_removeElement")

    def _write_one(self, d, coord: tuple[int, int], value: Any):
        """One element write applied by splicing (blocking mode)."""
        row, col = coord
        if value is REMOVED:
            return self._remove_one(d, row, col)
        t = self._type
        if isinstance(d, DcsrData):
            # Hypersparse: locate the row by binary search over the
            # nonempty-row list; an absent row is spliced in.
            ri = int(np.searchsorted(d.row_ids, row))
            if ri < len(d.row_ids) and d.row_ids[ri] == row:
                lo, hi = int(d.indptr[ri]), int(d.indptr[ri + 1])
                pos = lo + int(np.searchsorted(d.col_indices[lo:hi], col))
                if pos < hi and d.col_indices[pos] == col:
                    vals = d.values.copy()
                    vals[pos] = value
                    return DcsrData(d.nrows, d.ncols, t, d.row_ids,
                                    d.indptr, d.col_indices, vals)
                row_ids = d.row_ids
                indptr = d.indptr.copy()
            else:
                pos = int(d.indptr[ri])
                row_ids = np.insert(d.row_ids, ri, row).astype(_INT)
                indptr = np.insert(d.indptr, ri, d.indptr[ri]).astype(_INT)
            indptr[ri + 1:] += 1
            cols = np.insert(d.col_indices, pos, col).astype(_INT)
            vals = insert_value(d.values, pos, value, t)
            return DcsrData(d.nrows, d.ncols, t, row_ids, indptr,
                            cols, vals)
        lo, hi = d.indptr[row], d.indptr[row + 1]
        pos = lo + int(np.searchsorted(d.col_indices[lo:hi], col))
        if pos < hi and d.col_indices[pos] == col:
            vals = d.values.copy()
            vals[pos] = value
            return MatData(d.nrows, d.ncols, t, d.indptr, d.col_indices, vals)
        indptr = d.indptr.copy()
        indptr[row + 1:] += 1
        cols = np.insert(d.col_indices, pos, col).astype(_INT)
        vals = insert_value(d.values, pos, value, t)
        return MatData(d.nrows, d.ncols, t, indptr, cols, vals)

    def _remove_one(self, d, row: int, col: int):
        t = self._type
        if isinstance(d, DcsrData):
            ri = int(np.searchsorted(d.row_ids, row))
            if ri >= len(d.row_ids) or d.row_ids[ri] != row:
                return d
            lo, hi = int(d.indptr[ri]), int(d.indptr[ri + 1])
            pos = lo + int(np.searchsorted(d.col_indices[lo:hi], col))
            if pos >= hi or d.col_indices[pos] != col:
                return d
            cols = np.delete(d.col_indices, pos)
            vals = np.delete(d.values, pos)
            if hi - lo == 1:
                # Last element of the row: the row leaves the
                # nonempty-row list (DCSR stores no empty rows).
                row_ids = np.delete(d.row_ids, ri)
                indptr = np.delete(d.indptr, ri)
                indptr[ri:] -= 1
            else:
                row_ids = d.row_ids
                indptr = d.indptr.copy()
                indptr[ri + 1:] -= 1
            return DcsrData(d.nrows, d.ncols, t, row_ids, indptr,
                            cols, vals)
        lo, hi = d.indptr[row], d.indptr[row + 1]
        pos = lo + int(np.searchsorted(d.col_indices[lo:hi], col))
        if pos < hi and d.col_indices[pos] == col:
            indptr = d.indptr.copy()
            indptr[row + 1:] -= 1
            return MatData(
                d.nrows, d.ncols, t, indptr,
                np.delete(d.col_indices, pos), np.delete(d.values, pos),
            )
        return d

    _apply_writes = staticmethod(apply_matrix_writes)

    def extract_element(self, row: int, col: int, out: Scalar | None = None):
        """``GrB_Matrix_extractElement`` — typed or ``GrB_Scalar`` variant.

        The ``GrB_Scalar`` variant (Table II) returns an empty scalar
        for a missing element instead of forcing an immediate
        ``NO_VALUE`` check (§VI).
        """
        row, col = int(row), int(col)
        self._check_coords(row, col)
        d = self._capture()
        lo_a, hi_a = row_gather(d, [row])
        lo, hi = int(lo_a[0]), int(hi_a[0])
        pos = lo + int(np.searchsorted(d.col_indices[lo:hi], col))
        present = pos < hi and d.col_indices[pos] == col
        if out is not None:
            out._store_kernel_result(d.values[pos] if present else None)
            return out
        if not present:
            raise NoValue(f"no element at ({row}, {col})")
        return d.values[pos]

    def extract_tuples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``GrB_Matrix_extractTuples`` — (rows, cols, values) copies."""
        d = self._capture()
        return d.row_indices(), d.col_indices.copy(), d.values.copy()

    def clear(self) -> None:
        """``GrB_Matrix_clear``."""
        nrows, ncols, t = self._nrows, self._ncols, self._type
        self._submit(lambda _d: empty_mat_auto(nrows, ncols, t),
                     "Matrix_clear", can_raise=False)

    def resize(self, nrows: int, ncols: int) -> None:
        """``GrB_Matrix_resize`` — shrink drops out-of-range elements."""
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 0 or ncols < 0:
            raise InvalidValueError("shape must be >= 0")
        t = self._type

        def thunk(d):
            rows = d.row_indices()
            keep = (rows < nrows) & (d.col_indices < ncols)
            # Policy-choosing assembly: growing past the CSR row limit
            # (or shrinking back under it) switches format here.
            return mat_from_coo(
                nrows, ncols, t,
                rows[keep], d.col_indices[keep], d.values[keep],
                presorted=True,
            )

        self._submit(thunk, "Matrix_resize", can_raise=False)
        self._nrows = nrows
        self._ncols = ncols

    def _check_coords(self, row: int, col: int) -> None:
        if not (0 <= row < self._nrows):
            raise InvalidIndexError(f"row {row} out of range [0, {self._nrows})")
        if not (0 <= col < self._ncols):
            raise InvalidIndexError(f"col {col} out of range [0, {self._ncols})")

    # -- pythonic conveniences ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Densify (testing/debug helper; not part of the C surface)."""
        return self._capture().to_dense()

    def to_dict(self) -> dict[tuple[int, int], Any]:
        d = self._capture()
        return {
            (int(i), int(j)): v
            for i, j, v in zip(d.row_indices(), d.col_indices, d.values)
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            if not self._valid:
                return "Matrix(<freed>)"
            state = ("<pending>" if self._tail is not None
                     else f"nvals={self._data.nvals}")
            return (
                f"Matrix({self._type.name}, "
                f"shape=({self._nrows}, {self._ncols}), {state})"
            )
