"""Plain sparse data carriers used by the kernel layer.

The opaque GraphBLAS objects (:class:`~repro.core.matrix.Matrix`,
:class:`~repro.core.vector.Vector`) wrap these carriers.  Kernels consume
and produce carriers and never see GraphBLAS semantics (masks, modes,
sequences) — that separation keeps the kernels testable in isolation and
makes "capturing" an object for deferred execution a cheap reference
copy: by convention, a published carrier's arrays are **never mutated**;
every kernel allocates fresh output arrays.

``MatData`` is a row-major matrix with column indices sorted within each
row, which makes the (row, col) stream globally sorted — the property
the merge-based eWise kernels and mask membership tests rely on.  Its
optional ``row_ids`` is the *hypersparse* form: with ``None`` every row
has an ``indptr`` slot (CSR); otherwise only the listed, nonempty rows
do (CombBLAS's DCSC by row, SuiteSparse:GraphBLAS's ``h`` list), so
storage and iteration are O(nnz) whatever ``nrows`` is — which is what
makes a 2^58-row graph with a few thousand edges representable.  Kernels
written against ``row_indices()``, :func:`row_gather` and
:meth:`MatData.nonempty_rows` work on either form, and
:func:`mat_from_coo` assembles whichever form :func:`use_row_list` picks
for the output shape.  ``VecData`` stores sorted unique indices plus
parallel values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.types import Type

__all__ = [
    "VecData",
    "MatData",
    "coo_to_csr",
    "coo_to_dcsr",
    "csr_to_coo_rows",
    "mat_from_coo",
    "use_row_list",
    "row_gather",
    "pair_keys",
    "stable_argsort",
    "in_sorted",
    "merge_sorted",
    "merge_slots",
    "merge_column",
    "empty_vec",
    "empty_mat",
    "MAX_NROWS",
    "HYPERSPARSE_MIN_ROWS",
    "HYPERSPARSE_FACTOR",
    "check_nrows_limit",
]

_INT = np.int64

#: Implementation limit on a *dense row pointer*: ``nrows + 1`` slots.
#: A matrix past it always carries a row list, so it exists at any row
#: count up to 2^60; only the places that must hand out a dense pointer
#: — Table III CSR/CSC export and a GrB_ALL scalar fill — raise
#: ``GrB_OUT_OF_MEMORY`` there (an implementation-defined resource
#: limit, which the spec permits) instead of attempting a terabyte
#: allocation.  Column counts and vector sizes have no dense structure.
MAX_NROWS = 1 << 27

#: The hypersparse policy's thresholds (see :func:`use_row_list`).
HYPERSPARSE_MIN_ROWS = 1 << 20
HYPERSPARSE_FACTOR = 16


def check_nrows_limit(nrows: int) -> None:
    """Reject row counts whose dense row pointer cannot be allocated."""
    if nrows > MAX_NROWS:
        from ..core.errors import OutOfMemoryError

        raise OutOfMemoryError(
            f"nrows={nrows} exceeds this implementation's dense row "
            f"pointer limit ({MAX_NROWS}); only the hypersparse form "
            "(a row list) exists at this size"
        )


def use_row_list(nrows: int, nnz: int) -> bool:
    """Whether a matrix of this shape carries a row list.

    Pure and deterministic, so a journal replay rebuilds byte-identical
    carriers: a row list when a dense pointer cannot exist
    (``nrows > MAX_NROWS``), or when it would dominate storage — at
    least ``HYPERSPARSE_MIN_ROWS`` rows and fewer than one stored entry
    per ``HYPERSPARSE_FACTOR`` rows.
    """
    return nrows > MAX_NROWS or (
        nrows >= HYPERSPARSE_MIN_ROWS and nnz * HYPERSPARSE_FACTOR < nrows)


def _as_index_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=_INT)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


@dataclass(frozen=True)
class VecData:
    """Sparse vector: sorted unique ``indices`` with parallel ``values``."""

    size: int
    type: Type
    indices: np.ndarray  # int64[nnz], strictly increasing
    values: np.ndarray   # type.np_dtype[nnz]

    @property
    def nvals(self) -> int:
        return len(self.indices)

    def check(self) -> None:
        """Validate invariants (used by tests and debug paths)."""
        assert self.indices.dtype == _INT
        assert len(self.indices) == len(self.values)
        if len(self.indices):
            assert self.indices[0] >= 0
            assert self.indices[-1] < self.size
            assert np.all(np.diff(self.indices) > 0), "indices not strictly sorted"

    def astype(self, t: Type) -> "VecData":
        if t == self.type:
            return self
        return VecData(self.size, t, self.indices, t.coerce_array(self.values))

    def to_dense(self, fill: Any = None) -> np.ndarray:
        """Densify (testing/debug helper)."""
        out = np.full(
            self.size,
            self.type.default if fill is None else fill,
            dtype=self.type.np_dtype,
        )
        out[self.indices] = self.values
        return out


@dataclass(frozen=True)
class MatData:
    """Row-major matrix: ``indptr``/``col_indices``/``values``, columns
    sorted per row, and an optional row list.

    ``row_ids is None``: ``indptr`` has ``nrows + 1`` slots (CSR).
    Otherwise ``row_ids`` lists the nonempty rows, strictly increasing,
    and ``indptr`` has ``len(row_ids) + 1`` slots — one per listed row,
    every one nonempty by invariant.
    """

    nrows: int
    ncols: int
    type: Type
    indptr: np.ndarray       # int64[slots + 1]
    col_indices: np.ndarray  # int64[nnz]
    values: np.ndarray       # type.np_dtype[nnz]
    row_ids: np.ndarray | None = None  # int64[slots], or None: slot = row

    @property
    def nvals(self) -> int:
        return len(self.col_indices)

    def check(self) -> None:
        assert self.indptr.dtype == _INT and self.col_indices.dtype == _INT
        if self.row_ids is None:
            assert len(self.indptr) == self.nrows + 1
        else:
            assert self.row_ids.dtype == _INT
            assert len(self.indptr) == len(self.row_ids) + 1
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.col_indices)
        assert len(self.col_indices) == len(self.values)
        nnz = len(self.col_indices)
        if nnz == 0:
            # Empty matrix: nothing else to scan.  Skipping the O(nrows)
            # monotonicity diff matters — restore/validate paths check()
            # freshly-created empties of arbitrary dimension.
            assert self.row_ids is None or len(self.row_ids) == 0
            return
        if self.row_ids is None:
            assert np.all(np.diff(self.indptr) >= 0)
        else:
            assert np.all(np.diff(self.indptr) > 0), "empty row listed in row_ids"
            assert self.row_ids[0] >= 0
            assert self.row_ids[-1] < self.nrows
            assert np.all(np.diff(self.row_ids) > 0), "row_ids not strictly sorted"
        assert self.col_indices.min() >= 0
        assert self.col_indices.max() < self.ncols
        if nnz > 1:
            # Strictly increasing within every row, vectorized: the only
            # positions allowed to be non-increasing are row boundaries.
            ok = np.diff(self.col_indices) > 0
            starts = self.indptr[1:-1]
            starts = starts[(starts > 0) & (starts < nnz)]
            ok[starts - 1] = True
            assert bool(ok.all()), "columns not strictly sorted within a row"

    def astype(self, t: Type) -> "MatData":
        if t == self.type:
            return self
        return self.with_values(t, t.coerce_array(self.values))

    def with_values(self, t: Type, values: np.ndarray) -> "MatData":
        """Same structure, new values (value-only apply fast path)."""
        return MatData(
            self.nrows, self.ncols, t,
            self.indptr, self.col_indices, values, self.row_ids,
        )

    def row_indices(self) -> np.ndarray:
        """The COO row stream — O(nnz) with a row list."""
        if self.row_ids is None:
            return csr_to_coo_rows(self.indptr, self.nrows)
        if len(self.row_ids) == 0:
            return np.empty(0, dtype=_INT)
        return np.repeat(self.row_ids, np.diff(self.indptr))

    def nonempty_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, bounds)``: the nonempty rows in order, and where
        their entries lie — row ``rows[k]`` holds entries
        ``bounds[k]:bounds[k + 1]``.  This is the row-list form's own
        ``(row_ids, indptr)``."""
        if self.row_ids is not None:
            return self.row_ids, self.indptr
        # on the booleans: ~4x faster than flatnonzero on the int64 lengths
        rows = np.flatnonzero(np.diff(self.indptr) > 0)
        return rows, np.concatenate((self.indptr[rows], self.indptr[-1:]))

    def row_slot(self, i: int) -> tuple[int, bool]:
        """Row ``i``'s ``indptr`` slot, and whether it has one (with a
        row list an absent row gets the slot it would be inserted at)."""
        if self.row_ids is None:
            return i, True
        pos = int(np.searchsorted(self.row_ids, i))
        return pos, pos < len(self.row_ids) and self.row_ids[pos] == i

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s columns and values (empty when the row is)."""
        pos, stored = self.row_slot(i)
        lo = hi = 0
        if stored:
            lo, hi = int(self.indptr[pos]), int(self.indptr[pos + 1])
        return self.col_indices[lo:hi], self.values[lo:hi]

    def transpose(self) -> "MatData":
        """Explicit transpose (see :func:`_transpose`)."""
        return _transpose(self)

    def to_csr(self) -> "MatData":
        """The form with a dense row pointer — export's and the commit
        repack's one expansion.  Raises the defined resource-limit error
        past ``MAX_NROWS``, where no dense pointer can exist."""
        if self.row_ids is None:
            return self
        check_nrows_limit(self.nrows)
        indptr = np.zeros(self.nrows + 1, dtype=_INT)
        if len(self.row_ids):
            indptr[self.row_ids + 1] = np.diff(self.indptr)
            np.cumsum(indptr, out=indptr)
        return MatData(
            self.nrows, self.ncols, self.type,
            indptr, self.col_indices, self.values,
        )

    def to_hypersparse(self) -> "MatData":
        """The row-list form (the commit repack's compression)."""
        if self.row_ids is not None:
            return self
        rows, bounds = self.nonempty_rows()
        return MatData(
            self.nrows, self.ncols, self.type,
            bounds, self.col_indices, self.values, rows.astype(_INT, copy=False),
        )

    def to_dense(self, fill: Any = None) -> np.ndarray:
        out = np.full(
            (self.nrows, self.ncols),
            self.type.default if fill is None else fill,
            dtype=self.type.np_dtype,
        )
        out[self.row_indices(), self.col_indices] = self.values
        return out


def _transpose(d: MatData) -> MatData:
    """Transpose by one stable sort on the column ids: the row-major
    stream is already sorted by row, so ordering it by column alone
    leaves it sorted by (column, row).  The output form follows the
    *transposed* shape: transposing a wide matrix yields a tall one,
    which may need a row list."""
    order = stable_argsort(d.col_indices, d.ncols)
    return mat_from_coo(
        d.ncols, d.nrows, d.type,
        d.col_indices[order], d.row_indices()[order], d.values[order],
        presorted=True,
    )


def stable_argsort(keys: np.ndarray, space: int) -> np.ndarray:
    """Stable argsort of integer *keys* that lie in ``[0, space)``.

    NumPy's stable sort is a radix sort for 16-bit integers and a
    comparison sort for wider ones, so narrow key spaces sort as
    ``uint16``: one pass below 2^16, two least-significant-digit passes
    (low 16 bits, then high 16 bits) below 2^32.  Wider spaces and
    Python-int keys take the plain stable sort.
    """
    if keys.dtype == object or space > 1 << 32:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if space <= 1 << 16:
        return order
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def empty_vec(size: int, t: Type) -> VecData:
    return VecData(size, t, np.empty(0, dtype=_INT), t.empty(0))


def empty_mat(nrows: int, ncols: int, t: Type) -> MatData:
    """An empty matrix in the form :func:`use_row_list` picks — O(1)
    with a row list, at any ``nrows`` up to 2^60."""
    row_ids = np.empty(0, dtype=_INT) if use_row_list(nrows, 0) else None
    slots = nrows if row_ids is None else 0
    return MatData(nrows, ncols, t, np.zeros(slots + 1, dtype=_INT),
                   np.empty(0, dtype=_INT), t.empty(0), row_ids)


def csr_to_coo_rows(indptr: np.ndarray, nrows: int) -> np.ndarray:
    """Row index of every stored element, from the CSR row pointer."""
    if nrows == 0 or len(indptr) == 0 or indptr[-1] == 0:
        # Empty matrix: skip the O(nrows) repeat/diff entirely.
        return np.empty(0, dtype=_INT)
    return np.repeat(np.arange(nrows, dtype=_INT), np.diff(indptr))


def _sorted_coo(rows, cols, values, presorted: bool):
    rows = _as_index_array(rows)
    cols = _as_index_array(cols)
    if not presorted and len(rows) > 1:
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        values = values[order]
    return rows, cols, values


def coo_to_csr(
    nrows: int,
    ncols: int,
    t: Type,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    *,
    presorted: bool = False,
) -> MatData:
    """Assemble the dense-pointer form from COO triples with **unique**
    (row, col) pairs.

    ``presorted=True`` asserts the triples are already in row-major
    order (sorted by row, then column) and skips the lexsort.
    """
    rows, cols, values = _sorted_coo(rows, cols, values, presorted)
    if len(rows) == 0:
        return MatData(nrows, ncols, t, np.zeros(nrows + 1, dtype=_INT),
                       cols, t.empty(0))
    # One uninitialized nrows+1 buffer instead of zeros + a second
    # bincount temporary: cumsum writes every slot past 0 exactly once.
    indptr = np.empty(nrows + 1, dtype=_INT)
    indptr[0] = 0
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return MatData(nrows, ncols, t, indptr, cols, t.coerce_array(values))


def coo_to_dcsr(
    nrows: int,
    ncols: int,
    t: Type,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    *,
    presorted: bool = False,
) -> MatData:
    """Assemble the row-list form from COO triples with **unique**
    (row, col) pairs.

    O(nnz log nnz) worst case and O(nnz) memory — ``nrows`` is never
    allocated against, which is the whole point of the form.
    """
    rows, cols, values = _sorted_coo(rows, cols, values, presorted)
    if len(rows) == 0:
        return MatData(nrows, ncols, t, np.zeros(1, dtype=_INT), cols,
                       t.empty(0), np.empty(0, dtype=_INT))
    row_ids, counts = np.unique(rows, return_counts=True)
    indptr = np.empty(len(row_ids) + 1, dtype=_INT)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    return MatData(
        nrows, ncols, t, indptr, cols, t.coerce_array(values),
        row_ids.astype(_INT, copy=False),
    )


def mat_from_coo(
    nrows: int,
    ncols: int,
    t: Type,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    *,
    presorted: bool = False,
) -> MatData:
    """Assemble whichever form :func:`use_row_list` picks.

    This is the kernel layer's output funnel: kernels produce sorted
    COO streams and let the policy decide the form, so a hypersparse
    result never materializes an ``nrows + 1`` pointer even transiently.
    """
    make = coo_to_dcsr if use_row_list(nrows, len(rows)) else coo_to_csr
    return make(nrows, ncols, t, rows, cols, values, presorted=presorted)


def row_gather(d: MatData, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key row extents ``(lo, hi)`` into ``d``'s value arrays.

    ``keys`` are arbitrary (possibly repeated, unsorted) row numbers;
    a missing row yields an empty ``[lo, lo)`` window.  The dense
    pointer answers by direct indexing; a row list by binary search —
    O(len(keys) · log nrr), never O(nrows).
    """
    keys = _as_index_array(keys)
    if d.row_ids is None:
        return d.indptr[keys], d.indptr[keys + 1]
    nrr = len(d.row_ids)
    if nrr == 0:
        z = np.zeros(len(keys), dtype=_INT)
        return z, z
    pos = np.searchsorted(d.row_ids, keys)
    safe = np.minimum(pos, nrr - 1)
    hit = d.row_ids[safe] == keys
    lo = np.where(hit, d.indptr[safe], 0)
    hi = np.where(hit, d.indptr[safe + 1], 0)
    return lo, hi


def insert_value(arr: np.ndarray, pos: int, value: Any, t: Type) -> np.ndarray:
    """``np.insert`` that is safe for object-dtype (UDT) value arrays.

    ``np.insert`` splats array-like values (a tuple UDT value would be
    inserted element-wise); object arrays need a manual splice.
    """
    if t.is_udt or arr.dtype == object:
        out = np.empty(len(arr) + 1, dtype=object)
        out[:pos] = arr[:pos]
        out[pos] = value
        out[pos + 1:] = arr[pos:]
        return out
    return t.coerce_array(np.insert(arr, pos, value))


def pair_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Encode (row, col) pairs as sortable scalar keys.

    Uses ``row * ncols + col`` in int64 when it cannot overflow;
    otherwise falls back to Python-int object keys (exact, slower — only
    reachable for astronomically-shaped matrices).
    """
    if len(rows) == 0:
        return np.empty(0, dtype=_INT)
    max_row = int(rows.max()) if len(rows) else 0
    if (max_row + 1) * ncols < 2 ** 62:
        return rows * np.int64(ncols) + cols
    return rows.astype(object) * ncols + cols


#: Largest key universe for which membership may allocate a dense
#: boolean lookup table (one byte per slot: 64 MiB).
MAX_MEMBERSHIP_LUT = 1 << 26


def in_sorted(
    keys: np.ndarray, table: np.ndarray, invert: bool = False,
    space: int | None = None,
) -> np.ndarray:
    """Membership of *keys* in the **sorted** array *table*.

    Equivalent to ``np.isin(keys, table, invert=invert)`` but O(n log m)
    via binary search instead of isin's internal sort — the mask key
    sets this is used for (CSR pair keys, vector index arrays) are
    already sorted by construction.

    When the caller knows the key universe (``space``: all keys and
    table entries lie in ``[0, space)``) and the workload is large
    enough to amortize it, membership switches to a dense boolean
    lookup table: one scatter plus one gather, beating binary search's
    ``n log m`` cache-missing probes into a large table.  Masked
    ``mxv`` / ``vxm`` and the mask write-back test their keys here;
    masked ``mxm`` looks up slots in its own reused table instead
    (``mxm.SLOT_SPACE``), under the same 64-slots-per-key rule.

    The table is built when ``space`` is at most 64 slots per key.  On a
    2-core x86 box at 2^17 keys the table costs 0.13 / 0.42 / 1.3 ms
    for a 2^20 / 2^22 / 2^24-slot space, against 1.5–3.9 ms of binary
    search when the keys arrive sorted and 11–21 ms when they do not
    (1k–100k table entries).
    """
    if len(table) == 0:
        base = np.zeros(len(keys), dtype=bool)
    elif (space is not None and space <= MAX_MEMBERSHIP_LUT
            and (len(keys) + len(table)) * 64 >= space):
        lut = np.zeros(space, dtype=bool)
        lut[table] = True
        base = lut[keys]
    else:
        # Clamp in place rather than via ``merge_sorted``: *keys* can be
        # a masked SpGEMM's whole product stream, and a second live
        # position array is 8 bytes a product at the process's peak.
        pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        base = table[pos] == keys
    return ~base if invert else base


def merge_sorted(
    a_keys: np.ndarray, b_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Place every key of *b_keys* in the **sorted unique** stream
    *a_keys*: ``pos[i]`` is where ``b_keys[i]`` sits in ``a_keys`` (or
    would be inserted), ``hit[i]`` whether it is stored there.

    The one two-sorted-streams primitive under eWise union and
    intersection, the streaming delta merge and pending tuples: one
    ``searchsorted`` — O(|b| log |a|) — and no re-sort of either
    stream.  The two key arrays may differ in dtype (``pair_keys``
    picks int64 or Python-int object keys per operand).
    """
    pos = np.searchsorted(a_keys, b_keys)
    if len(a_keys) == 0:
        return pos, np.zeros(len(b_keys), dtype=bool)
    hit = a_keys[np.minimum(pos, len(a_keys) - 1)] == b_keys
    return pos, hit


def merge_slots(
    n_a: int, pos: np.ndarray, hit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Output slots of the sorted union of two sorted unique streams,
    from :func:`merge_sorted`'s answer for a **sorted unique** ``b``.

    Returns ``(from_a, dst_b)``: ``from_a`` is a boolean mask over the
    ``n_a + #new`` output slots, true where ``a``'s entries land (in
    order); ``dst_b[i]`` is the slot of ``b``'s i-th entry — a fresh
    slot when it is new, the slot of its twin in ``a`` on a hit.  Slots
    are computed from the ``b`` side only: each entry moves right by
    the new keys before it.
    """
    new = ~hit
    dst_b = pos + (np.cumsum(new) - new)
    from_a = np.ones(n_a + int(np.count_nonzero(new)), dtype=bool)
    from_a[dst_b[new]] = False
    return from_a, dst_b


def merge_column(
    from_a: np.ndarray, dst_b: np.ndarray,
    a_col: np.ndarray, b_col: np.ndarray,
) -> np.ndarray:
    """One column of the merged stream at :func:`merge_slots`' slots: a
    last-write-wins upsert of ``b`` into ``a`` (on a hit ``b``'s entry
    overwrites its twin)."""
    out = np.empty(len(from_a), dtype=a_col.dtype)
    out[from_a] = a_col
    out[dst_b] = b_col
    return out
