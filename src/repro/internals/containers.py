"""Plain sparse data carriers used by the kernel layer.

The opaque GraphBLAS objects (:class:`~repro.core.matrix.Matrix`,
:class:`~repro.core.vector.Vector`) wrap these carriers.  Kernels consume
and produce carriers and never see GraphBLAS semantics (masks, modes,
sequences) — that separation keeps the kernels testable in isolation and
makes "capturing" an object for deferred execution a cheap reference
copy: by convention, a published carrier's arrays are **never mutated**;
every kernel allocates fresh output arrays.

``MatData`` is canonical CSR with column indices sorted within each row,
which makes the row-major (row, col) stream globally sorted — the
property the merge-based eWise kernels and mask membership tests rely
on.  ``VecData`` stores sorted unique indices plus parallel values.

``DcsrData`` is the *hypersparse* tier: doubly-compressed sparse row
(CombBLAS-style DCSC transposed), storing only the **nonempty** rows
(``row_ids``, strictly increasing) with a row pointer compressed to
``nrr + 1`` entries.  Storage and iteration are O(nnz) — independent of
``nrows`` — which is what makes a 2^32-row graph with a few thousand
edges representable.  Both matrix carriers expose the same polymorphic
surface (``row_indices()``, ``astype``, ``with_values``, ``transpose``,
``nvals``) so kernels written against the sorted COO row stream work on
either; :func:`mat_from_coo` assembles whichever format
:func:`choose_mat_format` picks for the output shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.types import Type
from . import config

__all__ = [
    "VecData",
    "MatData",
    "DcsrData",
    "coo_to_csr",
    "coo_to_dcsr",
    "csr_to_coo_rows",
    "dcsr_from_csr",
    "mat_from_coo",
    "choose_mat_format",
    "mat_format",
    "empty_mat_auto",
    "row_gather",
    "pair_keys",
    "stable_argsort",
    "in_sorted",
    "merge_sorted",
    "merge_slots",
    "merge_column",
    "empty_vec",
    "empty_mat",
    "empty_dcsr",
    "MAX_NROWS",
    "check_nrows_limit",
]

_INT = np.int64

#: Implementation limit on matrix row counts.  The canonical storage is
#: CSR, whose row pointer is dense in ``nrows`` — the representation the
#: GraphBLAS C API was designed around, and the reason real
#: implementations add *hypersparse* formats for 2^60-row matrices.
#: Exceeding the limit raises ``GrB_OUT_OF_MEMORY`` eagerly (an
#: implementation-defined resource limit, which the spec permits)
#: instead of attempting a terabyte allocation.  Column counts and
#: vector sizes are unlimited up to 2^60 (no dense structure in them).
MAX_NROWS = 1 << 27


def check_nrows_limit(nrows: int) -> None:
    """Reject row counts whose CSR row pointer cannot be allocated."""
    if nrows > MAX_NROWS:
        from ..core.errors import OutOfMemoryError

        raise OutOfMemoryError(
            f"nrows={nrows} exceeds this implementation's CSR limit "
            f"({MAX_NROWS}); a hypersparse format would be required "
            "(column counts are unrestricted)"
        )


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
    """CSR matrix: ``indptr``/``col_indices``/``values``; cols sorted per row."""

    nrows: int
    ncols: int
    type: Type
    indptr: np.ndarray       # int64[nrows+1]
    col_indices: np.ndarray  # int64[nnz]
    values: np.ndarray       # type.np_dtype[nnz]

    @property
    def nvals(self) -> int:
        return len(self.col_indices)

    def check(self) -> None:
        assert self.indptr.dtype == _INT and self.col_indices.dtype == _INT
        assert len(self.indptr) == self.nrows + 1
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.col_indices)
        assert len(self.col_indices) == len(self.values)
        nnz = len(self.col_indices)
        if nnz == 0:
            # Empty matrix: nothing else to scan.  Skipping the O(nrows)
            # monotonicity diff matters — restore/validate paths check()
            # freshly-created empties of arbitrary dimension.
            return
        assert np.all(np.diff(self.indptr) >= 0)
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
        return MatData(
            self.nrows, self.ncols, t,
            self.indptr, self.col_indices, t.coerce_array(self.values),
        )

    def with_values(self, t: Type, values: np.ndarray) -> "MatData":
        """Same structure, new values (value-only apply fast path)."""
        return MatData(
            self.nrows, self.ncols, t,
            self.indptr, self.col_indices, values,
        )

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_indices(self) -> np.ndarray:
        """Expand CSR to the parallel row-index array (COO rows)."""
        return csr_to_coo_rows(self.indptr, self.nrows)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def transpose(self) -> "MatData | DcsrData":
        """Explicit transpose (see :func:`_transpose`)."""
        return _transpose(self)

    def to_dense(self, fill: Any = None) -> np.ndarray:
        out = np.full(
            (self.nrows, self.ncols),
            self.type.default if fill is None else fill,
            dtype=self.type.np_dtype,
        )
        out[self.row_indices(), self.col_indices] = self.values
        return out


@dataclass(frozen=True)
class DcsrData:
    """Doubly-compressed (hypersparse) matrix: only nonempty rows stored.

    ``row_ids`` lists the nonempty rows (strictly increasing) and
    ``indptr`` is the row pointer *compressed to those rows* (length
    ``nrr + 1``).  Every stored row is nonempty by invariant, so the
    (row, col) stream is globally row-major sorted exactly like CSR —
    all merge/membership kernels written against ``row_indices()`` work
    unchanged.  Total storage is O(nnz): ``nrows`` is just a bound.
    """

    nrows: int
    ncols: int
    type: Type
    row_ids: np.ndarray      # int64[nrr], strictly increasing, all nonempty
    indptr: np.ndarray       # int64[nrr+1], compressed row pointer
    col_indices: np.ndarray  # int64[nnz]
    values: np.ndarray       # type.np_dtype[nnz]

    @property
    def nvals(self) -> int:
        return len(self.col_indices)

    @property
    def nrr(self) -> int:
        """Number of nonempty rows (CombBLAS calls this nzr)."""
        return len(self.row_ids)

    def check(self) -> None:
        assert self.row_ids.dtype == _INT and self.indptr.dtype == _INT
        assert self.col_indices.dtype == _INT
        assert len(self.indptr) == len(self.row_ids) + 1
        assert len(self.col_indices) == len(self.values)
        nnz = len(self.col_indices)
        if nnz == 0:
            assert len(self.row_ids) == 0
            return
        assert self.indptr[0] == 0 and self.indptr[-1] == nnz
        lens = np.diff(self.indptr)
        assert np.all(lens > 0), "empty row listed in row_ids"
        assert self.row_ids[0] >= 0
        assert self.row_ids[-1] < self.nrows
        assert np.all(np.diff(self.row_ids) > 0), "row_ids not strictly sorted"
        assert self.col_indices.min() >= 0
        assert self.col_indices.max() < self.ncols
        if nnz > 1:
            ok = np.diff(self.col_indices) > 0
            starts = self.indptr[1:-1]
            starts = starts[(starts > 0) & (starts < nnz)]
            ok[starts - 1] = True
            assert bool(ok.all()), "columns not strictly sorted within a row"

    def astype(self, t: Type) -> "DcsrData":
        if t == self.type:
            return self
        return DcsrData(
            self.nrows, self.ncols, t, self.row_ids,
            self.indptr, self.col_indices, t.coerce_array(self.values),
        )

    def with_values(self, t: Type, values: np.ndarray) -> "DcsrData":
        """Same structure, new values (value-only apply fast path)."""
        return DcsrData(
            self.nrows, self.ncols, t, self.row_ids,
            self.indptr, self.col_indices, values,
        )

    def row_indices(self) -> np.ndarray:
        """COO row stream — O(nnz), never touches ``nrows``."""
        if len(self.row_ids) == 0:
            return np.empty(0, dtype=_INT)
        return np.repeat(self.row_ids, np.diff(self.indptr))

    def row_window(self, i: int) -> tuple[int, int]:
        """[lo, hi) extent of row ``i`` in the value arrays (empty rows
        yield an empty window)."""
        pos = int(np.searchsorted(self.row_ids, i))
        if pos >= len(self.row_ids) or self.row_ids[pos] != i:
            return 0, 0
        return int(self.indptr[pos]), int(self.indptr[pos + 1])

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.row_window(i)
        return self.col_indices[lo:hi], self.values[lo:hi]

    def transpose(self) -> "MatData | DcsrData":
        return _transpose(self)

    def to_csr(self) -> MatData:
        """Densify the row pointer (the dispatch layer's fallback path).

        Raises the defined resource-limit error when ``nrows`` exceeds
        the CSR limit — a hypersparse matrix past that bound has no CSR
        representation at all.
        """
        check_nrows_limit(self.nrows)
        indptr = np.zeros(self.nrows + 1, dtype=_INT)
        if len(self.row_ids):
            indptr[self.row_ids + 1] = np.diff(self.indptr)
            np.cumsum(indptr, out=indptr)
        return MatData(
            self.nrows, self.ncols, self.type,
            indptr, self.col_indices, self.values,
        )

    def to_dense(self, fill: Any = None) -> np.ndarray:
        out = np.full(
            (self.nrows, self.ncols),
            self.type.default if fill is None else fill,
            dtype=self.type.np_dtype,
        )
        out[self.row_indices(), self.col_indices] = self.values
        return out


def _transpose(d: "MatData | DcsrData") -> "MatData | DcsrData":
    """Transpose by one stable sort on the column ids: the row-major
    stream is already sorted by row, so ordering it by column alone
    leaves it sorted by (column, row).  The output format follows the
    *transposed* shape: transposing a wide matrix yields a tall one,
    which may need the hypersparse tier."""
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
    return MatData(
        nrows, ncols, t,
        np.zeros(nrows + 1, dtype=_INT),
        np.empty(0, dtype=_INT),
        t.empty(0),
    )


def empty_dcsr(nrows: int, ncols: int, t: Type) -> DcsrData:
    """O(1) empty hypersparse carrier — any ``nrows`` up to 2^60."""
    return DcsrData(
        nrows, ncols, t,
        np.empty(0, dtype=_INT),
        np.zeros(1, dtype=_INT),
        np.empty(0, dtype=_INT),
        t.empty(0),
    )


def mat_format(d: Any) -> str:
    """``"dcsr"`` | ``"csr"`` — the carrier's storage format tag."""
    return "dcsr" if isinstance(d, DcsrData) else "csr"


def choose_mat_format(nrows: int, nnz: int) -> str:
    """Format policy for a matrix of the given shape/occupancy.

    Pure and deterministic (same inputs + knobs → same format), so a
    journal replay rebuilds byte-identical carriers.  DCSR is chosen
    when CSR physically cannot represent the row count, or when the
    dense row pointer would dominate storage: ``nrows`` at least
    ``FORMAT_DCSR_MIN_ROWS`` *and* fewer than one stored entry per
    ``FORMAT_DCSR_FACTOR`` rows.  ``FORMAT_AUTO=0`` pins everything to
    CSR (the pre-hypersparse behavior; row counts past ``MAX_NROWS``
    then raise the documented resource-limit error downstream).
    """
    if not config.FORMAT_AUTO:
        return "csr"
    if nrows > MAX_NROWS:
        return "dcsr"
    if nrows >= config.FORMAT_DCSR_MIN_ROWS \
            and nnz * config.FORMAT_DCSR_FACTOR < nrows:
        return "dcsr"
    return "csr"


def empty_mat_auto(nrows: int, ncols: int, t: Type) -> "MatData | DcsrData":
    """Format-aware empty carrier (``Matrix.new`` / ``clear``)."""
    if choose_mat_format(nrows, 0) == "dcsr":
        return empty_dcsr(nrows, ncols, t)
    check_nrows_limit(nrows)
    return empty_mat(nrows, ncols, t)


def csr_to_coo_rows(indptr: np.ndarray, nrows: int) -> np.ndarray:
    """Row index of every stored element, from the CSR row pointer."""
    if nrows == 0 or len(indptr) == 0 or indptr[-1] == 0:
        # Empty matrix: skip the O(nrows) repeat/diff entirely.
        return np.empty(0, dtype=_INT)
    return np.repeat(np.arange(nrows, dtype=_INT), np.diff(indptr))


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
    """Assemble CSR from COO triples with **unique** (row, col) pairs.

    ``presorted=True`` asserts the triples are already in row-major
    order (sorted by row, then column) and skips the lexsort.
    """
    rows = _as_index_array(rows)
    cols = _as_index_array(cols)
    if not presorted and len(rows) > 1:
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        values = values[order]
    if len(rows) == 0:
        return empty_mat(nrows, ncols, t)
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
) -> DcsrData:
    """Assemble DCSR from COO triples with **unique** (row, col) pairs.

    O(nnz log nnz) worst case and O(nnz) memory — ``nrows`` is never
    allocated against, which is the whole point of the format.
    """
    rows = _as_index_array(rows)
    cols = _as_index_array(cols)
    if not presorted and len(rows) > 1:
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        values = values[order]
    if len(rows) == 0:
        return empty_dcsr(nrows, ncols, t)
    row_ids, counts = np.unique(rows, return_counts=True)
    indptr = np.empty(len(row_ids) + 1, dtype=_INT)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    return DcsrData(
        nrows, ncols, t, row_ids.astype(_INT, copy=False),
        indptr, cols, t.coerce_array(values),
    )


def dcsr_from_csr(d: MatData) -> DcsrData:
    """Compress a CSR carrier's row pointer (commit-time repack)."""
    lens = np.diff(d.indptr)
    row_ids = np.flatnonzero(lens).astype(_INT, copy=False)
    indptr = np.empty(len(row_ids) + 1, dtype=_INT)
    indptr[0] = 0
    np.cumsum(lens[row_ids], out=indptr[1:])
    return DcsrData(
        d.nrows, d.ncols, d.type, row_ids,
        indptr, d.col_indices, d.values,
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
) -> "MatData | DcsrData":
    """Assemble whichever matrix format :func:`choose_mat_format` picks.

    This is the kernel layer's output funnel: kernels produce sorted
    COO streams and let the policy decide the carrier, so a hypersparse
    result never materializes an ``nrows + 1`` pointer even transiently.
    """
    if choose_mat_format(nrows, len(rows)) == "dcsr":
        return coo_to_dcsr(
            nrows, ncols, t, rows, cols, values, presorted=presorted
        )
    check_nrows_limit(nrows)
    return coo_to_csr(
        nrows, ncols, t, rows, cols, values, presorted=presorted
    )


def row_gather(d: "MatData | DcsrData", keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key row extents ``(lo, hi)`` into ``d``'s value arrays.

    ``keys`` are arbitrary (possibly repeated, unsorted) row numbers;
    a missing row yields an empty ``[lo, lo)`` window.  CSR answers by
    direct row-pointer indexing; DCSR by binary search over the
    nonempty-row list — O(len(keys) · log nrr), never O(nrows).
    """
    keys = _as_index_array(keys)
    if isinstance(d, DcsrData):
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
    return d.indptr[keys], d.indptr[keys + 1]


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
