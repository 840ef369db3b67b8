"""Batched edge-delta plumbing for the streaming-ingest fast path.

A "delta" is one batched write against a committed matrix carrier:
COO triples normalized to row-major sorted order with last-write-wins
duplicate resolution, split into *overwrites* (the key already exists
in the base) and *inserts* (genuinely new edges).  The same
:class:`WriteDelta` object drives three layers:

* :func:`apply_delta` — the merge kernel.  Because both the base
  carrier and the delta are sorted, one ``searchsorted`` gives every
  delta key's position in the base and a ``cumsum`` over the delta
  every output slot (:func:`~repro.internals.containers.merge_sorted`
  / ``merge_slots``, shared with the eWise kernels), so the merged
  carrier is assembled in O(nnz + d log d) — no
  concatenate-and-lexsort over the full COO stream.
* :mod:`repro.engine.memo`'s patch tier — ``Matrix.update_batch``
  hands the delta to ``patch_handle_blocks`` so dependent memo entries
  with a patch rule (:mod:`repro.algorithms.delta`) are updated from
  the write set instead of dropped.
* :mod:`repro.serve` — ``GraphService`` records per-generation deltas
  so tenant sessions can advance a cached view in place.

Library writes (``Matrix.update_batch``), live serving mutations, and
journal replay all funnel through these helpers, so a replayed journal
reproduces the exact carrier the live path published.

**Pending tuples** are the same object at element granularity: in
nonblocking mode a run of ``setElement``/``removeElement`` calls is one
append-only list of ``(coordinate, value | REMOVED)`` writes, folded
into the base carrier at force time by :func:`apply_vector_writes` /
:func:`apply_matrix_writes` — last writer wins per coordinate, removed
coordinates are filtered out of the base, and the surviving upserts go
through the positional merge above (O(n + k log k) for k writes
instead of k O(n) splices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.errors import IndexOutOfBoundsError, InvalidValueError
from ..core.types import Type
from .containers import (
    VecData,
    in_sorted,
    mat_from_coo,
    merge_column,
    merge_slots,
    merge_sorted,
    pair_keys,
)

__all__ = [
    "WriteDelta",
    "coerce_edges",
    "build_delta",
    "apply_delta",
    "insert_edges",
    "REMOVED",
    "apply_vector_writes",
    "apply_matrix_writes",
]

_INT = np.int64

class _Removed:
    def __repr__(self) -> str:
        return "REMOVED"


#: The value slot of a pending ``removeElement`` write.
REMOVED = _Removed()


@dataclass(frozen=True)
class WriteDelta:
    """One batched write, normalized against a committed base carrier.

    ``rows``/``cols``/``vals`` are row-major sorted with unique keys
    (duplicates in the input batch resolved last-write-wins); ``vals``
    is already coerced to the base's value type.  ``is_new`` marks the
    entries whose key is absent from ``base`` — the write's *structural*
    part; ``~is_new`` entries only overwrite stored values.  ``base``
    is the pre-write carrier, kept so patch rules can consult the old
    adjacency (e.g. wedge counts for incremental triangles).
    """

    base: Any
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    is_new: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def n_new(self) -> int:
        return int(np.count_nonzero(self.is_new))

    def new_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The genuinely-new (row, col) pairs, row-major sorted."""
        return self.rows[self.is_new], self.cols[self.is_new]

    def new_symmetric(self) -> bool:
        """True when the new-edge set is symmetric and loop-free.

        The precondition under which the undirected incremental rules
        (components union-find, triangle wedge counting) are exact.
        Deltas are small by the cost gate, so a Python pair set is fine.
        """
        r, c = self.new_edges()
        if np.any(r == c):
            return False
        pairs = set(zip(r.tolist(), c.tolist()))
        return all((b, a) in pairs for (a, b) in pairs)


def _coerce_batch(
    base: Any, rows, cols, vals,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t: Type = base.type
    r = np.asarray(rows, dtype=_INT).reshape(-1)
    c = np.asarray(cols, dtype=_INT).reshape(-1)
    v = t.coerce_array(np.asarray(vals, dtype=t.np_dtype).reshape(-1))
    if not (len(r) == len(c) == len(v)):
        raise InvalidValueError(
            f"delta arrays disagree: {len(r)} rows, {len(c)} cols, "
            f"{len(v)} values"
        )
    if len(r) and (
        r.min() < 0 or c.min() < 0
        or r.max() >= base.nrows or c.max() >= base.ncols
    ):
        raise IndexOutOfBoundsError(
            f"delta index outside {base.nrows}x{base.ncols}"
        )
    return r, c, v


def coerce_edges(
    base: Any, rows, cols, vals,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate + coerce an edge batch against *base*'s shape and type.

    The ingest buffer's admission check: a bad batch must be rejected
    at ``ingest_edges`` time (while the caller's stack is live), not at
    some later flush.  Returns ``(rows, cols, vals)`` as contiguous
    arrays ready to buffer.
    """
    return _coerce_batch(base, rows, cols, vals)


def build_delta(base: Any, rows, cols, vals) -> WriteDelta:
    """Normalize a COO batch into a :class:`WriteDelta` against *base*.

    Validation (lengths, bounds, dtype coercion) happens here, eagerly
    — a bad batch raises before any handle version moves.  Duplicate
    (row, col) pairs within the batch keep the last value, matching
    ``GrB_Matrix_build`` with an implicit SECOND dup.
    """
    r, c, v = _coerce_batch(base, rows, cols, vals)
    keys = pair_keys(r, c, base.ncols)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Last-write-wins: among equal keys the stable sort keeps input
    # order, so the *last* element of each run is the surviving write.
    if len(keys) > 1:
        last = np.empty(len(keys), dtype=bool)
        last[:-1] = keys[:-1] != keys[1:]
        last[-1] = True
        order = order[last]
        keys = keys[last]
    r, c, v = r[order], c[order], v[order]
    base_keys = pair_keys(base.row_indices(), base.col_indices, base.ncols)
    is_new = in_sorted(keys, base_keys, invert=True)
    return WriteDelta(base=base, rows=r, cols=c, vals=v, is_new=is_new)


def _merge_sorted(
    d: Any, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
) -> Any:
    """Upsert a row-major sorted, unique batch into carrier *d*: base
    entries shift right past the inserts before them, new keys splice
    in, existing keys take the batch's value (last write wins).  Output
    goes back through :func:`mat_from_coo` so the format policy can
    repack."""
    base_rows = d.row_indices()
    slots = merge_slots(d.nvals, *merge_sorted(
        pair_keys(base_rows, d.col_indices, d.ncols),
        pair_keys(rows, cols, d.ncols),
    ))
    return mat_from_coo(
        d.nrows, d.ncols, d.type,
        merge_column(*slots, base_rows, rows),
        merge_column(*slots, d.col_indices, cols),
        merge_column(*slots, d.values, vals),
        presorted=True,
    )


def apply_delta(base: Any, delta: WriteDelta) -> Any:
    """The merged carrier: *base* with *delta*'s writes applied."""
    from ..engine.stats import STATS

    if delta.n == 0:
        return base
    out = _merge_sorted(base, delta.rows, delta.cols, delta.vals)
    STATS.bump("ingest_fast_merges")
    return out


def insert_edges(
    d: Any, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
) -> Any:
    """Insert a sorted, unique, *disjoint* edge batch into carrier *d*.

    The patch rules' workhorse: new edges are absent from every derived
    pattern of the old graph by construction, so the whole batch is an
    insert-only merge.
    """
    if len(rows) == 0:
        return d
    return _merge_sorted(d, rows, cols, vals)


# -- pending tuples: a run of element writes folded in one merge ---------------


def _settle_writes(writes: list) -> tuple[list, dict]:
    """Resolve a run of ``(coordinate, value | REMOVED)`` writes last
    writer wins: ``(removed coordinates, {coordinate: value})``."""
    final = dict(writes)
    drops = [c for c, v in final.items() if v is REMOVED]
    for c in drops:
        del final[c]
    return drops, final


def _typed_values(t: Type, values, n: int) -> np.ndarray:
    # ``fromiter`` stores each (already coerced) value as one element —
    # ``np.array`` would splat a tuple-valued UDT into a second axis.
    return np.fromiter(values, dtype=t.np_dtype, count=n)


def apply_vector_writes(d: VecData, writes: list) -> VecData:
    """*d* with a run of element writes applied (values pre-coerced)."""
    t: Type = d.type
    drops, final = _settle_writes(writes)
    if drops:
        keep = in_sorted(
            d.indices, np.sort(np.array(drops, dtype=_INT)), invert=True
        )
        if not keep.all():
            d = VecData(d.size, t, d.indices[keep], d.values[keep])
    if not final:
        return d
    idx = np.fromiter(final, dtype=_INT, count=len(final))
    vals = _typed_values(t, final.values(), len(final))
    order = np.argsort(idx)
    idx, vals = idx[order], vals[order]
    slots = merge_slots(d.nvals, *merge_sorted(d.indices, idx))
    return VecData(
        d.size, t,
        merge_column(*slots, d.indices, idx),
        merge_column(*slots, d.values, vals),
    )


def apply_matrix_writes(d: Any, writes: list) -> Any:
    """*d* (either format) with a run of element writes applied: the
    removed coordinates are filtered out of the row-major stream, the
    upserts ride :func:`build_delta` → :func:`apply_delta`."""
    t: Type = d.type
    drops, final = _settle_writes(writes)
    if drops:
        r, c = np.array(drops, dtype=_INT).T
        rows = d.row_indices()
        keep = in_sorted(
            pair_keys(rows, d.col_indices, d.ncols),
            np.sort(pair_keys(r, c, d.ncols)), invert=True,
        )
        if not keep.all():
            d = mat_from_coo(
                d.nrows, d.ncols, t,
                rows[keep], d.col_indices[keep], d.values[keep],
                presorted=True,
            )
    if not final:
        return d
    r, c = np.array(list(final), dtype=_INT).T
    vals = _typed_values(t, final.values(), len(final))
    return apply_delta(d, build_delta(d, r, c, vals))
