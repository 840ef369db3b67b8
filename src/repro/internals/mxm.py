"""Sparse matrix–matrix and matrix–vector multiply kernels.

The SpGEMM kernel is ESC (expand–sort–compress), the classic
linear-algebraic formulation suited to vectorized execution:

1. **Expand** — for every stored A(i,k), enumerate all stored B(k,j)
   partners by a gather driven by ``np.repeat`` over B's row lengths
   (no Python-level loop).
2. **Multiply** — apply the semiring's ⊗ to the two expanded value
   streams (one vectorized call for predefined ops; per-element for
   user-defined ops, the §II penalty).
3. **Sort** — stable sort the product stream by (row, col) pair keys.
4. **Compress** — fold duplicate keys with the semiring's ⊕ monoid via
   ``ufunc.reduceat`` (predefined) or a per-segment loop (user-defined).

``mxv`` and ``vxm`` are specialisations that skip the general sort:
``mxv`` filters A's entries by membership of the column in u (a
``searchsorted`` membership test) and segment-reduces by row, which is
already sorted order in CSR.

Every kernel here is **format-polymorphic**: inputs may be CSR
(``MatData``) or hypersparse DCSR (``DcsrData``).  Row streams come
from ``carrier.row_indices()`` and row-window gathers from
:func:`~.containers.row_gather` (binary search over the nonempty-row
list for DCSR — O(nnz log nrr), never O(nrows)), and outputs assemble
through :func:`~.containers.mat_from_coo`, which picks the output
format by the committed density policy.  ``mxv_multi`` is the blocked
multi-vector kernel the scheduler's small-op batcher targets: one
shared pass over A's structure amortized across many right-hand sides.
"""

from __future__ import annotations

import numpy as np

from ..core.monoid import Monoid
from ..core.semiring import Semiring
from ..core.types import Type
from ..faults.plane import maybe_inject
from .containers import (
    DcsrData,
    MatData,
    VecData,
    empty_mat_auto,
    empty_vec,
    in_sorted,
    mat_from_coo,
    pair_keys,
    row_gather,
)
from .dispatch import register

__all__ = ["mxm", "mxv", "vxm", "mxv_multi", "segment_reduce_sorted"]

_INT = np.int64


def _gather_expand(
    src: "MatData | DcsrData", keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each row key k, produce the index range of src's row k.

    Returns (flat_gather_indices, expansion_counts).  Fully vectorized:
    the classic "ragged arange" construction, driven by the per-format
    row-window gather (missing DCSR rows expand to nothing).
    """
    lo, hi = row_gather(src, keys)
    counts = (hi - lo).astype(_INT)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=_INT), counts
    starts = lo.astype(_INT)
    # offsets within each segment: arange(total) - repeat(exclusive_cumsum)
    excl = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(_INT)
    offsets = np.arange(total, dtype=_INT) - np.repeat(excl, counts)
    flat = np.repeat(starts, counts) + offsets
    return flat, counts


def segment_reduce_sorted(
    keys: np.ndarray, values: np.ndarray, monoid: Monoid, out_type: Type
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a key-sorted value stream by monoid; returns (unique, folded)."""
    n = len(keys)
    if n == 0:
        return keys, out_type.empty(0)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start).astype(_INT)
    folded = monoid.reduceat(values, starts)
    return keys[starts], out_type.coerce_array(folded)


def _mult_shortcut(mult_name: str) -> str | None:
    """Which operand gather the multiply operator makes redundant."""
    if mult_name.startswith("GrB_FIRST_"):
        return "first"
    if mult_name.startswith("GrB_SECOND_"):
        return "second"
    if mult_name.startswith("GrB_ONEB_"):
        return "one"
    return None


def mxm(
    a: MatData,
    b: MatData,
    semiring: Semiring,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
) -> MatData:
    """C = A ⊕.⊗ B (accum and mask *write-back* live in the operations
    layer; ``mask_keys`` optionally pushes a key filter down into the
    kernel so off-mask products die before sort/compress;
    ``mask_complement`` inverts the filter — the BFS pattern where the
    mask is the visited set).
    """
    maybe_inject("kernel.mxm")
    out_type = semiring.out_type
    if a.nvals == 0 or b.nvals == 0:
        return empty_mat_auto(a.nrows, b.ncols, out_type)
    if mask_keys is not None and len(mask_keys) == 0:
        if mask_complement:
            mask_keys = None  # complement of nothing keeps everything
        else:
            return empty_mat_auto(a.nrows, b.ncols, out_type)

    a_rows = a.row_indices()
    flat, counts = _gather_expand(b, a.col_indices)
    if len(flat) == 0:
        return empty_mat_auto(a.nrows, b.ncols, out_type)

    out_rows = np.repeat(a_rows, counts)
    out_cols = b.col_indices[flat]
    keys = pair_keys(out_rows, out_cols, b.ncols)

    keep: np.ndarray | None = None
    if mask_keys is not None:
        # mask_keys come from matrix/vector carriers and are pre-sorted,
        # so binary-search membership beats np.isin's internal sort.
        keep = in_sorted(keys, mask_keys, invert=mask_complement,
                         space=a.nrows * b.ncols)
        if not keep.any():
            return empty_mat_auto(a.nrows, b.ncols, out_type)
        keys = keys[keep]

    shortcut = _mult_shortcut(semiring.mult.name)
    if shortcut == "first":
        av = semiring.mult.in1_type.coerce_array(a.values)
        prod = out_type.coerce_array(np.repeat(av, counts))
        if keep is not None:
            prod = prod[keep]
    elif shortcut == "second":
        bv = semiring.mult.in2_type.coerce_array(b.values)
        prod = out_type.coerce_array(bv[flat])
        if keep is not None:
            prod = prod[keep]
    elif shortcut == "one":
        n_out = len(keys)
        prod = out_type.coerce_array(np.ones(n_out, dtype=out_type.np_dtype))
    else:
        av = semiring.mult.in1_type.coerce_array(a.values)
        bv = semiring.mult.in2_type.coerce_array(b.values)
        a_exp = np.repeat(av, counts)
        b_exp = bv[flat]
        if keep is not None:
            a_exp = a_exp[keep]
            b_exp = b_exp[keep]
        prod = semiring.mult.vec(a_exp, b_exp)

    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    prod = prod[order]

    uniq, folded = segment_reduce_sorted(
        keys, semiring.add.type.coerce_array(prod), semiring.add, out_type
    )
    rows = (uniq // b.ncols).astype(_INT)
    cols = (uniq % b.ncols).astype(_INT)
    return mat_from_coo(a.nrows, b.ncols, out_type, rows, cols, folded,
                        presorted=True)


def mxv(
    a: "MatData | DcsrData",
    u: VecData,
    semiring: Semiring,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
    *,
    a_rows: np.ndarray | None = None,
) -> VecData:
    """w = A ⊕.⊗ u (optional row-index mask push-down).

    ``a_rows`` optionally supplies A's precomputed COO row stream —
    the multi-vector batch kernel shares it across right-hand sides.
    """
    maybe_inject("kernel.mxv")
    out_type = semiring.out_type
    if a.nvals == 0 or u.nvals == 0:
        return empty_vec(a.nrows, out_type)
    if a_rows is None:
        a_rows = a.row_indices()
    # Keep A entries whose column is stored in u.
    pos = np.searchsorted(u.indices, a.col_indices)
    pos_clamped = np.minimum(pos, len(u.indices) - 1)
    hit = u.indices[pos_clamped] == a.col_indices
    if mask_keys is not None and not (len(mask_keys) == 0 and mask_complement):
        hit &= in_sorted(a_rows, mask_keys, invert=mask_complement,
                         space=a.nrows)
    if not hit.any():
        return empty_vec(a.nrows, out_type)
    rows = a_rows[hit]
    av = semiring.mult.in1_type.coerce_array(a.values[hit])
    uv = semiring.mult.in2_type.coerce_array(u.values[pos_clamped[hit]])
    prod = semiring.mult.vec(av, uv)
    # Row-major carrier order means `rows` is already sorted.
    uniq, folded = segment_reduce_sorted(
        rows, semiring.add.type.coerce_array(prod), semiring.add, out_type
    )
    return VecData(a.nrows, out_type, uniq, folded)


def mxv_multi(
    a: "MatData | DcsrData",
    us: "list[VecData]",
    semiring: Semiring,
) -> "list[VecData]":
    """Blocked multi-vector product: w_k = A ⊕.⊗ u_k for every u_k.

    The scheduler's small-op batcher funnels many pending unmasked
    ``mxv`` nodes over the *same* committed A into one call, so A's
    row-stream expansion (O(nrows + nnz) for CSR) and kernel entry
    bookkeeping are paid once instead of once per vector.
    """
    maybe_inject("kernel.mxv_multi")
    a_rows = a.row_indices() if a.nvals else None
    return [mxv(a, u, semiring, a_rows=a_rows) for u in us]


def vxm(
    u: VecData,
    a: "MatData | DcsrData",
    semiring: Semiring,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
) -> VecData:
    """w' = u' ⊕.⊗ A (gather the A rows selected by u's pattern;
    optional column-index mask push-down — the masked-BFS hot path)."""
    maybe_inject("kernel.vxm")
    out_type = semiring.out_type
    if a.nvals == 0 or u.nvals == 0:
        return empty_vec(a.ncols, out_type)
    flat, counts = _gather_expand(a, u.indices)
    if len(flat) == 0:
        return empty_vec(a.ncols, out_type)
    out_cols = a.col_indices[flat]
    uv = semiring.mult.in1_type.coerce_array(u.values)
    u_exp = np.repeat(uv, counts)
    # Gather, then cast (as mxv does): casting all of A's values first
    # is O(nnz(A)) per call, and a BFS calls this once per level.
    a_exp = semiring.mult.in2_type.coerce_array(a.values[flat])
    if mask_keys is not None and not (len(mask_keys) == 0 and mask_complement):
        keep = in_sorted(out_cols, mask_keys, invert=mask_complement,
                         space=a.ncols)
        if not keep.any():
            return empty_vec(a.ncols, out_type)
        out_cols = out_cols[keep]
        u_exp = u_exp[keep]
        a_exp = a_exp[keep]
    prod = semiring.mult.vec(u_exp, a_exp)
    order = np.argsort(out_cols, kind="stable")
    uniq, folded = segment_reduce_sorted(
        out_cols[order], semiring.add.type.coerce_array(prod[order]),
        semiring.add, out_type,
    )
    return VecData(a.ncols, out_type, uniq, folded)


# The whole mxm family is native on both storage tiers: every access
# goes through the polymorphic row stream / row-window gather above.
register("mxm", "csr", "dcsr")(mxm)
register("mxv", "csr", "dcsr")(mxv)
register("mxv_multi", "csr", "dcsr")(mxv_multi)
register("vxm", "csr", "dcsr")(vxm)
