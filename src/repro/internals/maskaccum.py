"""Mask and accumulator machinery shared by every GraphBLAS operation.

Every operation ends with the same write-back rule (spec §"accumulator
and mask", rendered in the paper's notation as ``C⟨M, r⟩ = C ⊙ T``):

1. When an accumulator ``⊙`` is given, combine the old content of C with
   the computed result T over the structural union (pairwise ``⊙`` where
   both are stored, pass-through where only one is).  Without an
   accumulator, Z = T.
2. Write Z into C *through the mask*: positions where the mask is true
   take Z's content (including "no entry", which deletes); positions
   where the mask is false keep C's old content, unless ``REPLACE`` is
   set, in which case they are cleared.

Masks can be valued (an entry counts if its value casts to true) or
structural (``GrB_STRUCTURE``: an entry counts if stored), and can be
complemented (``GrB_COMP``); both flags live in the descriptor.
"""

from __future__ import annotations

import numpy as np

from ..core.binaryop import BinaryOp
from ..core.types import BOOL, Type
from .containers import (
    MatData,
    VecData,
    in_sorted,
    mat_from_coo,
    pair_keys,
)
from .ewise import mat_union, vec_union

__all__ = [
    "vec_mask_keys",
    "mat_mask_keys",
    "membership",
    "vec_write_back",
    "mat_write_back",
]

_INT = np.int64


def _memo(carrier, structure: bool, compute):
    """Cache a mask's key set on its (immutable) carrier.

    The same mask carrier is typically consulted repeatedly — every BFS
    level re-filters through the visited set, and a masked product's
    mask is keyed once for its kernel and once at its write-back.  Carriers are frozen, so the keys can never go stale;
    ``object.__setattr__`` sidesteps the frozen-dataclass guard.

    Storing the cache *on* the carrier (rather than in a side table
    keyed by it) is also what makes it free-safe: no global structure
    references the carrier, so after ``GrB_free`` the keys die with it
    and the arrays stay gc-collectable
    (``tests/test_result_cache.py::TestCollectability``).
    """
    cache = getattr(carrier, "_mask_keys", None)
    if cache is None:
        cache = {}
        object.__setattr__(carrier, "_mask_keys", cache)
    keys = cache.get(structure)
    if keys is None:
        keys = cache[structure] = compute()
    return keys


def vec_mask_keys(mask: VecData | None, structure: bool) -> np.ndarray | None:
    """Sorted indices where the (uncomplemented) vector mask is true.

    ``None`` means "no mask" — all positions true.
    """
    if mask is None:
        return None
    if structure:
        return mask.indices

    def compute():
        truth = np.asarray(BOOL.coerce_array(mask.values), dtype=bool)
        return mask.indices[truth]

    return _memo(mask, structure, compute)


def mat_mask_keys(
    mask: MatData | None, structure: bool
) -> np.ndarray | None:
    """Sorted pair-keys where the (uncomplemented) matrix mask is true."""
    if mask is None:
        return None

    def compute():
        keys = pair_keys(mask.row_indices(), mask.col_indices, mask.ncols)
        if structure:
            return keys
        truth = np.asarray(BOOL.coerce_array(mask.values), dtype=bool)
        return keys[truth]

    return _memo(mask, structure, compute)


def membership(
    keys: np.ndarray, mask_keys: np.ndarray | None, complement: bool,
    space: int | None = None,
) -> np.ndarray:
    """Boolean mask-truth per key, honouring the complement flag.

    With no mask, truth is all-true; a complemented missing mask is
    all-false (so REPLACE then clears the output — the spec corner).
    ``space`` bounds the key universe so large workloads can use the
    dense-LUT membership fast path.
    """
    if mask_keys is None:
        base = np.ones(len(keys), dtype=bool)
    else:
        # Mask key sets are sorted by construction (CSR pair keys,
        # strictly-increasing vector indices): binary-search membership,
        # or a dense lookup table when the universe is small enough.
        base = in_sorted(keys, mask_keys, space=space)
    return ~base if complement else base


def vec_write_back(
    c: VecData,
    t: VecData,
    out_type: Type,
    mask: VecData | None,
    accum: BinaryOp | None,
    *,
    complement: bool = False,
    structure: bool = False,
    replace: bool = False,
) -> VecData:
    """Apply the full ``w⟨m, r⟩ = w ⊙ t`` write-back rule."""
    z = t.astype(out_type) if accum is None else vec_union(
        c.astype(out_type) if c.type != out_type else c, t, accum, out_type
    )
    if mask is None and not complement:
        return z
    mk = vec_mask_keys(mask, structure)
    keep_z = membership(z.indices, mk, complement, space=c.size)
    new_idx = z.indices[keep_z]
    new_vals = z.values[keep_z]
    if not replace:
        keep_c = ~membership(c.indices, mk, complement, space=c.size)
        if keep_c.any():
            c_idx = c.indices[keep_c]
            c_vals = out_type.coerce_array(c.values[keep_c])
            merged = np.concatenate([new_idx, c_idx])
            merged_vals = np.concatenate(
                [new_vals, c_vals]
            ) if new_vals.dtype == c_vals.dtype else np.concatenate(
                [out_type.coerce_array(new_vals), c_vals]
            )
            order = np.argsort(merged, kind="stable")
            return VecData(c.size, out_type, merged[order], merged_vals[order])
    return VecData(c.size, out_type, new_idx, out_type.coerce_array(new_vals))


def mat_write_back(
    c: MatData,
    t: MatData,
    out_type: Type,
    mask: MatData | None,
    accum: BinaryOp | None,
    *,
    complement: bool = False,
    structure: bool = False,
    replace: bool = False,
) -> MatData:
    """Apply the full ``C⟨M, r⟩ = C ⊙ T`` write-back rule."""
    z = t.astype(out_type) if accum is None else mat_union(
        c.astype(out_type) if c.type != out_type else c, t, accum, out_type
    )
    if mask is None and not complement:
        return z
    mk = mat_mask_keys(mask, structure)
    space = c.nrows * c.ncols
    z_rows = z.row_indices()
    z_keys = pair_keys(z_rows, z.col_indices, z.ncols)
    keep_z = membership(z_keys, mk, complement, space=space)
    new_rows = z_rows[keep_z]
    new_cols = z.col_indices[keep_z]
    new_vals = out_type.coerce_array(z.values[keep_z])
    # Filtering keeps z's row-major order: only kept C entries need a sort.
    presorted = True
    if not replace:
        c_rows = c.row_indices()
        c_keys = pair_keys(c_rows, c.col_indices, c.ncols)
        keep_c = ~membership(c_keys, mk, complement, space=space)
        if keep_c.any():
            new_rows = np.concatenate([new_rows, c_rows[keep_c]])
            new_cols = np.concatenate([new_cols, c.col_indices[keep_c]])
            new_vals = np.concatenate(
                [new_vals, out_type.coerce_array(c.values[keep_c])]
            )
            presorted = False
    return mat_from_coo(c.nrows, c.ncols, out_type, new_rows, new_cols,
                        new_vals, presorted=presorted)
