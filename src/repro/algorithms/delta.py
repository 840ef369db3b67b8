"""Delta patch rules: update memoized blocks from a write set.

When a batched write (:meth:`repro.core.matrix.Matrix.update_batch`)
advances a graph handle, the memo's delta tier
(:func:`repro.engine.memo.patch_handle_blocks`) asks this module for a
rule per cached-block kind.  A rule takes ``(value, params, delta)`` —
the cached entry's value, the key's params tuple, and the
:class:`~repro.internals.stream.WriteDelta` — and returns the patched
value, or ``None`` to decline (the entry then drops and the next run
rebuilds cold).  Rules run under the memo lock: pure array code only,
no memo re-entry, no forcing.

Two block families are patchable:

* **Building blocks** (``pattern``/``degree``) are *exact* merges: a
  genuinely-new edge is by construction absent from the old graph's
  pattern, so the patch is an insert-only positional merge (plus a
  per-row count bump for degrees).  A value-only overwrite leaves both
  untouched.
* **Warm fixpoints** (``warm:pagerank``/``warm:components``/
  ``warm:triangles``, stored by the algorithms themselves via
  :func:`repro.algorithms._blocks.store_warm`):

  - pagerank *carries* the prior rank vector across the write
    (tracking accumulated staleness in ``meta``) — the next call
    restarts iteration from it and converges in a handful of sweeps;
  - components re-merges only the labels touching delta endpoints
    (union-find with min-root union; exact because old labels are
    component minima — requires the old graph symmetric, checked at
    store time, and the new-edge set symmetric, checked here);
  - triangles adds the delta's wedge closures exactly: ``ΔT = T1 + T2
    + T3/3`` over triangles with one, two, or three new undirected
    edges.

Every rule defers to :func:`should_delta_patch` so a delta past the
rebuild-is-cheaper threshold drops the entry
instead (the cold fallback the acceptance criteria demand).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..engine import memo as _memo
from ..engine.stats import STATS
from ..internals import config
from ..internals.containers import (
    VecData,
    merge_column,
    merge_slots,
    merge_sorted,
    pair_keys,
)
from ..internals.stream import insert_edges

__all__ = ["resolve_patch", "pattern_symmetric"]

_INT = np.int64


def pattern_symmetric(d) -> bool:
    """True when carrier *d*'s structure equals its transpose's.

    The store-time precondition for the undirected warm rules; O(nnz)
    plus one sort, paid once per cold run that records a warm entry.
    """
    if d.nrows != d.ncols:
        return False
    r = d.row_indices()
    c = d.col_indices
    k1 = pair_keys(r, c, d.ncols)
    k2 = np.sort(pair_keys(c, r, d.ncols))
    return bool(np.array_equal(k1, k2))


#: A delta is patched only while it is at most this fraction of the
#: base's nnz; past it a rebuild is declared cheaper (cold fallback).
_DELTA_PATCH_RATIO = 0.25


def should_delta_patch(kind: str, delta_nnz: int, base_nnz: int) -> bool:
    """Patch-vs-rebuild policy for the memo's delta tier.

    Patching a block costs O(delta) array work under the memo lock;
    rebuilding costs a full kernel pass over the base.  The crossover
    is linear in the size ratio, so the rule is a single threshold
    (:data:`_DELTA_PATCH_RATIO`) with an absolute floor of 16 edges —
    tiny deltas always patch, even into tiny graphs.  Every decision
    emits a ``cost:delta-patch`` instant.
    """
    if not config.ENGINE_DELTA:
        return False
    patch = float(delta_nnz) <= max(
        16.0, _DELTA_PATCH_RATIO * float(base_nnz))
    STATS.instant(
        "cost:delta-patch", "planner",
        {"kind": kind, "delta_nnz": int(delta_nnz),
         "base_nnz": int(base_nnz),
         "decision": "patch" if patch else "rebuild"},
    )
    return patch


def _ones(t, n: int) -> np.ndarray:
    return t.coerce_array(np.ones(n))


# -- building-block rules -----------------------------------------------------


def _patch_pattern(value, params, delta):
    new_r, new_c = delta.new_edges()
    if len(new_r) == 0:
        return value  # value-only overwrite: the pattern is unchanged
    if not should_delta_patch("pattern", delta.n, delta.base.nvals):
        return None
    return insert_edges(value, new_r, new_c, _ones(value.type, len(new_r)))


def _patch_degree(value, params, delta):
    new_r, _ = delta.new_edges()
    if len(new_r) == 0:
        return value
    if not should_delta_patch("degree", delta.n, delta.base.nvals):
        return None
    t = value.type
    uniq, counts = np.unique(new_r, return_counts=True)
    from_old, dst = merge_slots(
        value.nvals, *merge_sorted(value.indices, uniq))
    out = np.zeros(len(from_old), dtype=t.np_dtype)
    out[from_old] = value.values
    out[dst] += counts.astype(t.np_dtype)
    return VecData(
        value.size, t, merge_column(from_old, dst, value.indices, uniq),
        t.coerce_array(out),
    )


# -- warm-fixpoint rules ------------------------------------------------------


def _patch_warm_pagerank(value, params, delta):
    payload, meta = value
    n_new = delta.n_new
    if n_new == 0:
        return value
    stale = int(meta.get("stale", 0)) + n_new
    base_nnz = int(meta.get("base_nnz", delta.base.nvals))
    # Staleness accumulates across writes: pagerank carries the vector
    # as a *seed*, so the gate is on total drift since convergence,
    # not just this delta.
    if not should_delta_patch("warm:pagerank", stale, base_nnz):
        return None
    return (payload, {**meta, "stale": stale})


def _patch_warm_components(value, params, delta):
    payload, meta = value
    new_r, new_c = delta.new_edges()
    if len(new_r) == 0:
        return value
    if payload.nvals != payload.size:  # labels must be dense
        return None
    if not delta.new_symmetric():
        return None
    if not should_delta_patch(
        "warm:components", delta.n, delta.base.nvals
    ):
        return None
    labels = payload.values
    # Union-find over the *labels* at delta endpoints.  Old labels are
    # component minima, and min-root union keeps every root the minimum
    # of its merged set — so relabelling to the root reproduces the
    # cold fixpoint exactly.
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    endpoint_labels = labels[new_r]
    other_labels = labels[new_c]
    for la, lb in zip(endpoint_labels.tolist(), other_labels.tolist()):
        ra, rb = find(la), find(lb)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    mapping = {}
    for lab in set(endpoint_labels.tolist()) | set(other_labels.tolist()):
        root = find(lab)
        if root != lab:
            mapping[lab] = root
    if not mapping:
        return value  # intra-component edges only
    keys = np.sort(np.fromiter(mapping, dtype=_INT, count=len(mapping)))
    roots = np.fromiter((mapping[k] for k in keys.tolist()), dtype=_INT,
                        count=len(keys))
    pos = np.searchsorted(keys, labels)
    safe = np.minimum(pos, len(keys) - 1)
    hit = keys[safe] == labels
    new_labels = labels.copy()
    new_labels[hit] = roots[safe[hit]]
    return (
        VecData(payload.size, payload.type, payload.indices, new_labels),
        meta,
    )


def _patch_warm_triangles(value, params, delta):
    count, meta = value
    new_r, new_c = delta.new_edges()
    if len(new_r) == 0:
        return value
    if not delta.new_symmetric():
        return None
    base = delta.base
    if not should_delta_patch("warm:triangles", delta.n, base.nvals):
        return None
    # Undirected new edges, one orientation each.
    und = [
        (int(u), int(v))
        for u, v in zip(new_r.tolist(), new_c.tolist()) if u < v
    ]
    new_set = set(und)
    row_cache: dict = {}

    def row(u):
        cols = row_cache.get(u)
        if cols is None:
            cols = base.row_slice(u)[0]
            row_cache[u] = cols
        return cols

    # T1: triangles closing a new edge with two *old* edges — the wedge
    # count |N_old(u) ∩ N_old(v)| per new undirected edge.  (The base is
    # symmetric by the store-time precondition, so rows are neighbor
    # sets; (u,v) itself is new and hence absent from both rows.)
    t1 = 0
    for u, v in und:
        t1 += len(np.intersect1d(row(u), row(v), assume_unique=True))
    # T2/T3: triangles with two or three new edges, enumerated over the
    # (small, cost-gated) new-edge adjacency.  A two-new triangle is
    # counted exactly once (at its shared vertex); an all-new triangle
    # three times (once per vertex), hence the /3.
    nbrs: dict = defaultdict(list)
    for u, v in und:
        nbrs[u].append(v)
        nbrs[v].append(u)
    t2 = 0
    t3_threefold = 0
    for _x, adjacent in nbrs.items():
        adjacent = sorted(adjacent)
        for i in range(len(adjacent)):
            cols_y = None
            for j in range(i + 1, len(adjacent)):
                y, z = adjacent[i], adjacent[j]
                if (y, z) in new_set:
                    t3_threefold += 1
                else:
                    if cols_y is None:
                        cols_y = row(y)
                    p = int(np.searchsorted(cols_y, z))
                    if p < len(cols_y) and cols_y[p] == z:
                        t2 += 1
    return (int(count) + t1 + t2 + t3_threefold // 3, meta)


def _mark_patched(rule):
    """Wrap a warm rule so a surviving entry's meta carries
    ``patched=True``: only a block that actually crossed a write may
    seed a warm restart (:func:`.._blocks.load_warm` skips unflagged
    entries), so reruns on an unchanged graph stay cold — same
    iteration counts and kernel schedule as before the delta tier."""
    def wrapped(value, params, delta):
        out = rule(value, params, delta)
        if out is None:
            return None
        payload, meta = out
        return (payload, {**meta, "patched": True})
    return wrapped


_RULES = {
    "pattern": _patch_pattern,
    "degree": _patch_degree,
    "warm:pagerank": _mark_patched(_patch_warm_pagerank),
    "warm:components": _mark_patched(_patch_warm_components),
    "warm:triangles": _mark_patched(_patch_warm_triangles),
}


def resolve_patch(kind: str):
    """The patch rule for a block kind, or ``None`` (→ drop)."""
    return _RULES.get(kind)


# Installing the resolver is what turns the memo's delta tier on; until
# this module is imported (the algorithms package pulls it in) no
# patchable entries exist and delta writes degrade to plain drops.
_memo.register_patch_resolver(resolve_patch)
