"""Distributed operations over row-block matrices, one allgather a step.

The textbook 1-D patterns a future MPI-backed GraphBLAS would use:

* ``dist_mxv`` — allgather u, multiply locally (O(n) per rank, the
  classic SpMV trade).
* ``dist_vxm`` — multiply each u block against its row block, allgather
  the partial outputs, ⊕-merge each rank's block of w.
* ``dist_mxm`` — allgather B (replicated B on a 1-D layout), multiply
  locally; each rank keeps its C row block.
* ``dist_bfs_levels`` — level-synchronous BFS, one allgathered frontier
  per level.
"""

from __future__ import annotations

import numpy as np

from ..core import types as T
from ..core.matrix import Matrix
from ..core.semiring import LOR_LAND_SEMIRING_BOOL, Semiring
from ..core.vector import Vector
from ..ops.mxm import mxm, mxv, vxm
from .cluster import Cluster, DistMatrix, DistVector

__all__ = ["dist_mxv", "dist_vxm", "dist_mxm", "dist_bfs_levels"]


def _concat(parts: list[tuple], k: int) -> np.ndarray:
    return np.concatenate([p[k] for p in parts])


def dist_mxv(cluster: Cluster, a: DistMatrix, u: DistVector,
             semiring: Semiring) -> DistVector:
    """w = A ⊕.⊗ u with w distributed like A's rows."""
    parts = cluster.allgather(
        [u.local_tuples(r) for r in range(cluster.size)])
    idx, vals = _concat(parts, 0), _concat(parts, 1)
    blocks = []
    for r, ctx in enumerate(cluster.contexts):
        full_u = Vector.new(u.type, u.size, ctx)
        full_u.build(idx, vals)
        lo, hi = a.range(r)
        w = Vector.new(semiring.out_type, hi - lo, ctx)
        mxv(w, None, None, semiring, a.blocks[r], full_u)
        w.wait()
        blocks.append(w)
    return DistVector(cluster, a.nrows, semiring.out_type, blocks)


def dist_vxm(cluster: Cluster, u: DistVector, a: DistMatrix,
             semiring: Semiring) -> DistVector:
    """w' = u' ⊕.⊗ A; the partial outputs are merged with the ⊕ of
    ``semiring``, each rank keeping its conformal block of w."""
    partials = []
    for r, ctx in enumerate(cluster.contexts):
        partial = Vector.new(semiring.out_type, a.ncols, ctx)
        vxm(partial, None, None, semiring, u.blocks[r], a.blocks[r])
        partials.append(partial.extract_tuples())
    parts = cluster.allgather(partials)
    return DistVector.from_tuples(cluster, a.ncols, semiring.out_type,
                                  _concat(parts, 0), _concat(parts, 1),
                                  semiring.add.op)


def dist_mxm(cluster: Cluster, a: DistMatrix, b: DistMatrix,
             semiring: Semiring) -> DistMatrix:
    """C = A ⊕.⊗ B with C row-distributed like A (B gathered)."""
    local_b = []
    for r, block in enumerate(b.blocks):
        rows, cols, vals = block.extract_tuples()
        local_b.append((rows + b.range(r)[0], cols, vals))
    parts = cluster.allgather(local_b)
    rows, cols, vals = (_concat(parts, k) for k in range(3))
    blocks = []
    for r, ctx in enumerate(cluster.contexts):
        full_b = Matrix.new(b.type, b.nrows, b.ncols, ctx)
        full_b.build(rows, cols, vals)
        lo, hi = a.range(r)
        c = Matrix.new(semiring.out_type, hi - lo, b.ncols, ctx)
        mxm(c, None, None, semiring, a.blocks[r], full_b)
        c.wait()
        blocks.append(c)
    return DistMatrix(cluster, a.nrows, b.ncols, semiring.out_type, blocks)


def dist_bfs_levels(cluster: Cluster, a: DistMatrix,
                    source: int) -> DistVector:
    """Level-synchronous distributed BFS over the boolean semiring.

    Each level: every rank expands the frontier vertices of its row
    block (f' ⊕.⊗ A_local, global columns) and offers the unvisited
    successors; one allgather of those makes the next frontier.
    Communication per level is O(frontier), the 1-D BFS pattern.
    """
    levels = np.full(a.nrows, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier):
        fresh = []
        for r, ctx in enumerate(cluster.contexts):
            lo, hi = a.range(r)
            mine = frontier[(frontier >= lo) & (frontier < hi)]
            f = Vector.new(T.BOOL, hi - lo, ctx)
            f.build(mine - lo, np.ones(len(mine), bool))
            succ = Vector.new(T.BOOL, a.ncols, ctx)
            vxm(succ, None, None, LOR_LAND_SEMIRING_BOOL, f, a.blocks[r])
            idx, _ = succ.extract_tuples()
            fresh.append(idx[levels[idx] < 0])
        frontier = np.unique(np.concatenate(cluster.allgather(fresh)))
        depth += 1
        levels[frontier] = depth
    reached = np.flatnonzero(levels >= 0)
    return DistVector.from_tuples(cluster, a.nrows, T.INT64, reached,
                                  levels[reached])
