"""A simulated cluster that counts its communication, and its containers.

Ranks are neither processes nor threads: the distributed operations take
a global view, running the ranks' local steps one after another on the
calling thread, and each exchange is one :meth:`Cluster.allgather` that
records what an MPI allgather would move.  Communication volume is the
hardware-independent metric (CombBLAS measures its primitives the same
way).  Each rank owns a context nested under the caller's — the "MPI
outer, threads inner" hierarchy §IV designs ``GrB_Context`` for.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from ..core.context import Context, default_context
from ..core.errors import DimensionMismatchError, InvalidValueError
from ..core.matrix import Matrix
from ..core.types import Type
from ..core.vector import Vector

__all__ = ["CommStats", "Cluster", "DistMatrix", "DistVector",
           "block_bounds"]


def _payload_bytes(obj: Any) -> int:
    """Approximate wire size of a message payload."""
    if isinstance(obj, (list, tuple)):
        return sum(map(_payload_bytes, obj))
    return obj.nbytes if isinstance(obj, np.ndarray) else 8


def block_bounds(n: int, size: int) -> np.ndarray:
    """Partition ``range(n)`` into ``size`` contiguous blocks."""
    return np.linspace(0, n, size + 1, dtype=np.int64)


@dataclass
class CommStats:
    """Communication a cluster's collectives would have moved."""

    messages: int = 0
    bytes: int = 0
    collectives: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class Cluster:
    """``size`` ranks, each with a context named ``rank{r}`` under
    ``parent_ctx`` (the top-level context by default)."""

    def __init__(self, size: int, parent_ctx: Context | None = None,
                 nthreads: int = 1):
        if size < 1:
            raise InvalidValueError("cluster size must be >= 1")
        parent = parent_ctx if parent_ctx is not None else default_context()
        self.size = size
        self.contexts = [
            Context.new(parent.mode, parent, {"nthreads": nthreads},
                        name=f"rank{r}")
            for r in range(size)
        ]
        self.stats = CommStats()

    def allgather(self, parts: Sequence[Any]) -> list[Any]:
        """Every rank contributes ``parts[r]``; every rank gets the list.

        Counted as ``size`` per-rank calls, each sending its payload to
        the ``size - 1`` other ranks.
        """
        if len(parts) != self.size:
            raise DimensionMismatchError(
                f"allgather takes one payload per rank, got {len(parts)}")
        self.stats.collectives += self.size
        self.stats.messages += self.size
        self.stats.bytes += _payload_bytes(parts) * (self.size - 1)
        return list(parts)


class _Blocked:
    """p local blocks, block r on rank r's context over rows
    ``block_bounds(n, p)[r:r + 2]``."""

    def __init__(self, cluster: Cluster, n: int, t: Type, blocks: list):
        self.cluster = cluster
        self.type = t
        self.bounds = block_bounds(n, cluster.size)
        self.blocks = list(blocks)
        for r, block in enumerate(self.blocks):
            lo, hi = self.range(r)
            rows = block.nrows if isinstance(block, Matrix) else block.size
            if rows != hi - lo or block.context is not cluster.contexts[r]:
                raise DimensionMismatchError(f"block {r} does not fit rank{r}")

    def range(self, r: int) -> tuple[int, int]:
        return int(self.bounds[r]), int(self.bounds[r + 1])


class DistVector(_Blocked):
    """A vector partitioned conformally with row blocks."""

    def __init__(self, cluster: Cluster, size: int, t: Type,
                 blocks: list[Vector]):
        self.size = size
        super().__init__(cluster, size, t, blocks)

    def local_tuples(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(global indices, values) of rank r's stored elements."""
        idx, vals = self.blocks[r].extract_tuples()
        return idx + self.range(r)[0], vals

    def to_dict(self) -> dict[int, Any]:
        return {i: v for r in range(self.cluster.size)
                for i, v in zip(*(a.tolist() for a in self.local_tuples(r)))}

    @classmethod
    def from_tuples(cls, cluster: Cluster, size: int, t: Type,
                    idx: np.ndarray, vals: np.ndarray,
                    dup=None) -> "DistVector":
        """Scatter global (index, value) pairs onto the rank blocks;
        duplicate indices fold with ``dup``."""
        bounds = block_bounds(size, cluster.size)
        blocks = []
        for ctx, lo, hi in zip(cluster.contexts, bounds, bounds[1:]):
            mine = (idx >= lo) & (idx < hi)
            v = Vector.new(t, int(hi - lo), ctx)
            v.build(idx[mine] - lo, vals[mine], dup)
            v.wait()
            blocks.append(v)
        return cls(cluster, size, t, blocks)

    @classmethod
    def from_global_dense(cls, cluster: Cluster, dense: np.ndarray,
                          t: Type) -> "DistVector":
        """Scatter the nonzeros of ``dense`` onto the rank blocks."""
        idx = np.flatnonzero(dense)
        return cls.from_tuples(cluster, len(dense), t, idx, dense[idx])


class DistMatrix(_Blocked):
    """A matrix in 1-D row-block distribution."""

    def __init__(self, cluster: Cluster, nrows: int, ncols: int, t: Type,
                 blocks: list[Matrix]):
        self.nrows = nrows
        self.ncols = ncols
        super().__init__(cluster, nrows, t, blocks)

    @classmethod
    def from_triples(cls, cluster: Cluster, nrows: int, ncols: int, t: Type,
                     rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                     dup=None) -> "DistMatrix":
        """Scatter global COO triples onto the rank row blocks."""
        bounds = block_bounds(nrows, cluster.size)
        vals = np.asarray(vals)
        blocks = []
        for ctx, lo, hi in zip(cluster.contexts, bounds, bounds[1:]):
            mine = (rows >= lo) & (rows < hi)
            m = Matrix.new(t, int(hi - lo), ncols, ctx)
            m.build(rows[mine] - lo, cols[mine], vals[mine], dup)
            m.wait()
            blocks.append(m)
        return cls(cluster, nrows, ncols, t, blocks)
