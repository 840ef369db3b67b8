"""Row-partitioned parallel execution driven by an execution context.

Section IV motivates ``GrB_Context`` with resource management: a context
carries an execution spec (for us: ``nthreads``, ``chunk_rows``), and
operations on objects bound to that context may use those threads.  We
implement the classic row-block decomposition: split the output rows
into contiguous blocks, run the kernel per block on a thread pool, and
concatenate the CSR results (an O(blocks) pointer fix-up).

NumPy releases the GIL inside ufunc loops, so moderate speedups are
real; more importantly this exercises the *scoping* role of contexts —
two sibling contexts with different thread counts run independently.

Worker threads come from the owning context's cached pool
(:meth:`~repro.core.context.Context.worker_pool`): one executor per
context, sized to its effective ``nthreads``, shut down on
``free``/``finalize`` and on degradation to serial.  The old behaviour
— a fresh ``ThreadPoolExecutor`` spun up and torn down per kernel call
— paid thread start-up on *every* parallel mxm; callers without a
context (direct kernel tests) still get an ephemeral pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..core.errors import ExecutionError
from ..core.semiring import Semiring
from ..engine.stats import STATS
from ..faults.plane import armed, maybe_inject
from ..faults.retry import with_retry
from .containers import MatData, empty_mat
from .mxm import mxm, rows_of_keys

__all__ = ["row_blocks", "parallel_mxm", "concat_row_blocks"]

_INT = np.int64


def row_blocks(nrows: int, nblocks: int) -> list[tuple[int, int]]:
    """Split ``range(nrows)`` into ≤ nblocks contiguous [lo, hi) blocks."""
    nblocks = max(1, min(nblocks, nrows)) if nrows else 1
    bounds = np.linspace(0, nrows, nblocks + 1, dtype=_INT)
    return [
        (int(bounds[k]), int(bounds[k + 1]))
        for k in range(nblocks)
        if bounds[k + 1] > bounds[k]
    ]


def _slice_rows(a: MatData, lo: int, hi: int) -> MatData:
    """A[lo:hi, :] as a view-backed MatData (no copies of index arrays)."""
    indptr = a.indptr[lo:hi + 1] - a.indptr[lo]
    s, e = a.indptr[lo], a.indptr[hi]
    return MatData(hi - lo, a.ncols, a.type, indptr,
                   a.col_indices[s:e], a.values[s:e])


def concat_row_blocks(blocks: Sequence[MatData], ncols: int) -> MatData:
    """Vertically stack row-block results back into one CSR matrix."""
    if not blocks:
        raise ValueError("no blocks to concatenate")
    # Kernels assemble through the format policy, so a sparse block can
    # come back doubly-compressed; the pointer fix-up below is CSR math.
    blocks = [b if isinstance(b, MatData) else b.to_csr() for b in blocks]
    t = blocks[0].type
    nrows = sum(b.nrows for b in blocks)
    indptr = np.zeros(nrows + 1, dtype=_INT)
    col_parts, val_parts = [], []
    row_off = 0
    nnz_off = 0
    for b in blocks:
        indptr[row_off + 1: row_off + b.nrows + 1] = b.indptr[1:] + nnz_off
        col_parts.append(b.col_indices)
        val_parts.append(b.values)
        row_off += b.nrows
        nnz_off += b.nvals
    cols = np.concatenate(col_parts) if col_parts else np.empty(0, dtype=_INT)
    vals = np.concatenate(val_parts) if val_parts else t.empty(0)
    return MatData(nrows, ncols, t, indptr, cols, t.coerce_array(vals))


def parallel_mxm(
    a: MatData,
    b: MatData,
    semiring: Semiring,
    nthreads: int,
    *,
    chunk_rows: int = 1,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
    kernel: Callable[..., MatData] = mxm,
    ctx=None,
) -> MatData:
    """C = A ⊕.⊗ B with A's rows partitioned over ``nthreads`` workers.

    ``chunk_rows`` (from the context's exec spec) bounds how finely the
    rows may be split; ``mask_keys`` (sorted global pair-keys) are
    re-based per row block so the masked-SpGEMM push-down composes with
    the parallel split.
    """
    if nthreads <= 1 or a.nrows < 2 or not isinstance(a, MatData):
        # Hypersparse A: the row-block slicer is CSR pointer arithmetic
        # and a doubly-compressed A has too little work per row block to
        # amortize it — run the (DCSR-native) kernel serially.
        return kernel(a, b, semiring, mask_keys, mask_complement)
    # The context's chunk_rows is the minimum rows worth a worker: never
    # split finer than it (tiny blocks pay more fix-up than they save).
    max_blocks = max(1, a.nrows // max(chunk_rows, 1))
    blocks = row_blocks(a.nrows, min(nthreads, max_blocks))
    if len(blocks) == 1:
        return kernel(a, b, semiring, mask_keys, mask_complement)
    slices = [
        (_slice_rows(a, lo, hi),
         None if mask_keys is None else rows_of_keys(mask_keys, lo, hi, b.ncols))
        for lo, hi in blocks
    ]

    def _block(s):
        # Pool threads start unarmed (arming is thread-local); arm this
        # worker explicitly — the ladder below protects it.
        with armed():
            maybe_inject("parallel.worker")
            return kernel(s[0], b, semiring, s[1], mask_complement)

    def _batch():
        if ctx is not None:
            pool = ctx.worker_pool()
            if pool is None:
                # The context was freed while this work was in flight
                # (a deferred forcing or a memo republish racing
                # ``GrB_free``): no pool will ever come back, so punt
                # to the serial ladder below instead of resurrecting
                # an executor the release path can no longer shut down.
                raise RuntimeError("context freed: worker pool finalized")
            return list(pool.map(_block, slices))
        # No owning context (direct kernel tests): ephemeral pool.
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            return list(pool.map(_block, slices))

    try:
        # Blocks are pure over immutable carriers, so the whole batch is
        # safely re-runnable: transient faults retry here with backoff.
        results = with_retry(_batch, "parallel.mxm")
    except (ExecutionError, RuntimeError):
        # Persistent (or retry-exhausted) fault in the parallel path —
        # or the context's pool was shut down under us (free/finalize/
        # degradation racing a deferred forcing): degrade to one serial
        # kernel call over the unsplit operands (correct, just slower).
        STATS.bump("degraded_serial")
        return kernel(a, b, semiring, mask_keys, mask_complement)
    if all(r.nvals == 0 for r in results):
        return empty_mat(a.nrows, b.ncols, semiring.out_type)
    return concat_row_blocks(results, b.ncols)
