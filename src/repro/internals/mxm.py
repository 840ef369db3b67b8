"""Sparse matrix–matrix and matrix–vector multiply kernels.

The SpGEMM kernel is row-blocked ESC (expand–sort–compress), the
classic linear-algebraic formulation suited to vectorized execution.
A's entries are cut at row boundaries into blocks of about
``BLOCK_PRODUCTS`` products (a row is never split), and each block runs:

1. **Expand** — for every stored A(i,k) of the block, enumerate all
   stored B(k,j) partners by a gather driven by ``np.repeat`` over B's
   row lengths (no Python-level loop).  Each product is keyed
   ``(i − r0)·ncols + j`` relative to the block's first row r0: A's
   row offsets repeated over the row lengths, plus B's column.
2. **Mask** — a pushed-down mask gives each product its *slot*: its
   position among the mask keys ``mk`` of the block's rows, or −1.  One
   int32 slot table per call and thread holds ``mk``'s slots while a
   block gathers ``pos = table[keys]``, and is reset to −1 at ``mk``
   afterwards (in a ``finally``: a retried batch never sees a stale
   slot).  A masked block therefore spans at most ``SLOT_SPACE`` keys;
   when ``ncols`` alone exceeds that, or the call is too small to pay
   for the table, ``pos`` comes from a ``searchsorted`` into ``mk``.
   The survivors (``pos ≥ 0``, or ``pos < 0`` under a complemented
   mask) are taken by index.
3. **Multiply** — apply the semiring's ⊗ to the two surviving value
   streams (one vectorized call for predefined ops; per-element for
   user-defined ops, the §II penalty).
4. **Fold** — under a mask that is not complemented every survivor is
   one of ``mk``, already sorted: ``ufunc.at`` folds by ``pos`` into an
   identity-filled array of ``len(mk)`` slots, and the stored slots are
   the output keys — no sort.  Otherwise (complemented or no mask, a
   user-defined ⊕, object values) :func:`fold_keys` combines duplicate
   keys with the ⊕ monoid: a dense accumulator over the block's key
   space when the stream covers it densely, a stable sort plus
   ``ufunc.reduceat`` otherwise.

Blocks come out in row order, so the output stream is sorted without a
global sort, and the peak intermediate is one block, not every product.

The block list is also the library's only parallel unit (§IV): when the
owning context has ``nthreads > 1`` the blocks map over its worker pool,
in row order, behind one resilience ladder (:func:`_map_blocks`).
NumPy releases the GIL inside the expand, mask and fold steps, so the
threads are real.  Without a context the same loop runs serially.

``mxv`` and ``vxm`` are specialisations.  ``mxv`` keeps A's entries
whose column is stored in u — one gather through a dense slot table when
u is dense enough, a ``searchsorted`` into u's indices otherwise — and
segment-reduces by row, which is already sorted order in CSR.  ``vxm``
expands the A rows u selects and folds the products by column through
:func:`fold_keys`.  When u is dense (``nvals·8 ≥ size``, mxv's slot
rule) and stores every nonempty row of A — the pagerank and components
sweeps; sssp's distances and BFS frontiers miss rows — the selected
rows are all of A in
storage order: the products run over A's own column and value arrays,
u's values repeated over the row lengths by one ``np.repeat``, with no
row-window search or ragged gather (:func:`_covering_slots` decides, by
a count and then a slot lookup at A's nonempty rows).

Every choice here is a pure function of the call's inputs (stream
length, key space, monoid, dtype): no option or learned state picks a
path.

Every kernel here runs on either form of ``MatData``, with or
without a row list.  Row streams come from ``carrier.row_indices()``,
nonempty rows from ``carrier.nonempty_rows()`` and row-window gathers
from :func:`~.containers.row_gather` (binary search over the row list
when there is one — O(nnz log nrr), never O(nrows)), and outputs
assemble through :func:`~.containers.mat_from_coo`, which picks the
output form by the hypersparse policy.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.errors import ExecutionError
from ..core.monoid import Monoid
from ..core.semiring import Semiring
from ..core.types import Type
from ..engine.stats import STATS
from ..faults.plane import armed, maybe_inject
from ..faults.retry import with_retry
from .containers import (
    MatData,
    VecData,
    empty_mat,
    empty_vec,
    in_sorted,
    mat_from_coo,
    pair_keys,
    row_gather,
    stable_argsort,
)

__all__ = ["mxm", "mxv", "vxm", "segment_reduce_sorted", "fold_keys",
           "rows_of_keys"]

_INT = np.int64

#: Products one ``mxm`` block expands.  Rows are never split, so a block
#: holds more when a single row does.
BLOCK_PRODUCTS = 1 << 17

#: Key slots a masked ``mxm`` block may span, and so the largest slot
#: table a call allocates (int32: 4 MiB).  Blocks are also cut wherever
#: ``row // (SLOT_SPACE // ncols)`` changes.  The triangle count's
#: masked product on the scale-13 RMAT graph (1.34 M products, 2-core
#: x86, best of three rounds) reads 21 / 20 / 20 / 22 / 28 ms at 2^19 /
#: 2^20 / 2^21 / 2^22 / 2^23 slots: smaller tables mean more blocks,
#: larger ones more pages.
SLOT_SPACE = 1 << 20


def _slot_table(size: int) -> np.ndarray:
    """A masked ``mxm``'s slot table: *size* int32 slots, all −1."""
    return np.full(size, -1, dtype=np.int32)


def _gather_expand(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index windows ``[lo[k], lo[k] + counts[k])``.

    Fully vectorized — the classic "ragged arange": each window's
    offset is repeated over its length and added to one ``arange``.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=_INT)
    excl = np.cumsum(counts) - counts
    return np.repeat(lo - excl, counts) + np.arange(total, dtype=_INT)


def _covering_slots(
    u: VecData, a: MatData,
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(pos, lens)`` over A's nonempty rows in order — ``pos`` the slot
    of each row in u, ``lens`` its length — or ``None`` when u does not
    store every nonempty row."""
    rows, bounds = a.nonempty_rows()
    lens = np.diff(bounds)
    if u.nvals < len(rows):
        return None
    if u.nvals == u.size:
        return rows, lens  # a full u stores index i at position i
    slot = np.full(u.size, -1, dtype=_INT)
    slot[u.indices] = np.arange(u.nvals, dtype=_INT)
    pos = slot[rows]
    return None if (pos < 0).any() else (pos, lens)


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


def fold_keys(
    keys: np.ndarray, values: np.ndarray, monoid: Monoid, out_type: Type,
    space: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold an **unsorted** key stream over ``[0, space)`` by monoid;
    returns (sorted unique keys, folded values).

    Dense accumulation when the monoid has a ufunc, neither array is
    object dtype and the stream is at least an eighth of the key space:
    a presence bitmap, ``ufunc.at`` into an identity-filled array, and
    ``flatnonzero`` for the sorted keys — no sort at all.  Otherwise a
    stable sort (radix on narrow key spaces) and ``reduceat``.
    """
    uf = monoid.op.ufunc
    if (uf is not None and keys.dtype != object and values.dtype != object
            and len(keys) * 8 >= space):
        present = np.zeros(space, dtype=bool)
        present[keys] = True
        acc = np.full(space, monoid.identity, dtype=values.dtype)
        uf.at(acc, keys, values)
        uniq = np.flatnonzero(present)
        return uniq, out_type.coerce_array(acc[uniq])
    order = stable_argsort(keys, space)
    return segment_reduce_sorted(keys[order], values[order], monoid, out_type)


def _fold_slots(
    mk: np.ndarray, pos: np.ndarray, values: np.ndarray, monoid: Monoid,
    out_type: Type,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a value stream whose keys are the **sorted** keys *mk* at
    slots *pos*; returns (the stored keys of *mk*, folded values).

    ``ufunc.at`` into ``len(mk)`` identity-filled slots and a presence
    bitmap: the keys come out sorted because *mk* is.  The monoid needs
    a ufunc and non-object values, as ``fold_keys``' dense branch does.
    """
    acc = np.full(len(mk), monoid.identity, dtype=values.dtype)
    monoid.op.ufunc.at(acc, pos, values)
    present = np.zeros(len(mk), dtype=bool)
    present[pos] = True
    stored = np.flatnonzero(present)
    return mk[stored], out_type.coerce_array(acc[stored])


def rows_of_keys(keys: np.ndarray, lo: int, hi: int, ncols: int) -> np.ndarray:
    """The sorted pair keys of rows ``[lo, hi)``, re-based to row ``lo``
    (int64 whenever the re-based key space fits it)."""
    start = np.searchsorted(keys, lo * ncols)
    end = np.searchsorted(keys, hi * ncols)
    if start == end:
        return np.empty(0, dtype=_INT)
    part = keys[start:end] - lo * ncols
    return part.astype(_INT, copy=False) if (hi - lo) * ncols < 1 << 62 \
        else part


def _mult_shortcut(mult_name: str) -> str | None:
    """Which operand gather the multiply operator makes redundant."""
    if mult_name.startswith("GrB_FIRST_"):
        return "first"
    if mult_name.startswith("GrB_SECOND_"):
        return "second"
    if mult_name.startswith("GrB_ONEB_"):
        return "one"
    return None


def _multiply(
    semiring: Semiring, av: np.ndarray, bv: np.ndarray,
    a_idx: np.ndarray, b_idx: np.ndarray,
) -> np.ndarray:
    """⊗ of ``av[a_idx]`` and ``bv[b_idx]``, gathering only the operand
    the multiply operator reads."""
    out_type = semiring.out_type
    shortcut = _mult_shortcut(semiring.mult.name)
    if shortcut == "first":
        return out_type.coerce_array(av[a_idx])
    if shortcut == "second":
        return out_type.coerce_array(bv[b_idx])
    if shortcut == "one":
        return out_type.coerce_array(np.ones(len(a_idx), dtype=out_type.np_dtype))
    return semiring.mult.vec(av[a_idx], bv[b_idx])


def _product(semiring: Semiring, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """⊗ of two aligned value streams: *x* is already in ⊗'s first domain
    and a fresh array the kernel owns, *y* is cast here, and only if ⊗
    reads it (a cast of A's values is O(nnz) per call).  A built-in ⊗
    with a ufunc and one dtype throughout writes over *x* rather than
    allocating a third stream."""
    mult, out_type = semiring.mult, semiring.out_type
    shortcut = _mult_shortcut(mult.name)
    if shortcut == "first":
        return out_type.coerce_array(x)
    if shortcut == "one":
        return out_type.coerce_array(np.ones(len(x), dtype=out_type.np_dtype))
    y = mult.in2_type.coerce_array(y)
    if shortcut == "second":
        return out_type.coerce_array(y)
    if (mult.is_builtin and mult.ufunc is not None
            and x.dtype == y.dtype == out_type.np_dtype):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return mult.ufunc(x, y, out=x)
    return mult.vec(x, y)


def _map_blocks(body, spans: list, ctx) -> list:
    """``[body(s) for s in spans]``, on ``ctx``'s worker pool when a
    context is given and there is more than one block.

    This is the resilience ladder for threaded blocks.  Each pool worker
    visits the ``parallel.worker`` fault site (armed: this ladder
    protects it), transient faults re-run the whole batch with backoff,
    and a persistent fault, or a pool freed under a deferred forcing,
    re-runs the blocks serially.  A fault the serial re-run does not
    repeat was the worker's, and counts against ``ctx``, whose
    ``record_worker_fault`` demotes it to serial; one it repeats (a
    failing user-defined operator) is the operation's own error and
    propagates.  Blocks are pure over immutable carriers, so every
    re-run is safe.
    """
    if ctx is None or len(spans) < 2:
        return [body(s) for s in spans]
    domain = ctx.fault_domain

    def worker(span):
        with armed():  # pool threads start unarmed (arming is per thread)
            maybe_inject("parallel.worker", domain=domain)
        return body(span)

    def batch():
        pool = ctx.worker_pool()
        if pool is None:
            raise RuntimeError("context freed: worker pool finalized")
        return list(pool.map(worker, spans))

    try:
        return with_retry(batch, "mxm.blocks")
    except (ExecutionError, RuntimeError) as exc:
        # RuntimeError: the pool was shut down or freed under us.
        STATS.bump("degraded_serial")
        parts = [body(s) for s in spans]
        if isinstance(exc, ExecutionError):
            STATS.bump("worker_faults")
            ctx.record_worker_fault()
        return parts


def mxm(
    a: MatData,
    b: MatData,
    semiring: Semiring,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
    ctx=None,
) -> MatData:
    """C = A ⊕.⊗ B (accum and mask *write-back* live in the operations
    layer; ``mask_keys`` optionally pushes a key filter down into the
    kernel so off-mask products die before they are multiplied or
    folded; ``mask_complement`` inverts the filter — the BFS pattern
    where the mask is the visited set).  With a ``ctx`` the blocks run
    on its worker pool (:func:`_map_blocks`); the output is the same
    bit for bit.
    """
    maybe_inject("kernel.mxm")
    out_type = semiring.out_type
    if a.nvals == 0 or b.nvals == 0:
        return empty_mat(a.nrows, b.ncols, out_type)
    if mask_keys is not None and len(mask_keys) == 0:
        if mask_complement:
            mask_keys = None  # complement of nothing keeps everything
        else:
            return empty_mat(a.nrows, b.ncols, out_type)

    ncols = b.ncols
    lo, hi = row_gather(b, a.col_indices)
    counts = (hi - lo).astype(_INT)
    # A span is a run of A's nonempty rows, which hold the entries
    # between their `bounds`.  Cut where a multiple of the block size of
    # products falls.
    a_nz, bounds = a.nonempty_rows()
    before = np.concatenate(([0], np.cumsum(counts)))[bounds]
    total = int(before[-1])
    if total == 0:
        return empty_mat(a.nrows, ncols, out_type)
    cuts = [np.searchsorted(
        before, np.arange(BLOCK_PRODUCTS, total, BLOCK_PRODUCTS),
        side="right") - 1]
    step = SLOT_SPACE // ncols  # rows a masked block may span
    if mask_keys is not None and step:
        cuts.append(np.flatnonzero(np.diff(a_nz // step)) + 1)
    cuts = np.unique(np.concatenate([[0], *cuts, [len(a_nz)]]))
    spans = [(s0, s1) for s0, s1 in zip(cuts[:-1], cuts[1:])
             if before[s1] > before[s0]]

    a_rows = a.row_indices()
    av = semiring.mult.in1_type.coerce_array(a.values)
    bv = semiring.mult.in2_type.coerce_array(b.values)
    add = semiring.add
    fold_by_slot = (mask_keys is not None and not mask_complement
                    and add.op.ufunc is not None
                    and add.type.np_dtype != object)
    # One slot table per thread, sized to the largest block's key space;
    # searchsorted instead when it would not pay (in_sorted's rule).
    tables = table_size = None
    if mask_keys is not None and step:
        s0, s1 = np.array(spans).T
        rows = a_nz[s1 - 1] - a_nz[s0] + 1
        table_size = int(rows.max()) * ncols
        if (total + len(mask_keys)) * 64 >= table_size:
            tables = {}

    def slots(keys, mk):
        """Each key's position in the sorted mask keys *mk*, or −1."""
        if tables is not None:
            table = tables.get(threading.get_ident())
            if table is None:
                table = tables[threading.get_ident()] = _slot_table(table_size)
            table[mk] = np.arange(len(mk), dtype=np.int32)
            try:
                return table[keys]
            finally:
                table[mk] = -1
        if len(mk) == 0:
            return np.full(len(keys), -1, dtype=_INT)
        pos = np.minimum(np.searchsorted(mk, keys), len(mk) - 1)
        pos[mk[pos] != keys] = -1
        return pos

    def block(span):
        e0, e1 = int(bounds[span[0]]), int(bounds[span[1]])
        r0 = int(a_rows[e0])
        nb = int(a_rows[e1 - 1]) - r0 + 1
        space = nb * ncols
        cnt = counts[e0:e1]
        b_idx = _gather_expand(lo[e0:e1], cnt)
        if space < 1 << 62:
            keys = np.repeat((a_rows[e0:e1] - r0) * ncols, cnt)
            keys += b.col_indices[b_idx]
        else:
            keys = pair_keys(np.repeat(a_rows[e0:e1] - r0, cnt),
                             b.col_indices[b_idx], ncols)
        a_idx = np.repeat(np.arange(e0, e1, dtype=_INT), cnt)
        if mask_keys is not None:
            mk = rows_of_keys(mask_keys, r0, r0 + nb, ncols)
            if len(mk) == 0 and not mask_complement:
                return None
            pos = slots(keys, mk)
            hit = np.flatnonzero(pos < 0 if mask_complement else pos >= 0)
            if len(hit) == 0:
                return None
            a_idx, b_idx = a_idx[hit], b_idx[hit]
            if fold_by_slot:
                pos = pos[hit]
            else:
                keys = keys[hit]
        prod = add.type.coerce_array(_multiply(semiring, av, bv, a_idx, b_idx))
        if fold_by_slot:
            uniq, folded = _fold_slots(mk, pos, prod, add, out_type)
        else:
            uniq, folded = fold_keys(keys, prod, add, out_type, space)
        return uniq // ncols + r0, uniq % ncols, folded

    parts = [p for p in _map_blocks(block, spans, ctx) if p is not None]
    if not parts:
        return empty_mat(a.nrows, ncols, out_type)
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return mat_from_coo(a.nrows, ncols, out_type, rows, cols, vals,
                        presorted=True)


def mxv(
    a: MatData,
    u: VecData,
    semiring: Semiring,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
) -> VecData:
    """w = A ⊕.⊗ u (optional row-index mask push-down)."""
    maybe_inject("kernel.mxv")
    out_type = semiring.out_type
    if a.nvals == 0 or u.nvals == 0:
        return empty_vec(a.nrows, out_type)
    a_rows = a.row_indices()
    # Keep A entries whose column is stored in u; pos is its slot in u.
    if u.nvals * 8 >= u.size:
        slot = np.full(u.size, -1, dtype=_INT)
        slot[u.indices] = np.arange(u.nvals, dtype=_INT)
        pos = slot[a.col_indices]
        hit = pos >= 0
    else:
        pos = np.minimum(np.searchsorted(u.indices, a.col_indices),
                         u.nvals - 1)
        hit = u.indices[pos] == a.col_indices
    if mask_keys is not None and not (len(mask_keys) == 0 and mask_complement):
        hit &= in_sorted(a_rows, mask_keys, invert=mask_complement,
                         space=a.nrows)
    if not hit.any():
        return empty_vec(a.nrows, out_type)
    rows = a_rows[hit]
    av = semiring.mult.in1_type.coerce_array(a.values[hit])
    uv = semiring.mult.in2_type.coerce_array(u.values[pos[hit]])
    prod = semiring.mult.vec(av, uv)
    # Row-major carrier order means `rows` is already sorted.
    uniq, folded = segment_reduce_sorted(
        rows, semiring.add.type.coerce_array(prod), semiring.add, out_type
    )
    return VecData(a.nrows, out_type, uniq, folded)


def vxm(
    u: VecData,
    a: MatData,
    semiring: Semiring,
    mask_keys: np.ndarray | None = None,
    mask_complement: bool = False,
) -> VecData:
    """w' = u' ⊕.⊗ A (gather the A rows selected by u's pattern;
    optional column-index mask push-down — the masked-BFS hot path).

    When u is dense and stores every nonempty row of A, the selected
    rows are all of A in storage order: the products run over A's own
    arrays, with u's values repeated over the row lengths."""
    maybe_inject("kernel.vxm")
    out_type = semiring.out_type
    if a.nvals == 0 or u.nvals == 0:
        return empty_vec(a.ncols, out_type)
    uv = semiring.mult.in1_type.coerce_array(u.values)
    cover = _covering_slots(u, a) if u.nvals * 8 >= u.size else None
    if cover is not None:
        pos, lens = cover
        out_cols = a.col_indices
        u_exp = np.repeat(uv[pos], lens)
        a_exp = a.values
    else:
        lo, hi = row_gather(a, u.indices)
        counts = (hi - lo).astype(_INT)
        flat = _gather_expand(lo, counts)
        if len(flat) == 0:
            return empty_vec(a.ncols, out_type)
        out_cols = a.col_indices[flat]
        u_exp = np.repeat(uv, counts)
        a_exp = a.values[flat]
    if mask_keys is not None and not (len(mask_keys) == 0 and mask_complement):
        keep = in_sorted(out_cols, mask_keys, invert=mask_complement,
                         space=a.ncols)
        if not keep.any():
            return empty_vec(a.ncols, out_type)
        out_cols = out_cols[keep]
        u_exp = u_exp[keep]
        a_exp = a_exp[keep]
    prod = _product(semiring, u_exp, a_exp)
    uniq, folded = fold_keys(out_cols, semiring.add.type.coerce_array(prod),
                             semiring.add, out_type, a.ncols)
    return VecData(a.ncols, out_type, uniq, folded)
