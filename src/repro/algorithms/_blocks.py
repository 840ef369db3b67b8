"""Memoized algorithm building blocks (§III amortized setup).

Every algorithm in this package starts by deriving the same handful of
pure values from its input graph — a pattern (weights-erased) copy of
the adjacency matrix, its degree vector, a normalized flow matrix, the
closed-wedge matrix of triangle counting — and until now re-ran those
kernels on *every* call.  The per-Context result memo
(:mod:`repro.engine.memo`) caches committed carriers keyed on
versioned handle identity, and this module routes the building blocks
through it: the
first ``pagerank(a)`` materializes and stores each block, the second
call on an unchanged ``a`` wraps the cached carriers in fresh handles
and submits **zero setup kernels**.

Soundness is inherited from the memo's machinery:

* keys embed ``(a._uid, a._version)``, so any write to the graph makes
  every cached block unreachable (and the eager ``invalidate_handle``
  path drops the entries outright);
* ``GrB_free(a)`` drops the entries via ``invalidate_handle`` too;
* entries live in the graph's own context memo, so a hit can never
  cross a context/mode boundary;
* a hit republishes through the transactional commit gate
  (:mod:`repro.engine.txn`) exactly like the scheduler's memo path —
  cached carriers cannot dodge the fault plane (or the commit-time
  format policy: a cached block repacks CSR↔DCSR on republish if the
  policy says so), and a rejected commit falls back to rebuilding;
* keys embed the storage-format policy fingerprint (``FORMAT_AUTO``
  and its thresholds), so flipping the hypersparse knobs — the CI
  ablation rows do this — invalidates every structurally-keyed block
  instead of serving a carrier shaped under the other policy.

Cost-weighted eviction keeps the expensive blocks around: each store
records the measured build time, so a wedge-count matrix does not get
evicted to make room for a degree vector.

``ENGINE_ALGO_MEMO=0`` disables the plumbing entirely — every block
builds fresh, byte-identical to the pre-memo behavior.
"""

from __future__ import annotations

import time
from typing import Callable

from ..core import types as T
from ..core.binaryop import ONEB
from ..core.context import WaitMode
from ..core.matrix import Matrix
from ..core.monoid import PLUS_MONOID
from ..core.vector import Vector
from ..engine import txn
from ..engine.stats import STATS
from ..faults.retry import with_retry
from ..internals import config
from ..ops.apply import apply
from ..ops.reduce import reduce_to_vector

__all__ = [
    "memoized_matrix", "memoized_vector",
    "pattern_matrix", "degree_vector",
    "load_warm", "store_warm",
]


def _memo_for(a):
    """The graph's context memo, or ``None`` when the algo-memo plumbing
    is off (knobs, freed context, no versioned identity)."""
    if not config.ENGINE_ALGO_MEMO:
        return None
    ctx = a.context
    if ctx is None or ctx.is_freed:
        return None
    return ctx.result_memo()


def _format_fingerprint() -> tuple:
    """The knob state :func:`choose_mat_format` decides under — part of
    every block key, so a policy flip invalidates structural entries."""
    return (
        1 if config.FORMAT_AUTO else 0,
        int(config.FORMAT_DCSR_MIN_ROWS),
        int(config.FORMAT_DCSR_FACTOR),
    )


def _ensure_store_digest(a) -> None:
    """Register *a*'s content digest with the warm-start store tier
    (:mod:`repro.store`), so this graph's block keys can be derived on
    disk and a fresh process computing the same graph finds them.
    No-op without an active store; one dict probe per later call."""
    if not (config.STORE_ENABLE and config.STORE_DIR):
        return
    try:
        from ..store import tier

        tier.ensure_digest(a)
    except Exception:
        pass  # best-effort, like the block stores themselves


def _key(a, kind: str, params: tuple) -> tuple:
    with a._lock:
        vkey = (a._uid, a._version)
    return ("algo", kind, vkey, params, _format_fingerprint())


def _cached(a, kind: str, params: tuple, build: Callable, wrap: Callable):
    """The memoized-block protocol shared by matrix and vector blocks.

    Hit: republish the cached carrier through the commit gate and wrap
    it in a fresh handle — no ops are submitted, no kernels run.  Miss:
    run the builder, force it, and store the committed carrier with the
    measured build time as its eviction score.
    """
    memo = _memo_for(a)
    if memo is None:
        return build()
    _ensure_store_digest(a)
    key = _key(a, kind, params)
    cached = memo.lookup(key)
    if cached is not None:
        try:
            committed = with_retry(
                lambda: txn.commit(f"algo:{kind}", cached), f"algo:{kind}"
            )
            STATS.bump("memo_reused")
            STATS.bump("algo_memo_hits")
            # The tenant rollup, if the graph's context has one; never
            # created here (the scheduler's ``_node_stats`` rule).
            local = getattr(a.context, "_local_stats", None)
            if local is not None:
                local.bump("algo_memo_hits")
            STATS.instant(
                f"algo-memo:{kind}", "memo",
                {"kind": kind, "graph_uid": key[2][0],
                 "nvals": getattr(committed, "nvals", None)},
            )
            return wrap(committed, a.context)
        except Exception:
            # Commit gate rejected the republish (injected fault or
            # corrupt carrier): rebuild as if the entry never existed.
            STATS.bump("algo_memo_fallbacks")
    STATS.bump("algo_memo_misses")
    t0 = time.perf_counter()
    out = build()
    out.wait(WaitMode.MATERIALIZE)
    built_ms = (time.perf_counter() - t0) * 1e3
    with a._lock:
        deps = (a._uid,)
    try:
        memo.store(key, out._data, deps, cost_ms=built_ms)
        STATS.bump("algo_memo_stores")
    except Exception:
        pass  # best-effort: a failed store must not fail the algorithm
    return out


def memoized_matrix(a, kind: str, build: Callable, params: tuple = ()):
    """A matrix-valued building block of graph *a*, served from the
    context result memo when *a* is unchanged since it was built."""
    return _cached(a, kind, params, build, Matrix.from_data)


def memoized_vector(a, kind: str, build: Callable, params: tuple = ()):
    """Vector-valued twin of :func:`memoized_matrix`."""
    return _cached(a, kind, params, build, Vector.from_data)


# -- warm fixpoints (ENGINE_DELTA) -------------------------------------------
#
# A warm block is an algorithm's *result* (prior rank vector, component
# labels, triangle count) stored so the next run on a delta-mutated
# graph can start from it instead of cold.  Values are ``(payload,
# meta)`` tuples under kind ``"warm:<algo>"`` — the same versioned
# "algo" keys as the building blocks, so a plain write drops them and
# a batched delta write routes them through the patch rules in
# :mod:`repro.algorithms.delta`.  The ``warm:`` prefix also tells the
# serving layer's checkpoint walk to skip them (tuple values are not
# serializable carriers).


def load_warm(a, kind: str, params: tuple = ()):
    """The stored ``(payload, meta)`` warm entry for *kind*, or ``None``.

    Only entries the delta tier carried across a write (meta
    ``patched=True``, set by the ``warm:*`` patch rules) are served:
    the entry a cold run stored for its *own* version is not a restart
    seed, so repeated calls on an unchanged graph keep their exact
    cold iteration counts and kernel schedule.
    """
    if not config.ENGINE_DELTA:
        return None
    memo = _memo_for(a)
    if memo is None:
        return None
    entry = memo.lookup(_key(a, "warm:" + kind, params))
    if entry is None or not entry[1].get("patched"):
        return None
    STATS.bump("algo_warm_hits")
    STATS.instant(
        f"algo-warm:{kind}", "memo",
        {"kind": kind, "stale": entry[1].get("stale", 0)},
    )
    return entry


def store_warm(
    a, kind: str, payload, meta: dict | None = None,
    params: tuple = (), cost_ms: float = 0.0,
) -> None:
    """Record an algorithm result as the warm seed for the next run."""
    if not config.ENGINE_DELTA:
        return
    memo = _memo_for(a)
    if memo is None:
        return
    with a._lock:
        deps = (a._uid,)
    try:
        memo.store(
            _key(a, "warm:" + kind, params),
            (payload, dict(meta or {})),
            deps, cost_ms=max(0.0, float(cost_ms)),
        )
        STATS.bump("algo_warm_stores")
    except Exception:
        pass  # best-effort, like the building-block stores


# -- the shared blocks --------------------------------------------------------


def pattern_matrix(a, out_type=T.FP64):
    """Weights-erased copy of ``a``: every stored entry becomes 1.

    The universal first step of pattern algorithms (pagerank, triangle
    counting, k-core, BFS structure) — and for value-carrying semirings
    like PLUS_TIMES the step that makes path *counting* correct on
    weighted graphs.
    """
    def build():
        pat = Matrix.new(out_type, a.nrows, a.ncols, a.context)
        apply(pat, None, None, ONEB[out_type], a, 1)
        return pat

    return memoized_matrix(a, "pattern", build, (out_type.name,))


def degree_vector(a, out_type=T.FP64):
    """Row degrees of ``a``'s pattern (nested block: the pattern itself
    memoizes independently, so a degree miss can still hit it)."""
    def build():
        pat = pattern_matrix(a, out_type)
        deg = Vector.new(out_type, a.nrows, a.context)
        reduce_to_vector(deg, None, None, PLUS_MONOID[out_type], pat)
        return deg

    return memoized_vector(a, "degree", build, (out_type.name,))
