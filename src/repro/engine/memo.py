"""Per-Context result memo of algorithm building blocks (§III).

Every algorithm in :mod:`repro.algorithms` starts by deriving the same
pure values from its input graph — a pattern matrix, a degree vector,
the degree-oriented wedge operand of triangle counting — and
:mod:`repro.algorithms._blocks` routes each through this memo: a
bounded map of ``("algo", kind, (uid, version), params)``
→ committed carrier per :class:`~repro.core.context.Context`.  A hit
republishes the cached carrier through the transactional commit gate
(:mod:`repro.engine.txn`) instead of re-running the setup kernels.

Soundness rests on three invariants:

* **Versioned keys** — every key names ``(uid, version)`` of its graph
  handle; uids come from a monotonic counter (never reused, unlike
  ``id()``) and versions advance on every write, so a key can never
  alias a different committed value.
* **Eager invalidation** — every write to a handle, and its
  ``GrB_free``, calls :func:`invalidate_handle`, dropping all entries
  that *depend* on that uid in every live memo, so a freed graph's
  blocks become collectable.
* **Scoped stores** — the memo lives on the Context, so a hit can never
  cross a context (and hence never a mode) boundary.

Entries are (capacity-bounded) strong references: a cached carrier must
stay alive to be republished.  The capacity bound plus eager
invalidation keep retention proportional to ``MEMO_CAPACITY``, and a
context's ``free``/``finalize`` clears its memo outright.

Delta tier (``ENGINE_DELTA``): eager invalidation has one refinement —
when a write arrives as a batched delta (``Matrix.update_batch``), the
sequence layer calls :func:`patch_handle_blocks` instead of
:func:`invalidate_handle`.  Entries keyed at exactly the pre-write
version whose kind has a registered patch rule
(:mod:`repro.algorithms.delta`: degree vectors, pattern matrices,
warm fixpoints) are updated from the write set and re-keyed at
the post-write version; everything else drops as before.  Soundness is
inherited: a patched entry exists only under the new version's key,
and patching happens before the write returns, so no forcing can
observe a stale carrier under a live key.

Eviction: under capacity pressure each entry is scored by what
evicting it would *cost to rebuild* — the build time measured at store
time — exponentially aged by how many lookups/stores ago the entry was
last touched (half-life = one capacity's worth of touches, so a stale
expensive entry does eventually yield to fresh cheap ones).  The
victim is the minimum-score entry: a wedge matrix outlives a degree
vector that came later, and equal costs fall back to recency.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterable

from ..internals import config
from .stats import STATS

__all__ = [
    "ResultMemo", "invalidate_handle",
    "register_patch_resolver", "patch_handle_blocks", "patch_block",
]

#: Every live memo, so handle writes can invalidate eagerly without the
#: sequence layer knowing which contexts cached what (an object may be
#: re-homed across contexts via ``GrB_Context_switch``).
_MEMOS: "weakref.WeakSet[ResultMemo]" = weakref.WeakSet()
_MEMOS_LOCK = threading.Lock()

#: Uids any live entry has ever depended on — the O(1) fast
#: path that keeps :func:`invalidate_handle` free for the overwhelming
#: majority of submits (BFS hot loops never store).  Deliberately an
#: over-approximation that only grows: uids are monotonic and never
#: reused, and a *missed* drop is mere delayed reclamation — keys carry
#: input versions, so a stale entry can never be served after a write.
_TRACKED_UIDS: set[int] = set()


class ResultMemo:
    """A bounded map of memo key → committed result carrier."""

    def __init__(self, capacity: int | None = None):
        self._lock = threading.Lock()
        self._capacity = capacity
        #: monotonic touch clock: advances on every hit and store;
        #: eviction ages scores by touches-since-last-use.
        self._tick = 0
        #: key -> [carrier, frozenset of dep uids, rebuild cost (ms),
        #:         last-touched tick]
        self._entries: dict[tuple, list] = {}
        #: dep uid -> set of keys depending on it (write invalidation)
        self._by_dep: dict[int, set[tuple]] = {}
        with _MEMOS_LOCK:
            _MEMOS.add(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        cap = self._capacity
        if cap is None:
            cap = int(config.get_option("MEMO_CAPACITY"))
        return max(1, cap)

    # -- the cache protocol ---------------------------------------------------

    def lookup(self, key: tuple) -> Any | None:
        """The cached carrier for *key*, or ``None`` (counted as a miss).
        A hit refreshes the entry's recency (its eviction-score age);
        the *hit* counters are bumped by the caller once the republish
        passes the commit gate.

        On an in-memory miss, algorithm-block keys fall through to the
        persistent warm-start store (:mod:`repro.store`): a disk hit is
        re-inserted through :meth:`store` — so it persists nothing new
        (content-addressed) but becomes an ordinary entry — and
        returned as if it had been here all along.  The probe happens
        outside the memo lock; the store layer is safe under
        concurrent readers.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._tick += 1
                entry[3] = self._tick
                return entry[0]
        warm = self._probe_store(key)
        if warm is not None:
            carrier, cost_ms = warm
            self.store(key, carrier, deps=(key[2][0],), cost_ms=cost_ms)
            return carrier
        STATS.bump("memo_misses")
        return None

    @staticmethod
    def _storable_key(key: tuple) -> bool:
        """Keys the persistent tier can address: versioned algo blocks."""
        return (isinstance(key, tuple) and len(key) == 4
                and key[0] == "algo"
                and isinstance(key[2], tuple) and len(key[2]) == 2)

    def _probe_store(self, key: tuple):
        """``(carrier, cost_ms)`` from the warm-start store, or ``None``
        — a cheap attribute check when no store is configured."""
        if not (config.STORE_ENABLE and config.STORE_DIR):
            return None
        if not self._storable_key(key):
            return None
        try:
            from ..store import tier

            return tier.probe(key)
        except Exception:
            return None  # the store may speed things up, never break them

    def _persist_store(self, key: tuple, carrier: Any,
                       cost_ms: float) -> None:
        """Store-behind: mirror a fresh algo-block entry to disk."""
        if not (config.STORE_ENABLE and config.STORE_DIR):
            return
        if not self._storable_key(key):
            return
        try:
            from ..store import tier

            tier.persist(key, carrier, cost_ms)
        except Exception:
            pass

    def store(
        self,
        key: tuple,
        carrier: Any,
        deps: Iterable[int],
        cost_ms: float = 0.0,
    ) -> None:
        """Record a committed carrier, evicting past capacity.

        ``cost_ms`` is the cost of rebuilding this entry (the savings a
        future hit buys); eviction keeps the entries whose aged cost is
        highest.
        """
        deps = frozenset(deps)
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._tick += 1
            self._entries[key] = [
                carrier, deps, max(0.0, float(cost_ms)), self._tick,
            ]
            for uid in deps:
                self._by_dep.setdefault(uid, set()).add(key)
                _TRACKED_UIDS.add(uid)
            STATS.bump("memo_stores")
            cap = self.capacity
            while len(self._entries) > cap:
                self._evict_one(key)
        self._persist_store(key, carrier, cost_ms)

    def _evict_one(self, just_stored: tuple) -> None:
        # Caller holds self._lock; len(self._entries) > 1 is guaranteed
        # (capacity >= 1 and we are past it).
        victim = min(
            (k for k in self._entries if k != just_stored),
            key=self._score,
        )
        score = self._score(victim)
        cost_ms = self._entries[victim][2]
        self._drop(victim)
        STATS.bump("memo_evictions")
        STATS.instant(
            "memo:evict", "memo",
            {"cost_ms": round(cost_ms, 6), "score_ms": round(score, 6)},
        )

    def _score(self, key: tuple) -> float:
        """Aged rebuild cost: the stored cost decayed by a half-life of
        one capacity's worth of touches since last use.  Entries stored
        with no cost keep a tiny floor so ties still break by recency.
        Caller holds ``self._lock``."""
        entry = self._entries[key]
        cost_ms, last_tick = entry[2], entry[3]
        age = max(0, self._tick - last_tick)
        half_life = float(max(1, self.capacity))
        return max(cost_ms, 1e-9) * 0.5 ** (age / half_life)

    def entries(self) -> list[tuple[tuple, Any, float]]:
        """Point-in-time ``(key, carrier, cost_ms)`` snapshot.

        The durability plane walks this to persist warm algorithm
        blocks at checkpoint time; carriers are committed (immutable)
        so sharing the references outside the lock is safe.
        """
        with self._lock:
            return [(k, e[0], e[2]) for k, e in self._entries.items()]

    def invalidate(self, uid: int) -> int:
        """Drop every entry depending on handle *uid*; returns count."""
        with self._lock:
            keys = self._by_dep.pop(uid, None)
            if not keys:
                return 0
            n = 0
            for key in list(keys):
                if key in self._entries:
                    self._drop(key)
                    n += 1
        if n:
            STATS.bump("memo_invalidations", n)
        return n

    def patch(
        self, uid: int, old_version: int, new_version: int, delta: Any,
    ) -> tuple[int, int]:
        """Delta-invalidation: a write to *uid* arrived as a delta.

        Entries depending on *uid* whose key is an algorithm block at
        exactly ``(uid, old_version)`` and whose kind has a patch rule
        are *updated* from the write set and re-keyed at
        ``(uid, new_version)`` — deps and cost carry over, so the
        block stays warm across the write.  Everything else (stale
        versions, kinds without a rule, rules that decline) drops
        exactly as
        :meth:`invalidate` would have dropped it.

        Rules run under the memo lock (:func:`patch_block`): they must
        be pure array code over the cached value and the delta — no
        memo re-entry, no forcing.  A rule returning ``None`` (or
        raising) declines and the entry is dropped.  Returns
        ``(patched, dropped)``.
        """
        patched = dropped = 0
        with self._lock:
            keys = self._by_dep.get(uid)
            if not keys:
                return 0, 0
            for key in list(keys):
                entry = self._entries.get(key)
                if entry is None:
                    continue
                new_value = None
                if (
                    isinstance(key, tuple) and len(key) == 4
                    and key[0] == "algo"
                    and key[2] == (uid, old_version)
                ):
                    new_value = patch_block(key[1], entry[0], key[3], delta)
                _, deps, cost_ms, _ = entry
                self._drop(key)
                if new_value is None:
                    dropped += 1
                    continue
                new_key = (key[0], key[1], (uid, new_version), key[3])
                self._tick += 1
                self._entries[new_key] = [
                    new_value, deps, cost_ms, self._tick,
                ]
                for dep in deps:
                    self._by_dep.setdefault(dep, set()).add(new_key)
                patched += 1
        if patched:
            STATS.bump("memo_delta_patches", patched)
        if dropped:
            STATS.bump("memo_delta_drops", dropped)
            STATS.bump("memo_invalidations", dropped)
        if patched or dropped:
            STATS.instant(
                "memo:patch", "memo",
                {"uid": uid, "patched": patched, "dropped": dropped,
                 "delta_nnz": int(getattr(delta, "n", 0))},
            )
        return patched, dropped

    def clear(self) -> None:
        """Drop everything (context ``free``/``finalize``)."""
        with self._lock:
            self._entries.clear()
            self._by_dep.clear()

    def _drop(self, key: tuple) -> None:
        # Caller holds self._lock.
        deps = self._entries.pop(key)[1]
        for uid in deps:
            bucket = self._by_dep.get(uid)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_dep[uid]


def invalidate_handle(uid: int) -> None:
    """A handle advanced (write) or was freed: drop dependent entries
    from every live memo.  Called from the sequence layer on *every*
    submit, so
    the common case (no entry anywhere names this uid) must stay
    O(1) — one set probe, no locks."""
    if uid not in _TRACKED_UIDS:
        return
    with _MEMOS_LOCK:
        memos = list(_MEMOS)
    for memo in memos:
        memo.invalidate(uid)


#: The registered kind → patch-rule resolver (one process-wide slot,
#: installed by :mod:`repro.algorithms.delta` at import).  Keeping the
#: rules out of this module avoids an engine → algorithms import cycle;
#: until the algorithms package is imported no patchable entries exist
#: anyway, so the unregistered state degrades to plain invalidation.
_PATCH_RESOLVER = None


def register_patch_resolver(resolver) -> None:
    """Install the ``kind -> rule | None`` resolver the patch tier
    consults (idempotent; last registration wins)."""
    global _PATCH_RESOLVER
    _PATCH_RESOLVER = resolver


def patch_block(kind: Any, value: Any, params: Any, delta: Any) -> Any | None:
    """One algorithm block of *kind* carried across one delta write by
    its patch rule — ``None`` when it must be dropped instead (the
    delta tier is ablated, the kind has no rule, the rule declines or
    raises).  The memo's own tier and journal replay of checkpointed
    blocks (:mod:`repro.serve.recovery`) both go through here, so a
    restored block is patched exactly as a live one would have been."""
    if not config.ENGINE_DELTA or _PATCH_RESOLVER is None:
        return None
    rule = _PATCH_RESOLVER(kind)
    if rule is None:
        return None
    try:
        return rule(value, params, delta)
    except Exception:
        return None


def patch_handle_blocks(
    uid: int, old_version: int, new_version: int, delta: Any,
) -> None:
    """A handle advanced via a batched *delta* write: give every live
    memo the chance to patch dependent blocks in place instead of
    dropping them.  Falls back to :func:`invalidate_handle` when the
    delta tier is ablated or no resolver is registered."""
    if uid not in _TRACKED_UIDS:
        return
    if not config.ENGINE_DELTA or _PATCH_RESOLVER is None:
        invalidate_handle(uid)
        return
    with _MEMOS_LOCK:
        memos = list(_MEMOS)
    for memo in memos:
        memo.patch(uid, old_version, new_version, delta)
