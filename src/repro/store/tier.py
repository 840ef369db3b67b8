"""The store's memo-tier adapter: keys, digests, activation.

The per-Context result memo keys algorithm blocks on ``(uid, version)``
— process-local identities.  To survive a restart the key must name
*content*, so this module maintains a registry mapping each live
graph's ``(uid, version)`` to the digest of its serialized carrier
(:func:`ensure_digest`, called by :mod:`repro.algorithms._blocks`
before any block lookup), and derives the on-disk key as::

    blake2b(json([graph digest, block kind, params,
                  serialization version]))

Every ingredient that could change the cached bytes' meaning is in the
key: a mutated graph gets a new digest, a serialization bump a new
version — both of which turn stale entries into clean misses instead
of wrong answers.  Whether a block carries a row list is not: the
commit gate re-derives it when a loaded block is republished.

Two deliberate exclusions keep exactness gates intact:

* ``warm:*`` fixpoint entries never persist — their payloads are
  ``(payload, meta)`` tuples whose PR-9 ``patched`` flag says "this
  came across a delta"; a fresh process has no delta lineage, so it
  must re-run cold (and does: :func:`store_key` returns ``None``).
* params that do not round-trip through JSON make the key ``None`` —
  unkeyable means unpersisted, never misfiled.

Activation is process-wide and config-driven: :func:`active_store`
opens (and caches) the :class:`~repro.store.store.WarmStore` rooted at
the ``STORE_DIR`` knob when ``STORE_ENABLE`` is on.
"""

from __future__ import annotations

import hashlib
import json
import threading

from ..formats.serialize import (
    SERIALIZATION_VERSION,
    blob_digest,
    carrier_serialize,
)
from ..internals import config
from ..internals.containers import MatData, VecData
from .store import WarmStore

__all__ = [
    "active_store", "activate", "ensure_digest", "digest_for",
    "store_key", "probe", "persist",
]

_STATE_LOCK = threading.Lock()
#: graph uid -> (version, content digest of its serialized carrier).
#: Uids are monotonic and never reused, so a stale mapping can only be
#: an *old version* of the same handle — and versions are checked.
_DIGESTS: dict[int, tuple[int, str]] = {}
#: The open store for the current ``STORE_DIR``, re-keyed when the
#: knob changes (tests and the CLI flip it).
_ACTIVE: tuple[str, WarmStore] | None = None


def active_store() -> WarmStore | None:
    """The process's warm-start store, or ``None`` when disabled."""
    if not config.STORE_ENABLE:
        return None
    root = str(config.STORE_DIR or "")
    if not root:
        return None
    global _ACTIVE
    with _STATE_LOCK:
        if _ACTIVE is not None and _ACTIVE[0] == root:
            return _ACTIVE[1]
        store = WarmStore(root)
        _ACTIVE = (root, store)
        return store


def activate(root: str) -> WarmStore | None:
    """Point the process at the store rooted at *root* (sets the
    ``STORE_DIR`` knob) and open it.  Explicit spelling of what
    ``REPRO_STORE_DIR`` does at import time."""
    config.set_option("STORE_DIR", str(root))
    return active_store()


# -- digests ------------------------------------------------------------------


def ensure_digest(a) -> None:
    """Register graph *a*'s content digest so its block keys can be
    derived.  Serializes the committed carrier once per (uid, version)
    — later calls are one dict probe."""
    with a._lock:
        uid, version = a._uid, a._version
    with _STATE_LOCK:
        known = _DIGESTS.get(uid)
        if known is not None and known[0] == version:
            return
    try:
        digest = blob_digest(carrier_serialize(a._capture()))
    except Exception:
        return
    with a._lock:
        if a._version != version:
            return  # written mid-capture: the new version re-registers
    with _STATE_LOCK:
        _DIGESTS[uid] = (version, digest)


def digest_for(uid: int, version: int) -> str | None:
    """The registered content digest of handle *uid* at *version*."""
    with _STATE_LOCK:
        known = _DIGESTS.get(uid)
    if known is None or known[0] != version:
        return None
    return known[1]


# -- key derivation -----------------------------------------------------------


def store_key(key: tuple) -> str | None:
    """The on-disk key for a memo key, or ``None`` when not persistable.

    Only versioned algorithm-block keys with a registered graph digest
    qualify; ``warm:*`` fixpoints and non-JSON params never do.
    """
    if not (isinstance(key, tuple) and len(key) == 4 and key[0] == "algo"):
        return None
    _, kind, vkey, params = key
    if not isinstance(kind, str) or kind.startswith("warm:"):
        return None
    if not (isinstance(vkey, tuple) and len(vkey) == 2):
        return None
    digest = digest_for(vkey[0], vkey[1])
    if digest is None:
        return None
    try:
        canonical = json.dumps(
            [digest, kind, list(params), SERIALIZATION_VERSION],
            separators=(",", ":"),
        )
    except (TypeError, ValueError):
        return None
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


# -- the memo adapter ---------------------------------------------------------


def probe(key: tuple):
    """Second-tier lookup: ``(carrier, cost_ms)`` from disk, or
    ``None``.  Called by :meth:`ResultMemo.lookup` on an in-memory
    miss; the caller re-inserts the hit through its normal store path
    so the commit gate and format policy see it like any other entry."""
    store = active_store()
    if store is None:
        return None
    khex = store_key(key)
    if khex is None:
        return None
    return store.get(khex)


def persist(key: tuple, carrier, cost_ms: float = 0.0) -> bool:
    """Store-behind: serialize a just-memoized block to disk."""
    store = active_store()
    if store is None:
        return False
    if not isinstance(carrier, (MatData, VecData)):
        return False
    khex = store_key(key)
    if khex is None:
        return False
    if store.contains(khex):
        return True
    try:
        blob = carrier_serialize(carrier)
    except Exception:
        return False
    return store.put(khex, blob, cost_ms)
