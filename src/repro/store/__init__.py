"""Persistent warm-start store (cross-process §VII cache tier).

PR 7's checkpoint/journal plane makes one *deployment* durable; this
package makes warm state durable across *processes that never met*: a
content-addressed on-disk store of committed algorithm blocks
(serialized as the same opaque §VII v3 blobs checkpoints use), keyed
so that any fresh process computing over a graph with the same content — a
restarted replica, the next CLI run, tomorrow's CI job restoring an
actions cache — starts warm.

Layered as a *second tier under the result memo*: a memo miss probes
the store before rebuilding cold, and a memo store writes behind to
disk; a store hit re-enters through the memo's normal path, so the
transactional commit gate, fault plane, and format policy treat it
exactly like an in-memory hit.  ``REPRO_STORE_ENABLE=0`` ablates the
whole tier.

See :mod:`repro.store.store` (the directory format and concurrency
story) and :mod:`repro.store.tier` (keys, digests, memo adapter).
"""

from .store import WarmStore
from .tier import activate, active_store

__all__ = ["WarmStore", "activate", "active_store"]
