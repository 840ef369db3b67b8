"""The on-disk warm-start store: content-addressed §VII blobs.

One directory holds everything a fresh process needs to start warm::

    <root>/
      entries/<keyhex>.grb    one committed carrier per store key
      .lock                   advisory eviction lock

(A ``calibration.json`` left by an earlier version is ignored.)

Entry framing is a thin envelope over the existing opaque §VII stream
(:func:`repro.formats.serialize.carrier_serialize`)::

    magic(4)=RWST | version(u16) | crc32(u32) | header-length(u32)
    | header(json: cost_ms) | carrier blob

The CRC covers header + blob, and the blob inside carries its own §VII
checksum — a torn or bit-flipped entry fails one of the two and is
**treated as a miss**: counted (``store_corrupt``), traced
(``store:corrupt`` instant), unlinked best-effort, never an error on
the hot path.

Concurrency story (CI's parallel jobs share one of these via the
actions cache, and a serving replica may host many sessions):

* **writers** stage into a unique temp file and ``os.replace`` it —
  readers see the old entry, the new entry, or no entry, never bytes
  in between;
* **content-addressed keys** make concurrent writers of the same key
  idempotent (last rename wins with identical bytes);
* **eviction** runs under a non-blocking ``fcntl`` advisory lock on
  ``.lock`` — at most one evictor at a time, and a reader that loses
  the race to an unlink just misses (cold rebuild, by design).
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import zlib
from pathlib import Path

from ..engine.stats import STATS
from ..faults.plane import maybe_inject
from ..formats.serialize import carrier_deserialize
from ..internals import config

__all__ = ["WarmStore"]

_ENTRY_MAGIC = b"RWST"
_ENTRY_VERSION = 1
_ENTRY_PREFIX = struct.Struct("<4sHII")  # magic, version, crc32, hdrlen
_ENTRY_SUFFIX = ".grb"

#: Per-process temp-name disambiguator (plus the pid, so processes
#: sharing a store never stage into each other's temp files).
_TMP_COUNTER = itertools.count()


class WarmStore:
    """Digest-keyed carrier entries + one calibration sidecar, on disk.

    Every method is total: filesystem errors, corrupt bytes, and
    injected ``store.*`` faults degrade to a miss (``get``), a skipped
    persist (``put``), or a skipped save — the warm-start tier can make
    a process faster, never incorrect or broken.
    """

    def __init__(self, root: str):
        self.root = Path(root)
        self.entries_dir = self.root / "entries"

    # -- entries --------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}{_ENTRY_SUFFIX}"

    def contains(self, key: str) -> bool:
        """Cheap existence probe (no decode, no fault site)."""
        try:
            return self._entry_path(key).exists()
        except OSError:
            return False

    def get(self, key: str):
        """The ``(carrier, cost_ms)`` stored under *key*, or ``None``.

        A hit refreshes the entry's atime (the LRU eviction signal —
        explicitly, since many filesystems mount ``noatime``).
        """
        path = self._entry_path(key)
        try:
            maybe_inject("store.read", key=key)
        except Exception:
            # An injected read fault is a miss, not corruption: the
            # cold-rebuild path below the memo handles it.
            STATS.bump("store_misses")
            return None
        try:
            data = path.read_bytes()
        except OSError:
            STATS.bump("store_misses")
            return None
        try:
            if len(data) < _ENTRY_PREFIX.size:
                raise ValueError("entry truncated")
            magic, version, crc, hdrlen = _ENTRY_PREFIX.unpack_from(data, 0)
            if magic != _ENTRY_MAGIC or version != _ENTRY_VERSION:
                raise ValueError("entry envelope unrecognized")
            payload = data[_ENTRY_PREFIX.size:]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise ValueError("entry checksum mismatch")
            if hdrlen > len(payload):
                raise ValueError("entry header truncated")
            header = json.loads(payload[:hdrlen].decode())
            if not isinstance(header, dict):
                raise ValueError("entry header not an object")
            carrier = carrier_deserialize(payload[hdrlen:])
            cost_ms = max(0.0, float(header.get("cost_ms", 0.0)))
        except Exception as exc:
            self._quarantine(path, exc)
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        STATS.bump("store_hits")
        STATS.instant("store:hit", "store",
                      {"key": key, "cost_ms": round(cost_ms, 6)})
        return carrier, cost_ms

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """A corrupt entry degrades to a miss: count it, trace it, and
        drop the bytes so the next probe is a clean miss."""
        STATS.bump("store_corrupt")
        STATS.bump("store_misses")
        STATS.instant("store:corrupt", "store",
                      {"entry": path.name, "error": str(exc)[:200]})
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, blob: bytes, cost_ms: float = 0.0) -> bool:
        """Persist a serialized carrier under *key* (atomic; idempotent
        for content-addressed keys).  Returns whether the entry is now
        on disk — ``False`` means the store-behind was skipped, which
        is always safe."""
        path = self._entry_path(key)
        tmp = None
        try:
            maybe_inject("store.write", key=key)
            if path.exists():
                return True
            header = json.dumps(
                {"cost_ms": round(max(0.0, float(cost_ms)), 6)},
                separators=(",", ":"),
            ).encode()
            payload = header + bytes(blob)
            crc = zlib.crc32(payload) & 0xFFFFFFFF
            framed = _ENTRY_PREFIX.pack(
                _ENTRY_MAGIC, _ENTRY_VERSION, crc, len(header)
            ) + payload
            self.entries_dir.mkdir(parents=True, exist_ok=True)
            tmp = self.entries_dir / (
                f".tmp-{os.getpid()}-{next(_TMP_COUNTER)}-{key}"
            )
            tmp.write_bytes(framed)
            os.replace(tmp, path)
        except Exception:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            return False
        STATS.bump("store_stores")
        self.evict()
        return True

    # -- LRU-by-atime eviction ------------------------------------------------

    def evict(self, max_bytes: int | None = None) -> int:
        """Delete least-recently-used entries until the store fits the
        byte budget; returns how many entries were evicted.

        Runs under a *non-blocking* advisory lock — when another
        process is already evicting, this one skips (the budget is
        eventually enforced, and blocking a hot-path ``put`` on a
        sibling's unlink loop would be worse).
        """
        if max_bytes is None:
            max_bytes = int(config.get_option("STORE_MAX_BYTES"))
        if max_bytes <= 0:
            return 0
        try:
            entries = [
                (p, p.stat())
                for p in self.entries_dir.glob(f"*{_ENTRY_SUFFIX}")
            ]
        except OSError:
            return 0
        total = sum(st.st_size for _, st in entries)
        if total <= max_bytes:
            return 0
        evicted = 0
        lock_fd = None
        try:
            import fcntl

            self.root.mkdir(parents=True, exist_ok=True)
            lock_fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return 0  # a sibling evictor holds the lock
            entries.sort(key=lambda e: e[1].st_atime)
            for path, st in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= st.st_size
                evicted += 1
        except Exception:
            pass
        finally:
            if lock_fd is not None:
                try:
                    os.close(lock_fd)
                except OSError:
                    pass
        if evicted:
            STATS.bump("store_evictions", evicted)
            STATS.instant("store:evict", "store",
                          {"evicted": evicted, "kept_bytes": int(total),
                           "max_bytes": int(max_bytes)})
        return evicted

    def total_bytes(self) -> int:
        """Bytes currently held by store entries (best effort)."""
        try:
            return sum(
                p.stat().st_size
                for p in self.entries_dir.glob(f"*{_ENTRY_SUFFIX}")
            )
        except OSError:
            return 0

    def entry_count(self) -> int:
        try:
            return sum(
                1 for _ in self.entries_dir.glob(f"*{_ENTRY_SUFFIX}")
            )
        except OSError:
            return 0
