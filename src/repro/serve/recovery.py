"""Durability plane: checkpoint store + write-ahead journal (§VII).

A :class:`CheckpointStore` gives a :class:`~repro.serve.service.
GraphService` crash-durable state under one directory::

    <dir>/
      MANIFEST.json          versioned index: graphs, warm data, journal
      blobs/<digest>.grb     one §VII stream per distinct graph carrier
      blocks/<digest>.grb    warm algo-memo block carriers (optional)
      journal-<gen>.rjl      write-ahead journal of acknowledged writes

Every blob is the exact opaque stream ``formats/serialize.py`` produces
(versioned, checksummed), keyed by its content digest — identical
carriers dedupe, and a digest mismatch on load is detected before a
byte of graph data is trusted.

**Write-ahead journal.**  Mutations (and registrations) append one
framed record — ``magic | version | op | flags | crc32 | header-length
| body-length | json header | binary body`` — and are flushed (and, by
default, fsynced: ``JOURNAL_FSYNC``) *before* the in-memory publish,
so an acknowledged write is always recoverable.  Replay is
``journal-over-snapshot``: load the manifest's blobs, then apply the
current journal's records in sequence order.  A torn tail (crash mid-
append) parses as end-of-journal — everything before it was acked and
survives; the torn record was never acked.  Records are idempotent
upserts, so a write that was journaled but crashed before its ack
replays harmlessly (at-least-once).

**Checkpoint = compaction.**  ``write_checkpoint`` snapshots every
resident carrier into blobs, writes the manifest atomically
(tmp + rename), and rotates to a fresh journal generation — the old
journal's effects are folded into the snapshot.  A crash at any point
leaves either the old (manifest, journal) pair or the new one, never a
mix, because the manifest names the journal generation it pairs with.

**Warm data.**  Checkpoints optionally carry the service's memoized
algorithm blocks (keyed by graph + block kind + params, stored as
§VII carrier streams), so a restored replica starts with a warm cache.

Crash-kill chaos: ``journal.append`` / ``journal.commit`` /
``checkpoint.write`` / ``restore.replay`` are fault-plane sites, so a
``kind="crash"`` schedule can kill the "process" at every durability
boundary and the recovery harness can prove parity.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ..core.errors import InvalidObjectError, InvalidValueError
from ..core.types import from_name
from ..engine.memo import patch_block
from ..engine.stats import STATS
from ..faults.plane import maybe_inject
from ..formats.serialize import blob_digest, carrier_deserialize, carrier_serialize
from ..internals import config
from ..internals.containers import mat_from_coo
from ..internals.stream import apply_delta, build_delta

__all__ = [
    "CheckpointStore",
    "RestoreState",
    "apply_edges",
    "carry_blocks",
    "pack_record",
    "iter_records",
    "OP_REGISTER",
    "OP_MUTATE",
]

#: Journal record framing (little-endian):
#: magic(4) | version(u16) | op(u8) | flags(u8) | crc32(u32)
#: | header-length(u32) | body-length(u32) | header(json) | body
_JMAGIC = b"RJNL"
_JVERSION = 1
_JPREFIX = struct.Struct("<4sHBBIII")

#: Manifest format version (drift fails loudly on load).
MANIFEST_FORMAT = 1

OP_REGISTER = 1   # body = §VII graph blob
OP_MUTATE = 2     # body = rows:int64[] | cols:int64[] | values:vtype[]

_OPS = (OP_REGISTER, OP_MUTATE)


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------

def pack_record(op: int, header: dict, body: bytes = b"") -> bytes:
    """Frame one journal record (checksum covers op+flags+header+body)."""
    if op not in _OPS:
        raise InvalidValueError(f"unknown journal op {op!r}")
    hdr = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    crc = zlib.crc32(bytes([op, 0]) + hdr + body) & 0xFFFFFFFF
    return _JPREFIX.pack(
        _JMAGIC, _JVERSION, op, 0, crc, len(hdr), len(body)
    ) + hdr + body


def _unpack_record(data: bytes, off: int) -> tuple[int, dict, bytes, int]:
    """Decode the record at *off*; returns (op, header, body, next_off).

    Raises :class:`InvalidObjectError` on any corruption — callers
    decide whether that means "torn tail, stop replay" or "reject".
    """
    if off + _JPREFIX.size > len(data):
        raise InvalidObjectError("journal record truncated (prefix)")
    magic, version, op, flags, crc, hlen, blen = _JPREFIX.unpack_from(data, off)
    if magic != _JMAGIC:
        raise InvalidObjectError("not a journal record (magic)")
    if version != _JVERSION:
        raise InvalidObjectError(
            f"journal version {version} != supported {_JVERSION}"
        )
    start = off + _JPREFIX.size
    end = start + hlen + blen
    if end > len(data):
        raise InvalidObjectError("journal record truncated (payload)")
    hdr_raw = bytes(data[start:start + hlen])
    body = bytes(data[start + hlen:end])
    if (zlib.crc32(bytes([op, flags]) + hdr_raw + body) & 0xFFFFFFFF) != crc:
        raise InvalidObjectError("journal record corrupt (checksum)")
    if op not in _OPS:
        raise InvalidObjectError(f"journal record has unknown op {op}")
    try:
        header = json.loads(hdr_raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidObjectError(f"journal header corrupt: {exc}") from None
    if not isinstance(header, dict):
        raise InvalidObjectError("journal header corrupt (not an object)")
    return op, header, body, end


def iter_records(
    data: bytes, *, strict: bool = False
) -> Iterator[tuple[int, dict, bytes]]:
    """Yield ``(op, header, body)`` for each intact record in *data*.

    Non-strict (replay) mode treats the first corrupt/truncated record
    as the journal's torn tail and stops — everything framed before it
    was durably acked.  ``strict=True`` (fuzz/validation) raises
    instead.
    """
    off = 0
    while off < len(data):
        try:
            op, header, body, off = _unpack_record(data, off)
        except InvalidObjectError:
            if strict:
                raise
            return
        yield op, header, body


# ---------------------------------------------------------------------------
# Mutations as pure carrier transforms
# ---------------------------------------------------------------------------

def apply_edges(d, rows, cols, vals):
    """Upsert a batch of weighted edges into a committed carrier.

    Pure and deterministic — the *same function* runs on the live write
    path and on journal replay, which is what makes a restored replica
    bit-identical to one that never crashed.  Last write wins on
    duplicates (within the delta and against the existing entries).
    The output format follows the deterministic
    :func:`~repro.internals.containers.choose_mat_format` policy, so a
    hypersparse tenant graph stays hypersparse through replay.

    The merge runs through the :mod:`~repro.internals.stream` delta
    kernel: only the batch itself is sorted (O(d log d)), the existing
    entries are shifted positionally — not the old concatenate-and-
    lexsort over the full COO stream, which charged O(nnz log nnz) per
    mutation no matter how small the batch.
    """
    return _merge_delta(d, build_delta(d, rows, cols, vals))


def _merge_delta(d, delta):
    if delta.n == 0:
        # Replay determinism: an empty batch still re-packs through the
        # format policy exactly like the pre-delta implementation did.
        return mat_from_coo(
            d.nrows, d.ncols, d.type,
            d.row_indices(), d.col_indices, d.values, presorted=True,
        )
    out = apply_delta(d, delta)
    out.check()
    return out


def carry_blocks(blocks: dict, graph: str, delta) -> None:
    """Advance the checkpointed warm blocks of *graph* across one write.

    *blocks* maps ``(graph, kind, params)`` to ``(carrier, cost_ms)``
    and describes the graph as it was when the blocks were built; a
    write that leaves them alone makes them wrong (a stale ``pattern``
    block answers pagerank for a graph that no longer exists).  Each
    block goes through the memo's own delta rule
    (:func:`repro.engine.memo.patch_block` — what a live tenant's
    blocks went through for the same write) and is dropped when there
    is none.  ``delta=None`` is a full replacement: everything drops.
    """
    for key in [k for k in blocks if k[0] == graph]:
        carrier, cost_ms = blocks.pop(key)
        if delta is not None:
            carrier = patch_block(key[1], carrier, key[2], delta)
            if carrier is not None:
                blocks[key] = (carrier, cost_ms)


def _tuplify(value):
    """JSON round-trip turns tuples into lists; undo it recursively so
    rehydrated memo keys compare equal to freshly built ones."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class RestoreState:
    """What a checkpoint directory restores to: carriers + warm data."""

    def __init__(self) -> None:
        self.graphs: dict[str, Any] = {}        # name -> carrier
        self.blocks: dict[tuple, tuple] = {}    # (graph, kind, params) ->
        #                                         (carrier, cost_ms)
        self.replayed = 0


class CheckpointStore:
    """Digest-keyed snapshot blobs + a generational write-ahead journal."""

    def __init__(self, directory: str | os.PathLike, *, fsync: bool | None = None):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "blobs").mkdir(exist_ok=True)
        (self.dir / "blocks").mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._fsync = fsync
        self._gen = 0
        self._seq = 0
        self._fh = None
        manifest = self._read_manifest()
        if manifest is not None:
            self._gen = int(manifest.get("gen", 0))
            self._seq = int(manifest.get("seq", 0))
        # Continue numbering after any records already in the current
        # journal (a restarted replica appends, never overwrites).
        for _, header, _ in iter_records(self._read_journal()):
            self._seq = max(self._seq, int(header.get("seq", 0)))

    # -- paths / manifest -----------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.dir / "MANIFEST.json"

    def journal_path(self, gen: int | None = None) -> Path:
        g = self._gen if gen is None else gen
        return self.dir / f"journal-{g:06d}.rjl"

    def _read_manifest(self) -> dict | None:
        try:
            raw = self.manifest_path.read_text()
        except FileNotFoundError:
            return None
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidObjectError(f"checkpoint manifest corrupt: {exc}") from None
        if not isinstance(manifest, dict) \
                or manifest.get("format") != MANIFEST_FORMAT:
            raise InvalidObjectError(
                f"checkpoint manifest format "
                f"{manifest.get('format') if isinstance(manifest, dict) else '?'} "
                f"!= supported {MANIFEST_FORMAT}"
            )
        return manifest

    def _read_journal(self, gen: int | None = None) -> bytes:
        try:
            return self.journal_path(gen).read_bytes()
        except FileNotFoundError:
            return b""

    def has_state(self) -> bool:
        """True when the directory holds a restorable manifest."""
        return self.manifest_path.exists()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- journal writes -------------------------------------------------------

    def _journal_fh(self):
        # Caller holds self._lock.
        if self._fh is None:
            self._fh = open(self.journal_path(), "ab")
        return self._fh

    def _append(self, op: int, header: dict, body: bytes) -> int:
        with self._lock:
            self._seq += 1
            header = dict(header, seq=self._seq)
            record = pack_record(op, header, body)
            # Crash before the write: the record never existed and the
            # write was never acknowledged — nothing to recover.
            maybe_inject("journal.append", op=op, seq=self._seq)
            fh = self._journal_fh()
            fh.write(record)
            fh.flush()
            fsync = self._fsync
            if fsync is None:
                fsync = bool(config.get_option("JOURNAL_FSYNC"))
            if fsync:
                os.fsync(fh.fileno())
            # Crash after the flush but before the ack: the record is
            # durable and will replay (idempotent upsert, at-least-once).
            maybe_inject("journal.commit", op=op, seq=self._seq)
            STATS.bump("journal_appends")
            return self._seq

    def journal_register(self, name: str, blob: bytes) -> int:
        """WAL a graph registration (the full §VII blob rides along)."""
        return self._append(
            OP_REGISTER, {"graph": name, "digest": blob_digest(blob)}, blob
        )

    def journal_mutate(self, name: str, rows, cols, vals, vtype: str) -> int:
        """WAL one edge-upsert batch against graph *name*."""
        r = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
        c = np.ascontiguousarray(np.asarray(cols, dtype=np.int64))
        v = np.ascontiguousarray(
            np.asarray(vals, dtype=from_name(vtype).np_dtype)
        )
        header = {"graph": name, "n": int(len(r)), "vtype": vtype}
        body = r.tobytes() + c.tobytes() + v.tobytes()
        return self._append(OP_MUTATE, header, body)

    # -- checkpoint (compaction) ----------------------------------------------

    def _write_blob(self, subdir: str, blob: bytes) -> str:
        digest = blob_digest(blob)
        path = self.dir / subdir / f"{digest}.grb"
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        return digest

    def write_checkpoint(
        self,
        graphs: dict[str, Any],
        *,
        blocks: dict[tuple, tuple] | None = None,
        service: str = "svc",
    ) -> dict:
        """Snapshot *graphs* (name → carrier), rotate the journal.

        ``blocks`` maps ``(graph, kind, params)`` to ``(carrier,
        cost_ms)`` — the warm algo-memo payload.  Returns the manifest.
        """
        with self._lock:
            new_gen = self._gen + 1
            maybe_inject("checkpoint.write", gen=new_gen)
            graph_index: dict[str, dict] = {}
            for name, carrier in graphs.items():
                blob = carrier_serialize(carrier)
                digest = self._write_blob("blobs", blob)
                graph_index[name] = {
                    "digest": digest,
                    "nrows": carrier.nrows,
                    "ncols": carrier.ncols,
                    "nvals": carrier.nvals,
                }
            block_index: list[dict] = []
            for (gname, kind, params), (carrier, cost_ms) in (blocks or {}).items():
                if gname not in graph_index:
                    continue
                try:
                    # Round-trip now: params with non-JSON members (or a
                    # UDT carrier) make this one block unpersistable,
                    # never the whole checkpoint.
                    params_json = json.loads(json.dumps(list(params)))
                    blob = carrier_serialize(carrier)
                except (TypeError, ValueError, InvalidObjectError):
                    continue
                digest = self._write_blob("blocks", blob)
                block_index.append({
                    "graph": gname, "kind": kind, "params": params_json,
                    "digest": digest, "cost_ms": round(float(cost_ms), 6),
                })
            manifest = {
                "format": MANIFEST_FORMAT,
                "service": service,
                "gen": new_gen,
                "seq": self._seq,
                "journal": self.journal_path(new_gen).name,
                "graphs": graph_index,
                "blocks": block_index,
            }
            # New (empty) journal first, manifest rename second: a crash
            # in between leaves the old manifest paired with the old
            # journal — still a consistent restore point.
            self.journal_path(new_gen).touch()
            tmp = self.manifest_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
            os.replace(tmp, self.manifest_path)
            old = self.journal_path(self._gen)
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            self._gen = new_gen
            if old != self.journal_path() and old.exists():
                old.unlink()
            STATS.bump("checkpoints_written")
            return manifest

    # -- restore --------------------------------------------------------------

    def _load_blob(self, subdir: str, digest: str):
        path = self.dir / subdir / f"{digest}.grb"
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise InvalidObjectError(
                f"checkpoint blob {digest} missing from {subdir}/"
            ) from None
        if blob_digest(blob) != digest:
            raise InvalidObjectError(
                f"checkpoint blob {digest} fails its digest"
            )
        return carrier_deserialize(blob)

    def load(self) -> RestoreState:
        """Snapshot + journal replay → the state an open service had.

        Pure data: the caller (``GraphService.restore``) publishes the
        carriers; this layer never touches contexts or handles.
        """
        state = RestoreState()
        manifest = self._read_manifest()
        if manifest is not None:
            for name, meta in manifest.get("graphs", {}).items():
                state.graphs[name] = self._load_blob("blobs", meta["digest"])
            for meta in manifest.get("blocks", []):
                try:
                    carrier = self._load_blob("blocks", meta["digest"])
                except InvalidObjectError:
                    continue  # warm data is best-effort, never fatal
                key = (meta["graph"], meta["kind"], _tuplify(meta["params"]))
                state.blocks[key] = (carrier, float(meta.get("cost_ms", 0.0)))
        for op, header, body in iter_records(self._read_journal()):
            maybe_inject("restore.replay", op=op, seq=header.get("seq"))
            name = header.get("graph")
            if not isinstance(name, str):
                continue
            if op == OP_REGISTER:
                state.graphs[name] = carrier_deserialize(body)
                carry_blocks(state.blocks, name, None)
            elif op == OP_MUTATE:
                base = state.graphs.get(name)
                if base is None:
                    continue  # mutation of a graph we never saw register
                n = int(header.get("n", 0))
                t = from_name(header["vtype"])
                if len(body) < 16 * n:
                    raise InvalidObjectError("journal mutate body truncated")
                rows = np.frombuffer(body, dtype=np.int64, count=n)
                cols = np.frombuffer(body, dtype=np.int64, count=n, offset=8 * n)
                vals = np.frombuffer(
                    body, dtype=t.np_dtype, count=n, offset=16 * n
                )
                delta = build_delta(base, rows, cols, vals)
                state.graphs[name] = _merge_delta(base, delta)
                # The blocks describe the snapshot, not the replayed
                # graph: every write must reach them too.
                carry_blocks(state.blocks, name, delta)
            state.replayed += 1
        STATS.bump("journal_replayed", state.replayed)
        return state
