"""Opaque serialization of GraphBLAS containers (§VII-B).

The byte stream is deliberately *opaque*: the spec allows each
implementation its own encoding (ours is versioned, checksummed, and
compact) and only guarantees that the same implementation can
deserialize what it serialized.  The three-call protocol mirrors C:

1. ``matrix_serialize_size(A)`` — bytes needed for the buffer;
2. ``matrix_serialize(A, buf)`` — fill a user buffer (or return fresh
   bytes when ``buf`` is ``None``); a too-small buffer is the
   INSUFFICIENT_SPACE error;
3. ``matrix_deserialize(data)`` — reconstruct; corruption and
   version/type mismatches raise INVALID_OBJECT.

Layout (little-endian):

    magic(4) | version(u16) | kind(u8) | flags(u8) | crc32(u32)
    | header-length(u32) | header(json) | payload arrays

The checksum covers the kind/flags bytes *and* the payload, so no
single-field corruption can redirect decoding (fuzz-tested).  Values of
user-defined types are refused — UDT payloads are arbitrary Python
objects, and shipping them through an opaque byte stream would require
pickle, which must never run on untrusted input.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from ..core.context import Context
from ..core.errors import InsufficientSpaceError, InvalidObjectError
from ..core.matrix import Matrix
from ..core.types import Type, from_name
from ..core.vector import Vector
from ..internals.containers import MatData, VecData

__all__ = [
    "matrix_serialize_size",
    "matrix_serialize",
    "matrix_deserialize",
    "vector_serialize_size",
    "vector_serialize",
    "vector_deserialize",
    "carrier_serialize",
    "carrier_deserialize",
    "blob_digest",
    "SERIALIZATION_VERSION",
]

_MAGIC = b"RGRB"
# v2: CSR matrix + vector kinds.  v3 adds the row-list matrix kind
# (tagged section with a compressed row pointer); v2 blobs still load,
# so checkpoints taken before the hypersparse form replay as-is.
_VERSION = 3
_SUPPORTED_VERSIONS = frozenset({2, 3})
#: Public alias of the current stream version — part of every
#: warm-start store key (:mod:`repro.store`), so bumping the format
#: silently invalidates every persisted entry instead of asking an old
#: blob to deserialize under new rules.
SERIALIZATION_VERSION = _VERSION
_KIND_MATRIX = 1
_KIND_VECTOR = 2
_KIND_DCSR_MATRIX = 3

_PREFIX = struct.Struct("<4sHBBII")  # magic, version, kind, flags, crc, hdrlen


def _encode_values(t: Type, values: np.ndarray) -> tuple[bytes, int]:
    if t.is_udt or values.dtype == object:
        raise InvalidObjectError(
            "user-defined-type values do not serialize (opaque streams "
            "must never require unpickling untrusted data); use "
            "import/export with your own encoding instead"
        )
    return np.ascontiguousarray(values).tobytes(), 0


def _decode_values(t: Type, raw: bytes, n: int, flags: int) -> np.ndarray:
    expected = n * t.np_dtype.itemsize
    if len(raw) < expected:
        raise InvalidObjectError("serialized values truncated")
    return np.frombuffer(raw, dtype=t.np_dtype, count=n).copy()


def _pack(kind: int, header: dict, arrays: list[bytes], flags: int) -> bytes:
    hdr = json.dumps(header, separators=(",", ":")).encode()
    payload = hdr + b"".join(arrays)
    # The checksum covers kind + flags + payload so no field flip can
    # redirect decoding undetected.
    crc = zlib.crc32(bytes([kind, flags]) + payload) & 0xFFFFFFFF
    return _PREFIX.pack(_MAGIC, _VERSION, kind, flags, crc, len(hdr)) + payload


def _unpack(data: bytes, expect_kind: int) -> tuple[dict, bytes, int]:
    if len(data) < _PREFIX.size:
        raise InvalidObjectError("serialized stream truncated")
    magic, version, kind, flags, crc, hdrlen = _PREFIX.unpack_from(data, 0)
    if magic != _MAGIC:
        raise InvalidObjectError("not a serialized GraphBLAS object")
    if version not in _SUPPORTED_VERSIONS:
        raise InvalidObjectError(
            f"serialization version {version} not in supported "
            f"{sorted(_SUPPORTED_VERSIONS)}"
        )
    payload = bytes(data[_PREFIX.size:])
    if (zlib.crc32(bytes([kind, flags]) + payload) & 0xFFFFFFFF) != crc:
        raise InvalidObjectError("serialized stream corrupt (checksum)")
    if kind != expect_kind:
        raise InvalidObjectError("serialized object kind mismatch")
    try:
        header = json.loads(payload[:hdrlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidObjectError(f"serialized header corrupt: {exc}") from None
    if not isinstance(header, dict):
        raise InvalidObjectError("serialized header corrupt (not an object)")
    return header, payload[hdrlen:], flags


def _resolve_type(header: dict) -> Type:
    try:
        return from_name(header["type"])
    except Exception as exc:
        raise InvalidObjectError(f"serialized header invalid: {exc}") from None


def _header_int(header: dict, key: str, lo: int = 0) -> int:
    """Fetch a non-negative integer header field, defensively.

    Reachable only from *crafted* blobs (mutations fail the checksum
    first), but crafted input must still get INVALID_OBJECT, never a
    stray TypeError.
    """
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        raise InvalidObjectError(f"serialized header field {key!r} invalid")
    return value


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------

def _mat_data_blob(d: MatData) -> bytes:
    """Kind 1 for the dense-pointer form; kind 3 for a row list — its
    header carries ``nrr`` (count of nonempty rows) and the payload
    ships the row list ahead of the compressed pointer: O(nnz) bytes
    regardless of ``nrows``, which can exceed 2^32."""
    vals, flags = _encode_values(d.type, d.values)
    header = {
        "type": d.type.name,
        "nrows": d.nrows,
        "ncols": d.ncols,
        "nvals": d.nvals,
    }
    arrays = [
        np.ascontiguousarray(d.indptr).tobytes(),
        np.ascontiguousarray(d.col_indices).tobytes(),
        vals,
    ]
    if d.row_ids is None:
        kind = _KIND_MATRIX
        header["indptr_len"] = len(d.indptr)
    else:
        kind = _KIND_DCSR_MATRIX
        header["nrr"] = len(d.row_ids)
        arrays.insert(0, np.ascontiguousarray(d.row_ids).tobytes())
    header["values_len"] = len(vals)
    return _pack(kind, header, arrays, flags)


def matrix_serialize_size(A: Matrix) -> int:
    """``GrB_Matrix_serializeSize`` — bytes needed for the blob."""
    return len(_mat_data_blob(A._capture()))


def matrix_serialize(A: Matrix, buf: bytearray | None = None) -> bytes:
    """``GrB_Matrix_serialize`` — into ``buf`` or a fresh bytes object."""
    blob = _mat_data_blob(A._capture())
    if buf is None:
        return blob
    if len(buf) < len(blob):
        raise InsufficientSpaceError(
            f"buffer has {len(buf)} bytes, need {len(blob)}"
        )
    buf[: len(blob)] = blob
    return bytes(buf[: len(blob)])


def matrix_deserialize(data: bytes, ctx: Context | None = None) -> Matrix:
    """``GrB_Matrix_deserialize`` — reconstruct a matrix from a blob."""
    return Matrix.from_data(_mat_data_from(data), ctx)


def _mat_data_from(data: bytes) -> MatData:
    """Either matrix section, chosen by the self-identifying kind byte
    (still covered by the checksum — a flipped kind byte is corruption,
    not a format switch)."""
    row_list = len(data) >= _PREFIX.size and \
        _PREFIX.unpack_from(data, 0)[2] == _KIND_DCSR_MATRIX
    header, body, flags = _unpack(
        data, _KIND_DCSR_MATRIX if row_list else _KIND_MATRIX)
    t = _resolve_type(header)
    nrows = _header_int(header, "nrows")
    ncols = _header_int(header, "ncols")
    nvals = _header_int(header, "nvals")
    if row_list:
        nrr = _header_int(header, "nrr")
        ilen = nrr + 1
    else:
        nrr = 0
        ilen = _header_int(header, "indptr_len")
    vlen = _header_int(header, "values_len")
    if (nrr + ilen + nvals) * 8 + vlen > len(body):
        raise InvalidObjectError("serialized matrix body truncated")
    off = 0
    row_ids = None
    if row_list:
        row_ids = np.frombuffer(body, dtype=np.int64, count=nrr, offset=off).copy()
        off += nrr * 8
    indptr = np.frombuffer(body, dtype=np.int64, count=ilen, offset=off).copy()
    off += ilen * 8
    cols = np.frombuffer(body, dtype=np.int64, count=nvals, offset=off).copy()
    off += nvals * 8
    values = _decode_values(t, body[off: off + vlen], nvals, flags)
    data_ = MatData(nrows, ncols, t, indptr, cols, values, row_ids)
    try:
        data_.check()
    except AssertionError as exc:
        raise InvalidObjectError(f"deserialized matrix invalid: {exc}") from None
    return data_


# ---------------------------------------------------------------------------
# Vector
# ---------------------------------------------------------------------------

def _vector_blob(u: Vector) -> bytes:
    return _vec_data_blob(u._capture())


def _vec_data_blob(d: VecData) -> bytes:
    if d.type.is_udt:
        raise InvalidObjectError(
            "user-defined types serialize only within one process image"
        )
    vals, flags = _encode_values(d.type, d.values)
    header = {
        "type": d.type.name,
        "size": d.size,
        "nvals": d.nvals,
        "values_len": len(vals),
    }
    arrays = [np.ascontiguousarray(d.indices).tobytes(), vals]
    return _pack(_KIND_VECTOR, header, arrays, flags)


def vector_serialize_size(u: Vector) -> int:
    """``GrB_Vector_serializeSize``."""
    return len(_vector_blob(u))


def vector_serialize(u: Vector, buf: bytearray | None = None) -> bytes:
    """``GrB_Vector_serialize``."""
    blob = _vector_blob(u)
    if buf is None:
        return blob
    if len(buf) < len(blob):
        raise InsufficientSpaceError(
            f"buffer has {len(buf)} bytes, need {len(blob)}"
        )
    buf[: len(blob)] = blob
    return bytes(buf[: len(blob)])


def vector_deserialize(data: bytes, ctx: Context | None = None) -> Vector:
    """``GrB_Vector_deserialize``."""
    return Vector.from_data(_vec_data_from(data), ctx)


def _vec_data_from(data: bytes) -> VecData:
    header, body, flags = _unpack(data, _KIND_VECTOR)
    t = _resolve_type(header)
    size = _header_int(header, "size")
    nvals = _header_int(header, "nvals")
    vlen = _header_int(header, "values_len")
    if nvals * 8 + vlen > len(body):
        raise InvalidObjectError("serialized vector body truncated")
    indices = np.frombuffer(body, dtype=np.int64, count=nvals).copy()
    values = _decode_values(t, body[nvals * 8: nvals * 8 + vlen], nvals, flags)
    data_ = VecData(size, t, indices, values)
    try:
        data_.check()
    except AssertionError as exc:
        raise InvalidObjectError(f"deserialized vector invalid: {exc}") from None
    return data_


# ---------------------------------------------------------------------------
# Carriers (the durability plane's handle-free entry points)
# ---------------------------------------------------------------------------

def carrier_serialize(d: MatData | VecData) -> bytes:
    """Serialize a committed carrier directly (no handle, no context).

    Same opaque §VII stream as :func:`matrix_serialize` /
    :func:`vector_serialize` — a checkpoint blob of a resident graph is
    byte-identical to serializing a handle wrapping the same carrier.
    """
    if isinstance(d, MatData):
        return _mat_data_blob(d)
    if isinstance(d, VecData):
        return _vec_data_blob(d)
    raise InvalidObjectError(
        f"cannot serialize carrier of type {type(d).__name__}"
    )


def carrier_deserialize(data: bytes) -> MatData | VecData:
    """Reconstruct a carrier from a §VII stream (kind self-identified)."""
    if len(data) >= _PREFIX.size:
        kind = _PREFIX.unpack_from(data, 0)[2]
        if kind == _KIND_VECTOR:
            return _vec_data_from(data)
    return _mat_data_from(data)


def blob_digest(blob: bytes) -> str:
    """Content digest of a serialized blob (checkpoint store keys)."""
    import hashlib

    return hashlib.blake2b(blob, digest_size=16).hexdigest()
