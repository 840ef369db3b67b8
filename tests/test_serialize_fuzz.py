"""Serialization fuzzing: mutated blobs never crash, never corrupt.

Security/robustness property of the §VII-B opaque stream: any byte
mutation either still deserializes to a *valid* object (checksum
collision — astronomically unlikely but defined) or raises
``InvalidObjectError``.  It must never raise anything else, never
segfault-style explode, and never return an object that fails its own
invariant check.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidObjectError
from repro.formats import (
    matrix_deserialize,
    matrix_serialize,
    vector_deserialize,
    vector_serialize,
)
from repro.validate import check_object

from .helpers import mat_from_dict, vec_from_dict

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

A_D = {(0, 0): 1.5, (1, 2): -2.25, (3, 1): 4.0, (3, 3): 0.5}


def _blob() -> bytes:
    return matrix_serialize(mat_from_dict(A_D, 4, 4))


class TestMutationFuzz:
    @SETTINGS
    @given(data=st.data())
    def test_single_byte_flip(self, data):
        blob = bytearray(_blob())
        pos = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[pos] ^= 1 << bit
        try:
            out = matrix_deserialize(bytes(blob))
        except InvalidObjectError:
            return
        check_object(out)   # if accepted, it must be internally valid

    @SETTINGS
    @given(cut=st.integers(0, 200))
    def test_truncation(self, cut):
        blob = _blob()
        prefix = blob[: min(cut, len(blob) - 1)]
        with pytest.raises(InvalidObjectError):
            matrix_deserialize(prefix)

    @SETTINGS
    @given(junk=st.binary(min_size=0, max_size=300))
    def test_arbitrary_bytes(self, junk):
        try:
            out = matrix_deserialize(junk)
        except InvalidObjectError:
            return
        check_object(out)

    @SETTINGS
    @given(extra=st.binary(min_size=1, max_size=50))
    def test_trailing_garbage_detected(self, extra):
        """Appending bytes breaks the checksum: detected."""
        blob = _blob() + extra
        with pytest.raises(InvalidObjectError):
            matrix_deserialize(blob)

    @SETTINGS
    @given(data=st.data())
    def test_vector_blob_mutations(self, data):
        blob = bytearray(vector_serialize(vec_from_dict({1: 2.5, 4: 7.0}, 8)))
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
        try:
            out = vector_deserialize(bytes(blob))
        except InvalidObjectError:
            return
        check_object(out)

    def test_cross_kind_confusion_rejected(self):
        v_blob = vector_serialize(vec_from_dict({0: 1.0}, 2))
        m_blob = _blob()
        with pytest.raises(InvalidObjectError):
            matrix_deserialize(v_blob)
        with pytest.raises(InvalidObjectError):
            vector_deserialize(m_blob)


# ---------------------------------------------------------------------------
# Durability-plane records (checkpoint blobs + write-ahead journal)
# ---------------------------------------------------------------------------

class TestJournalRecordFuzz:
    """The journal's framing must honour the same contract as §VII
    blobs: any byte mutation either parses to an intact record or is
    rejected — in strict mode with ``InvalidObjectError``, in replay
    mode by stopping at the frame (torn-tail semantics).  Never any
    other exception, never a half-parsed record."""

    @staticmethod
    def _record() -> bytes:
        from repro.serve.recovery import OP_MUTATE, pack_record

        import numpy as np

        body = (np.arange(3, dtype=np.int64).tobytes()
                + np.arange(3, dtype=np.int64).tobytes()
                + np.ones(3).tobytes())
        return pack_record(
            OP_MUTATE, {"graph": "g", "n": 3, "vtype": "FP64", "seq": 7}, body
        )

    @SETTINGS
    @given(data=st.data())
    def test_single_byte_flip(self, data):
        from repro.serve.recovery import iter_records

        blob = bytearray(self._record())
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
        try:
            out = list(iter_records(bytes(blob), strict=True))
        except InvalidObjectError:
            # Replay mode must degrade to a clean stop, not an error.
            assert list(iter_records(bytes(blob))) == []
            return
        # Checksum collision survivors must still be whole records.
        for op, header, body in out:
            assert isinstance(header, dict)
            assert isinstance(body, bytes)

    @SETTINGS
    @given(cut=st.integers(0, 120))
    def test_truncation_is_torn_tail(self, cut):
        from repro.serve.recovery import iter_records

        blob = self._record()
        prefix = blob[: min(cut, len(blob) - 1)]
        assert list(iter_records(prefix)) == []
        if prefix:
            with pytest.raises(InvalidObjectError):
                list(iter_records(prefix, strict=True))

    @SETTINGS
    @given(junk=st.binary(min_size=0, max_size=200))
    def test_arbitrary_bytes_never_crash(self, junk):
        from repro.serve.recovery import iter_records

        list(iter_records(junk))   # must not raise in replay mode
        try:
            list(iter_records(junk, strict=True))
        except InvalidObjectError:
            pass

    def test_journal_round_trip_after_checkpoint_blob(self, tmp_path):
        """End-to-end: a carrier serialized as a checkpoint blob and a
        journal record wrapping it survive a file round trip."""
        from repro.formats.serialize import (
            blob_digest,
            carrier_deserialize,
            carrier_serialize,
        )
        from repro.serve.recovery import OP_REGISTER, iter_records, pack_record

        carrier = mat_from_dict(A_D, 4, 4)._capture()
        blob = carrier_serialize(carrier)
        rec = pack_record(
            OP_REGISTER, {"graph": "g", "digest": blob_digest(blob), "seq": 1},
            blob,
        )
        path = tmp_path / "journal.rjl"
        path.write_bytes(rec)
        [(op, header, body)] = list(iter_records(path.read_bytes()))
        assert op == OP_REGISTER
        assert header["digest"] == blob_digest(body)
        out = carrier_deserialize(body)
        assert out.nvals == carrier.nvals


class TestGoldenJournal:
    """A committed golden journal fixture: the on-disk format is a
    compatibility surface — if this test breaks, the format changed
    and needs a version bump, not a fixture refresh."""

    GOLDEN = "data/golden_journal_v1.rjl"

    def test_golden_fixture_replays(self):
        import pathlib

        from repro.serve.recovery import OP_MUTATE, OP_REGISTER, iter_records

        blob = (pathlib.Path(__file__).parent / self.GOLDEN).read_bytes()
        records = list(iter_records(blob, strict=True))
        assert [op for op, _, _ in records] == [OP_REGISTER, OP_MUTATE]
        reg_header = records[0][1]
        assert reg_header["graph"] == "g" and reg_header["seq"] == 1
        from repro.formats.serialize import carrier_deserialize

        carrier = carrier_deserialize(records[0][2])
        assert (carrier.nrows, carrier.ncols, carrier.nvals) == (4, 4, 4)
        mut_header = records[1][1]
        assert mut_header["vtype"] == "FP64" and mut_header["n"] == 2

    def test_golden_fixture_is_previous_version(self):
        """The journal fixture's embedded carrier blob predates the
        hypersparse tier (stream version 2): loading it IS the
        old-version canary — v3 writers must keep reading v2 blobs."""
        import pathlib

        from repro.formats.serialize import _PREFIX
        from repro.serve.recovery import iter_records

        blob = (pathlib.Path(__file__).parent / self.GOLDEN).read_bytes()
        records = list(iter_records(blob, strict=True))
        version = _PREFIX.unpack_from(records[0][2], 0)[1]
        assert version == 2


class TestGoldenDcsr:
    """Committed v3 hypersparse blob: the DCSR wire section (kind 3,
    ``nrr`` header, compressed row list) is a compatibility surface
    from this version on — a break needs a version bump, not a fixture
    refresh."""

    GOLDEN = "data/golden_dcsr_v3.bin"

    def test_golden_dcsr_fixture_loads(self):
        import pathlib

        from repro.formats.serialize import (
            _KIND_DCSR_MATRIX,
            _PREFIX,
            carrier_deserialize,
            carrier_serialize,
        )

        blob = (pathlib.Path(__file__).parent / self.GOLDEN).read_bytes()
        magic, version, kind, _, _, _ = _PREFIX.unpack_from(blob, 0)
        assert version == 3 and kind == _KIND_DCSR_MATRIX
        d = carrier_deserialize(blob)
        assert d.row_ids is not None
        assert (d.nrows, d.ncols, d.nvals) == (1 << 40, 16, 6)
        assert d.row_ids.tolist() == [3, 1 << 20, 1 << 35, (1 << 40) - 1]
        assert d.values.tolist() == [1.5, -2.25, 3.0, 0.5, 4.0, -8.125]
        # Writer determinism: re-encoding reproduces the fixture bytes.
        assert carrier_serialize(d) == blob

    def test_dcsr_blob_mutations_never_crash(self):
        """The fuzz contract extends to the new kind: any single-byte
        flip either still decodes to a valid carrier or raises
        INVALID_OBJECT."""
        import pathlib

        from repro.formats.serialize import carrier_deserialize

        blob = (pathlib.Path(__file__).parent / self.GOLDEN).read_bytes()
        for pos in range(len(blob)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0x41
            try:
                out = carrier_deserialize(bytes(mutated))
            except InvalidObjectError:
                continue
            out.check()
