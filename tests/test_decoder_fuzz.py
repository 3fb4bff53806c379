"""Every decoder either decodes a byte string or raises an EsfError.

The inputs are random bytes, TLV streams with known and unknown tags, and
valid encodings with one byte changed or the tail cut off, so the fuzzing
reaches the field checks behind the framing, not only the first one.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from esf import recordio, wire
from esf.errors import EsfError, FormatError, TruncationError
from esf.pipeline import Batch
from esf.util import crc32c, tlv_iter, tlv_pack

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def decodes_or_raises_esf_error(decode, data):
    try:
        decode(data)
    except EsfError:
        pass


def tlv_streams(tags):
    fields = st.tuples(st.sampled_from(tags),
                       st.one_of(st.binary(max_size=24),
                                 st.integers(0, 2**32 - 1).map(lambda v: struct.pack("<I", v)),
                                 st.integers(0, 2**32 - 1).map(
                                     lambda v: struct.pack("<III", v, 1, 1))))
    return st.lists(fields, max_size=8).map(
        lambda fs: b"".join(tlv_pack(tag, value) for tag, value in fs))


@st.composite
def mutated(draw, valid: bytes):
    """valid with one byte replaced, or cut short, or both."""
    data = bytearray(valid)
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


def a_batch() -> Batch:
    return Batch(np.arange(12, dtype=np.float32).reshape(2, 3, 2),
                 np.array([3, 2], dtype=np.int32),
                 np.array([[4, 5], [6, 0]], dtype=np.int32),
                 np.array([2, 1], dtype=np.int32), ["utt-a", "utt-b"])


def a_record() -> recordio.UtteranceRecord:
    return recordio.UtteranceRecord("utt-1", 16000, np.arange(-3, 5, dtype=np.int16),
                                    "hello", [("speaker", "s1")])


BATCH_PAYLOAD = tlv_pack(wire.TAG_ORDINAL, struct.pack("<Q", 7)) + wire.encode_batch(a_batch())
RECORD_PAYLOAD = recordio.encode_record(a_record())
FRAMES = (wire.encode_batch_frame(3, a_batch())
          + wire.encode_frame(wire.MsgType.STATS, b'{"epoch": 0}'))

batch_payloads = st.one_of(st.binary(max_size=64), tlv_streams(list(range(10))),
                           mutated(BATCH_PAYLOAD))
record_payloads = st.one_of(st.binary(max_size=64), tlv_streams(list(range(7))),
                            mutated(RECORD_PAYLOAD))


@FUZZ
@given(st.one_of(st.binary(max_size=64), tlv_streams(list(range(256))),
                 mutated(BATCH_PAYLOAD)))
def test_tlv_iter_fuzz(data):
    decodes_or_raises_esf_error(lambda d: list(tlv_iter(d)), data)


@FUZZ
@given(batch_payloads)
def test_decode_batch_fuzz(data):
    decodes_or_raises_esf_error(wire.decode_batch, data)


@FUZZ
@given(record_payloads)
def test_decode_record_fuzz(data):
    decodes_or_raises_esf_error(recordio.decode_record, data)


def read_all_frames(data: bytes):
    reader = wire.FrameReader(io.BytesIO(data).readinto)
    while reader.read_frame() is not None:
        pass


@FUZZ
@given(st.one_of(st.binary(max_size=64), mutated(FRAMES),
                 st.binary(max_size=16).map(lambda b: wire.MAGIC + b)))
def test_read_frame_fuzz(data):
    decodes_or_raises_esf_error(read_all_frames, data)


@st.composite
def shard_frames(draw):
    """Frames whose length fields carry a valid CRC, so the payload is read."""
    out = b""
    for _ in range(draw(st.integers(0, 3))):
        payload = draw(record_payloads)
        claimed = draw(st.one_of(st.just(len(payload)), st.integers(0, 2**64 - 1)))
        length = struct.pack("<Q", claimed)
        out += length + struct.pack("<I", crc32c(length)) + payload
        if draw(st.booleans()):
            out += struct.pack("<I", crc32c(payload))
    return out + draw(st.binary(max_size=8))


@FUZZ
@given(st.one_of(st.binary(max_size=64), shard_frames()))
def test_read_shard_fuzz(tmp_path, data):
    path = tmp_path / "fuzz.esrd"
    path.write_bytes(recordio.MAGIC + bytes([recordio.VERSION]) + data)
    decodes_or_raises_esf_error(lambda p: list(recordio.read_shard(p)), str(path))


def test_fuzz_inputs_include_valid_encodings():
    # the unmutated encodings decode, so the fuzzing starts from real bytes
    ordinal, batch = wire.decode_batch(BATCH_PAYLOAD)
    assert ordinal == 7 and wire.batches_equal(batch, a_batch())
    rec, want = recordio.decode_record(RECORD_PAYLOAD), a_record()
    assert (rec.utt_id, rec.sample_rate, rec.transcript, rec.metadata) == (
        want.utt_id, want.sample_rate, want.transcript, want.metadata)
    np.testing.assert_array_equal(rec.samples, want.samples)
    reader = wire.FrameReader(io.BytesIO(FRAMES).readinto)
    types = [frame[0] for frame in iter(reader.read_frame, None)]
    assert types == [wire.MsgType.BATCH, wire.MsgType.STATS]


@pytest.mark.parametrize("payload", [
    tlv_pack(wire.TAG_FEATURES, b"abc"),
    tlv_pack(wire.TAG_ORDINAL, b"abc"),
    tlv_pack(wire.TAG_FEATURE_DIMS, b"\x01\x00\x00\x00"),
    tlv_pack(wire.TAG_UTT_ID, b"\xff\xfe"),
], ids=["ragged-features", "short-ordinal", "short-dims", "utt-id-not-utf8"])
def test_decode_batch_malformed_fields_are_format_errors(payload):
    with pytest.raises(FormatError):
        wire.decode_batch(payload)


def record_payload(utt_id=b"u", sample_rate=16000, transcript=b""):
    return (tlv_pack(recordio.TAG_UTT_ID, utt_id)
            + tlv_pack(recordio.TAG_SAMPLE_RATE, struct.pack("<I", sample_rate))
            + tlv_pack(recordio.TAG_TRANSCRIPT, transcript))


@pytest.mark.parametrize("payload", [
    record_payload(utt_id=b"\xc3"),
    record_payload(transcript=b"\x80"),
    record_payload(sample_rate=0),
    record_payload(utt_id=b""),
    tlv_pack(recordio.TAG_METADATA, struct.pack("<I", 1) + b"\xffv"),
], ids=["utt-id-not-utf8", "transcript-not-utf8", "zero-rate", "empty-id",
        "metadata-not-utf8"])
def test_decode_record_malformed_fields_are_format_errors(payload):
    with pytest.raises(FormatError):
        recordio.decode_record(payload)


def test_read_shard_refuses_a_length_past_the_end_before_reading(tmp_path):
    length = struct.pack("<Q", 2**62)
    path = tmp_path / "huge.esrd"
    path.write_bytes(recordio.MAGIC + bytes([recordio.VERSION]) + length
                     + struct.pack("<I", crc32c(length)) + b"x" * 10)
    with pytest.raises(TruncationError):
        list(recordio.read_shard(str(path)))
