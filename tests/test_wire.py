"""Wire frames and the batch codec."""

import io
import struct
import tracemalloc

import numpy as np
import pytest

from esf import wire
from esf.errors import CorruptionError, FormatError, TruncationError
from esf.pipeline import Batch


def reader_over(data: bytes) -> wire.FrameReader:
    stream = io.BytesIO(data)
    return wire.FrameReader(stream.readinto)


def random_batch(rng, b=None, t=None, f=None):
    b = b or int(rng.integers(1, 6))
    t = t or int(rng.integers(1, 40))
    f = f or int(rng.integers(1, 12))
    lengths = rng.integers(1, t + 1, b).astype(np.int32)
    lengths[rng.integers(0, b)] = t  # batch max is tight
    l_max = int(rng.integers(1, 10))
    label_lengths = rng.integers(0, l_max + 1, b).astype(np.int32)
    features = np.zeros((b, t, f), dtype=np.float32)
    labels = np.zeros((b, l_max), dtype=np.int32)
    for i in range(b):
        features[i, :lengths[i]] = rng.standard_normal((lengths[i], f)).astype(np.float32)
        labels[i, :label_lengths[i]] = rng.integers(1, 90, label_lengths[i])
    return Batch(features, lengths, labels, label_lengths,
                 [f"utt-{rng.integers(0, 10 ** 6)}" for _ in range(b)])


def test_frame_round_trip():
    payload = b"some payload"
    frame = wire.encode_frame(wire.MsgType.STATS, payload)
    got = reader_over(frame).read_frame()
    assert got == (wire.MsgType.STATS, payload)


def test_frame_clean_eof_is_none():
    assert reader_over(b"").read_frame() is None


def test_frame_bad_magic():
    frame = bytearray(wire.encode_frame(wire.MsgType.END, b""))
    frame[0] ^= 0xFF
    with pytest.raises(FormatError):
        reader_over(bytes(frame)).read_frame()


def test_frame_bad_version():
    frame = bytearray(wire.encode_frame(wire.MsgType.END, b""))
    frame[4] = 9
    with pytest.raises(FormatError):
        reader_over(bytes(frame)).read_frame()


def test_frame_payload_corruption_detected():
    rng = np.random.default_rng(0)
    for trial in range(50):
        payload = rng.integers(0, 256, int(rng.integers(1, 200)),
                               dtype=np.uint8).tobytes()
        frame = bytearray(wire.encode_frame(wire.MsgType.BATCH, payload))
        pos = int(rng.integers(wire.HEADER_LEN, wire.HEADER_LEN + len(payload)))
        frame[pos] ^= 1 << int(rng.integers(0, 8))
        with pytest.raises(CorruptionError):
            reader_over(bytes(frame)).read_frame()


def test_frame_truncation_detected():
    frame = wire.encode_frame(wire.MsgType.BATCH, b"x" * 100)
    with pytest.raises(TruncationError):
        reader_over(frame[:30]).read_frame()


def test_frame_rejects_oversized_claim():
    header = wire.MAGIC + struct.pack("<BBI", wire.VERSION, 3,
                                      wire.MAX_PAYLOAD + 1)
    with pytest.raises(FormatError):
        reader_over(header).read_frame()


def test_frame_unknown_type_is_format_error():
    frame = wire.encode_frame(9, b"payload")
    with pytest.raises(FormatError):
        reader_over(frame).read_frame()


def test_frames_split_across_short_reads():
    # a socket hands over frames in pieces; frames larger than the initial
    # receive buffer make it grow, and a frame may start mid-read
    rng = np.random.default_rng(3)
    payloads = [rng.integers(0, 256, n, dtype=np.uint8).tobytes()
                for n in (0, 5, 70_000, 3, 200_000, 64 * 1024 - 14, 11)]
    source = io.BytesIO(b"".join(wire.encode_frame(wire.MsgType.BATCH, p)
                                 for p in payloads))

    def recv_into(buf):
        return source.readinto(memoryview(buf)[:int(rng.integers(1, 50_000))])

    reader = wire.FrameReader(recv_into)
    assert [reader.read_frame() for _ in payloads] == [
        (wire.MsgType.BATCH, p) for p in payloads]
    assert reader.read_frame() is None


def test_a_claimed_length_costs_no_memory_until_its_bytes_arrive():
    # a header claiming the largest payload, then 10 bytes and end of stream
    header = wire.MAGIC + struct.pack("<BBI", wire.VERSION, wire.MsgType.HELLO,
                                      wire.MAX_PAYLOAD)
    stream = header + b"x" * 10
    assert len(stream) == 20
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            reader_over(stream).read_frame()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_frames_of_one_size_reuse_one_receive_buffer():
    payload = bytes(range(256)) * 800  # 200 KiB, past the initial buffer
    frame = wire.encode_frame(wire.MsgType.BATCH, payload)
    reader = reader_over(frame * 6)
    assert reader.read_frame() == (wire.MsgType.BATCH, payload)
    buf = reader._buf
    for _ in range(5):
        assert reader.read_frame() == (wire.MsgType.BATCH, payload)
    assert reader._buf is buf
    assert reader.read_frame() is None


def test_batch_codec_round_trip_is_canonical():
    rng = np.random.default_rng(42)
    for _ in range(100):
        batch = random_batch(rng)
        blob = wire.encode_batch(batch)
        ordinal, back = wire.decode_batch(blob)
        assert ordinal is None
        assert wire.batches_equal(batch, back)
        assert wire.encode_batch(back) == blob  # bit-exact re-encode


def test_batch_frame_carries_ordinal():
    rng = np.random.default_rng(1)
    batch = random_batch(rng)
    frame = wire.encode_batch_frame(1234, batch)
    msg_type, payload = reader_over(frame).read_frame()
    assert msg_type == wire.MsgType.BATCH
    ordinal, back = wire.decode_batch(payload)
    assert ordinal == 1234
    assert wire.batches_equal(batch, back)


def test_decode_batch_rejects_inconsistent_dims():
    rng = np.random.default_rng(2)
    batch = random_batch(rng)
    blob = wire.encode_batch(batch)
    # corrupt the feature dims field (first TLV): claim one extra frame
    b, t, f = batch.features.shape
    bad = bytearray(blob)
    bad[5:17] = struct.pack("<III", b, t + 1, f)
    with pytest.raises(FormatError):
        wire.decode_batch(bytes(bad))


@pytest.mark.parametrize("field, value", [
    ("feature_lengths", -1), ("feature_lengths", "max+1"),
    ("label_lengths", -1), ("label_lengths", "max+1")])
def test_decode_batch_rejects_lengths_outside_the_padded_tensor(field, value):
    batch = random_batch(np.random.default_rng(4), b=3)
    limit = batch.features.shape[1] if field == "feature_lengths" else batch.labels.shape[1]
    getattr(batch, field)[1] = limit + 1 if value == "max+1" else value
    with pytest.raises(FormatError, match="length lies outside"):
        wire.decode_batch(wire.encode_batch(batch))


def test_decode_batch_rejects_label_rows_other_than_the_batch_size():
    batch = random_batch(np.random.default_rng(6), b=3)
    batch.labels = batch.labels.reshape(1, -1)  # the same label bytes in one row
    with pytest.raises(FormatError, match="batch size"):
        wire.decode_batch(wire.encode_batch(batch))


def test_decode_batch_accepts_lengths_at_both_ends_of_the_padded_tensor():
    batch = random_batch(np.random.default_rng(5), b=2)
    batch.feature_lengths[:] = (0, batch.features.shape[1])
    batch.label_lengths[:] = (batch.labels.shape[1], 0)
    _, back = wire.decode_batch(wire.encode_batch(batch))
    assert wire.batches_equal(batch, back)


def test_encode_frame_rejects_oversized_payload():
    with pytest.raises(ValueError):
        wire.encode_frame(wire.MsgType.BATCH, b"\0" * (wire.MAX_PAYLOAD + 1))
