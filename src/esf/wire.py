"""Frame and batch codecs for the example-server transport.

Frame layout (bit-exact external interface):
  magic "ESRV", u8 version (1), u8 msg_type, u32 LE payload length,
  payload bytes, u32 LE CRC32C of the payload.

BATCH payloads are tag-length-value encoded with a leading batch ordinal;
features travel as little-endian float32 in row-major B x T x F order.
"""

from __future__ import annotations

import enum
import struct

import numpy as np

from .errors import CorruptionError, FormatError, TruncationError
from .pipeline import Batch
from .util import crc32c, tlv_iter, tlv_pack, tlv_struct, tlv_text

MAGIC = b"ESRV"
VERSION = 1
HEADER_LEN = 10  # magic + version + msg_type + payload_length
MAX_PAYLOAD = 64 * 1024 * 1024
DEFAULT_MAX_CREDITS = 4  # the credit window of a consumer that names none
_HEADER = struct.Struct("<4sBBI")
_ORDINAL = struct.Struct("<Q")
_FEATURE_DIMS = struct.Struct("<III")
_LABEL_DIMS = struct.Struct("<II")
_RECV_BYTES = 64 * 1024  # initial receive buffer; doubles up to the largest frame


class MsgType(enum.IntEnum):
    HELLO = 1
    CREDIT = 2
    BATCH = 3
    STATS = 4
    END = 5
    ERROR = 6


_MSG_TYPES = frozenset(MsgType)

TAG_ORDINAL = 1
TAG_FEATURE_DIMS = 2
TAG_FEATURES = 3
TAG_FEATURE_LENGTHS = 4
TAG_LABEL_DIMS = 5
TAG_LABELS = 6
TAG_LABEL_LENGTHS = 7
TAG_UTT_ID = 8  # repeated, one per example, in batch order


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the 64 MiB limit")
    header = _HEADER.pack(MAGIC, VERSION, int(msg_type), len(payload))
    return b"".join((header, payload, struct.pack("<I", crc32c(payload))))


class FrameReader:
    """Incremental frame parser over a recv_into-like callable.

    recv_into(buffer) fills a writable buffer and returns the number of bytes
    written, 0 at end of stream (socket.recv_into, io readinto). Received
    bytes land in one reused bytearray; only the returned payload is copied.
    """

    def __init__(self, recv_into):
        self._recv_into = recv_into
        self._buf = bytearray(_RECV_BYTES)
        self._start = 0  # first unread byte
        self._end = 0  # end of the received bytes

    @property
    def pending(self) -> bool:
        """Whether received bytes wait to be read."""
        return self._end > self._start

    def _fill(self, n: int) -> bool:
        """Buffer n unread bytes; False on clean EOF at a frame boundary.

        The buffer grows, doubling up to n, only when received bytes fill
        it, so a length that a header claims costs no memory until its
        bytes arrive.
        """
        if self._end - self._start >= n:
            return True
        if self._start + n > len(self._buf):
            # move the unread bytes to the front
            unread = self._end - self._start
            self._buf[:unread] = self._buf[self._start:self._end]
            self._start, self._end = 0, unread
        while self._end - self._start < n:
            if self._end == len(self._buf):  # full, and _start is 0
                buf = bytearray(min(2 * len(self._buf), n))
                buf[:self._end] = self._buf
                self._buf = buf
            got = self._recv_into(memoryview(self._buf)[self._end:])
            if not got:
                if self._end == self._start:
                    return False
                raise TruncationError("connection closed mid-frame")
            self._end += got
        return True

    def read_frame(self) -> tuple[MsgType, bytes] | None:
        """Next (msg_type, payload), or None when the peer closed cleanly."""
        if not self._fill(HEADER_LEN):
            return None
        magic, version, msg_type, length = _HEADER.unpack_from(self._buf, self._start)
        if magic != MAGIC:
            raise FormatError("bad frame magic")
        if version != VERSION:
            raise FormatError(f"unsupported frame version {version}")
        if msg_type not in _MSG_TYPES:
            raise FormatError(f"unknown frame type {msg_type}")
        if length > MAX_PAYLOAD:
            raise FormatError(f"frame payload of {length} bytes exceeds the limit")
        self._start += HEADER_LEN
        if not self._fill(length + 4):
            raise TruncationError("connection closed mid-frame")
        start, self._start = self._start, self._start + length + 4
        payload = memoryview(self._buf)[start:start + length]
        if struct.unpack_from("<I", self._buf, start + length)[0] != crc32c(payload):
            raise CorruptionError("frame payload CRC mismatch")
        # a copy: a view would alias the reused receive buffer
        return MsgType(msg_type), bytes(payload)


def encode_batch(batch: Batch) -> bytes:
    """Canonical batch payload (without the ordinal field)."""
    b, t, f = batch.features.shape
    lb, ll = batch.labels.shape
    parts = [
        tlv_pack(TAG_FEATURE_DIMS, _FEATURE_DIMS.pack(b, t, f)),
        tlv_pack(TAG_FEATURES, np.ascontiguousarray(batch.features, dtype="<f4").tobytes()),
        tlv_pack(TAG_FEATURE_LENGTHS,
                 np.ascontiguousarray(batch.feature_lengths, dtype="<i4").tobytes()),
        tlv_pack(TAG_LABEL_DIMS, _LABEL_DIMS.pack(lb, ll)),
        tlv_pack(TAG_LABELS, np.ascontiguousarray(batch.labels, dtype="<i4").tobytes()),
        tlv_pack(TAG_LABEL_LENGTHS,
                 np.ascontiguousarray(batch.label_lengths, dtype="<i4").tobytes()),
    ]
    for utt_id in batch.utt_ids:
        parts.append(tlv_pack(TAG_UTT_ID, utt_id.encode("utf-8")))
    return b"".join(parts)


def _array32(value: bytes, dtype: str, field: str) -> np.ndarray:
    if len(value) % 4:
        raise FormatError(f"{field} field of {len(value)} bytes is not whole 4-byte values")
    return np.frombuffer(value, dtype=dtype)


def decode_batch(payload: bytes) -> tuple[int | None, Batch]:
    """Parse a batch payload; returns (ordinal or None, batch).

    Any malformed payload raises FormatError, label rows other than the
    batch size and a feature length outside [0, T] or a label length
    outside [0, L] among them.
    """
    ordinal = None
    fdims = ldims = None
    features = flens = labels = llens = None
    utt_ids: list[str] = []
    for tag, value in tlv_iter(payload):
        if tag == TAG_ORDINAL:
            (ordinal,) = tlv_struct(_ORDINAL, value, "ordinal")
        elif tag == TAG_FEATURE_DIMS:
            fdims = tlv_struct(_FEATURE_DIMS, value, "feature dims")
        elif tag == TAG_FEATURES:
            features = _array32(value, "<f4", "features")
        elif tag == TAG_FEATURE_LENGTHS:
            flens = _array32(value, "<i4", "feature lengths")
        elif tag == TAG_LABEL_DIMS:
            ldims = tlv_struct(_LABEL_DIMS, value, "label dims")
        elif tag == TAG_LABELS:
            labels = _array32(value, "<i4", "labels")
        elif tag == TAG_LABEL_LENGTHS:
            llens = _array32(value, "<i4", "label lengths")
        elif tag == TAG_UTT_ID:
            utt_ids.append(tlv_text(value, "utt id"))
    if fdims is None or features is None or flens is None:
        raise FormatError("batch payload missing feature fields")
    if ldims is None or labels is None or llens is None:
        raise FormatError("batch payload missing label fields")
    b, t, f = fdims
    if features.size != b * t * f:
        raise FormatError("feature tensor size does not match its dims")
    if labels.size != ldims[0] * ldims[1]:
        raise FormatError("label tensor size does not match its dims")
    if len(utt_ids) != b or flens.size != b or llens.size != b or ldims[0] != b:
        raise FormatError("per-example field counts do not match batch size")
    # Python ints: numpy's per-call overhead outweighs a batch's few lengths
    if not all(0 <= n <= t for n in flens.tolist()):
        raise FormatError(f"a feature length lies outside [0, {t}]")
    if not all(0 <= n <= ldims[1] for n in llens.tolist()):
        raise FormatError(f"a label length lies outside [0, {ldims[1]}]")
    batch = Batch(
        features.reshape(b, t, f).astype(np.float32),
        flens.astype(np.int32),
        labels.reshape(ldims).astype(np.int32),
        llens.astype(np.int32),
        utt_ids,
    )
    return ordinal, batch


def encode_batch_frame(ordinal: int, batch: Batch) -> bytes:
    payload = tlv_pack(TAG_ORDINAL, _ORDINAL.pack(ordinal)) + encode_batch(batch)
    return encode_frame(MsgType.BATCH, payload)


def batches_equal(a: Batch, b: Batch) -> bool:
    return (a.utt_ids == b.utt_ids
            and a.features.shape == b.features.shape
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.feature_lengths, b.feature_lengths)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.label_lengths, b.label_lengths))
