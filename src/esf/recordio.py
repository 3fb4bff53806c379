"""Sharded binary storage of utterance records.

File layout (bit-exact external interface):
  header: 4-byte magic "ESRD", u8 version (1)
  frame:  u64 LE payload length, u32 LE CRC32C of those 8 length bytes,
          payload, u32 LE CRC32C of the payload
Payloads are tag-length-value encoded (u8 tag, u32 LE length, bytes);
readers skip unknown tags.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CorruptionError, FormatError, TruncationError
from .util import crc32c, round_robin, tlv_iter, tlv_pack, tlv_struct, tlv_text

MAGIC = b"ESRD"
VERSION = 1
FRAME_OVERHEAD = 16  # 8 length + 4 length CRC + 4 payload CRC

TAG_UTT_ID = 1
TAG_SAMPLE_RATE = 2
TAG_SAMPLES = 3
TAG_TRANSCRIPT = 4
TAG_METADATA = 5

PCM_SCALE = 32768.0
_SAMPLE_RATE = struct.Struct("<I")


@dataclass
class UtteranceRecord:
    """One stored utterance: id, 16-bit PCM audio, transcript, metadata."""

    utt_id: str
    sample_rate: int
    samples: np.ndarray  # int16
    transcript: str = ""
    metadata: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        if not self.utt_id:
            raise ValueError("utt_id must be non-empty")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=np.int16)

    def float_samples(self) -> np.ndarray:
        """Samples as float64 in [-1, 1), dividing by 32768."""
        return self.samples.astype(np.float64) / PCM_SCALE

    @classmethod
    def from_float(cls, utt_id: str, sample_rate: int, samples: np.ndarray,
                   transcript: str = "",
                   metadata: list[tuple[str, str]] | None = None) -> "UtteranceRecord":
        pcm = np.clip(np.rint(np.asarray(samples, dtype=np.float64) * PCM_SCALE),
                      -32768, 32767).astype(np.int16)
        return cls(utt_id, sample_rate, pcm, transcript, metadata or [])


@dataclass
class ShardSet:
    """An ordered list of shard files; record i lives in shard i mod num_shards."""

    shard_paths: list[str]

    @property
    def num_shards(self) -> int:
        return len(self.shard_paths)


def encode_record(rec: UtteranceRecord) -> bytes:
    parts = [
        tlv_pack(TAG_UTT_ID, rec.utt_id.encode("utf-8")),
        tlv_pack(TAG_SAMPLE_RATE, _SAMPLE_RATE.pack(rec.sample_rate)),
        tlv_pack(TAG_SAMPLES, rec.samples.astype("<i2").tobytes()),
        tlv_pack(TAG_TRANSCRIPT, rec.transcript.encode("utf-8")),
    ]
    for key, value in rec.metadata:
        kb = key.encode("utf-8")
        vb = value.encode("utf-8")
        parts.append(tlv_pack(TAG_METADATA, struct.pack("<I", len(kb)) + kb + vb))
    return b"".join(parts)


def decode_record(payload: bytes) -> UtteranceRecord:
    """Parse a record payload; any malformed payload raises FormatError."""
    utt_id = None
    sample_rate = None
    samples = np.zeros(0, dtype=np.int16)
    transcript = ""
    metadata: list[tuple[str, str]] = []
    for tag, value in tlv_iter(payload):
        if tag == TAG_UTT_ID:
            utt_id = tlv_text(value, "utt_id")
        elif tag == TAG_SAMPLE_RATE:
            (sample_rate,) = tlv_struct(_SAMPLE_RATE, value, "sample_rate")
        elif tag == TAG_SAMPLES:
            if len(value) % 2:
                raise FormatError("PCM field has odd byte length")
            samples = np.frombuffer(value, dtype="<i2").astype(np.int16)
        elif tag == TAG_TRANSCRIPT:
            transcript = tlv_text(value, "transcript")
        elif tag == TAG_METADATA:
            if len(value) < 4:
                raise FormatError("metadata field too short")
            klen = struct.unpack_from("<I", value)[0]
            if 4 + klen > len(value):
                raise FormatError("metadata key overruns field")
            metadata.append((tlv_text(value[4:4 + klen], "metadata key"),
                             tlv_text(value[4 + klen:], "metadata value")))
        # unknown tags are skipped for forward compatibility
    if utt_id is None or sample_rate is None:
        raise FormatError("record payload missing utt_id or sample_rate")
    try:
        return UtteranceRecord(utt_id, sample_rate, samples, transcript, metadata)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_frame(fh, payload: bytes) -> None:
    length = struct.pack("<Q", len(payload))
    fh.write(length)
    fh.write(struct.pack("<I", crc32c(length)))
    fh.write(payload)
    fh.write(struct.pack("<I", crc32c(payload)))


def format_shard_path(path_pattern: str, shard: int) -> str:
    path = path_pattern.format(shard=shard)
    if path == path_pattern.format(shard=shard + 1):
        raise ValueError(
            f"path_pattern must contain a {{shard}} placeholder: {path_pattern!r}")
    return path


def write_shards(records: Iterable[UtteranceRecord], num_shards: int,
                 path_pattern: str) -> ShardSet:
    """Write records round-robin into num_shards files.

    Record i is appended to shard i mod num_shards; within a shard the file
    order equals input order.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    paths = [format_shard_path(path_pattern, i) for i in range(num_shards)]
    files = []
    try:
        for p in paths:
            fh = open(p, "wb")
            fh.write(MAGIC)
            fh.write(bytes([VERSION]))
            files.append(fh)
        for i, rec in enumerate(records):
            write_frame(files[i % num_shards], encode_record(rec))
    finally:
        for fh in files:
            fh.close()
    return ShardSet(paths)


def read_shard(path: str) -> Iterator[UtteranceRecord]:
    """Yield records from one shard in file order, verifying both CRCs.

    Raises CorruptionError (with byte offset) on a CRC mismatch,
    TruncationError on a frame cut short or a length past the end of the
    file, FormatError on a bad header or record. Records before the damage
    are still yielded.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(5)
        if len(header) < 5 or header[:4] != MAGIC:
            raise FormatError(f"{path}: not a shard file (bad magic)")
        if header[4] != VERSION:
            raise FormatError(f"{path}: unsupported shard version {header[4]}")
        offset = 5
        while True:
            length_bytes = fh.read(8)
            if not length_bytes:
                return
            if len(length_bytes) < 8:
                raise TruncationError(f"{path}: truncated length at byte {offset}")
            stored = fh.read(4)
            if len(stored) < 4:
                raise TruncationError(f"{path}: truncated length CRC at byte {offset}")
            if struct.unpack("<I", stored)[0] != crc32c(length_bytes):
                raise CorruptionError(
                    f"{path}: length CRC mismatch at byte {offset}", offset=offset)
            (length,) = struct.unpack("<Q", length_bytes)
            if length > size - fh.tell():  # before reading: length may be huge
                raise TruncationError(f"{path}: truncated payload at byte {offset}")
            payload = fh.read(length)
            stored = fh.read(4)
            if len(stored) < 4:
                raise TruncationError(f"{path}: truncated payload CRC at byte {offset}")
            if struct.unpack("<I", stored)[0] != crc32c(payload):
                raise CorruptionError(
                    f"{path}: payload CRC mismatch at byte {offset}", offset=offset)
            yield decode_record(payload)
            offset += FRAME_OVERHEAD + length


def read_all(shards: ShardSet | Sequence[str]) -> list[UtteranceRecord]:
    """All records of a shard set, re-merged into original round-robin order.

    Shards are read round-robin, one record each per round, until every
    shard is exhausted, so shards of any sizes lose no record.
    """
    paths = shards.shard_paths if isinstance(shards, ShardSet) else shards
    return list(round_robin(read_shard(p) for p in paths))
