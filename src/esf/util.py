"""Shared helpers: CRC32C, a stable 64-bit hash, tag-length-value packing, and
a round-robin merge of iterables."""

from __future__ import annotations

import hashlib
import itertools
import struct
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError

# CRC32C, vectorised with numpy. The CRC register is linear over GF(2), so
# with a zero initial register the CRC of a message is the XOR of one table
# entry per byte: the CRC of that byte followed by the zero bytes after it.
# Messages are cut into 256-byte blocks (left-padded with zeros, which leave
# a zero-initialised CRC unchanged); each block's CRC is one gather from the
# position tables plus an XOR reduction, and the blocks are folded pairwise
# with "advance by 256 * 2**k zero bytes" operators, as in zlib's
# crc32_combine. A CRC run from register R equals a CRC run from zero on the
# message with R's bytes, LSB first, XORed into its first four bytes; when the
# message is shorter, the bytes of R it does not reach shift straight into the
# result.

_CRC32C_POLY = 0x82F63B78  # Castagnoli polynomial, reflected form
_U32 = np.dtype("<u4")  # registers are viewed as their 4 bytes, LSB first
_BLOCK = 256
_SLICE_BLOCKS = 256  # 64 KiB per gather keeps its temporaries small
_BYTE_OFFSETS = np.arange(_BLOCK, dtype=np.uint16) * 256


def _fold_bytes(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR over j of table[j, rows[:, j]], for each row of uint8 columns."""
    index = rows + _BYTE_OFFSETS[:rows.shape[1]]
    return np.bitwise_xor.reduce(table.reshape(-1).take(index), axis=1)


def _advance(op: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Apply a 4 x 256 "advance by N zero bytes" operator to registers."""
    return _fold_bytes(op, np.ascontiguousarray(regs, dtype=_U32).view(np.uint8).reshape(-1, 4))


def _crc_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    table = np.arange(256, dtype=_U32)  # CRC of one byte from a zero register
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ _CRC32C_POLY, table >> 1).astype(_U32)

    def one_zero_byte(regs):
        return table[regs & 0xFF] ^ (regs >> 8)

    # positions[p, v]: CRC of byte v followed by 255 - p zero bytes
    positions = np.empty((_BLOCK, 256), dtype=_U32)
    positions[-1] = table
    for p in range(_BLOCK - 2, -1, -1):
        positions[p] = one_zero_byte(positions[p + 1])
    # advance[i]: the operator for 2**i zero bytes; row j acts on byte j
    op = one_zero_byte(np.arange(256, dtype=_U32) << (8 * np.arange(4, dtype=_U32)[:, None]))
    advance = [op]
    for _ in range(63):
        op = _advance(op, op).reshape(4, 256)
        advance.append(op)
    return positions, advance


_POSITIONS, _ADVANCE = _crc_tables()


def crc32c(data, value: int = 0) -> int:
    """CRC32C of a contiguous buffer, optionally continuing from a previous value."""
    buf = np.frombuffer(data, dtype=np.uint8)
    n = buf.size
    nblocks = -(-n // _BLOCK)
    padded = np.zeros(nblocks * _BLOCK, dtype=np.uint8)
    padded[padded.size - n:] = buf
    register = value ^ 0xFFFFFFFF
    k = min(n, 4)
    padded[padded.size - n:padded.size - n + k] ^= np.frombuffer(
        register.to_bytes(4, "little"), dtype=np.uint8)[:k]
    rows = padded.reshape(-1, _BLOCK)
    # leading zero blocks up to a power of two fold away, like the padding
    crcs = np.zeros(1 << max(nblocks - 1, 0).bit_length(), dtype=_U32)
    lead = crcs.size - nblocks
    for i in range(0, nblocks, _SLICE_BLOCKS):
        part = rows[i:i + _SLICE_BLOCKS]
        crcs[lead + i:lead + i + len(part)] = _fold_bytes(_POSITIONS, part)
    level = 8  # 2**8 = 256 bytes: one block
    while crcs.size > 1:
        crcs = _advance(_ADVANCE[level], crcs[0::2]) ^ crcs[1::2]
        level += 1
    return int(crcs[0]) ^ (register >> 8 * k) ^ 0xFFFFFFFF


def hash64(*parts: int) -> int:
    """Stable 64-bit hash of a tuple of integers.

    Identical across processes and platforms (unlike builtin hash), so it is
    safe to use for reproducible per-record seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(struct.pack("<Q", p & 0xFFFFFFFFFFFFFFFF))
    return int.from_bytes(h.digest(), "little")


def round_robin(sources: Iterable[Iterable], cycle_length: int | None = None) -> Iterator:
    """One item from each live source in turn, until every source is exhausted.

    At most cycle_length sources (all if None) are live at once. Sources are
    started in order and only when needed: an exhausted source's place passes
    to the next unstarted one, which continues the same round. Exceptions
    raised by a source propagate.
    """
    pending = iter(sources)
    live = [iter(s) for s in itertools.islice(pending, cycle_length)]
    done = object()
    while live:
        i = 0
        while i < len(live):
            item = next(live[i], done)
            if item is done:
                successor = next(pending, done)
                if successor is done:
                    del live[i]
                else:
                    live[i] = iter(successor)
                continue
            yield item
            i += 1


def tlv_pack(tag: int, data: bytes) -> bytes:
    """One tag-length-value field: u8 tag, u32 LE length, payload."""
    return struct.pack("<BI", tag, len(data)) + data


def tlv_iter(buf) -> Iterator[tuple[int, memoryview]]:
    """Yield (tag, value) fields from a TLV-encoded buffer.

    Values are memoryview slices of buf, not copies. Raises FormatError on a
    field that overruns the buffer.
    """
    view = memoryview(buf)
    pos = 0
    end = len(view)
    while pos < end:
        if end - pos < 5:
            raise FormatError(f"dangling TLV header at byte {pos}")
        tag, length = struct.unpack_from("<BI", view, pos)
        pos += 5
        if end - pos < length:
            raise FormatError(f"TLV field overruns buffer at byte {pos}")
        yield tag, view[pos:pos + length]
        pos += length


def tlv_text(value, field: str) -> str:
    """A TLV field's bytes (any buffer) as UTF-8 text; FormatError if they are not."""
    try:
        return str(value, "utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{field} field is not UTF-8") from None


def tlv_struct(layout: struct.Struct, value, field: str) -> tuple:
    """A fixed-size TLV field unpacked; FormatError if its length is wrong."""
    if len(value) != layout.size:
        raise FormatError(f"{field} field must be {layout.size} bytes, got {len(value)}")
    return layout.unpack(value)
