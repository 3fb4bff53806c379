"""Shared helpers: CRC32C, a stable 64-bit hash, tag-length-value packing, and
a round-robin merge of iterables.

CRC32C runs in one C kernel, crc32c.c (slicing-by-8, no intrinsics), which
this module compiles with Python's C compiler on first import and caches in
__pycache__. The kernel runs four independent streams over each group of
four adjacent 4 KiB blocks and folds them into one CRC with a table that
shifts a register across a block of zero bytes; inputs under one group run
one stream. On one core of a 2-vCPU Intel Xeon box (Python 3.11.7, numpy
2.4.6) it checks 2.3–4.5 GB/s (0.40–0.22 ms/MB), as the shared box's load
swings, against 1.7 GB/s (0.57 ms/MB) for one stream; a call on a few bytes
costs about 1.5 µs.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import os
import shlex
import struct
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError

_SOURCE = Path(__file__).with_name("crc32c.c")


def _load_kernel(cache_dir: Path, compiler: list[str]) -> ctypes.CDLL:
    """The CRC32C kernel built from crc32c.c, compiling it on first use.

    The library is named after a hash of the source and the compile command
    and written under a temporary name, then renamed into place, so processes
    that start at once may each build it and none loads a partial file. If
    cache_dir cannot be written, the library is built in a temporary
    directory for this process alone. Raises ImportError when the compiler
    fails, with its command and stderr.
    """
    flags = ["-O2", "-shared", "-fPIC"]
    key = hashlib.sha256(_SOURCE.read_bytes() + "\0".join(compiler + flags).encode())
    target = cache_dir / f"crc32c-{key.hexdigest()[:16]}.so"
    with contextlib.ExitStack() as stack:
        if not target.exists():
            with contextlib.suppress(OSError):
                cache_dir.mkdir(exist_ok=True)
            if not os.access(cache_dir, os.W_OK):  # a read-only install
                tmp = stack.enter_context(tempfile.TemporaryDirectory(ignore_cleanup_errors=True))
                target = Path(tmp) / target.name
            partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            command = [*compiler, *flags, "-o", str(partial), str(_SOURCE)]
            try:
                result = subprocess.run(command, capture_output=True, text=True)
            except OSError as exc:  # no compiler at all
                raise ImportError(f"esf needs a C compiler: {shlex.join(command)}: {exc}") from None
            if result.returncode != 0:
                partial.unlink(missing_ok=True)
                raise ImportError(f"esf could not build its CRC32C kernel: {shlex.join(command)} "
                                  f"exited with {result.returncode}:\n{result.stderr}")
            os.replace(partial, target)
        lib = ctypes.CDLL(str(target))  # stays mapped once a temporary file is removed
    lib.esf_crc32c_init.argtypes = ()
    lib.esf_crc32c_init.restype = None
    lib.esf_crc32c.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    lib.esf_crc32c.restype = ctypes.c_uint32
    lib.esf_crc32c_init()
    return lib


_COMPILER = shlex.split(sysconfig.get_config_var("CC") or "cc")
_crc32c = _load_kernel(Path(__file__).with_name("__pycache__"), _COMPILER).esf_crc32c


def crc32c(data, value: int = 0) -> int:
    """CRC32C of a contiguous buffer, optionally continuing from a previous value.

    Runs in C without the GIL. Buffers other than bytes are held exported for
    the call, so a bytearray cannot be resized under it; a non-contiguous
    buffer raises BufferError.
    """
    if type(data) is bytes:  # immutable, so its own pointer is safe to pass
        return _crc32c(value, data, len(data))
    view = np.frombuffer(data, dtype=np.uint8)
    return _crc32c(value, view.ctypes.data, view.size)


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
