"""Consumer side of the example-server transport.

One reader thread per connection deserializes incoming batches into a local
queue; the iterating thread sends the credit for each batch it takes, so at
most max_credits batches are ever buffered server-side or in flight. A broken
stream ends with one DeliveryError carrying the last ordinal received.
Batches are immutable after decoding and can be handed to another thread.
"""

from __future__ import annotations

import contextlib
import json
import queue
import socket
import struct
import threading

from .errors import DeliveryError, EsfError
from .pipeline import Batch
from .wire import DEFAULT_MAX_CREDITS, FrameReader, MsgType, decode_batch, encode_frame

_END = object()
_CREDIT_ONE = encode_frame(MsgType.CREDIT, struct.pack("<I", 1))


class Consumer:
    """Iterable over the batches of one server connection."""

    def __init__(self, host: str, port: int, *, max_credits: int = DEFAULT_MAX_CREDITS,
                 timeout: float | None = 60.0):
        if max_credits < 1:
            raise ValueError("max_credits must be >= 1")
        self.max_credits = max_credits
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._write_lock = threading.Lock()
        self._batches: queue.Queue = queue.Queue()
        self._stats: queue.Queue = queue.Queue()
        self._first_item = threading.Event()
        self.last_ordinal: int | None = None
        self._closed = False

        reader = FrameReader(self.sock.recv_into)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.assignment: dict = self._handshake(reader)
            self.sock.settimeout(None)  # timeout bounds the handshake only
        except DeliveryError:
            self.sock.close()
            raise
        except (EsfError, OSError) as exc:  # a bad frame or a socket failure
            self.sock.close()
            raise DeliveryError(f"handshake failed: {exc!r}") from exc
        self._reader_thread = threading.Thread(
            target=self._reader_loop, args=(reader,), daemon=True,
            name="esf-consumer-reader")
        self._reader_thread.start()

    def _handshake(self, reader: FrameReader) -> dict:
        """HELLO, the server's reply, then the initial credit grant.

        Returns the server's assignment object. A refusal and a reply that
        is malformed or unexpected raise DeliveryError.
        """
        self._send(encode_frame(MsgType.HELLO, json.dumps(
            {"version": 1, "max_credits": self.max_credits}).encode("utf-8")))
        frame = reader.read_frame()
        if frame is None:
            raise DeliveryError("server closed during handshake")
        msg_type, payload = frame
        if msg_type not in (MsgType.HELLO, MsgType.ERROR):
            raise DeliveryError(f"expected HELLO reply, got {msg_type.name}")
        try:
            reply = json.loads(payload.decode("utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise DeliveryError(f"malformed {msg_type.name} reply: {exc}") from exc
        if not isinstance(reply, dict):
            raise DeliveryError(f"malformed {msg_type.name} reply: not a JSON object")
        if msg_type == MsgType.ERROR:
            raise DeliveryError(f"server rejected handshake: "
                                f"{reply.get('message', '(no message)')}")
        self._send(encode_frame(MsgType.CREDIT, struct.pack("<I", self.max_credits)))
        return reply

    def _send(self, data: bytes) -> None:
        with self._write_lock:
            self.sock.sendall(data)

    def _reader_loop(self, reader: FrameReader) -> None:
        """Queue each batch, then _END or the one DeliveryError that ends the stream.

        The end goes to the STATS queue as well, so that stats() raises at
        once instead of waiting for a reply that cannot come.
        """
        try:
            while True:
                frame = reader.read_frame()
                if frame is None:
                    raise DeliveryError(
                        f"connection closed mid-epoch after batch {self.last_ordinal}",
                        last_ordinal=self.last_ordinal)
                msg_type, payload = frame
                if msg_type == MsgType.BATCH:
                    ordinal, batch = decode_batch(payload)
                    if ordinal is None:
                        raise EsfError("batch frame without an ordinal")
                    if self.last_ordinal is not None and ordinal <= self.last_ordinal:
                        raise EsfError(f"batch ordinal {ordinal} not increasing")
                    self.last_ordinal = ordinal
                    self._batches.put(batch)
                    self._first_item.set()
                elif msg_type == MsgType.END:
                    end = _END
                    break
                elif msg_type == MsgType.STATS:
                    stats = json.loads(payload.decode("utf-8"))
                    if not isinstance(stats, dict):
                        raise EsfError("STATS payload is not a JSON object")
                    self._stats.put(stats)
                elif msg_type == MsgType.ERROR:
                    message = json.loads(payload.decode("utf-8")).get("message", "")
                    raise DeliveryError(f"server error: {message}",
                                        last_ordinal=self.last_ordinal)
        except Exception as exc:  # the stream must end with an item, or __next__ blocks
            if isinstance(exc, OSError) and self._closed:  # close() shut the socket
                exc = DeliveryError("consumer closed", last_ordinal=self.last_ordinal)
            elif not isinstance(exc, DeliveryError):
                cause = exc
                exc = DeliveryError(f"stream broken after batch {self.last_ordinal}: "
                                    f"{cause!r}", last_ordinal=self.last_ordinal)
                exc.__cause__ = cause
            end = exc
        self._batches.put(end)
        self._stats.put(end)
        self._first_item.set()

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        item = self._batches.get()
        if item is _END or isinstance(item, Exception):
            self._batches.put(item)  # the stream stays ended for every later call
            raise StopIteration if item is _END else item
        # grant back the slot this batch freed; if the socket is gone, the
        # reader reports it on the next call
        with contextlib.suppress(OSError):
            self._send(_CREDIT_ONE)
        return item

    def stats(self, timeout: float = 10.0) -> dict:
        """Round-trip a STATS request: {batches_sent, buffered, epoch, skipped}.

        The server answers after its slot's next batch build, within one
        build of the request's arrival. Raises DeliveryError once the
        stream has ended or broken, and queue.Empty if no reply comes within
        timeout.
        """
        with contextlib.suppress(OSError):  # a broken socket ends the stream, raised below
            self._send(encode_frame(MsgType.STATS, b""))
        item = self._stats.get(timeout=timeout)
        if isinstance(item, dict):
            return item
        self._stats.put(item)  # the stream stays ended for every later call
        if item is _END:
            raise DeliveryError(f"stream ended after batch {self.last_ordinal}",
                                last_ordinal=self.last_ordinal)
        raise item

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the first batch (or the end of stream) has arrived.

        Useful to prime several connections before a timed consumption loop,
        so pipeline warm-up does not masquerade as supply starvation.
        """
        return self._first_item.wait(timeout)

    def close(self) -> None:
        self._closed = True
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect_consumer(addr: tuple[str, int], *, max_credits: int = DEFAULT_MAX_CREDITS,
                     timeout: float | None = 60.0) -> Consumer:
    """Connect to an example server; returns an iterable Consumer handle.

    timeout bounds the connect and the handshake only: once streaming, the
    reader waits without a deadline, so a trainer may hold its credits.
    """
    return Consumer(addr[0], addr[1], max_credits=max_credits, timeout=timeout)
