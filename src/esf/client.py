"""Consumer side of the example-server transport.

A background reader thread deserializes incoming batches into a local queue
and the iterating thread grants one credit back per batch it takes, so at
most max_credits batches are ever buffered server-side or in flight. Batches
are immutable after decoding and can be handed to another thread safely.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading

from .errors import CorruptionError, DeliveryError, EsfError, TruncationError
from .pipeline import Batch
from .wire import FrameReader, MsgType, decode_batch, encode_frame

_END = object()


class Consumer:
    """Iterable over the batches of one server connection."""

    def __init__(self, host: str, port: int, *, max_credits: int = 4,
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
        # credits go out on their own thread: the send syscall wakes the
        # server, whose send-plus-produce burst would otherwise preempt the
        # consumer on a busy host before sendall returns
        self._credit_queue: queue.Queue = queue.Queue()
        self._credit_thread = threading.Thread(
            target=self._credit_loop, daemon=True, name="esf-consumer-credit")
        self._credit_thread.start()

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

    def _credit_loop(self) -> None:
        while True:
            grant = self._credit_queue.get()
            if grant is None:
                return
            try:
                self._send(encode_frame(MsgType.CREDIT, struct.pack("<I", grant)))
            except OSError:
                return  # stream already complete or connection gone

    def _reader_loop(self, reader: FrameReader) -> None:
        try:
            self._reader_loop_inner(reader)
        finally:
            self._first_item.set()

    def _reader_loop_inner(self, reader: FrameReader) -> None:
        try:
            while True:
                frame = reader.read_frame()
                if frame is None:
                    self._batches.put(DeliveryError(
                        f"connection closed mid-epoch after batch "
                        f"{self.last_ordinal}", last_ordinal=self.last_ordinal))
                    return
                msg_type, payload = frame
                if msg_type == MsgType.BATCH:
                    ordinal, batch = decode_batch(payload)
                    if ordinal is None:
                        raise DeliveryError("batch frame without an ordinal")
                    if self.last_ordinal is not None and ordinal <= self.last_ordinal:
                        raise DeliveryError(
                            f"batch ordinal {ordinal} not increasing after "
                            f"{self.last_ordinal}", last_ordinal=self.last_ordinal)
                    self.last_ordinal = ordinal
                    self._batches.put(batch)
                    self._first_item.set()
                elif msg_type == MsgType.END:
                    self._batches.put(_END)
                    return
                elif msg_type == MsgType.STATS:
                    self._stats.put(json.loads(payload.decode("utf-8")))
                elif msg_type == MsgType.ERROR:
                    message = json.loads(payload.decode("utf-8")).get("message", "")
                    self._batches.put(DeliveryError(
                        f"server error: {message}", last_ordinal=self.last_ordinal))
                    return
        except (CorruptionError, TruncationError) as exc:
            err = DeliveryError(f"{exc} (after batch {self.last_ordinal})",
                                last_ordinal=self.last_ordinal)
            err.__cause__ = exc
            self._batches.put(err)
        except EsfError as exc:
            self._batches.put(exc if isinstance(exc, DeliveryError) else
                              DeliveryError(str(exc), last_ordinal=self.last_ordinal))
        except OSError:
            if not self._closed:
                self._batches.put(DeliveryError(
                    f"socket error after batch {self.last_ordinal}",
                    last_ordinal=self.last_ordinal))
        except Exception as exc:  # e.g. a STATS payload that is not JSON:
            # the stream must still end with an item, or __next__ blocks forever
            err = DeliveryError(f"malformed frame after batch {self.last_ordinal}: "
                                f"{exc!r}", last_ordinal=self.last_ordinal)
            err.__cause__ = exc
            self._batches.put(err)

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        item = self._batches.get()
        if item is _END:
            raise StopIteration
        if isinstance(item, Exception):
            raise item
        self._credit_queue.put(1)  # hand back the slot this batch freed
        return item

    def stats(self, timeout: float = 10.0) -> dict:
        """Round-trip a STATS request: {batches_sent, buffered, epoch, skipped}."""
        self._send(encode_frame(MsgType.STATS, b""))
        return self._stats.get(timeout=timeout)

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the first batch (or the end of stream) has arrived.

        Useful to prime several connections before a timed consumption loop,
        so pipeline warm-up does not masquerade as supply starvation.
        """
        return self._first_item.wait(timeout)

    def close(self) -> None:
        self._closed = True
        self._credit_queue.put(None)
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect_consumer(addr: tuple[str, int] | str, *, max_credits: int = 4,
                     timeout: float | None = 60.0) -> Consumer:
    """Connect to an example server; returns an iterable Consumer handle."""
    if isinstance(addr, str):
        host, port = addr.rsplit(":", 1)
        addr = (host, int(port))
    return Consumer(addr[0], addr[1], max_credits=max_credits, timeout=timeout)
