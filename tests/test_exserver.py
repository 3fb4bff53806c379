"""Example-server transport: flow control, partitioning, failure handling."""

import contextlib
import json
import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest

from esf import server as server_mod
from esf.client import connect_consumer
from esf.errors import DeliveryError, EsfError
from esf.pipeline import Batch, PipelineConfig
from esf.recordio import UtteranceRecord, write_shards
from esf.server import ExampleServer, ServerConfig, launch_servers
from esf.synth import write_synth_corpus
from esf.wire import FrameReader, MsgType, encode_batch_frame, encode_frame


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exserver-corpus")
    shards, vocab = write_synth_corpus(str(tmp), 10, 2, seed=3,
                                       duration_range=(0.1, 0.2))
    return shards, vocab


def make_server(corpus, *, num_pipelines=1, epochs=1, batch_size=2, seed=0):
    shards, vocab = corpus
    pcfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                          batch_size=batch_size, shuffle_buffer=4, seed=seed)
    scfg = ServerConfig(pipeline=pcfg, num_pipelines=num_pipelines, epochs=epochs)
    server = ExampleServer(scfg)
    endpoint = server.start()
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    return server, endpoint, thread


def test_batch_count_then_end(corpus):
    server, endpoint, thread = make_server(corpus)
    consumer = connect_consumer(endpoint)
    batches = list(consumer)
    assert len(batches) == 5  # 10 records, batch 2
    assert sum(b.size for b in batches) == 10
    consumer.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_per_connection_fifo_ordinals(corpus):
    server, endpoint, thread = make_server(corpus)
    consumer = connect_consumer(endpoint)
    list(consumer)
    assert consumer.last_ordinal == 4  # strictly increasing from 0
    consumer.close()
    thread.join(timeout=10)


def raw_hello(endpoint, max_credits=0, version=1):
    sock = socket.create_connection(endpoint, timeout=10)
    hello = {"version": version}
    if max_credits:
        hello["max_credits"] = max_credits
    sock.sendall(encode_frame(MsgType.HELLO, json.dumps(hello).encode()))
    return sock, FrameReader(sock.recv_into)


def test_zero_credits_buffers_at_most_max(corpus):
    # consumer grants nothing; server may buffer at most max_credits batches
    server, endpoint, thread = make_server(corpus)
    k = 2
    sock, reader = raw_hello(endpoint, max_credits=k)
    msg_type, payload = reader.read_frame()
    assert msg_type == MsgType.HELLO
    time.sleep(1.0)  # give the slot thread time to encode its first frame
    for _ in range(5):
        sock.sendall(encode_frame(MsgType.STATS, b""))
        msg_type, payload = reader.read_frame()
        assert msg_type == MsgType.STATS
        stats = json.loads(payload.decode())
        assert stats["batches_sent"] == 0
        assert stats["buffered"] <= k
        time.sleep(0.1)
    # steady state: one frame encoded, waiting for a credit; nothing sent
    assert stats["buffered"] == 1
    sock.close()
    thread.join(timeout=10)


def test_ping_pong_with_single_credit(corpus):
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=1)
    reader.read_frame()  # HELLO reply
    received = 0
    while True:
        sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 1)))
        msg_type, payload = reader.read_frame()
        if msg_type == MsgType.END:
            break
        assert msg_type == MsgType.BATCH
        received += 1
        # without another credit the server must stay quiet: poll STATS
        sock.sendall(encode_frame(MsgType.STATS, b""))
        msg_type, payload = reader.read_frame()
        assert msg_type == MsgType.STATS
        assert json.loads(payload.decode())["batches_sent"] == received
    assert received == 5
    sock.close()
    thread.join(timeout=10)


def test_two_consumers_partition_the_corpus(corpus):
    server, endpoint, thread = make_server(corpus, num_pipelines=2)
    got = [None, None]

    def consume(i):
        with connect_consumer(endpoint) as c:
            ids = []
            for batch in c:
                ids.extend(batch.utt_ids)
            got[i] = ids

    threads = [threading.Thread(target=consume, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    a, b = set(got[0]), set(got[1])
    assert not (a & b)
    assert len(a | b) == 10
    thread.join(timeout=10)


def test_corrupt_inbound_frame_resets_connection(corpus):
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=2)
    reader.read_frame()  # HELLO reply
    bad = bytearray(encode_frame(MsgType.CREDIT, struct.pack("<I", 1)))
    bad[-1] ^= 0xFF  # break the payload CRC
    sock.sendall(bytes(bad))
    # server must drop the connection rather than act on corrupt input
    sock.settimeout(5.0)
    deadline = time.time() + 5.0
    closed = False
    while time.time() < deadline:
        try:
            if sock.recv(4096) == b"":
                closed = True
                break
        except (ConnectionError, socket.timeout):
            closed = True
            break
    assert closed
    sock.close()


def test_credit_grant_above_max_credits_resets_connection(corpus):
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=2)
    reader.read_frame()  # HELLO reply
    sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 2**32 - 1)))
    sock.settimeout(5.0)
    assert reader.read_frame() is None  # closed without sending a batch
    sock.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_credits_held_past_max_credits_reset_the_connection(corpus):
    # each grant alone is within max_credits; together they exceed it
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=2)
    reader.read_frame()  # HELLO reply
    sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 2))
                 + encode_frame(MsgType.CREDIT, struct.pack("<I", 1)))
    sock.settimeout(5.0)
    assert reader.read_frame() is None  # closed without sending a batch
    sock.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_stats_is_answered_within_one_build(corpus, monkeypatch):
    # a slot that holds credits still answers a STATS sent mid-build once
    # that build ends, before the next one starts
    real = server_mod.build_pipeline
    builds = []

    def slow_pipeline(*args, **kwargs):
        for batch in real(*args, **kwargs):
            builds.append(batch)
            time.sleep(0.5)
            yield batch

    real_payload = server_mod._Connection.stats_payload
    builds_at_reply = []

    def recording_payload(self):
        builds_at_reply.append(len(builds))
        return real_payload(self)

    monkeypatch.setattr(server_mod, "build_pipeline", slow_pipeline)
    monkeypatch.setattr(server_mod._Connection, "stats_payload", recording_payload)
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=4)
    reader.read_frame()  # HELLO reply
    sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 4)))
    assert reader.read_frame()[0] == MsgType.BATCH
    sock.sendall(encode_frame(MsgType.STATS, b""))  # batch 1 is being built
    msg_type, payload = reader.read_frame()
    assert msg_type == MsgType.STATS
    assert json.loads(payload.decode())["batches_sent"] == 1
    assert builds_at_reply == [2]
    assert reader.read_frame()[0] == MsgType.BATCH
    sock.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("payload", [b"", b"\x01", b"\x01\x00\x00", b"\x01" + bytes(5)],
                         ids=["0-bytes", "1-byte", "3-bytes", "6-bytes"])
def test_credit_payload_not_4_bytes_resets_connection(corpus, payload):
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=2)
    reader.read_frame()  # HELLO reply
    sock.sendall(encode_frame(MsgType.CREDIT, payload))
    sock.settimeout(5.0)
    assert reader.read_frame() is None  # closed without sending a batch
    sock.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_open_connection_runs_only_its_slot_thread(corpus):
    # the slot's thread builds, encodes and sends, and reads the consumer's
    # frames itself
    before = set(threading.enumerate())
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=2)
    assert reader.read_frame()[0] == MsgType.HELLO
    names = sorted(t.name for t in threading.enumerate()
                   if t not in before and t.name.startswith("esf-"))
    assert names == ["esf-slot-0"]
    sock.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_peer_that_never_closes_cannot_hold_the_slot(corpus, monkeypatch):
    # a peer that reads to END and keeps sending STATS without closing: the
    # close deadline bounds the whole drain, not each read
    monkeypatch.setattr(server_mod, "_CLOSE_TIMEOUT_S", 1.0)
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=1)
    with sock:
        assert reader.read_frame()[0] == MsgType.HELLO
        while True:
            sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 1)))
            if reader.read_frame()[0] == MsgType.END:
                break
        start = time.monotonic()
        with contextlib.suppress(OSError):
            while thread.is_alive() and time.monotonic() - start < 10.0:
                sock.sendall(encode_frame(MsgType.STATS, b""))
                thread.join(timeout=0.5)
        assert not thread.is_alive()
        assert time.monotonic() - start < server_mod._CLOSE_TIMEOUT_S + 2.0


@pytest.mark.parametrize("after_hello", [False, True])
def test_unknown_frame_type_resets_connection(corpus, monkeypatch, after_hello):
    # a type-9 frame, in the handshake or after it, must reset the connection
    # without killing a server thread
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    server, endpoint, thread = make_server(corpus)
    if after_hello:
        sock, reader = raw_hello(endpoint, max_credits=2)
        assert reader.read_frame()[0] == MsgType.HELLO
    else:
        sock = socket.create_connection(endpoint, timeout=10)
        reader = FrameReader(sock.recv_into)
    sock.sendall(encode_frame(9, b""))
    with contextlib.suppress(ConnectionError):
        assert reader.read_frame() is None  # closed without another frame
    sock.close()
    if not after_hello:  # no slot was taken: a real consumer still completes
        with connect_consumer(endpoint) as c:
            assert sum(b.size for b in c) == 10
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert hooked == []


GOOD_HELLO_REPLY = encode_frame(MsgType.HELLO, json.dumps(
    {"version": 1, "slot": 0, "num_slots": 1, "epochs": 1}).encode())


def fake_server(frames, reply=GOOD_HELLO_REPLY, *, received=None, reset_after=None):
    """A listener that answers one HELLO with reply and sends frames. It then
    reads the consumer's frames, putting them on received (a queue, if
    given), until EOF (at most 10 s) or, after reset_after of them, resets
    the connection."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        conn.settimeout(10)
        with conn, contextlib.suppress(OSError, EsfError):
            reader = FrameReader(conn.recv_into)
            reader.read_frame()  # HELLO
            conn.sendall(reply)
            for frame in frames:
                conn.sendall(frame)
            count = 0
            while count != reset_after and (frame := reader.read_frame()) is not None:
                count += 1
                if received is not None:
                    received.put(frame)
            if count == reset_after:  # closing with a zero linger sends RST
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def batch_frames(n):
    """BATCH frames with ordinals 0..n-1, one one-example batch each."""
    batch = Batch(np.zeros((1, 3, 2), np.float32), np.array([3], np.int32),
                  np.array([[1, 2]], np.int32), np.array([2], np.int32), ["u"])
    return [encode_batch_frame(i, batch) for i in range(n)]


def next_within(consumer, timeout=5.0):
    """next(consumer) on a helper thread: the batch or the exception raised.

    Raises queue.Empty if the call is still blocked after timeout seconds.
    """
    outcome: queue.Queue = queue.Queue()

    def take():
        try:
            outcome.put(next(consumer))
        except Exception as exc:
            outcome.put(exc)

    threading.Thread(target=take, daemon=True).start()
    return outcome.get(timeout=timeout)


def consumer_threads():
    return {t for t in threading.enumerate() if t.name.startswith("esf-consumer")}


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def credit(n):
    return (MsgType.CREDIT, struct.pack("<I", n))


def test_consumer_grants_one_credit_per_batch_taken():
    received: queue.Queue = queue.Queue()
    listener, thread = fake_server(batch_frames(4) + [encode_frame(MsgType.END, b"")],
                                   received=received)
    consumer = connect_consumer(listener.getsockname(), max_credits=3, timeout=10)
    try:
        assert received.get(timeout=5) == credit(3)  # the initial grant, once
        wait_until(lambda: consumer.last_ordinal == 3)  # every batch is queued
        for ordinal in range(4):
            time.sleep(0.1)
            assert received.empty()  # no credit ahead of a batch taken
            assert next(consumer).utt_ids == ["u"]
            assert received.get(timeout=5) == credit(1)
        with pytest.raises(StopIteration):
            next(consumer)
        assert isinstance(next_within(consumer), StopIteration)  # stays ended
        time.sleep(0.1)
        assert received.empty()
    finally:
        consumer.close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def test_peer_reset_mid_stream_raises_delivery_error_with_last_ordinal():
    # the peer resets once the consumer took one batch; the credit for the
    # second one goes to a dead socket and must not raise
    listener, thread = fake_server(batch_frames(3), reset_after=2)
    before = consumer_threads()
    consumer = connect_consumer(listener.getsockname(), max_credits=4, timeout=10)
    try:
        wait_until(lambda: consumer.last_ordinal == 2)
        assert next(consumer).size == 1  # its credit makes the peer reset
        thread.join(timeout=10)
        wait_until(lambda: not consumer_threads() - before)  # the reader saw it
        assert next(consumer).size == 1
        assert next(consumer).size == 1
        err = next_within(consumer)
        assert isinstance(err, DeliveryError) and err.last_ordinal == 2
        assert isinstance(err.__cause__, OSError)
    finally:
        consumer.close()
        listener.close()


def test_one_consumer_thread_per_open_connection(corpus):
    server, endpoint, thread = make_server(corpus, num_pipelines=2)
    before = consumer_threads()
    # one credit each: a stream of 3 batches cannot reach END, and end its
    # reader, before both readers are counted
    consumers = [connect_consumer(endpoint, max_credits=1) for _ in range(2)]
    assert len(consumer_threads() - before) == 2
    assert sum(b.size for b in consumers[0]) == 5
    consumers[1].wait_ready(10)  # a reader blocked on a live socket
    for c in consumers:
        c.close()
    wait_until(lambda: not consumer_threads() - before)
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_paused_trainer_keeps_a_healthy_stream(corpus):
    # timeout bounds the connect and the handshake, not the waits for
    # frames while the trainer holds every credit
    server, endpoint, thread = make_server(corpus, batch_size=1)
    with connect_consumer(endpoint, max_credits=2, timeout=0.5) as c:
        first = next(c)
        time.sleep(1.5)
        assert first.size + sum(b.size for b in c) == 10
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_slot_held_without_credit_keeps_run_open_until_the_consumer_goes_on(corpus):
    # no idle limit: a consumer that grants nothing may be a paused trainer
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, max_credits=1)
    with sock:
        assert reader.read_frame()[0] == MsgType.HELLO
        thread.join(timeout=1.5)
        assert thread.is_alive()
        batches = 0
        while True:
            sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 1)))
            msg_type, _ = reader.read_frame()
            if msg_type == MsgType.END:
                break
            batches += 1
        assert batches == 5
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("frame", [
    encode_frame(9, b""),
    encode_frame(MsgType.STATS, b"not json"),
    encode_frame(MsgType.STATS, b"[1, 2]"),
    encode_frame(MsgType.ERROR, b"\xff\xfe"),
    encode_frame(MsgType.ERROR, b"[1]"),
], ids=["unknown-type", "stats-not-json", "stats-not-object", "error-not-utf8",
        "error-not-object"])
def test_malformed_server_frame_raises_delivery_error(frame):
    listener, thread = fake_server([frame])
    consumer = connect_consumer(listener.getsockname(), timeout=10)
    try:
        err = next_within(consumer)
        assert isinstance(err, DeliveryError)
        assert err.last_ordinal is None and err.__cause__ is not None
        assert next_within(consumer) is err  # and so does every later call
    finally:
        consumer.close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def test_stats_reply_that_is_not_an_object_raises_delivery_error():
    listener, thread = fake_server([encode_frame(MsgType.STATS, b"[1, 2]")])
    consumer = connect_consumer(listener.getsockname(), timeout=10)
    try:
        with pytest.raises(DeliveryError) as err:
            consumer.stats(timeout=5)
        assert isinstance(err.value.__cause__, EsfError)
        assert next_within(consumer) is err.value  # the stream ended with it
    finally:
        consumer.close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("ending", ["end", "reset"])
def test_stats_after_the_stream_ended_raises_at_once(ending):
    if ending == "end":
        listener, thread = fake_server(batch_frames(1) + [encode_frame(MsgType.END, b"")])
    else:
        listener, thread = fake_server(batch_frames(1), reset_after=1)
    consumer = connect_consumer(listener.getsockname(), timeout=10)
    try:
        assert next(consumer).size == 1
        ended = next_within(consumer)  # the credit for that batch makes the peer reset
        assert isinstance(ended, StopIteration if ending == "end" else DeliveryError)
        for _ in range(2):  # and stays ended
            start = time.monotonic()
            with pytest.raises(DeliveryError) as err:
                consumer.stats(timeout=5)
            assert time.monotonic() - start < 1.0
            assert err.value.last_ordinal == 0
            if ending == "reset":
                assert err.value is ended
    finally:
        consumer.close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("reply", [
    encode_frame(MsgType.ERROR, json.dumps({"message": "no pipeline slots left"}).encode()),
    encode_frame(MsgType.ERROR, b"not json"),
    encode_frame(MsgType.ERROR, b"\xff\xfe"),
    encode_frame(MsgType.ERROR, b"[1]"),
    encode_frame(MsgType.ERROR, b"{}"),
    encode_frame(MsgType.HELLO, b"not json"),
    encode_frame(MsgType.HELLO, b"[1]"),
    encode_frame(MsgType.END, b""),
], ids=["refused", "error-not-json", "error-not-utf8", "error-not-object",
        "error-without-message", "hello-not-json", "hello-not-object", "end"])
def test_handshake_failure_raises_delivery_error_and_closes(reply):
    listener, thread = fake_server([], reply=reply)
    try:
        # err holds the traceback, so a socket the client failed to close
        # stays open here instead of being closed by garbage collection
        with pytest.raises(DeliveryError) as err:
            connect_consumer(listener.getsockname(), timeout=10)
        thread.join(timeout=5)  # the fake server returns once it reads EOF
        assert not thread.is_alive(), "consumer left its socket open"
    finally:
        listener.close()


def test_version_mismatch_gets_error_frame(corpus):
    server, endpoint, thread = make_server(corpus)
    for version in (99, True, 1.0):  # True == 1 and 1.0 == 1 in Python
        sock, reader = raw_hello(endpoint, version=version)
        msg_type, payload = reader.read_frame()
        assert msg_type == MsgType.ERROR
        assert "version" in json.loads(payload.decode())["message"]
        sock.close()
    # real consumer can still complete afterwards
    with connect_consumer(endpoint) as c:
        assert sum(b.size for b in c) == 10
    thread.join(timeout=10)


def test_malformed_hello_gets_error_frame(corpus):
    server, endpoint, thread = make_server(corpus)
    for payload in (b"not json", b"[1,2]",
                    json.dumps({"version": 1, "max_credits": "x"}).encode()):
        with socket.create_connection(endpoint, timeout=10) as sock:
            sock.sendall(encode_frame(MsgType.HELLO, payload))
            msg_type, payload = FrameReader(sock.recv_into).read_frame()
            assert msg_type == MsgType.ERROR
            assert json.loads(payload.decode())["message"]
    # no slot was consumed: a real consumer still completes
    with connect_consumer(endpoint) as c:
        assert sum(b.size for b in c) == 10
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_stats_report_skipped_records(tmp_path, corpus):
    # a 50-sample record cannot fill one analysis window: the skip policy
    # drops it, and STATS must say so
    _, vocab = corpus
    records = [UtteranceRecord("ok-1", 16000, np.zeros(8000, dtype=np.int16), "a"),
               UtteranceRecord("tiny", 16000, np.zeros(50, dtype=np.int16), "b"),
               UtteranceRecord("ok-2", 16000, np.zeros(8000, dtype=np.int16), "c")]
    shard_set = write_shards(records, 1, str(tmp_path / "t-{shard}.esrd"))
    pcfg = PipelineConfig(shard_paths=shard_set.shard_paths, vocab_path=vocab,
                          shuffle_buffer=1, batch_size=1)
    server = ExampleServer(ServerConfig(pipeline=pcfg))
    endpoint = server.start()
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    sock, reader = raw_hello(endpoint, max_credits=1)
    reader.read_frame()  # HELLO reply
    for _ in range(2):  # ok-2 comes out only after "tiny" was dropped
        sock.sendall(encode_frame(MsgType.CREDIT, struct.pack("<I", 1)))
        assert reader.read_frame()[0] == MsgType.BATCH
    sock.sendall(encode_frame(MsgType.STATS, b""))
    msg_type, payload = reader.read_frame()
    assert msg_type == MsgType.STATS
    stats = json.loads(payload.decode())
    assert stats["skipped"] == 1
    assert stats["batches_sent"] == 2
    sock.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_run_returns_with_connection_threads_joined(corpus, monkeypatch):
    # the slot thread is mid-pipeline when the consumer leaves; run() must
    # not return before it has been joined
    real = server_mod.build_pipeline

    def slow_pipeline(*args, **kwargs):
        batches = real(*args, **kwargs)
        yield next(batches)
        time.sleep(1.0)
        yield from batches

    monkeypatch.setattr(server_mod, "build_pipeline", slow_pipeline)
    before = set(threading.enumerate())
    server, endpoint, thread = make_server(corpus)
    consumer = connect_consumer(endpoint)
    next(iter(consumer))
    consumer.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    left = [t.name for t in threading.enumerate() if t not in before
            and t.name.startswith("esf-slot-")]
    assert left == []


def test_pipeline_failure_sends_error_after_the_batches_built(corpus, monkeypatch):
    real = server_mod.build_pipeline

    def failing_pipeline(*args, **kwargs):
        yield next(real(*args, **kwargs))
        raise RuntimeError("augmenter crashed")

    monkeypatch.setattr(server_mod, "build_pipeline", failing_pipeline)
    before = set(threading.enumerate())
    server, endpoint, thread = make_server(corpus)
    with connect_consumer(endpoint, timeout=10) as c:
        assert next(c).size == 2
        err = next_within(c)
    assert isinstance(err, DeliveryError)
    assert str(err).startswith("server error: ") and "augmenter crashed" in str(err)
    assert err.last_ordinal == 0
    thread.join(timeout=10)
    assert not thread.is_alive()
    wait_until(lambda: not [t for t in threading.enumerate()
                            if t not in before and t.name.startswith("esf-")])


def test_multi_epoch_stream(corpus):
    server, endpoint, thread = make_server(corpus, epochs=3)
    with connect_consumer(endpoint) as c:
        batches = list(c)
    assert sum(b.size for b in batches) == 30
    thread.join(timeout=10)


def test_slot_thread_encodes_every_frame_numbered_across_epochs(corpus, monkeypatch):
    # each batch frame is encoded on the slot's own thread, and ordinals run
    # on from one epoch into the next
    real = server_mod.encode_batch_frame
    calls = []

    def recording(ordinal, batch):
        calls.append((ordinal, threading.current_thread().name))
        return real(ordinal, batch)

    monkeypatch.setattr(server_mod, "encode_batch_frame", recording)
    server, endpoint, thread = make_server(corpus, epochs=2)
    with connect_consumer(endpoint) as c:
        batches = list(c)
        assert c.last_ordinal == 9
    thread.join(timeout=10)
    assert len(batches) == 10
    assert [ordinal for ordinal, _ in calls] == list(range(10))
    assert {name for _, name in calls} == {"esf-slot-0"}


def test_corrupted_batch_payload_surfaces_crc_error(corpus):
    # proxy between client and server flips one byte inside the first BATCH
    server, endpoint, thread = make_server(corpus)

    proxy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    proxy.bind(("127.0.0.1", 0))
    proxy.listen(1)
    proxy_port = proxy.getsockname()[1]

    def proxy_loop():
        client_sock, _ = proxy.accept()
        with client_sock, socket.create_connection(endpoint, timeout=10) as upstream:

            def pump_up():
                while True:
                    try:
                        data = client_sock.recv(4096)
                        if not data:
                            return
                        upstream.sendall(data)
                    except OSError:
                        return

            threading.Thread(target=pump_up, daemon=True).start()
            flipped = False
            while True:
                try:
                    data = upstream.recv(4096)
                except OSError:
                    return
                if not data:
                    return
                if not flipped and len(data) > 600:
                    corrupted = bytearray(data)
                    corrupted[500] ^= 0x10
                    data = bytes(corrupted)
                    flipped = True
                try:
                    client_sock.sendall(data)
                except OSError:
                    return

    threading.Thread(target=proxy_loop, daemon=True).start()
    consumer = connect_consumer(("127.0.0.1", proxy_port))
    with pytest.raises(DeliveryError) as err:
        list(consumer)
    assert "CRC" in str(err.value) or "mismatch" in str(err.value)
    consumer.close()
    proxy.close()


@pytest.fixture(scope="module")
def launch_config(corpus):
    shards, vocab = corpus
    from esf.config import merge_config

    cfg = merge_config(None)
    cfg["pipeline"]["shard_paths"] = shards.shard_paths
    cfg["pipeline"]["vocab_path"] = vocab
    cfg["pipeline"]["batch_size"] = 2
    cfg["acoustic"]["enabled"] = False
    cfg["vtlp"]["enabled"] = False
    return cfg


def test_launch_single_server_equivalent_to_serve(launch_config):
    procs = launch_servers(1, launch_config)
    try:
        with connect_consumer(procs[0].endpoint) as c:
            total = sum(b.size for b in c)
        assert total == 10
        assert procs[0].wait(timeout=20) == 0
    finally:
        for p in procs:
            p.kill()
            p.wait(timeout=10)


def test_launch_partitions_shards_disjointly(launch_config):
    procs = launch_servers(2, launch_config)
    try:
        ids = []
        for p in procs:
            with connect_consumer(p.endpoint) as c:
                for batch in c:
                    ids.extend(batch.utt_ids)
        assert len(ids) == 10
        assert len(set(ids)) == 10
    finally:
        for p in procs:
            p.kill()
            p.wait(timeout=10)


def test_wait_closes_a_killed_server_stdout_pipe(launch_config):
    (proc,) = launch_servers(1, launch_config)
    proc.kill()
    assert proc.wait(timeout=10) is not None
    assert proc.process.stdout.closed


def test_killing_one_server_isolates_the_failure(launch_config):
    import copy

    cfg = copy.deepcopy(launch_config)
    cfg["pipeline"]["batch_size"] = 1  # more batches, easier to interrupt
    procs = launch_servers(2, cfg)
    try:
        victim = connect_consumer(procs[0].endpoint, max_credits=1)
        # kill once batch 0 has arrived but before next() grants the credit
        # for batch 1, so no later batch can be in flight
        assert victim.wait_ready(10)
        procs[0].kill()
        procs[0].wait(timeout=10)
        first = next(iter(victim))
        assert first.size == 1
        with pytest.raises(DeliveryError) as err:
            list(victim)
        assert err.value.last_ordinal == 0
        victim.close()
        # the sibling server is unaffected
        with connect_consumer(procs[1].endpoint) as c:
            assert sum(b.size for b in c) == 5
    finally:
        for p in procs:
            p.kill()
            p.wait(timeout=10)
