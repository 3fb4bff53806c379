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
from esf.pipeline import PipelineConfig
from esf.recordio import UtteranceRecord, write_shards
from esf.server import ExampleServer, ServerConfig, launch_servers
from esf.synth import write_synth_corpus
from esf.wire import FrameReader, MsgType, encode_frame


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
    time.sleep(1.0)  # give the producer time to fill the queue
    for _ in range(5):
        sock.sendall(encode_frame(MsgType.STATS, b""))
        msg_type, payload = reader.read_frame()
        assert msg_type == MsgType.STATS
        stats = json.loads(payload.decode())
        assert stats["batches_sent"] == 0
        assert stats["buffered"] <= k
        time.sleep(0.1)
    assert stats["buffered"] == k  # steady state: full buffer, nothing sent
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


def fake_server(frames):
    """A listener that answers one HELLO, sends frames, then waits for EOF."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, contextlib.suppress(OSError, EsfError):
            reader = FrameReader(conn.recv_into)
            reader.read_frame()  # HELLO
            conn.sendall(encode_frame(MsgType.HELLO, json.dumps(
                {"version": 1, "slot": 0, "num_slots": 1, "epochs": 1}).encode()))
            for frame in frames:
                conn.sendall(frame)
            while reader.read_frame() is not None:  # credits, until EOF
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize("frame", [
    encode_frame(9, b""),
    encode_frame(MsgType.STATS, b"not json"),
    encode_frame(MsgType.ERROR, b"\xff\xfe"),
    encode_frame(MsgType.ERROR, b"[1]"),
], ids=["unknown-type", "stats-not-json", "error-not-utf8", "error-not-object"])
def test_malformed_server_frame_raises_delivery_error(frame):
    listener, thread = fake_server([frame])
    consumer = connect_consumer(listener.getsockname(), timeout=10)
    outcome: queue.Queue = queue.Queue()

    def take():
        try:
            outcome.put(next(consumer))
        except Exception as exc:
            outcome.put(exc)

    threading.Thread(target=take, daemon=True).start()
    try:
        assert isinstance(outcome.get(timeout=5.0), DeliveryError)
    finally:
        consumer.close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def test_version_mismatch_gets_error_frame(corpus):
    server, endpoint, thread = make_server(corpus)
    sock, reader = raw_hello(endpoint, version=99)
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
    # the producer is mid-pipeline when the consumer leaves; run() must not
    # return before it has been joined
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
            and t.name.startswith(("esf-producer-", "esf-reader-"))]
    assert left == []


def test_multi_epoch_stream(corpus):
    server, endpoint, thread = make_server(corpus, epochs=3)
    with connect_consumer(endpoint) as c:
        batches = list(c)
    assert sum(b.size for b in batches) == 30
    thread.join(timeout=10)


def test_corrupted_batch_payload_surfaces_crc_error(corpus):
    # proxy between client and server flips one byte inside the first BATCH
    server, endpoint, thread = make_server(corpus)

    proxy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    proxy.bind(("127.0.0.1", 0))
    proxy.listen(1)
    proxy_port = proxy.getsockname()[1]

    def proxy_loop():
        client_sock, _ = proxy.accept()
        upstream = socket.create_connection(endpoint, timeout=10)

        def pump_up():
            while True:
                try:
                    data = client_sock.recv(4096)
                except OSError:
                    return
                if not data:
                    return
                upstream.sendall(data)

        threading.Thread(target=pump_up, daemon=True).start()
        flipped = False
        while True:
            try:
                data = upstream.recv(4096)
            except OSError:
                return
            if not data:
                client_sock.close()
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
        first = next(iter(victim))
        assert first.size == 1
        procs[0].kill()
        procs[0].wait(timeout=10)
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
