"""The example-server service: pipelines streaming batches to consumers under
credit-based flow control.

Each connection takes one pipeline slot and three threads, and every handoff
between them blocks on the event it waits for. A producer fills a bounded
queue (capacity = the consumer's max_credits, so server-side buffering can
never exceed it); the connection's thread sends one queued batch per credit
of a semaphore; a reader releases that semaphore per granted credit, answers
STATS, and releases it once more when the read side ends, to wake the sender.
After END or ERROR the server half-closes, waits on the reader for the peer's
EOF, drains the queue once to free a blocked producer, and joins both threads;
the last slot to finish shuts the listener down, which ends run(). A server
owns a shard subset (index mod server_count) and splits it again across its
pipeline slots, so concurrent consumers receive disjoint record sets.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import queue
import socket
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, replace

from .acoustic import SimulatorConfig
from .errors import EsfError, FormatError, LaunchError
from .pipeline import MapStats, PipelineConfig, build_pipeline
from .util import hash64
from .vtlp import WarpSpec
from .wire import FrameReader, MsgType, encode_batch_frame, encode_frame

_CLOSE_TIMEOUT_S = 5.0  # how long a finished connection waits for the peer's EOF


@dataclass
class ServerConfig:
    pipeline: PipelineConfig
    warp_spec: WarpSpec | None = None
    sim_config: SimulatorConfig | None = None
    host: str = "127.0.0.1"
    port: int = 0
    num_pipelines: int = 1
    epochs: int = 1
    server_index: int = 0
    server_count: int = 1

    def __post_init__(self):
        if self.num_pipelines < 1:
            raise ValueError("num_pipelines must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 <= self.server_index < self.server_count):
            raise ValueError("server_index must lie in [0, server_count)")


def _owned_shards(paths: list[str], index: int, count: int) -> list[str]:
    return [p for i, p in enumerate(paths) if i % count == index]


def _hello_credits(msg_type: MsgType, payload: bytes) -> int:
    """The max_credits a HELLO asks for; ValueError carries the refusal."""
    if msg_type != MsgType.HELLO:
        raise ValueError("expected HELLO")
    try:
        hello = json.loads(payload.decode("utf-8"))
    except ValueError:
        raise ValueError("HELLO is not UTF-8 JSON") from None
    if not isinstance(hello, dict):
        raise ValueError("HELLO is not a JSON object")
    if hello.get("version") != 1:
        raise ValueError(f"version mismatch: {hello.get('version')}")
    max_credits = hello.get("max_credits", 4)
    if type(max_credits) is not int or max_credits < 1:
        raise ValueError("max_credits must be an integer >= 1")
    return max_credits


def _error_frame(message: str) -> bytes:
    return encode_frame(MsgType.ERROR, json.dumps({"message": message}).encode("utf-8"))


class _Connection:
    def __init__(self, sock: socket.socket, max_credits: int):
        self.sock = sock
        self.write_lock = threading.Lock()
        self.credits = threading.Semaphore(0)
        self.queue: queue.Queue = queue.Queue(maxsize=max_credits)
        self.map_stats = MapStats()
        self.batches_sent = 0
        self.epoch = 0
        self.alive = True

    def send_frame(self, data: bytes) -> None:
        with self.write_lock:
            self.sock.sendall(data)

    def stats_payload(self) -> bytes:
        return json.dumps({
            "batches_sent": self.batches_sent, "buffered": self.queue.qsize(),
            "epoch": self.epoch, "skipped": self.map_stats.skipped}).encode("utf-8")

    def reader_loop(self, reader: FrameReader) -> None:
        try:
            for msg_type, payload in iter(reader.read_frame, None):
                if msg_type == MsgType.CREDIT:
                    grant = int.from_bytes(payload[:4], "little")
                    # more than a consumer may hold; Semaphore.release is O(grant)
                    if grant > self.queue.maxsize:
                        raise FormatError(f"CREDIT grant {grant} exceeds max_credits")
                    if grant:
                        self.credits.release(grant)
                elif msg_type == MsgType.STATS and self.alive:
                    self.send_frame(encode_frame(MsgType.STATS, self.stats_payload()))
                # other client-to-server types are ignored
        except EsfError:
            # corrupt or malformed traffic: reset the connection
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        finally:
            # whichever way the read side ends, the consumer is gone (or the
            # stream is complete); wake the sender so the slot can finish
            self.alive = False
            self.credits.release()

    def producer_loop(self, cfg: ServerConfig, slot_cfg: PipelineConfig) -> None:
        try:
            for epoch in range(cfg.epochs):
                self.epoch = epoch
                for batch in build_pipeline(slot_cfg, cfg.warp_spec, cfg.sim_config,
                                            epoch=epoch, stats=self.map_stats):
                    self.queue.put(batch)  # blocks at max_credits: backpressure
                    if not self.alive:
                        return
            self.queue.put(None)  # end of stream
        except Exception as exc:  # pipeline failure: tell the consumer
            self.queue.put(exc)

    def sender_loop(self) -> None:
        for ordinal in itertools.count():
            self.credits.acquire()  # a granted credit, or the reader's last release
            if not self.alive:
                return
            item = self.queue.get()
            if item is None:
                self.send_frame(encode_frame(MsgType.END, b""))
                return
            if isinstance(item, Exception):
                self.send_frame(_error_frame(str(item)))
                return
            # count before the write: the write lock orders the frame ahead
            # of any STATS reply that reports it
            self.batches_sent += 1
            self.send_frame(encode_batch_frame(ordinal, item))

    def close(self, producer: threading.Thread, reader: threading.Thread) -> None:
        """Half-close, wait for the peer's EOF, then join both threads."""
        self.alive = False
        with contextlib.suppress(queue.Empty):
            while True:  # frees a producer blocked on a full queue
                self.queue.get_nowait()
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_WR)
        reader.join(_CLOSE_TIMEOUT_S)
        if reader.is_alive():
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
            reader.join()
        producer.join()


class ExampleServer:
    """Serves batches from num_pipelines independent pipeline slots."""

    def __init__(self, cfg: ServerConfig):
        self.cfg = cfg
        self._listener: socket.socket | None = None
        self._next_slot = 0
        self._slots_finished = 0
        self._slot_lock = threading.Lock()
        self._slot_threads: list[threading.Thread] = []
        owned = _owned_shards(cfg.pipeline.shard_paths, cfg.server_index,
                              cfg.server_count)
        self._slot_configs = []
        for slot in range(cfg.num_pipelines):
            shard_subset = _owned_shards(owned, slot, cfg.num_pipelines)
            self._slot_configs.append(replace(
                cfg.pipeline, shard_paths=shard_subset,
                seed=hash64(cfg.pipeline.seed, slot)))

    @property
    def endpoint(self) -> tuple[str, int]:
        return tuple(self._listener.getsockname()[:2])

    def start(self) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.cfg.host, self.cfg.port))
        sock.listen(16)
        self._listener = sock
        return self.endpoint

    def _handle(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = FrameReader(sock.recv_into)
            frame = reader.read_frame()
            if frame is None:
                return
            try:
                max_credits = _hello_credits(*frame)
                with self._slot_lock:
                    slot = self._next_slot
                    if slot >= self.cfg.num_pipelines:
                        raise ValueError("no pipeline slots left")
                    self._next_slot += 1
                    self._slot_threads.append(threading.current_thread())
            except ValueError as exc:  # refused: no slot taken
                sock.sendall(_error_frame(str(exc)))
                return
            self._serve_slot(sock, reader, slot, max_credits)
        except (EsfError, OSError):
            pass
        finally:
            sock.close()

    def _serve_slot(self, sock: socket.socket, reader: FrameReader, slot: int,
                    max_credits: int) -> None:
        conn = _Connection(sock, max_credits)
        threads = (threading.Thread(target=conn.producer_loop,
                                    args=(self.cfg, self._slot_configs[slot]),
                                    daemon=True, name=f"esf-producer-{slot}"),
                   threading.Thread(target=conn.reader_loop, args=(reader,),
                                    daemon=True, name=f"esf-reader-{slot}"))
        for t in threads:
            t.start()
        try:
            reply = json.dumps({"version": 1, "slot": slot,
                                "num_slots": self.cfg.num_pipelines,
                                "epochs": self.cfg.epochs}).encode("utf-8")
            conn.send_frame(encode_frame(MsgType.HELLO, reply))
            conn.sender_loop()
        finally:
            conn.close(*threads)
            with self._slot_lock:
                self._slots_finished += 1
                last = self._slots_finished == self.cfg.num_pipelines
            if last:  # wakes run()'s blocked accept with EINVAL
                self._listener.shutdown(socket.SHUT_RDWR)

    def run(self) -> None:
        """Accept consumers until every pipeline slot has completed its epochs."""
        if self._listener is None:
            self.start()
        try:
            while True:
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    if self._slots_finished < self.cfg.num_pipelines:
                        raise
                    break  # the last slot shut the listener down
                threading.Thread(target=self._handle, args=(sock,), daemon=True).start()
            for t in self._slot_threads:
                t.join()
        finally:
            self._listener.close()


def serve(cfg: ServerConfig, *, ready=None) -> None:
    """Run a server until its configured epochs complete on every slot."""
    server = ExampleServer(cfg)
    endpoint = server.start()
    if ready is not None:
        ready(endpoint)
    server.run()


def _readline_timeout(proc: subprocess.Popen, timeout: float) -> str:
    box: list[str] = []

    def read():
        box.append(proc.stdout.readline())

    t = threading.Thread(target=read, daemon=True)
    t.start()
    t.join(timeout)
    return box[0] if box else ""


@dataclass
class ServerProcess:
    index: int
    process: subprocess.Popen
    host: str
    port: int

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()

    def wait(self, timeout: float | None = None) -> int | None:
        """Exit code once the server has exited (its stdout pipe is then
        closed), or None if it is still running after timeout seconds."""
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        self.process.stdout.close()
        return code


def launch_servers(n: int, config: dict, *, pipelines_per_server=1,
                   epochs: int = 1, seed_base: int = 0,
                   startup_timeout: float = 60.0) -> list[ServerProcess]:
    """Spawn n server processes over disjoint shard subsets.

    config is a GlobalConfig-style dict (see esf.config). Server j gets shards
    {i : i mod n == j}, seed seed_base + j, and an OS-assigned port announced
    on its stdout as "LISTENING host:port".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(pipelines_per_server, int):
        pipelines = [pipelines_per_server] * n
    else:
        pipelines = list(pipelines_per_server)
        if len(pipelines) != n:
            raise ValueError("pipelines_per_server list must have one entry per server")
    procs: list[ServerProcess] = []
    try:
        for j in range(n):
            cfg = json.loads(json.dumps(config))  # deep copy
            cfg.setdefault("server", {}).update({
                "host": "127.0.0.1", "port": 0, "num_pipelines": pipelines[j],
                "epochs": epochs, "server_index": j, "server_count": n})
            cfg.setdefault("pipeline", {})["seed"] = seed_base + j
            with tempfile.NamedTemporaryFile(
                    "w", suffix=f".server{j}.json", delete=False) as fh:
                json.dump(cfg, fh)
            try:
                # stderr is inherited, so a server's traceback stays readable
                proc = subprocess.Popen(
                    [sys.executable, "-m", "esf", "serve", "--config", fh.name],
                    stdout=subprocess.PIPE, text=True)
                line = _readline_timeout(proc, startup_timeout)
            finally:
                os.unlink(fh.name)  # read by the time the server is listening
            if not line.startswith("LISTENING "):
                proc.kill()
                proc.wait()
                proc.stdout.close()
                raise LaunchError(f"server {j} failed to announce its endpoint "
                                  f"(got {line!r})", index=j)
            host, port = line.split()[1].rsplit(":", 1)
            procs.append(ServerProcess(j, proc, host, int(port)))
    except Exception:
        for p in procs:
            p.kill()
            p.wait()
        raise
    return procs
