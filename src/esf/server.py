"""The example-server service: pipelines streaming batches to consumers under
credit-based flow control.

Each connection takes one pipeline slot and runs on that slot's thread
alone. The thread builds each batch and encodes it into its frame; then it
acts on every consumer frame already received, adding each CREDIT grant and
answering each STATS, goes on reading while it holds no credit, and sends
the frame. So at most one encoded frame ever waits server-side, and a STATS
request is answered within one batch build. After END or ERROR the server
half-closes and reads until the peer's EOF, for at most _CLOSE_TIMEOUT_S in
all; the last slot to finish shuts the listener down, which ends run(). A
server owns a shard subset (index mod server_count) and splits it again
across its pipeline slots, so concurrent consumers receive disjoint record
sets.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import select
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Iterator

from .acoustic import SimulatorConfig
from .errors import ConfigurationError, EsfError, FormatError, LaunchError
from .pipeline import MapStats, PipelineConfig, build_pipeline
from .util import hash64
from .vtlp import WarpSpec
from .wire import (DEFAULT_MAX_CREDITS, FrameReader, MsgType, encode_batch_frame,
                   encode_frame)

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
            raise ConfigurationError("num_pipelines must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if not (0 <= self.server_index < self.server_count):
            raise ConfigurationError("server_index must lie in [0, server_count)")


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
    version = hello.get("version")
    if type(version) is not int or version != 1:  # not True, not 1.0
        raise ValueError(f"version mismatch: {version}")
    max_credits = hello.get("max_credits", DEFAULT_MAX_CREDITS)
    if type(max_credits) is not int or max_credits < 1:
        raise ValueError("max_credits must be an integer >= 1")
    return max_credits


def _error_frame(message: str) -> bytes:
    return encode_frame(MsgType.ERROR, json.dumps({"message": message}).encode("utf-8"))


class _Connection:
    """One consumer's stream, served on its slot's thread alone."""

    def __init__(self, sock: socket.socket, reader: FrameReader, max_credits: int):
        self.sock = sock
        self.reader = reader
        self.max_credits = max_credits
        self.credits = 0
        self._poll = select.poll()  # not select.select, which fails past fd 1024
        self._poll.register(sock, select.POLLIN)
        self.map_stats = MapStats()
        self.batches_sent = 0
        self.epoch = 0

    def stats_payload(self) -> bytes:
        # STATS is answered only while a built frame waits to be sent
        return json.dumps({
            "batches_sent": self.batches_sent, "buffered": 1,
            "epoch": self.epoch, "skipped": self.map_stats.skipped}).encode("utf-8")

    def await_credit(self) -> bool:
        """Act on every consumer frame already received, then on more until
        a credit is held; False at the consumer's EOF."""
        while not self.credits or self.reader.pending or self._poll.poll(0):
            frame = self.reader.read_frame()
            if frame is None:
                return False
            msg_type, payload = frame
            if msg_type == MsgType.CREDIT:
                if len(payload) != 4:
                    raise FormatError(f"CREDIT payload of {len(payload)} bytes, not 4")
                grant = int.from_bytes(payload, "little")
                # a consumer holds at most max_credits, counting those in flight
                if self.credits + grant > self.max_credits:
                    raise FormatError(f"CREDIT grant {grant} takes the credits held "
                                      f"past max_credits")
                self.credits += grant
            elif msg_type == MsgType.STATS:
                self.sock.sendall(encode_frame(MsgType.STATS, self.stats_payload()))
            # other client-to-server types are ignored
        return True

    def frames(self, cfg: ServerConfig,
               slot_cfg: PipelineConfig) -> Iterator[tuple[MsgType, bytes]]:
        """The slot's frames in order: each batch's, then END, or ERROR once
        the pipeline fails. Closing this generator drops the pipeline's."""
        ordinals = itertools.count()
        try:
            for epoch in range(cfg.epochs):
                self.epoch = epoch
                for batch in build_pipeline(slot_cfg, cfg.warp_spec, cfg.sim_config,
                                            epoch=epoch, stats=self.map_stats):
                    yield MsgType.BATCH, encode_batch_frame(next(ordinals), batch)
        except Exception as exc:  # pipeline failure: tell the consumer
            yield MsgType.ERROR, _error_frame(str(exc))
        else:
            yield MsgType.END, encode_frame(MsgType.END, b"")

    def send_frames(self, frames: Iterator[tuple[MsgType, bytes]]) -> None:
        """Send each frame for one credit until the stream or the consumer ends."""
        for msg_type, frame in frames:
            if not self.await_credit():
                return
            self.credits -= 1
            if msg_type == MsgType.BATCH:
                self.batches_sent += 1
            self.sock.sendall(frame)

    def close(self) -> None:
        """Half-close, then read until the peer's EOF or the close deadline."""
        deadline = time.monotonic() + _CLOSE_TIMEOUT_S
        with contextlib.suppress(OSError):  # socket.timeout included
            self.sock.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                self.sock.settimeout(left)
                if not self.sock.recv(65536):
                    return


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
        threading.current_thread().name = f"esf-slot-{slot}"
        conn = _Connection(sock, reader, max_credits)
        try:
            reply = json.dumps({"version": 1, "slot": slot,
                                "num_slots": self.cfg.num_pipelines,
                                "epochs": self.cfg.epochs}).encode("utf-8")
            sock.sendall(encode_frame(MsgType.HELLO, reply))
            frames = conn.frames(self.cfg, self._slot_configs[slot])
            with contextlib.closing(frames):
                conn.send_frames(frames)
            conn.close()
        finally:
            with self._slot_lock:
                self._slots_finished += 1
                last = self._slots_finished == self.cfg.num_pipelines
            if last:  # wakes run()'s blocked accept with EINVAL
                self._listener.shutdown(socket.SHUT_RDWR)

    def run(self) -> None:
        """Accept consumers until every pipeline slot has completed its epochs.

        A consumer that holds a slot without granting credit keeps run()
        open, with no time limit, on purpose: a paused trainer is legal. Its
        slot goes on once the consumer grants credit, and finishes once the
        consumer closes its connection.
        """
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


def launch_servers(n: int, config: dict, *,
                   startup_timeout: float = 60.0) -> list[ServerProcess]:
    """Spawn n server processes over disjoint shard subsets.

    config is a GlobalConfig-style dict (see esf.config); its
    server.num_pipelines and server.epochs apply to every server. Server j
    gets shards {i : i mod n == j}, seed pipeline.seed + j, and an
    OS-assigned port announced on its stdout as "LISTENING host:port".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seed = config.get("pipeline", {}).get("seed", 0)
    procs: list[ServerProcess] = []
    try:
        for j in range(n):
            cfg = json.loads(json.dumps(config))  # deep copy
            cfg.setdefault("server", {}).update({
                "host": "127.0.0.1", "port": 0, "server_index": j, "server_count": n})
            cfg.setdefault("pipeline", {})["seed"] = seed + j
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
