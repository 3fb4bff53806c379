"""The three server workloads: example servers as `esf serve` processes and
one trainer (this process) holding one connection per server.

A run writes a synthetic corpus sized so that one epoch lasts about the
requested seconds at the rate the seed code reaches. It launches the servers
SETUP_REPEATS times to time set-up; the last launch then consumes the whole
epoch through trainsim.consume_epoch under credit flow control. Every
delivered batch is checked against the in-process build_pipeline stream of
its slot, and every corpus utterance must arrive exactly once.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import children
import measure
from spans import NAME_FIELDS, Tracer, install_trainer, merge, span_cost_s

STEP_COST_S = 0.02
MAX_CREDITS = 4
UTTS_PER_SHARD = 10
SETUP_REPEATS = 3  # launches per run: each times set-up, the last one is measured
STARTUP_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
STATS_PERIOD_S = 0.1
CACHE_KEEP = 8  # cached corpora kept; one is 5-30 MB


@dataclass(frozen=True)
class ServerWorkload:
    name: str
    servers: int
    duration_range: tuple[float, float]
    batch_size: int
    utt_per_s: float  # rate of the seed code; sizes the corpus, never a metric
    overrides: dict = field(default_factory=dict)

    def corpus_size(self, seconds: float) -> int:
        return max(4 * self.batch_size * self.servers, round(self.utt_per_s * seconds))

    def num_shards(self, utterances: int) -> int:
        per_server = max(1, math.ceil(utterances / UTTS_PER_SHARD / self.servers))
        return per_server * self.servers


WORKLOADS = {
    # supply-bound: VTLP, room simulation and features dominate
    "augment": ServerWorkload("augment", 2, (1.0, 3.0), 8, 25.0),
    # augmentation off: shard reads with CRC, framing and decoding dominate
    "transport": ServerWorkload("transport", 1, (3.0, 6.0), 8, 18.0, {
        "vtlp": {"enabled": False}, "acoustic": {"enabled": False}}),
    # trainer-bound: the criterion-7 shape, queues full and credit-stalled
    "session": ServerWorkload("session", 2, (0.1, 0.2), 2, 100.0, {
        "acoustic": {"max_image_order": 4, "probability_of_reverb": 0.2}}),
}


class RunFailure(Exception):
    """A server or the trainer failed; the message says what and where."""


def _source_digest(src_dir: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "esf", "**", "*.py"),
                             recursive=True)):
        h.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def batch_digest(batch) -> str:
    from esf.wire import encode_batch

    return hashlib.sha256(encode_batch(batch)).hexdigest()


def stream_digest(per_connection: list[list[str]]) -> str:
    """One digest over every connection's batch digests, in slot order."""
    h = hashlib.sha256()
    for j, digests in enumerate(per_connection):
        h.update(f"connection {j}\n".encode())
        for d in digests:
            h.update(d.encode() + b"\n")
    return h.hexdigest()


def make_config(wl: ServerWorkload, shard_paths: list[str], vocab: str) -> dict:
    from esf.config import merge_config

    cfg = merge_config(wl.overrides)
    cfg["pipeline"].update({"shard_paths": shard_paths, "vocab_path": vocab,
                            "batch_size": wl.batch_size, "shuffle_buffer": 16})
    return cfg


def server_config(cfg: dict, j: int, servers: int, seed: int) -> dict:
    """What launch_servers gives server j: its index, one slot, seed + j."""
    cfg = json.loads(json.dumps(cfg))
    cfg["server"].update({"host": "127.0.0.1", "port": 0, "num_pipelines": 1,
                          "epochs": 1, "server_index": j, "server_count": servers})
    cfg["pipeline"]["seed"] = seed + j
    return cfg


def slot_reference(cfg: dict, j: int, servers: int, seed: int) -> dict:
    """Batch digests and utt ids of server j's stream, built in-process.

    Slot 0 of server j owns shards i with i mod servers == j and runs the
    pipeline seeded with hash64(seed + j, 0), as ExampleServer assigns it.
    """
    from esf import config as cfgmod
    from esf.pipeline import build_pipeline
    from esf.util import hash64

    scfg = server_config(cfg, j, servers, seed)
    pcfg = cfgmod.pipeline_config(scfg)
    pcfg.shard_paths = [p for i, p in enumerate(pcfg.shard_paths) if i % servers == j]
    pcfg.seed = hash64(scfg["pipeline"]["seed"], 0)
    digests, ids = [], []
    for batch in build_pipeline(pcfg, cfgmod.warp_spec(scfg),
                                cfgmod.simulator_config(scfg), epoch=0):
        digests.append(batch_digest(batch))
        ids.append(list(batch.utt_ids))
    return {"digests": digests, "utt_ids": ids}


def reference_streams(cfg: dict, servers: int, seed: int, src_dir: str,
                      out_dir: str) -> list[dict]:
    """Every connection's reference stream, one worker process per server.

    The workers are plain subprocesses of this script, and each is waited
    for on every path out, so none outlives the run.
    """
    cfg_path = os.path.join(out_dir, "reference-config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    workers = []
    try:
        for j in range(servers):
            out = os.path.join(out_dir, f"reference{j}.json")
            argv = [sys.executable, os.path.abspath(__file__), cfg_path, str(j),
                    str(servers), str(seed), out]
            with open(out + ".stderr", "wb") as err:
                workers.append((children.popen(argv, stdout=subprocess.DEVNULL,
                                               stderr=err, env=esf_env(src_dir)),
                                out))
        streams = []
        for j, (proc, out) in enumerate(workers):
            if proc.wait() != 0:
                with open(out + ".stderr", "r", encoding="utf-8",
                          errors="replace") as fh:
                    raise RunFailure(f"reference worker {j} exited with "
                                     f"{proc.returncode}\n{fh.read().strip()}")
            with open(out, "r", encoding="utf-8") as fh:
                streams.append(json.load(fh))
        return streams
    finally:
        for proc, _ in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def esf_env(src_dir: str) -> dict:
    """The environment as found, with this checkout's esf first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    return env


class Corpus:
    """The workload's corpus and reference streams, cached per seed and source."""

    def __init__(self, wl: ServerWorkload, seed: int, utterances: int,
                 work_dir: str, src_dir: str):
        self.wl, self.seed, self.utterances = wl, seed, utterances
        self.src_dir = src_dir
        key = f"{wl.name}-seed{seed}-n{utterances}-{_source_digest(src_dir)}"
        self.dir = os.path.join(work_dir, "cache", key)

    def write(self, directory: str):
        from esf.synth import write_synth_corpus

        return write_synth_corpus(
            directory, self.utterances, self.wl.num_shards(self.utterances),
            seed=self.seed, duration_range=self.wl.duration_range)

    def prepare(self) -> tuple[list[str], str, list[dict]]:
        """Shard paths, vocab path and reference streams, built on first use."""
        done = os.path.join(self.dir, "reference.json")
        if not os.path.exists(done):
            tmp = self.dir + f".tmp{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            shards, vocab = self.write(tmp)
            shutil.rmtree(self.dir, ignore_errors=True)
            os.rename(tmp, self.dir)
            names = [os.path.basename(p) for p in shards.shard_paths]
            cfg = make_config(self.wl, [os.path.join(self.dir, n) for n in names],
                              os.path.join(self.dir, os.path.basename(vocab)))
            reference = reference_streams(cfg, self.wl.servers, self.seed,
                                          self.src_dir, self.dir)
            with open(done + ".part", "w", encoding="utf-8") as fh:
                json.dump({"shards": names, "vocab": os.path.basename(vocab),
                           "reference": reference}, fh)
            os.rename(done + ".part", done)
        os.utime(self.dir)
        self.evict_others()
        with open(done, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return ([os.path.join(self.dir, n) for n in doc["shards"]],
                os.path.join(self.dir, doc["vocab"]), doc["reference"])

    def evict_others(self) -> None:
        """Keep the CACHE_KEEP most recently used corpora, this one among them."""
        cache = os.path.dirname(self.dir)
        entries = sorted((e for e in os.scandir(cache) if e.is_dir()),
                         key=lambda e: e.stat().st_mtime, reverse=True)
        for e in entries[CACHE_KEEP:]:
            if e.path != self.dir:
                shutil.rmtree(e.path, ignore_errors=True)


class Server:
    """One `esf serve` process with its stderr kept in a file."""

    def __init__(self, j: int, cfg: dict, run_dir: str, tag: str, src_dir: str,
                 trace_out: str | None):
        self.j = j
        self.config_path = os.path.join(run_dir, f"server{j}-{tag}.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.stderr_path = os.path.join(run_dir, f"server{j}-{tag}.stderr")
        self.trace_out = trace_out
        esf_args = ["serve", "--config", self.config_path]
        if trace_out is None:
            argv = [sys.executable, "-m", "esf"] + esf_args
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "serve_traced.py")
            argv = [sys.executable, launcher, trace_out] + esf_args
        with open(self.stderr_path, "wb") as err:
            self.proc = children.popen(argv, stdout=subprocess.PIPE, stderr=err,
                                       env=esf_env(src_dir))
        self.endpoint: tuple[str, int] | None = None
        self.rusage = None

    def wait_listening(self, deadline: float) -> None:
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    break
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    break
                line += chunk
        text = line.decode("utf-8", "replace").strip()
        if not text.startswith("LISTENING "):
            self.kill()
            raise RunFailure(f"server {self.j} never printed LISTENING (got {text!r})"
                             f"{self.stderr_text()}")
        host, port = text.split()[1].rsplit(":", 1)
        self.endpoint = (host, int(port))

    def stderr_text(self) -> str:
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read().strip()
        return f"\n--- server {self.j} stderr ---\n{text}" if text else ""

    def poll_exit(self) -> bool:
        """True once the process has exited; keeps its rusage and exit code."""
        if self.rusage is None:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if not pid:
                return False
            self.rusage = ru
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.close()
        return True

    def reap(self, timeout: float) -> int:
        """Wait for exit; kill after timeout."""
        deadline = time.monotonic() + timeout
        while not self.poll_exit():
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = math.inf
            time.sleep(0.005)
        return self.proc.returncode

    def kill(self) -> None:
        if not self.poll_exit():
            self.proc.kill()
            self.reap(EXIT_TIMEOUT_S)


def start_servers(cfg: dict, wl: ServerWorkload, seed: int, run_dir: str, tag: str,
                  src_dir: str, traced: bool):
    from esf.client import connect_consumer

    started = time.perf_counter()
    servers: list[Server] = []
    conns = []
    try:
        for j in range(wl.servers):
            trace_out = os.path.join(run_dir, f"trace{j}-{tag}.json") if traced else None
            servers.append(Server(j, server_config(cfg, j, wl.servers, seed), run_dir,
                                  tag, src_dir, trace_out))
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        for s in servers:
            s.wait_listening(deadline)
        for s in servers:
            conns.append(connect_consumer(s.endpoint, max_credits=MAX_CREDITS))
        for c in conns:
            if not c.wait_ready(timeout=STARTUP_TIMEOUT_S):
                raise RunFailure("no first batch within the start-up timeout")
    except BaseException:
        for c in conns:
            c.close()
        for s in servers:
            s.kill()
        raise
    return servers, conns, time.perf_counter() - started


def stop_servers(servers: list[Server], conns) -> list[str]:
    """Close connections after the epoch and reap the servers, which exit on
    their own once every slot is complete. Returns one message per failure."""
    for c in conns:
        c.close()
    problems = []
    for s in servers:
        rc = s.reap(EXIT_TIMEOUT_S)
        if rc != 0:
            problems.append(f"server {s.j} exited with {rc}{s.stderr_text()}")
    return problems


def abort_servers(servers: list[Server], conns) -> list[str]:
    """End a launch that only timed set-up: terminate the servers, as the
    trainsim bench does, before closing the connections.

    Closing first would let a server finish its slot mid-epoch and exit
    while its producer thread still computes; that exit can abort the
    process, a server defect this launch is not there to measure. A server
    that already exited by itself is a failure.
    """
    problems = [f"server {s.j} exited with {s.proc.returncode} during set-up"
                f"{s.stderr_text()}" for s in servers if s.poll_exit()]
    for s in servers:
        if s.rusage is None:
            s.proc.terminate()
    for c in conns:
        c.close()
    for s in servers:
        s.reap(EXIT_TIMEOUT_S)
    return problems


def _tagged(conn, received: list, waits: list, intervals: list, ended: list, j: int):
    """Yield conn's batches, recording each batch, how long next() blocked,
    and the time since this connection's previous batch."""
    it = iter(conn)
    clock = time.perf_counter
    prev = None
    while True:
        t0 = clock()
        try:
            batch = next(it)
        except StopIteration:
            ended[j] = True
            return
        now = clock()
        waits.append(now - t0)
        if prev is not None:
            intervals.append(now - prev)
        prev = now
        received.append(batch)
        yield batch


def _sample_stats(conns, ended, stop: threading.Event, buffered: list, rtts: list):
    import queue

    while not stop.wait(STATS_PERIOD_S):
        for j, c in enumerate(conns):
            if ended[j]:
                continue
            t0 = time.perf_counter()
            try:
                reply = c.stats(timeout=1.0)
            except (queue.Empty, OSError):
                continue
            rtts.append(time.perf_counter() - t0)
            buffered.append(reply["buffered"])


@dataclass
class Window:
    elapsed_s: float
    session_s: float
    batches: int
    utterances: int
    incomplete: bool
    intervals_s: list
    waits_s: list
    server_cpu_s: float
    trainer_cpu_s: float
    peak_rss_mb: float
    threads: int
    buffered: list
    rtts_s: list
    problems: list


def consume(servers: list[Server], conns, received: list[list],
            sample_stats: bool) -> Window:
    """The timed window: one epoch through consume_epoch, then reap servers.

    It starts once every connection has its first batch and ends when the
    last stream ends. Server CPU is read from /proc at the start and from
    each server's rusage when it exits after the epoch.
    """
    from esf.trainsim import consume_epoch, merge_streams

    ended = [False] * len(conns)
    waits: list[float] = []
    intervals: list[float] = []
    stream = merge_streams([_tagged(c, received[j], waits, intervals, ended, j)
                            for j, c in enumerate(conns)])
    threads = max(measure.proc_threads(s.proc.pid) for s in servers)
    buffered: list = []
    rtts: list = []
    stop = threading.Event()
    sampler = None
    if sample_stats:
        sampler = threading.Thread(target=_sample_stats,
                                   args=(conns, ended, stop, buffered, rtts))
    cpu0 = [measure.proc_cpu_s(s.proc.pid) for s in servers]
    self0 = measure.rusage_cpu_s(resource.getrusage(resource.RUSAGE_SELF))
    start = time.perf_counter()
    if sampler is not None:
        sampler.start()
    try:
        stats = consume_epoch(stream, STEP_COST_S)
        end = time.perf_counter()
        self1 = measure.rusage_cpu_s(resource.getrusage(resource.RUSAGE_SELF))
    finally:
        stop.set()
        if sampler is not None:
            sampler.join(timeout=5.0)
    problems = stop_servers(servers, conns)
    cpu1 = [measure.rusage_cpu_s(s.rusage) for s in servers]
    return Window(
        elapsed_s=end - start, session_s=stats.session_time, batches=stats.batches,
        utterances=sum(len(b.utt_ids) for r in received for b in r),
        incomplete=stats.incomplete, intervals_s=intervals, waits_s=waits,
        server_cpu_s=measure.window_cpu_s(cpu0, cpu1),
        trainer_cpu_s=measure.window_cpu_s([self0], [self1]),
        peak_rss_mb=max(s.rusage.ru_maxrss for s in servers) / 1024.0,
        threads=threads, buffered=buffered, rtts_s=rtts, problems=problems)


def verify(reference: list[dict], received: list[list],
           corpus_utts: int) -> tuple[int, list, list[str]]:
    """Failures against the reference streams.

    Returns (failed, per-connection digests, messages). An utterance fails
    unless it is delivered exactly once, in a batch whose bytes equal the
    reference batch at the same position of the same connection; corpus
    utterances the reference itself lacks fail too.
    """
    messages = []
    expected = Counter(u for r in reference for ids in r["utt_ids"] for u in ids)
    if len(expected) != corpus_utts:
        messages.append(f"the reference streams hold {len(expected)} of "
                        f"{corpus_utts} corpus utterances")
    delivered = Counter(u for batches in received for b in batches for u in b.utt_ids)
    bad: set[str] = set()
    digests = []
    for j, (ref, batches) in enumerate(zip(reference, received)):
        got = [batch_digest(b) for b in batches]
        digests.append(got)
        for i, (d, b) in enumerate(zip(got, batches)):
            if i >= len(ref["digests"]) or d != ref["digests"][i]:
                bad.update(b.utt_ids)
        if len(got) != len(ref["digests"]):
            messages.append(f"connection {j}: {len(got)} batches, "
                            f"reference has {len(ref['digests'])}")
    if bad:
        messages.append(f"{len(bad)} utterances in batches that differ from the reference")
    failed = sum(1 for u in expected if delivered[u] != 1 or u in bad)
    failed += sum(1 for u in delivered if u not in expected)
    failed += sum(n - 1 for n in expected.values())  # the reference repeats an id
    failed += abs(corpus_utts - len(expected))
    if failed:
        messages.append(f"{failed} utterances not delivered exactly once as referenced")
    return failed, digests, messages


def layer_metrics(win: Window, trainer: dict, srv: dict, skipped: int,
                  write: dict) -> dict:
    """Per-layer figures from span totals of the trainer and of all servers.

    Stage times are thread CPU time: two servers and the trainer share the
    cores, so a stage's wall time also counts the time it waited for one.
    """
    empty = dict.fromkeys(NAME_FIELDS, 0)

    def s(name):
        return srv.get(name, empty)

    def t(name):
        return trainer.get(name, empty)

    u, b = win.utterances, win.batches
    crc_s = s("util.crc32c")["cpu_s"] + t("util.crc32c")["cpu_s"]
    crc_bytes = s("util.crc32c")["bytes"] + t("util.crc32c")["bytes"]
    return {
        "recordio.read_ms_per_utt": 1e3 * s("recordio.read")["cpu_s"] / u,
        "recordio.write_ms_per_utt": 1e3 * write["recordio.write"]["cpu_s"] / u,
        "util.crc32c_ms_per_mb": 1e3 * crc_s / (crc_bytes / 1e6) if crc_bytes else 0.0,
        "util.crc32c_mb_per_utt": crc_bytes / 1e6 / u,
        "vtlp.resynth_ms_per_utt": 1e3 * s("vtlp.resynth")["self_cpu_s"] / u,
        "vtlp.stft_ms_per_utt": 1e3 * s("vtlp.stft")["cpu_s"] / u,
        "vtlp.istft_ms_per_utt": 1e3 * s("vtlp.istft")["cpu_s"] / u,
        "acoustic.simulate_ms_per_utt": 1e3 * s("acoustic.simulate")["cpu_s"] / u,
        "acoustic.rir_ms_per_utt": 1e3 * s("acoustic.rir")["cpu_s"] / u,
        "acoustic.convolve_ms_per_utt": 1e3 * s("acoustic.convolve")["cpu_s"] / u,
        "acoustic.mix_ms_per_utt": 1e3 * s("acoustic.mix")["cpu_s"] / u,
        "dsp.power_mel_ms_per_utt": 1e3 * s("dsp.power_mel")["cpu_s"] / u,
        "pipeline.self_ms_per_batch": 1e3 * s("pipeline.next")["self_cpu_s"] / b,
        "pipeline.skipped": skipped,
        "wire.encode_ms_per_batch": 1e3 * s("wire.encode")["cpu_s"] / b,
        "wire.decode_ms_per_batch": 1e3 * t("wire.decode")["cpu_s"] / b,
        "wire.read_frame_cpu_ms_per_batch": 1e3 * t("wire.read_frame")["cpu_s"] / b,
        "wire.frame_kb_per_batch": s("wire.encode")["bytes"] / 1024 / b,
        "server.cpu_cores": win.server_cpu_s / win.elapsed_s,
        "server.threads": win.threads,
        "server.buffered_mean": (sum(win.buffered) / len(win.buffered)
                                 if win.buffered else 0.0),
        "server.stats_rtt_ms_p50":
            1e3 * statistics.median(win.rtts_s) if win.rtts_s else 0.0,
        "client.wait_ms_p50": 1e3 * statistics.median(win.waits_s),
        "client.wait_ms_tail": 1e3 * measure.tail(win.waits_s)[0],
        "trainsim.stall_ms_per_batch": 1e3 * (win.elapsed_s - win.session_s) / b,
    }


def span_overhead_ms_per_utt(span_maps: list[dict], utterances: int) -> float:
    """What the spans themselves cost, from a no-op calibration."""
    plain, with_cpu = span_cost_s(cpu=False), span_cost_s(cpu=True)
    total = sum(agg["calls"] * (with_cpu if agg["cpu_s"] else plain)
                for spans in span_maps for agg in spans.values())
    return 1e3 * total / utterances


def run(name: str, seed: int, seconds: float, traced: bool, src_dir: str,
        work_dir: str) -> dict:
    wl = WORKLOADS[name]
    n = wl.corpus_size(seconds)
    corpus = Corpus(wl, seed, n, work_dir, src_dir)
    paths, vocab, reference = corpus.prepare()
    cfg = make_config(wl, paths, vocab)
    run_dir = os.path.join(work_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    tracer = write_totals = None
    launched: list[Server] = []
    try:
        if traced:
            tracer = Tracer()
            install_trainer(tracer)
            tracer.active = True
            corpus.write(os.path.join(run_dir, "corpus"))
            tracer.active = False
            write_totals = tracer.totals()
            tracer.clear()
            tracer.active = True
        problems: list[str] = []
        setups = []
        repeats = 1 if traced else SETUP_REPEATS
        for rep in range(repeats):
            servers, conns, setup_s = start_servers(cfg, wl, seed, run_dir, f"rep{rep}",
                                                    src_dir, traced)
            launched += servers
            setups.append(setup_s)
            if rep < repeats - 1:
                problems += abort_servers(servers, conns)
        received: list[list] = [[] for _ in conns]
        win = consume(servers, conns, received, sample_stats=traced)
        problems += win.problems
        failed, digests, messages = verify(reference, received, n)
        if win.incomplete:
            messages.append("a delivery error ended the epoch early")
        failed += len(problems) + int(win.incomplete)
        tail_s, tail_pct, samples = measure.tail(win.intervals_s)
        result = {
            "attempted": n, "failed": failed, "digest": stream_digest(digests),
            "messages": messages + problems, "setup_runs_s": setups,
            "tail_percentile": tail_pct, "latency_samples": samples,
            "metrics": {
                "utt_per_s": win.utterances / win.elapsed_s,
                "t_session": measure.t_session(win.session_s, win.elapsed_s),
                "setup_s": statistics.median(setups),
                "server_cpu_ms_per_utt": measure.ms_per_utt(win.server_cpu_s,
                                                            win.utterances),
                "consumer_cpu_ms_per_utt": measure.ms_per_utt(win.trainer_cpu_s,
                                                              win.utterances),
                "server_peak_rss_mb": win.peak_rss_mb,
                "decode_ms_p50": 1e3 * statistics.median(win.intervals_s),
                "decode_ms_tail": 1e3 * tail_s,
            },
        }
        if traced:
            docs = []
            for srv in servers:
                with open(srv.trace_out, "r", encoding="utf-8") as fh:
                    docs.append(json.load(fh))
            trainer = tracer.totals()
            merged = merge([d["spans"] for d in docs])
            layers = layer_metrics(win, trainer, merged, sum(d["skipped"] for d in docs),
                                   write_totals)
            layers["trace.utt_per_s"] = result["metrics"]["utt_per_s"]
            layers["trace.overhead_ms_per_utt"] = span_overhead_ms_per_utt(
                [trainer, merged], win.utterances)
            result["layers"] = layers
            result["spans"] = {"trainer": trainer, "servers": merged}
        return result
    finally:
        for srv in launched:
            srv.kill()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)


def _reference_main(argv: list[str]) -> int:
    """Worker of reference_streams: CONFIG J SERVERS SEED OUT."""
    cfg_path, j, servers, seed, out = argv
    with open(cfg_path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    reference = slot_reference(cfg, int(j), int(servers), int(seed))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_reference_main(sys.argv[1:]))
