"""Spans recorded from outside esf, by wrapping its module-level entry points.

A wrapper times each call (or each step of a returned iterator) and adds it
to per-thread totals: calls, wall time, self time (wall time minus the time
of spans nested in it on the same thread), optionally thread CPU time and
self CPU time, and optionally a byte count. Totals stay in memory and are written out once, so
a span costs a few clock reads and no I/O.

install_server() wraps what an example server runs; install_trainer() wraps
what the trainer and the in-process decoder run. The program itself is not
changed: every wrapper replaces a name in an esf module's namespace.
"""

from __future__ import annotations

import json
import sys
import threading
import time

NAME_FIELDS = ("calls", "wall_s", "self_s", "cpu_s", "self_cpu_s", "bytes")


class Tracer:
    """Per-thread span totals, merged on demand."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.map_stats: list = []

    def _state(self):
        st = self._local.__dict__
        if "stack" not in st:
            st["stack"] = []
            st["totals"] = {}
            with self._lock:
                self._threads.append(st["totals"])
        return st

    def wrap(self, name: str, fn, *, cpu: bool = False, size=None):
        """fn wrapped in a span; size(args, result) adds to the byte count."""
        clock = time.perf_counter
        tclock = time.thread_time
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st["stack"]
            children = [0.0, 0.0]  # wall and CPU time of nested spans
            stack.append(children)
            c0 = tclock() if cpu else 0.0
            t0 = clock()
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(args, result)
                return result
            finally:
                dur = clock() - t0
                c = tclock() - c0 if cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += c
                agg = st["totals"].get(name)
                if agg is None:
                    agg = st["totals"][name] = [0, 0.0, 0.0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - children[0]
                agg[3] += c
                agg[4] += c - children[1]
                agg[5] += nbytes

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iter(self, name: str, fn, *, on_call=None):
        """fn returns an iterator; each of its steps becomes one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            it = iter(fn(*args, **kwargs))
            return _TimedIter(tracer.wrap(name, it.__next__, cpu=True))

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, fn, replacement) -> None:
        """Replace fn under every name that an esf module bound it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "esf" or mod_name.startswith("esf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, replacement)

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        merged: dict = {}
        with self._lock:
            threads = list(self._threads)
        for per_thread in threads:
            for name, agg in list(per_thread.items()):
                m = merged.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, 0])
                for i, v in enumerate(agg):
                    m[i] += v
        return {name: dict(zip(NAME_FIELDS, agg)) for name, agg in merged.items()}

    def clear(self) -> None:
        with self._lock:
            for per_thread in self._threads:
                per_thread.clear()

    def dump(self, path: str) -> None:
        """Write the span totals and the pipeline's skipped-record count."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.totals(),
                       "skipped": sum(s.skipped for s in self.map_stats)}, fh)


def merge(span_maps: list[dict]) -> dict:
    """Sum span totals of several processes, name by name."""
    merged: dict = {}
    for spans in span_maps:
        for name, agg in spans.items():
            m = merged.setdefault(name, dict.fromkeys(NAME_FIELDS, 0))
            for k, v in agg.items():
                m[k] += v
    return merged


class _TimedIter:
    def __init__(self, timed_next):
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _len_arg0(args, result) -> int:
    return len(args[0])


def _len_result(args, result) -> int:
    return len(result)


# Control frames and record length fields are CRC'd in calls below this
# size. Their count depends on timing (STATS polls, credits), so they are
# kept apart and the bulk byte count repeats exactly for one seed.
CRC_BULK_BYTES = 256


def _wrap_crc(tracer: Tracer) -> None:
    from esf import util

    bulk = tracer.wrap("util.crc32c", util.crc32c, cpu=True, size=_len_arg0)
    small = tracer.wrap("util.crc32c_small", util.crc32c, cpu=True, size=_len_arg0)

    def crc32c(data, value=0):
        return (bulk if len(data) >= CRC_BULK_BYTES else small)(data, value)

    tracer.patch_everywhere(util.crc32c, crc32c)


def _wrap_read_frame(tracer: Tracer) -> None:
    from esf import wire

    tracer.patch(wire.FrameReader, "read_frame",
                 tracer.wrap("wire.read_frame", wire.FrameReader.read_frame, cpu=True))


def install_server(tracer: Tracer) -> None:
    """Spans around the stages an example server runs, with thread CPU time
    beside wall time: servers share the cores, so the two differ."""
    from esf import acoustic, dsp, pipeline, recordio, server, vtlp

    def inject_stats(args, kwargs):
        if kwargs.get("stats") is None:
            kwargs = dict(kwargs, stats=pipeline.MapStats())
        tracer.map_stats.append(kwargs["stats"])
        return args, kwargs

    def stage(owner, attr, name, **kw):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), cpu=True, **kw))

    tracer.patch(server, "build_pipeline",
                 tracer.wrap_iter("pipeline.next", server.build_pipeline,
                                  on_call=inject_stats))
    tracer.patch_everywhere(recordio.read_shard,
                            tracer.wrap_iter("recordio.read", recordio.read_shard))
    stage(pipeline, "vtlp_resynthesize", "vtlp.resynth")
    stage(vtlp, "stft", "vtlp.stft")
    stage(vtlp, "istft", "vtlp.istft")
    stage(pipeline, "simulate", "acoustic.simulate")
    stage(acoustic, "compute_rir", "acoustic.rir")
    stage(acoustic, "apply_rir", "acoustic.convolve")
    stage(acoustic, "mix_noise", "acoustic.mix")
    stage(dsp, "extract_power_mel", "dsp.power_mel")
    stage(server, "encode_batch_frame", "wire.encode", size=_len_result)
    _wrap_crc(tracer)
    _wrap_read_frame(tracer)


def install_trainer(tracer: Tracer) -> None:
    """Spans around what the trainer process runs: corpus writing, frame
    reading and batch decoding, and the fusion decoder."""
    from esf import client, fusion, recordio

    tracer.patch_everywhere(recordio.write_shards,
                            tracer.wrap("recordio.write", recordio.write_shards, cpu=True))
    tracer.patch(client, "decode_batch",
                 tracer.wrap("wire.decode", client.decode_batch, cpu=True))
    tracer.patch(fusion, "beam_search", tracer.wrap("fusion.search", fusion.beam_search))
    tracer.patch(fusion, "fused_step", tracer.wrap("fusion.fused_step", fusion.fused_step))
    _wrap_crc(tracer)
    _wrap_read_frame(tracer)


def wrap_scorer(tracer: Tracer, scorer) -> None:
    """Time one scorer object's log_probs calls as fusion.scorer spans."""
    scorer.log_probs = tracer.wrap("fusion.scorer", scorer.log_probs)


def span_cost_s(cpu: bool, calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    wrapped = tracer.wrap("calibrate", noop, cpu=cpu)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / calls)
    return max(best, 0.0)
