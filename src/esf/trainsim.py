"""Simulated trainers: batch consumption with a synthetic compute step,
utilization accounting, ring-allreduce aggregation, global-norm clipping,
and the servers-versus-consumers throughput study.

Utilization is t_session = session_time / elapsed_time where session_time is
wall time spent inside the simulated compute steps; it approaches 1 when the
example servers keep every consumer supplied.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DeliveryError
from .util import round_robin


@dataclass
class ThroughputStats:
    elapsed_time: float
    session_time: float
    t_session: float
    batches: int
    epoch_time: float
    incomplete: bool = False


@dataclass
class GradientVector:
    values: np.ndarray
    worker_id: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


def consume_epoch(stream: Iterable, step_cost: float) -> ThroughputStats:
    """Drain a batch stream, simulating step_cost seconds of compute per batch.

    A broken stream (DeliveryError) yields partial stats flagged incomplete.
    """
    if step_cost < 0:
        raise ValueError("step_cost must be >= 0")
    session = 0.0
    batches = 0
    incomplete = False
    start = time.perf_counter()
    it = iter(stream)
    while True:
        try:
            next(it)
        except StopIteration:
            break
        except DeliveryError:
            incomplete = True
            break
        if step_cost > 0.0:
            t0 = time.perf_counter()
            time.sleep(step_cost)
            session += time.perf_counter() - t0
        batches += 1
    elapsed = time.perf_counter() - start
    t_session = session / elapsed if elapsed > 0 else 0.0
    return ThroughputStats(elapsed, session, t_session, batches, elapsed,
                           incomplete=incomplete)


def merge_streams(consumers: Sequence[Iterable]) -> Iterator:
    """Round-robin over several batch streams until all are exhausted.

    Delivery errors propagate; remaining healthy streams are left untouched.
    """
    return round_robin(consumers)


def ring_allreduce(grads: Sequence[GradientVector | np.ndarray]) -> list[GradientVector]:
    """Chunked ring allreduce: scatter-reduce then all-gather, 2(W-1) steps.

    Every worker ends up with the elementwise sum, bitwise identical across
    workers and equal to direct summation: each chunk's contributions are
    reduced in worker-id order no matter where they travel in the ring.
    """
    vecs = [g if isinstance(g, GradientVector) else GradientVector(g, i)
            for i, g in enumerate(grads)]
    w = len(vecs)
    if w == 0:
        raise ValueError("need at least one worker")
    length = vecs[0].values.shape[0]
    for g in vecs:
        if g.values.shape != (length,):
            raise ValueError(
                f"worker {g.worker_id}: gradient length {g.values.shape} != ({length},)")
    if w == 1:
        return [GradientVector(vecs[0].values.copy(), vecs[0].worker_id)]

    bounds = np.linspace(0, length, w + 1).astype(int)
    chunks = [slice(bounds[i], bounds[i + 1]) for i in range(w)]
    # contributions[worker][chunk] = set of source workers whose values the
    # local copy of that chunk currently represents
    contrib = [[{i} for _ in range(w)] for i in range(w)]

    def reduced(sources: set[int], chunk: slice) -> np.ndarray:
        # fixed reduction order: ascending worker id
        out = vecs[min(sources)].values[chunk].copy()
        for src in sorted(sources)[1:]:
            out = out + vecs[src].values[chunk]
        return out

    # scatter-reduce: after step s, worker (c + s + 1) % w holds chunk c
    # reduced over s + 1 contiguous sources
    for step in range(w - 1):
        transfers = []
        for src_worker in range(w):
            c = (src_worker - step) % w
            transfers.append((src_worker, (src_worker + 1) % w, c))
        for src_worker, dst_worker, c in transfers:
            contrib[dst_worker][c] = contrib[dst_worker][c] | contrib[src_worker][c]
    # all-gather: after w-1 steps chunk c is fully reduced at worker
    # (c + w - 1) % w; circulate each owner's chunk to everyone
    results = [np.empty(length) for _ in range(w)]
    for c in range(w):
        owner = (c + w - 1) % w
        if len(contrib[owner][c]) != w:
            raise AssertionError("ring schedule failed to reduce a chunk fully")
        full = reduced(contrib[owner][c], chunks[c])
        for dst in range(w):
            results[dst][chunks[c]] = full
    return [GradientVector(results[i], vecs[i].worker_id) for i in range(w)]


def clip_by_global_norm(grads: Sequence[GradientVector],
                        clip_norm: float) -> list[GradientVector]:
    """Scale all gradients by clip_norm/global_norm when the global norm
    exceeds clip_norm; otherwise return them unchanged (copies)."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    total_sq = 0.0
    for g in grads:
        if not np.all(np.isfinite(g.values)):
            raise ValueError(f"worker {g.worker_id} has non-finite gradients")
        total_sq += float(np.sum(g.values * g.values))
    global_norm = float(np.sqrt(total_sq))
    if global_norm > clip_norm:
        scale = clip_norm / global_norm
        return [GradientVector(g.values * scale, g.worker_id) for g in grads]
    return [GradientVector(g.values.copy(), g.worker_id) for g in grads]


@dataclass
class BenchRow:
    servers: int
    consumers: int
    ratio: float
    epoch_time_s: float
    t_session: float
    batches: int

    def csv(self) -> str:
        return (f"{self.servers},{self.consumers},{self.ratio:.4f},"
                f"{self.epoch_time_s:.4f},{self.t_session:.4f},{self.batches}")


BENCH_CSV_HEADER = "servers,consumers,ratio,epoch_time_s,t_session,batches"


def _run_bench_once(servers: int, consumers: int, step_cost: float,
                    config: dict, seed_base: int, *,
                    max_credits: int = 8) -> ThroughputStats:
    import threading

    from .client import connect_consumer
    from .server import launch_servers

    config = copy.deepcopy(config)
    config.setdefault("server", {}).update({"num_pipelines": consumers, "epochs": 1})
    config.setdefault("pipeline", {})["seed"] = seed_base
    procs = launch_servers(servers, config)
    stats: list[ThroughputStats | None] = [None] * consumers
    errors: list[Exception] = []

    def run_consumer(g: int):
        conns = []
        try:
            for p in procs:
                conns.append(connect_consumer(p.endpoint, max_credits=max_credits))
            for c in conns:  # prime: epoch timing starts with supply warm
                c.wait_ready(timeout=120.0)
            stats[g] = consume_epoch(merge_streams(conns), step_cost)
        except Exception as exc:  # surface launch/connect problems
            errors.append(exc)
        finally:
            for c in conns:
                c.close()

    try:
        threads = [threading.Thread(target=run_consumer, args=(g,)) for g in range(consumers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for p in procs:
            p.terminate()
        for p in procs:
            p.wait(timeout=10.0)
    if errors:
        raise errors[0]
    done = [s for s in stats if s is not None]
    elapsed = max(s.elapsed_time for s in done)
    session = sum(s.session_time for s in done)
    t_session = float(np.mean([s.t_session for s in done]))
    return ThroughputStats(elapsed, session, t_session,
                           sum(s.batches for s in done), elapsed,
                           incomplete=any(s.incomplete for s in done))


def bench_scaling(server_counts: Sequence[int], consumers: int, step_cost: float,
                  config: dict, *, repeats: int = 3,
                  seed_base: int = 0) -> list[BenchRow]:
    """Throughput study: one row of medians per server count.

    Every consumer connects to every server; each server owns a disjoint
    shard subset and splits it across its per-consumer pipeline slots.
    """
    rows = []
    for s in server_counts:
        epoch_times = []
        t_sessions = []
        batch_counts = []
        for rep in range(repeats):
            st = _run_bench_once(s, consumers, step_cost, config,
                                 seed_base + 1000 * rep)
            epoch_times.append(st.epoch_time)
            t_sessions.append(st.t_session)
            batch_counts.append(st.batches)
        rows.append(BenchRow(s, consumers, s / consumers,
                             statistics.median(epoch_times),
                             statistics.median(t_sessions),
                             batch_counts[len(batch_counts) // 2]))
    return rows
