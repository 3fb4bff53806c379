"""Simulated trainers: batch consumption with a synthetic compute step,
utilization accounting, ring-allreduce aggregation, global-norm clipping,
and the servers-versus-consumers throughput study.

Utilization is t_session = session_time / elapsed_time where session_time is
wall time spent inside the simulated compute steps; it approaches 1 when the
example servers keep every consumer supplied.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DeliveryError, EsfError
from .util import round_robin


@dataclass
class ThroughputStats:
    elapsed_time: float
    session_time: float
    t_session: float
    batches: int
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
    if not 0 <= step_cost < math.inf:  # NaN too
        raise ValueError("step_cost must be a finite number >= 0")
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
    return ThroughputStats(elapsed, session, t_session, batches, incomplete=incomplete)


def merge_streams(consumers: Sequence[Iterable]) -> Iterator:
    """Round-robin over several batch streams until all are exhausted.

    Delivery errors propagate; remaining healthy streams are left untouched.
    """
    return round_robin(consumers)


def ring_allreduce(grads: Sequence[GradientVector | np.ndarray]) -> list[GradientVector]:
    """The sum a chunked ring allreduce delivers, one copy per worker.

    A ring (scatter-reduce then all-gather, 2(W-1) steps) that reduces every
    chunk's contributions in a fixed order gives each worker the same bits:
    the elementwise sum taken in ascending worker order (the order grads are
    given, which is the worker id for plain arrays). That sum is computed
    here directly.
    """
    vecs = [g if isinstance(g, GradientVector) else GradientVector(g, i)
            for i, g in enumerate(grads)]
    if not vecs:
        raise ValueError("need at least one worker")
    length = vecs[0].values.shape[0]
    for g in vecs:
        if g.values.shape != (length,):
            raise ValueError(
                f"worker {g.worker_id}: gradient length {g.values.shape} != ({length},)")
    total = vecs[0].values.copy()
    for g in vecs[1:]:
        total = total + g.values
    return [GradientVector(total.copy(), g.worker_id) for g in vecs]


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
class BenchConfig:
    """The bench config section: the study's shape and its synthetic corpus."""

    servers: tuple[int, ...] = (1, 2, 3, 4, 5)
    consumers: int = 2
    step_cost: float = 0.02
    repeats: int = 3
    utterances: int = 2000
    num_shards: int = 200
    sample_rate: int = 16000
    duration_range: tuple[float, float] = (0.1, 0.2)

    def __post_init__(self):
        """Refuse a value no study can run, naming its bench.* key."""
        if not self.servers or min(self.servers) < 1:
            raise ConfigurationError(
                f"bench.servers must be a non-empty list of counts >= 1, "
                f"got {list(self.servers)}")
        if not 0 <= self.step_cost < math.inf:
            raise ConfigurationError(
                f"bench.step_cost must be a finite number >= 0, got {self.step_cost}")
        for name in ("consumers", "repeats", "utterances", "num_shards", "sample_rate"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"bench.{name} must be >= 1")
        lo, hi = self.duration_range
        if not 0 < lo <= hi < math.inf:
            raise ConfigurationError(
                f"bench.duration_range must be ordered, positive and finite, "
                f"got {list(self.duration_range)}")


@dataclass
class BenchRow:
    servers: int
    consumers: int
    ratio: float
    epoch_time_s: float
    t_session: float
    batches: int
    consumer_batches: list[list[int]]  # each repeat's batches per consumer

    def csv(self) -> str:
        return (f"{self.servers},{self.consumers},{self.ratio:.4f},"
                f"{self.epoch_time_s:.4f},{self.t_session:.4f},{self.batches}")


BENCH_CSV_HEADER = "servers,consumers,ratio,epoch_time_s,t_session,batches"
_BENCH_MAX_CREDITS = 8  # each bench consumer's credit window at every server


def _run_bench_once(servers: int, consumers: int, step_cost: float,
                    config: dict, seed_base: int) -> tuple[ThroughputStats, list[int]]:
    """One epoch of every consumer against freshly launched servers.

    Returns the stats over all consumers and each consumer's batch count.
    """
    from .client import connect_consumer
    from .server import launch_servers

    config = copy.deepcopy(config)
    config.setdefault("server", {}).update({"num_pipelines": consumers, "epochs": 1})
    config.setdefault("pipeline", {})["seed"] = seed_base
    procs = launch_servers(servers, config)
    conns: list[list] = [[] for _ in range(consumers)]
    try:
        # A server gives out slots in the order HELLOs arrive, so connecting
        # in rotation gives consumer g slot (g + j) mod G at server j: no
        # consumer holds the larger slot 0 at every server.
        for j, p in enumerate(procs):
            for slot in range(consumers):
                c = connect_consumer(p.endpoint, max_credits=_BENCH_MAX_CREDITS)
                conns[(slot - j) % consumers].append(c)
                if c.assignment.get("slot") != slot:
                    raise EsfError(f"server {j} gave slot {c.assignment.get('slot')}, "
                                   f"not {slot}")
        for c in itertools.chain(*conns):  # prime: epoch timing starts with supply warm
            c.wait_ready(timeout=120.0)
        with ThreadPoolExecutor(consumers) as pool:
            done = list(pool.map(consume_epoch, [merge_streams(cs) for cs in conns],
                                 [step_cost] * consumers))
    finally:
        for c in itertools.chain(*conns):
            c.close()
        for p in procs:
            p.terminate()
        for p in procs:
            p.wait(timeout=10.0)
    elapsed = max(s.elapsed_time for s in done)
    session = sum(s.session_time for s in done)
    t_session = float(np.mean([s.t_session for s in done]))
    per_consumer = [s.batches for s in done]
    return (ThroughputStats(elapsed, session, t_session, sum(per_consumer),
                            incomplete=any(s.incomplete for s in done)),
            per_consumer)


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
        consumer_batches = []
        for rep in range(repeats):
            st, per_consumer = _run_bench_once(s, consumers, step_cost, config,
                                               seed_base + 1000 * rep)
            epoch_times.append(st.elapsed_time)
            t_sessions.append(st.t_session)
            batch_counts.append(st.batches)
            consumer_batches.append(per_consumer)
        rows.append(BenchRow(s, consumers, s / consumers,
                             float(np.median(epoch_times)),
                             float(np.median(t_sessions)),
                             batch_counts[len(batch_counts) // 2],
                             consumer_batches))
    return rows
