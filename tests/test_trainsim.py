"""Trainer simulation: utilization metric, ring allreduce, gradient clipping,
and the servers-versus-consumers bench."""

import copy
import math
import threading
import time

import numpy as np
import pytest

import esf.client
import esf.server
import esf.trainsim
from esf.config import merge_config, server_config
from esf.errors import DeliveryError
from esf.synth import write_synth_corpus
from esf.trainsim import (GradientVector, ThroughputStats, clip_by_global_norm,
                          consume_epoch, merge_streams, ring_allreduce)


def test_t_session_is_session_over_elapsed():
    stats = ThroughputStats(100.0, 50.0, 0.5, 10)
    assert stats.t_session == stats.session_time / stats.elapsed_time == 0.5


def test_consume_epoch_zero_step_cost():
    stats = consume_epoch(iter([object()] * 5), 0.0)
    assert stats.session_time == 0.0
    assert stats.t_session == 0.0
    assert stats.batches == 5
    assert not stats.incomplete


def test_consume_epoch_compute_bound_approaches_one():
    stats = consume_epoch(iter([object()] * 20), 0.01)
    assert stats.batches == 20
    assert stats.t_session > 0.9
    assert 0.0 <= stats.t_session <= 1.0


def test_consume_epoch_slow_producer_lowers_utilization():
    def slow_stream():
        for _ in range(5):
            time.sleep(0.02)
            yield object()

    stats = consume_epoch(slow_stream(), 0.005)
    assert stats.t_session < 0.5


def test_consume_epoch_flags_delivery_error():
    def broken():
        yield object()
        raise DeliveryError("gone", last_ordinal=0)

    stats = consume_epoch(broken(), 0.0)
    assert stats.incomplete
    assert stats.batches == 1


def test_consume_epoch_rejects_negative_step():
    for step_cost in (-1.0, math.inf):  # time.sleep(inf) raises OverflowError
        with pytest.raises(ValueError):
            consume_epoch(iter([]), step_cost)


def test_merge_streams_round_robin_and_drain():
    got = list(merge_streams([iter([1, 4]), iter([2, 5, 6]), iter([3])]))
    assert got == [1, 2, 3, 4, 5, 6]


def test_ring_allreduce_small_example():
    out = ring_allreduce([np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                          np.array([5.0, 6.0])])
    for g in out:
        np.testing.assert_array_equal(g.values, [9.0, 12.0])


def test_ring_allreduce_single_worker_identity():
    (out,) = ring_allreduce([GradientVector(np.array([1.5, -2.5]), 0)])
    np.testing.assert_array_equal(out.values, [1.5, -2.5])


@pytest.mark.parametrize("workers", [1, 2, 5, 8])
def test_ring_allreduce_bitwise_equals_direct_sum(workers):
    rng = np.random.default_rng(workers)
    vectors = [rng.standard_normal(37) for _ in range(workers)]
    direct = vectors[0].copy()
    for v in vectors[1:]:
        direct = direct + v
    out = ring_allreduce(vectors)
    for g in out:
        assert np.array_equal(g.values, direct)  # 0 ulp
    # identical across every worker
    for g in out[1:]:
        assert np.array_equal(g.values, out[0].values)


def test_ring_allreduce_short_vectors():
    # more workers than elements: some chunks are empty
    out = ring_allreduce([np.array([1.0]), np.array([2.0]), np.array([3.0])])
    for g in out:
        np.testing.assert_array_equal(g.values, [6.0])


def test_ring_allreduce_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ring_allreduce([np.zeros(3), np.zeros(4)])


def test_clip_boundary_is_noop():
    grads = [GradientVector(np.array([3.0]), 0), GradientVector(np.array([4.0]), 1)]
    out = clip_by_global_norm(grads, 5.0)
    assert out[0].values[0] == 3.0
    assert out[1].values[0] == 4.0


def test_clip_scales_to_clip_norm():
    grads = [GradientVector(np.array([3.0]), 0), GradientVector(np.array([4.0]), 1)]
    out = clip_by_global_norm(grads, 2.5)
    np.testing.assert_allclose(out[0].values, [1.5])
    np.testing.assert_allclose(out[1].values, [2.0])


def test_clip_zero_gradients_unchanged():
    grads = [GradientVector(np.zeros(4), 0)]
    out = clip_by_global_norm(grads, 1.0)
    np.testing.assert_array_equal(out[0].values, np.zeros(4))


def test_clip_post_norm_property():
    rng = np.random.default_rng(5)
    for _ in range(500):
        grads = [GradientVector(rng.standard_normal(int(rng.integers(1, 8)))
                                * rng.uniform(0.1, 10), i)
                 for i in range(int(rng.integers(1, 4)))]
        clip = float(rng.uniform(0.1, 10.0))
        before = np.sqrt(sum(np.sum(g.values ** 2) for g in grads))
        out = clip_by_global_norm(grads, clip)
        after = np.sqrt(sum(np.sum(g.values ** 2) for g in out))
        expect = min(before, clip)
        assert abs(after - expect) <= 1e-12 * max(1.0, expect)


def test_clip_names_nonfinite_worker():
    grads = [GradientVector(np.array([1.0]), 0),
             GradientVector(np.array([np.nan]), 7)]
    with pytest.raises(ValueError, match="worker 7"):
        clip_by_global_norm(grads, 1.0)


class InProcessServer:
    """What _run_bench_once uses of a launched server, run on a thread."""

    def __init__(self, cfg: dict):
        self.server = esf.server.ExampleServer(server_config(cfg))
        self.endpoint = self.server.start()
        self.thread = threading.Thread(target=self.server.run, daemon=True)
        self.thread.start()

    def terminate(self):
        pass  # the server ends once its slots have

    def wait(self, timeout=None):
        self.thread.join(timeout)


def test_bench_gives_consumer_g_slot_g_plus_j_at_server_j(tmp_path, monkeypatch):
    # 14 shards of 2 utterances: the 3 servers own 5, 5 and 4 shards, so
    # their 2 slots hold (3, 2), (3, 2) and (2, 2). A consumer that took
    # slot 0 everywhere would get 8 shards and the other 6; in rotation
    # each gets 7.
    shards, vocab = write_synth_corpus(str(tmp_path), 28, 14, seed=23,
                                       duration_range=(0.1, 0.2))
    cfg = merge_config(None)
    cfg["pipeline"].update(shard_paths=shards.shard_paths, vocab_path=vocab,
                           batch_size=1, shuffle_buffer=4)
    servers = []

    def fake_launch(n, config):
        for j in range(n):
            server_cfg = copy.deepcopy(config)
            server_cfg["server"].update(server_index=j, server_count=n)
            server_cfg["pipeline"]["seed"] += j
            servers.append(InProcessServer(server_cfg))
        return servers

    server_of = {}
    real_connect = esf.client.connect_consumer

    def recording_connect(addr, **kwargs):
        consumer = real_connect(addr, **kwargs)
        server_of[consumer] = [s.endpoint for s in servers].index(addr)
        return consumer

    held = []  # per consumer, in order: (server, slot) of each connection
    real_merge = esf.trainsim.merge_streams

    def recording_merge(conns):
        held.append([(server_of[c], c.assignment["slot"]) for c in conns])
        return real_merge(conns)

    monkeypatch.setattr(esf.server, "launch_servers", fake_launch)
    monkeypatch.setattr(esf.client, "connect_consumer", recording_connect)
    monkeypatch.setattr(esf.trainsim, "merge_streams", recording_merge)
    stats, per_consumer = esf.trainsim._run_bench_once(3, 2, 0.0, cfg, 5)
    for s in servers:
        s.wait(10)
        assert not s.thread.is_alive()
    assert held == [[(j, (g + j) % 2) for j in range(3)] for g in range(2)]
    assert per_consumer == [14, 14]  # batches of 1: 7 shards' utterances each
    assert stats.batches == 28 and not stats.incomplete
