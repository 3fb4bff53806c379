"""Trainer simulation: utilization metric, ring allreduce, gradient clipping."""

import time

import numpy as np
import pytest

from esf.errors import DeliveryError
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
    with pytest.raises(ValueError):
        consume_epoch(iter([]), -1.0)


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
