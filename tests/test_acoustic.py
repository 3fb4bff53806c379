"""Room sampling, image-source impulse responses, and noise mixing."""

import itertools
import math

import numpy as np
import pytest

from esf import acoustic
from esf.dsp import Waveform
from esf.errors import (ConfigurationError, DegenerateGeometryError,
                        DegenerateSignalError)


def test_sample_room_deterministic():
    cfg = acoustic.SimulatorConfig()
    a = acoustic.sample_room(np.random.default_rng(5), cfg)
    b = acoustic.sample_room(np.random.default_rng(5), cfg)
    assert a.dimensions == b.dimensions
    assert a.target_t60 == b.target_t60
    np.testing.assert_array_equal(a.source_position, b.source_position)
    np.testing.assert_array_equal(a.mic_position, b.mic_position)


def test_sample_room_point_ranges():
    cfg = acoustic.SimulatorConfig(dim_ranges=((5, 5), (4, 4), (3, 3)),
                                   t60_range=(0.43, 0.43))
    room = acoustic.sample_room(np.random.default_rng(0), cfg)
    assert room.dimensions == (5.0, 4.0, 3.0)
    assert room.target_t60 == 0.43


def test_sample_room_monte_carlo_means():
    cfg = acoustic.SimulatorConfig()
    rng = np.random.default_rng(123)
    dims = np.array([acoustic.sample_room(rng, cfg).dimensions for _ in range(10_000)])
    for axis, (lo, hi) in enumerate(cfg.dim_ranges):
        mid = (lo + hi) / 2.0
        assert abs(dims[:, axis].mean() - mid) / mid < 0.02


def test_sample_room_clearance_too_tight():
    with pytest.raises(ConfigurationError):
        acoustic.SimulatorConfig(dim_ranges=((0.5, 0.5), (4, 4), (3, 3)))


def test_sabine_measured_room():
    # 5x4x3 m room at the measured T60 of 0.43 s
    room = acoustic.RoomSpec((5, 4, 3), [1, 1, 1], [2, 2, 2], 0.43)
    alpha = acoustic.t60_to_absorption(room)
    assert alpha == pytest.approx(0.161 * 60 / (94 * 0.43), rel=1e-12)
    assert alpha == pytest.approx(0.2390, abs=5e-4)


def test_sabine_clamps():
    room = acoustic.RoomSpec((5, 4, 3), [1, 1, 1], [2, 2, 2], 1e9)
    assert acoustic.t60_to_absorption(room) == acoustic.MIN_ABSORPTION
    room = acoustic.RoomSpec((5, 4, 3), [1, 1, 1], [2, 2, 2], 1e-9)
    assert acoustic.t60_to_absorption(room) == 1.0


def test_direct_path_tap_at_distance_over_c():
    # distance 3.43 m, c = 343 m/s, 16 kHz -> tap at sample 160 (within the
    # +-1 sample the fractional-delay interpolation allows)
    room = acoustic.RoomSpec((10, 8, 4), [2, 2, 2], [5.43, 2, 2], 0.5,
                             max_image_order=0)
    h = acoustic.compute_rir(room, 16000)
    assert int(np.argmax(np.abs(h.taps))) == 160
    dist = 3.43
    assert h.taps[160] == pytest.approx(1.0 / (4 * np.pi * dist), rel=1e-9)
    # everything but the two interpolation taps is silent
    other = np.delete(h.taps, [159, 160])
    assert np.max(np.abs(other)) == 0.0


def test_full_absorption_leaves_only_direct_path():
    room_lo = acoustic.RoomSpec((5, 4, 3), [1, 1, 1], [3, 2, 2], 1e-9,
                                max_image_order=8)
    assert acoustic.t60_to_absorption(room_lo) == 1.0
    h = acoustic.compute_rir(room_lo, 16000)
    direct = np.linalg.norm(np.array([3, 2, 2]) - np.array([1, 1, 1]))
    delay = direct / 343.0 * 16000
    nz = np.nonzero(h.taps)[0]
    assert set(nz) <= {int(np.floor(delay)), int(np.floor(delay)) + 1}


def brute_force_images(room, order):
    """Enumerate images directly from the mirrored-lattice definition."""
    lx, ly, lz = room.dimensions
    sx, sy, sz = room.source_position
    out = []
    span = order + 1
    for ix, iy, iz in itertools.product(range(-span, span + 1), repeat=3):
        # cell index i along an axis: coordinate = i*L + (src if i even else
        # (i+1)*L - ... ) -- equivalently even cells hold +src images
        def coord(i, length, src):
            if i % 2 == 0:
                return i * length + src
            return (i + 1) * length - src
        n = abs(ix) + abs(iy) + abs(iz)
        if n > order:
            continue
        pos = np.array([coord(ix, lx, sx), coord(iy, ly, sy), coord(iz, lz, sz)])
        out.append((pos, n))
    return out


def test_rir_matches_brute_force_enumeration_low_order():
    room = acoustic.RoomSpec((6.0, 4.4, 3.1), [1.3, 1.1, 1.6], [4.2, 3.0, 1.2],
                             0.4, max_image_order=2)
    fs = 16000
    h = acoustic.compute_rir(room, fs)
    r = math.sqrt(1.0 - acoustic.t60_to_absorption(room))
    expect = np.zeros_like(h.taps)
    for pos, n in brute_force_images(room, 2):
        d = float(np.linalg.norm(pos - room.mic_position))
        amp = r ** n / (4 * np.pi * d)
        delay = d / 343.0 * fs
        base = int(np.floor(delay))
        frac = delay - base
        expect[base] += amp * (1 - frac)
        expect[base + 1] += amp * frac
    np.testing.assert_allclose(h.taps, expect, rtol=1e-10, atol=1e-16)


def test_rir_duration_truncation_matches_full_prefix():
    room = acoustic.RoomSpec((5, 4, 3), [1, 1, 1], [3.2, 2.1, 1.7], 0.4,
                             max_image_order=6)
    full = acoustic.compute_rir(room, 16000)
    short = acoustic.compute_rir(room, 16000, duration=0.02)
    n = len(short.taps) - 2  # final two samples may lose out-of-window halves
    np.testing.assert_allclose(short.taps[:n], full.taps[:n], rtol=1e-12)


def rir_add_at_oracle(room, sample_rate, duration=None):
    """compute_rir with the two-np.add.at deposit that bincount replaced."""
    order = room.max_image_order
    c = room.speed_of_sound
    reach = None if duration is None else duration * c
    reflect = math.sqrt(max(0.0, 1.0 - acoustic.t60_to_absorption(room)))
    (cx, nx), (cy, ny), (cz, nz) = (
        acoustic._axis_images(room.source_position[i], room.dimensions[i], order, reach)
        for i in range(3))
    total = nx[:, None, None] + ny[None, :, None] + nz[None, None, :]
    keep = total <= order
    dx = cx[:, None, None] - room.mic_position[0]
    dy = cy[None, :, None] - room.mic_position[1]
    dz = cz[None, None, :] - room.mic_position[2]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    if reach is not None:
        keep &= dist <= reach
    dist = dist[keep]
    refl_count = total[keep]
    delays = dist * (sample_rate / c)
    if duration is None:
        length = int(np.ceil(delays.max())) + 2 if delays.size else 1
    else:
        length = int(np.ceil(duration * sample_rate)) + 2
    taps = np.zeros(length)
    amps = np.power(reflect, refl_count) / (4.0 * np.pi * dist)
    base = np.floor(delays).astype(np.int64)
    frac = delays - base
    lo_ok = base < length
    hi_ok = base + 1 < length
    np.add.at(taps, base[lo_ok], amps[lo_ok] * (1.0 - frac[lo_ok]))
    np.add.at(taps, base[hi_ok] + 1, amps[hi_ok] * frac[hi_ok])
    return taps


@pytest.mark.parametrize("order", [4, 20])
@pytest.mark.parametrize("truncate", [False, True])
def test_rir_bit_identical_to_add_at_oracle(order, truncate):
    cfg = acoustic.SimulatorConfig(max_image_order=order)
    for seed in range(20):
        room = acoustic.sample_room(np.random.default_rng(seed), cfg)
        full = acoustic.compute_rir(room, 16000).taps
        # a truncating duration keeps about the first 60% of the response
        duration = 0.6 * len(full) / 16000 if truncate else None
        taps = acoustic.compute_rir(room, 16000, duration=duration).taps
        want = rir_add_at_oracle(room, 16000, duration)
        assert (len(taps) < len(full)) == truncate
        assert np.array_equal(taps.view(np.uint64), want.view(np.uint64))


def test_rir_bit_identical_to_full_lattice_over_orders():
    # the kept images come from a per-order cache; the oracle masks the full
    # lattice for every room
    rng = np.random.default_rng(40)
    for trial in range(300):
        cfg = acoustic.SimulatorConfig(max_image_order=int(rng.integers(0, 25)))
        room = acoustic.sample_room(rng, cfg)
        taps = acoustic.compute_rir(room, 16000).taps
        want = rir_add_at_oracle(room, 16000)
        assert np.array_equal(taps.view(np.uint64), want.view(np.uint64))


def test_rir_source_within_rounding_of_a_wall_matches_the_lattice():
    # 2*L + x rounds to 2*L - x here, so the stable sort of the x images puts
    # that pair's reflection counts in the other order than in other rooms
    room = acoustic.RoomSpec((5, 4, 3), [1e-300, 1.3, 1.1], [3.2, 2.1, 1.7], 0.4,
                             max_image_order=6)
    _, counts = acoustic._axis_images(1e-300, 5.0, 6, None)
    _, usual = acoustic._axis_images(1.0, 5.0, 6, None)
    assert not np.array_equal(counts, usual)
    for duration in (None, 0.02):
        taps = acoustic.compute_rir(room, 16000, duration=duration).taps
        want = rir_add_at_oracle(room, 16000, duration)
        assert np.array_equal(taps.view(np.uint64), want.view(np.uint64))


def test_rir_degenerate_geometry():
    room = acoustic.RoomSpec((5, 4, 3), [1, 1, 1], [1, 1, 1], 0.4)
    with pytest.raises(DegenerateGeometryError):
        acoustic.compute_rir(room, 16000)


def test_apply_rir_identity_and_shift():
    w = Waveform(np.random.default_rng(0).standard_normal(500) * 0.3, 16000)
    ident = acoustic.ImpulseResponse(np.array([1.0]), 16000)
    out = acoustic.apply_rir(w, ident)
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-12)
    delayed = acoustic.ImpulseResponse(np.array([0.0, 0.0, 0.0, 1.0]), 16000)
    out = acoustic.apply_rir(w, delayed)
    np.testing.assert_allclose(out.samples[3:], w.samples[:-3], atol=1e-12)
    np.testing.assert_allclose(out.samples[:3], 0, atol=1e-12)


def test_apply_rir_matches_naive_convolution():
    rng = np.random.default_rng(8)
    w = Waveform(rng.standard_normal(200), 16000)
    h = acoustic.ImpulseResponse(rng.standard_normal(50), 16000)
    out = acoustic.apply_rir(w, h)
    naive = np.zeros(len(w.samples))
    for i in range(len(w.samples)):
        for j in range(len(h.taps)):
            if 0 <= i - j < len(w.samples):
                naive[i] += w.samples[i - j] * h.taps[j]
    np.testing.assert_allclose(out.samples, naive, atol=1e-10)


def test_apply_rir_bit_identical_to_fftconvolve():
    import scipy.signal

    rng = np.random.default_rng(9)
    lengths = [(1, 1), (1, 7), (7, 1), (2, 2), (5, 3), (3, 5), (31, 17)]
    lengths += [(int(rng.integers(1, 40000)), int(rng.integers(1, 8000)))
                for _ in range(40)]
    for n, m in lengths:
        w = Waveform(rng.standard_normal(n), 16000)
        h = acoustic.ImpulseResponse(rng.standard_normal(m), 16000)
        want = scipy.signal.fftconvolve(w.samples, h.taps)[:n]
        got = acoustic.apply_rir(w, h).samples
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, m)


def test_apply_rir_result_keeps_its_bits_after_a_longer_call():
    rng = np.random.default_rng(12)
    h = acoustic.ImpulseResponse(rng.standard_normal(300), 16000)
    # a long call first, so that the later calls reuse this thread's buffers
    acoustic.apply_rir(Waveform(rng.standard_normal(60000), 16000), h)
    first = acoustic.apply_rir(Waveform(rng.standard_normal(4000), 16000), h).samples
    kept = first.copy()
    second = acoustic.apply_rir(Waveform(rng.standard_normal(40000), 16000), h).samples
    assert not np.shares_memory(first, second)
    assert np.array_equal(first.view(np.uint64), kept.view(np.uint64))


def test_next_fast_len_is_scipys_real_choice():
    import scipy.fft

    for n in [*range(1, 3000), 47999, 96001, 2 ** 20 + 1, 3 ** 12 + 1]:
        assert acoustic._next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


def test_apply_rir_rejects_rate_mismatch():
    w = Waveform(np.zeros(10), 16000)
    with pytest.raises(ValueError):
        acoustic.apply_rir(w, acoustic.ImpulseResponse(np.array([1.0]), 8000))


def test_estimate_t60_on_synthetic_exponential_decay():
    fs = 16000
    t60 = 0.44
    t = np.arange(int(fs * 0.6)) / fs
    rng = np.random.default_rng(3)
    taps = rng.standard_normal(t.size) * 10 ** (-3 * t / t60)  # -60 dB at t60
    est = acoustic.estimate_t60(acoustic.ImpulseResponse(taps, fs))
    assert abs(est - t60) / t60 < 0.03


def _t60_room_sample(rng):
    """Room + target jointly sampled inside the diffuse-field domain of the
    scalar-absorption model: moderate Sabine absorption, bounded aspect
    ratio (see the acceptance suite for the scanned evidence)."""
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


def test_schroeder_t60_within_band_on_random_rooms():
    rng = np.random.default_rng(99)
    fs = 192_000
    for _ in range(5):
        dims, source, mic, t60 = _t60_room_sample(rng)
        duration = t60 * 0.80
        order = max(21, int(np.ceil(duration * 343.0 * sum(1.0 / d for d in dims))) + 3)
        room = acoustic.RoomSpec(dims, source, mic, t60, max_image_order=order)
        h = acoustic.compute_rir(room, fs, duration=duration)
        est = acoustic.estimate_t60(h)
        assert abs(est - t60) / t60 < 0.25


def test_mix_noise_closed_form_gain():
    # P_s = P_n = 1, target 20 dB -> g = 0.1
    speech = Waveform(np.array([1.0, -1.0] * 50), 16000)
    noise = Waveform(np.array([-1.0, 1.0] * 50), 16000)
    res = acoustic.mix_noise(speech, noise, 20.0)
    assert res.gain == pytest.approx(0.1, rel=1e-12)


def test_mix_noise_infinite_snr_identity():
    speech = Waveform(np.array([0.1, 0.2, -0.1]), 16000)
    noise = Waveform(np.array([0.5, 0.5, 0.5]), 16000)
    res = acoustic.mix_noise(speech, noise, math.inf)
    np.testing.assert_array_equal(res.waveform.samples, speech.samples)


def test_mix_noise_achieves_target_snr():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(500, 2000))
        speech = Waveform(rng.standard_normal(n) * 0.2, 16000)
        noise = Waveform(rng.standard_normal(n) * rng.uniform(0.05, 1.0), 16000)
        target = float(rng.uniform(-5, 30))
        res = acoustic.mix_noise(speech, noise, target)
        if res.peak_scaled:
            continue
        added = res.waveform.samples - speech.samples
        measured = 10 * np.log10(np.mean(speech.samples ** 2) / np.mean(added ** 2))
        assert abs(measured - target) < 0.01


def test_mix_noise_loops_short_noise_and_crops_long():
    speech = Waveform(np.full(100, 0.5), 16000)
    short = Waveform(np.array([0.3, -0.3]), 16000)
    res = acoustic.mix_noise(speech, short, 10.0)
    assert len(res.waveform.samples) == 100
    long = Waveform(np.full(500, 0.3), 16000)
    res = acoustic.mix_noise(speech, long, 10.0)
    assert len(res.waveform.samples) == 100


def test_mix_noise_degenerate_signals():
    silent = Waveform(np.zeros(100), 16000)
    loud = Waveform(np.full(100, 0.5), 16000)
    with pytest.raises(DegenerateSignalError, match="noise"):
        acoustic.mix_noise(loud, silent, 10.0)
    with pytest.raises(DegenerateSignalError, match="speech"):
        acoustic.mix_noise(silent, loud, 10.0)


def test_mix_noise_peak_protection():
    speech = Waveform(np.full(50, 0.9), 16000)
    noise = Waveform(np.full(50, 0.9), 16000)
    res = acoustic.mix_noise(speech, noise, 0.0)  # doubles the signal
    assert res.peak_scaled
    assert np.max(np.abs(res.waveform.samples)) <= 1.0


def make_record(seed=0, n=4000):
    from esf.recordio import UtteranceRecord
    rng = np.random.default_rng(seed)
    return UtteranceRecord.from_float("u0", 16000, rng.standard_normal(n) * 0.1,
                                      "hello world")


def test_simulate_identity_when_probabilities_zero():
    cfg = acoustic.SimulatorConfig(probability_of_reverb=0.0,
                                   probability_of_noise=0.0)
    rec = make_record()
    out = acoustic.simulate(rec, np.random.default_rng(1), cfg)
    np.testing.assert_array_equal(out.samples, rec.samples)
    assert out.transcript == rec.transcript


def test_simulate_deterministic_given_seed():
    cfg = acoustic.SimulatorConfig(max_image_order=4)
    rec = make_record()
    a = acoustic.simulate(rec, np.random.default_rng(7), cfg)
    b = acoustic.simulate(rec, np.random.default_rng(7), cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.metadata == b.metadata


def test_simulate_records_metadata_and_keeps_transcript():
    cfg = acoustic.SimulatorConfig(max_image_order=2)
    for seed in range(20):
        rec = make_record(seed)
        out = acoustic.simulate(rec, np.random.default_rng(seed), cfg)
        keys = [k for k, _ in out.metadata]
        assert "room.dims" in keys
        assert "room.t60" in keys
        assert "mix.snr_db" in keys
        assert out.transcript == rec.transcript
        assert out.utt_id == rec.utt_id
