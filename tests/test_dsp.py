"""Spectral front end: STFT/ISTFT, mel energies, power-mel, MFCC."""

import math

import numpy as np
import pytest
import scipy.fft

from esf import dsp
from esf.errors import ConfigurationError


def rand_wave(n=16000, seed=0, sr=16000, scale=0.3):
    rng = np.random.default_rng(seed)
    return dsp.Waveform(rng.standard_normal(n) * scale, sr)


def test_stft_zero_input_gives_zero_spectrogram():
    w = dsp.Waveform(np.zeros(1000), 16000)
    s = dsp.stft(w, dsp.StftConfig())
    assert np.all(s.frames == 0)


def test_stft_frame_count_boundary():
    cfg = dsp.StftConfig()
    win = cfg.window_samples(16000)
    s = dsp.stft(dsp.Waveform(np.ones(win), 16000), cfg)
    assert s.num_frames == 1
    with pytest.raises(ValueError):
        dsp.stft(dsp.Waveform(np.ones(win - 1), 16000), cfg)


def test_stft_sinusoid_peaks_at_its_bin():
    # bin-centered sinusoid: closed-form DFT of a windowed tone peaks at the
    # tone's bin (symmetric window main lobe)
    cfg = dsp.StftConfig(window_ms=25.0, hop_ms=10.0, dft_size=512)
    sr = 16000
    bin_idx = 40
    freq = bin_idx * sr / cfg.dft_size
    t = np.arange(sr) / sr
    w = dsp.Waveform(0.5 * np.sin(2 * np.pi * freq * t), sr)
    s = dsp.stft(w, cfg)
    mags = np.abs(s.frames)
    for m in range(1, s.num_frames - 1):
        assert np.argmax(mags[m]) == bin_idx


@pytest.mark.parametrize("window_ms,hop_ms,dft", [
    (25.0, 10.0, 512),   # feature front-end preset
    (50.0, 12.5, 1024),  # warp analysis preset
    (32.0, 16.0, 512),   # half-overlap
])
def test_istft_round_trip_presets(window_ms, hop_ms, dft):
    cfg = dsp.StftConfig(window_ms=window_ms, hop_ms=hop_ms, dft_size=dft)
    w = rand_wave(seed=3)
    win = cfg.window_samples(16000)
    back = dsp.istft(dsp.stft(w, cfg))
    n = len(back.samples)
    ref = w.samples[win:n - win]
    got = back.samples[win:n - win]
    rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    assert rel < 1e-6


def test_istft_zero_spectrogram_gives_zero():
    cfg = dsp.StftConfig()
    s = dsp.stft(rand_wave(2000), cfg)
    s.frames[:] = 0
    assert np.all(dsp.istft(s).samples == 0)


def test_istft_single_frame_matches_direct_formula():
    cfg = dsp.StftConfig()
    sr = 16000
    win = cfg.window_samples(sr)
    w = rand_wave(win, seed=9)
    s = dsp.stft(w, cfg)
    assert s.num_frames == 1
    out = dsp.istft(s).samples
    # direct overlap-add of one frame: irfft * window / window^2
    window = dsp.hann_periodic(win)
    frame = np.fft.irfft(s.frames[0], n=cfg.dft_size)[:win]
    norm = window * window
    expect = np.where(norm > 1e-12, frame * window / np.where(norm > 0, norm, 1), 0.0)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_istft_rejects_gappy_hop():
    cfg = dsp.StftConfig(window_ms=20.0, hop_ms=25.0, dft_size=512)
    with pytest.raises(ConfigurationError):
        dsp.stft(rand_wave(4000), cfg)


def stft_gather_oracle(w, cfg):
    """The index-array STFT that strided framing replaced."""
    win = cfg.window_samples(w.sample_rate)
    hop = cfg.hop_samples(w.sample_rate)
    num_frames = 1 + (len(w.samples) - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(num_frames)[:, None]
    frames = w.samples[idx] * dsp.hann_periodic(win)[None, :]
    return np.fft.rfft(frames, n=cfg.dft_size, axis=1)


def istft_loop_oracle(s):
    """The frame-by-frame overlap-add that the block overlap-add replaced."""
    win = s.config.window_samples(s.sample_rate)
    hop = s.config.hop_samples(s.sample_rate)
    span = (s.num_frames - 1) * hop + win
    window = dsp.hann_periodic(win)
    frames = np.fft.irfft(s.frames, n=s.config.dft_size, axis=1)[:, :win]
    out = np.zeros(span)
    norm = np.zeros(span)
    for m in range(s.num_frames):
        sl = slice(m * hop, m * hop + win)
        out[sl] += frames[m] * window
        norm[sl] += window * window
    good = norm > 1e-12
    out[good] /= norm[good]
    out[~good] = 0.0
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("window_ms,hop_ms,dft", [
    (25.0, 10.0, 512),
    (50.0, 12.5, 1024),
    (32.0, 16.0, 512),
    (30.0, 20.0, 512),  # hop does not divide the window: a partial last chunk
])
@pytest.mark.parametrize("length", ["one-frame", "two-frames", "one-second"])
@pytest.mark.parametrize("signal", ["noise", "zeros"])
def test_stft_istft_bit_identical_to_gather_and_loop(window_ms, hop_ms, dft,
                                                       length, signal):
    sr = 16000
    cfg = dsp.StftConfig(window_ms=window_ms, hop_ms=hop_ms, dft_size=dft)
    win, hop = cfg.window_samples(sr), cfg.hop_samples(sr)
    n = {"one-frame": win, "two-frames": win + hop, "one-second": sr}[length]
    w = rand_wave(n, seed=5) if signal == "noise" else dsp.Waveform(np.zeros(n), sr)
    s = dsp.stft(w, cfg)
    assert s.num_frames == 1 + (n - win) // hop
    assert np.array_equal(bits(s.frames), bits(stft_gather_oracle(w, cfg)))
    assert np.array_equal(bits(dsp.istft(s).samples), bits(istft_loop_oracle(s)))


@pytest.mark.parametrize("window_ms,hop_ms,dft", [(50.0, 12.5, 1024), (30.0, 20.0, 512)])
def test_stft_istft_in_reused_scratch_give_the_fresh_bits(window_ms, hop_ms, dft):
    # lengths go up, down and up again, so the buffers are both grown and
    # reused with stale contents from a longer input
    cfg = dsp.StftConfig(window_ms=window_ms, hop_ms=hop_ms, dft_size=dft)
    a, b, c = dsp.Scratch(), dsp.Scratch(), dsp.Scratch()
    for n, seed in [(4000, 1), (20000, 2), (900, 3), (20000, 4), (33333, 5)]:
        w = rand_wave(n, seed=seed)
        fresh = dsp.stft(w, cfg)
        in_scratch = dsp.stft(w, cfg, scratch=(a, b))
        assert np.array_equal(bits(in_scratch.frames), bits(fresh.frames))
        # the spectra may share the sum's or the weights' buffer
        assert np.array_equal(bits(dsp.istft(in_scratch, scratch=(a, b, c)).samples),
                              bits(dsp.istft(fresh).samples))


def test_results_keep_their_bits_after_a_longer_call():
    cfg = dsp.StftConfig()
    # a long call first, so that the later calls reuse this thread's buffers
    dsp.extract_power_mel(rand_wave(80000, seed=0))
    short = rand_wave(4000, seed=1)
    spectra = dsp.stft(short, cfg).frames
    feats = dsp.extract_power_mel(short).values
    kept = spectra.copy(), feats.copy()
    longer = rand_wave(40000, seed=2)
    dsp.istft(dsp.stft(longer, cfg))
    assert not np.shares_memory(feats, dsp.extract_power_mel(longer).values)
    assert np.array_equal(bits(spectra), bits(kept[0]))
    assert np.array_equal(bits(feats), bits(kept[1]))


def test_power_mel_in_thread_scratch_gives_the_fresh_bits():
    cfg = dsp.feature_config(16000)
    for n, seed in [(4000, 1), (30000, 2), (900, 3)]:
        w = rand_wave(n, seed=seed)
        power = np.abs(stft_gather_oracle(w, cfg)) ** 2
        fb = dsp.mel_filterbank(dsp.DEFAULT_NUM_FILTERS, power.shape[1], 16000,
                                dsp.DEFAULT_FMIN, dsp.DEFAULT_FMAX)
        want = np.power(power @ fb.T, dsp.POWER_LAW_EXPONENT)
        assert np.array_equal(bits(dsp.extract_power_mel(w).values), bits(want))


def test_scratch_grows_only_and_reuses_its_memory():
    buf = dsp.Scratch()
    big = buf.array((100, 7), np.complex128)
    small = buf.array((3, 5))
    assert small.shape == (3, 5) and small.dtype == np.float64
    assert np.shares_memory(big, small)
    bigger = buf.array((200, 7), np.complex128)
    assert not np.shares_memory(big, bigger)
    assert np.shares_memory(bigger, buf.array((100, 7), np.complex128))


def test_hann_window_is_cached_and_read_only():
    window = dsp.hann_periodic(400)
    assert dsp.hann_periodic(400) is window
    with pytest.raises(ValueError):
        window[0] = 1.0


def test_parseval_per_frame():
    cfg = dsp.StftConfig()
    sr = 16000
    win, hop, k = cfg.window_samples(sr), cfg.hop_samples(sr), cfg.dft_size
    w = rand_wave(5000, seed=1)
    s = dsp.stft(w, cfg)
    window = dsp.hann_periodic(win)
    for m in range(s.num_frames):
        half = s.frames[m]
        spec_power = (abs(half[0]) ** 2 + abs(half[-1]) ** 2
                      + 2 * np.sum(np.abs(half[1:-1]) ** 2))
        seg = w.samples[m * hop:m * hop + win] * window
        time_power = k * np.sum(seg ** 2)
        assert abs(spec_power - time_power) / time_power < 1e-6


def triangle_weight(f, lo, center, hi):
    """Scalar hat function, written independently of the filterbank matrix."""
    if f <= lo or f >= hi:
        return 0.0
    if f <= center:
        return (f - lo) / (center - lo)
    return (hi - f) / (hi - center)


def expected_filter_areas(num_filters, num_bins, sr, fmin, fmax):
    mel = lambda f: 2595.0 * math.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    pts = [imel(mel(fmin) + (mel(fmax) - mel(fmin)) * i / (num_filters + 1))
           for i in range(num_filters + 2)]
    areas = []
    for j in range(num_filters):
        total = 0.0
        for b in range(num_bins):
            f = b * (sr / 2.0) / (num_bins - 1)
            total += triangle_weight(f, pts[j], pts[j + 1], pts[j + 2])
        areas.append(total)
    return np.array(areas)


def test_mel_energies_zero_spectrogram():
    s = dsp.stft(dsp.Waveform(np.zeros(2000), 16000), dsp.StftConfig())
    e = dsp.mel_energies(s)
    assert np.all(e.values == 0)
    assert e.kind == "mel_energy"


def test_mel_flat_power_equals_filter_areas():
    cfg = dsp.StftConfig()
    sr = 16000
    num_bins = cfg.dft_size // 2 + 1
    s = dsp.Spectrogram(np.ones((3, num_bins), dtype=complex), cfg, sr)
    e = dsp.mel_energies(s, num_filters=12, fmin=100.0, fmax=7000.0)
    areas = expected_filter_areas(12, num_bins, sr, 100.0, 7000.0)
    np.testing.assert_allclose(e.values, np.tile(areas, (3, 1)), rtol=1e-10)


def test_mel_single_filter_matches_weighted_sum_oracle():
    cfg = dsp.StftConfig()
    sr = 16000
    num_bins = cfg.dft_size // 2 + 1
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((2, num_bins)) + 1j * rng.standard_normal((2, num_bins))
    s = dsp.Spectrogram(frames, cfg, sr)
    fmin, fmax = 0.0, sr / 2.0
    e = dsp.mel_energies(s, num_filters=1, fmin=fmin, fmax=fmax)
    mel = lambda f: 2595.0 * math.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    center = imel((mel(fmin) + mel(fmax)) / 2.0)
    for m in range(2):
        expect = 0.0
        for b in range(num_bins):
            f = b * (sr / 2.0) / (num_bins - 1)
            expect += triangle_weight(f, fmin, center, fmax) * abs(frames[m, b]) ** 2
        assert abs(e.values[m, 0] - expect) / expect < 1e-10


def test_mel_rejects_bad_band_edges():
    s = dsp.stft(rand_wave(2000), dsp.StftConfig())
    with pytest.raises(ValueError):
        dsp.mel_energies(s, fmin=5000.0, fmax=1000.0)
    with pytest.raises(ValueError):
        dsp.mel_energies(s, fmin=0.0, fmax=9000.0)  # beyond Nyquist


def test_power_mel_fixed_points_and_exact_power():
    e = dsp.FeatureMatrix(np.array([[0.0, 1.0, 2.0 ** 15]]), "mel_energy")
    out = dsp.power_mel_features(e).values[0]
    assert out[0] == 0.0
    assert out[1] == 1.0
    assert abs(out[2] - 2.0) <= np.spacing(2.0)  # within 1 ulp


def test_power_mel_monotone_property():
    rng = np.random.default_rng(11)
    a = rng.uniform(0, 1e6, 100_000)
    b = a + rng.uniform(1e-9, 1e5, 100_000)
    fa = dsp.power_mel_features(dsp.FeatureMatrix(a[None, :], "mel_energy")).values[0]
    fb = dsp.power_mel_features(dsp.FeatureMatrix(b[None, :], "mel_energy")).values[0]
    assert np.all(fa <= fb)
    assert np.all(fa >= 0)


def test_power_mel_rejects_negative():
    with pytest.raises(ValueError):
        dsp.power_mel_features(dsp.FeatureMatrix(np.array([[-1.0]]), "mel_energy"))


def test_mfcc_constant_energy_gives_only_c0():
    e = dsp.FeatureMatrix(np.full((2, 20), 3.7), "mel_energy")
    out = dsp.mfcc(e, num_ceps=13).values
    assert np.all(np.abs(out[:, 1:]) < 1e-12)
    assert np.all(np.abs(out[:, 0]) > 0)


@pytest.mark.parametrize("filters", [1, 2, 13, 23, 40, 80])
def test_mfcc_is_scipys_orthonormal_dct(filters):
    rng = np.random.default_rng(filters)
    energies = rng.uniform(1e-6, 50.0, (6, filters))
    out = dsp.mfcc(dsp.FeatureMatrix(energies, "mel_energy"), num_ceps=filters).values
    want = scipy.fft.dct(np.log(energies), type=2, norm="ortho", axis=1)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-13 * np.abs(want).max())
    head = dsp.mfcc(dsp.FeatureMatrix(energies, "mel_energy"), num_ceps=1).values
    np.testing.assert_allclose(head, want[:, :1], rtol=0, atol=1e-13 * np.abs(want).max())


def test_mfcc_full_dct_is_invertible():
    rng = np.random.default_rng(2)
    energies = rng.uniform(0.1, 5.0, (4, 16))
    out = dsp.mfcc(dsp.FeatureMatrix(energies, "mel_energy"), num_ceps=16).values
    recovered = scipy.fft.idct(out, type=2, norm="ortho", axis=1)
    np.testing.assert_allclose(recovered, np.log(energies), atol=1e-10)


def test_mfcc_floors_tiny_energies():
    e = dsp.FeatureMatrix(np.array([[0.0, 1e-30, 1.0]]), "mel_energy")
    out = dsp.mfcc(e, num_ceps=3).values
    assert np.all(np.isfinite(out))


def test_mfcc_rejects_too_many_ceps():
    with pytest.raises(ValueError):
        dsp.mfcc(dsp.FeatureMatrix(np.ones((1, 8)), "mel_energy"), num_ceps=9)


def test_no_feature_clipping_anywhere():
    # values far beyond [-3, 3] must survive both front ends untouched
    big = dsp.FeatureMatrix(np.full((1, 10), 1e30), "mel_energy")
    pm = dsp.power_mel_features(big).values
    assert pm.max() > 3.0
    mf = dsp.mfcc(big, num_ceps=10).values
    assert np.abs(mf).max() > 3.0
    np.testing.assert_allclose(pm, 1e30 ** (1.0 / 15.0))


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    w = dsp.Waveform(np.clip(rng.standard_normal(4000) * 0.3, -0.99, 0.99), 16000)
    path = str(tmp_path / "t.wav")
    dsp.write_wav(path, w)
    back = dsp.read_wav(path)
    assert back.sample_rate == w.sample_rate
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768.0
