"""Bilinear frequency warping and resynthesis."""

import resource
import sys
import threading

import numpy as np
import pytest

from esf import dsp, vtlp
from esf.errors import ConfigurationError

# pi/2 + 2*atan(0.2), evaluated at 30 digits with mpmath
WARP_HALF_PI_AT_08 = 1.9655874464946581


def test_warp_identity_at_alpha_one():
    grid = np.linspace(0.0, np.pi, 4096)
    out = vtlp.warp_frequency(grid, 1.0)
    assert np.max(np.abs(out - grid)) < 1e-12


def test_warp_fixed_endpoints():
    for alpha in np.arange(0.2, 1.9, 0.1):
        assert vtlp.warp_frequency(0.0, float(alpha)) == 0.0
        assert vtlp.warp_frequency(np.pi, float(alpha)) == pytest.approx(np.pi, abs=1e-12)


def test_warp_derived_point_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    oracle = float(mpmath.pi / 2 + 2 * mpmath.atan(mpmath.mpf(1) / 5))
    assert abs(oracle - WARP_HALF_PI_AT_08) < 1e-15
    got = vtlp.warp_frequency(np.pi / 2, 0.8)
    assert abs(got - WARP_HALF_PI_AT_08) < 1e-9


def test_warp_strictly_increasing_bijection_on_grid():
    grid = np.linspace(0.0, np.pi, 1001)
    for alpha in np.arange(0.5 + 1e-3, 1.5, 1e-3 * 37):  # sparse sweep of the band
        out = vtlp.warp_frequency(grid, float(alpha))
        assert np.all(np.diff(out) > 0)
        assert out[0] == 0.0 and abs(out[-1] - np.pi) < 1e-12


def test_warp_rejects_out_of_domain():
    with pytest.raises(ValueError):
        vtlp.warp_frequency(-0.1, 0.9)
    with pytest.raises(ValueError):
        vtlp.warp_frequency(3.3, 0.9)
    with pytest.raises(ValueError):
        vtlp.warp_frequency(1.0, 0.0)


def test_invert_warp_identity_alpha_one():
    targets = np.linspace(0.0, np.pi, 57)
    np.testing.assert_array_equal(vtlp.invert_warp(targets, 1.0), targets)


def test_invert_then_forward_composition():
    rng = np.random.default_rng(4)
    for _ in range(50):
        alpha = float(rng.uniform(0.55, 1.45))
        target = float(rng.uniform(0.0, np.pi))
        omega = vtlp.invert_warp(target, alpha)
        assert abs(vtlp.warp_frequency(omega, alpha) - target) <= 1e-8


def bisection_inverse(target, alpha, tol=1e-9):
    """Independent inverse warp: bisection on the monotone map to within tol."""
    a = 1.0 - alpha
    lo = np.zeros_like(target)
    hi = np.full_like(target, np.pi)
    for _ in range(int(np.ceil(np.log2(np.pi / tol)))):
        mid = 0.5 * (lo + hi)
        below = mid + 2.0 * np.arctan2(a * np.sin(mid), 1.0 - a * np.cos(mid)) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_invert_warp_is_exact_to_rounding_and_matches_bisection():
    # the closed form round-trips to rounding error, where a 1e-9 bisection
    # is only within half its last bracket (~3.7e-10)
    targets = np.linspace(0.0, np.pi, 1001)
    for alpha in np.linspace(0.05, 1.95, 39).tolist():
        omega = vtlp.invert_warp(targets, alpha)
        assert np.max(np.abs(vtlp.warp_frequency(omega, alpha) - targets)) <= 1e-12
        assert np.max(np.abs(omega - bisection_inverse(targets, alpha))) <= 1e-9


def test_invert_warp_fixed_endpoint():
    for alpha in (0.6, 0.8, 1.2, 1.4):
        assert vtlp.invert_warp(np.pi, alpha) == pytest.approx(np.pi, abs=1e-8)
        assert vtlp.invert_warp(0.0, alpha) == pytest.approx(0.0, abs=1e-8)


def test_composition_near_inverse_soft_bound():
    # warp by alpha then by 2 - alpha approximately undoes the map
    grid = np.linspace(0.0, np.pi, 200)
    for alpha in (0.7, 0.85, 1.15, 1.3):
        twice = vtlp.warp_frequency(vtlp.warp_frequency(grid, alpha), 2.0 - alpha)
        assert np.max(np.abs(twice - grid)) < 0.02


def test_warp_spectrum_identity():
    rng = np.random.default_rng(0)
    frame = rng.standard_normal(513) + 1j * rng.standard_normal(513)
    frame[0] = frame[0].real
    frame[-1] = frame[-1].real
    out = vtlp.warp_spectrum(frame, 1.0)
    np.testing.assert_allclose(out, frame, rtol=0, atol=1e-12)


def test_warp_spectrum_zero_frame():
    out = vtlp.warp_spectrum(np.zeros(129, dtype=complex), 0.8)
    assert np.all(out == 0)


def test_warp_spectrum_peak_moves_up_for_small_alpha():
    k = 1024
    frame = np.zeros(k // 2 + 1, dtype=complex)
    peak_bin = 100
    frame[peak_bin] = 1.0
    alpha = 0.8
    out = vtlp.warp_spectrum(frame, alpha)
    got_bin = int(np.argmax(np.abs(out)))
    predicted = vtlp.warp_frequency(2 * np.pi * peak_bin / k, alpha) * k / (2 * np.pi)
    assert got_bin > peak_bin
    assert abs(got_bin - predicted) <= 1.0


def test_warp_spectrum_keeps_dc_nyquist_real():
    rng = np.random.default_rng(1)
    frame = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    out = vtlp.warp_spectrum(frame, 0.85)
    assert out[0].imag == 0.0
    assert out[-1].imag == 0.0


def test_warp_spectrum_rejects_bad_length():
    with pytest.raises(ValueError):
        vtlp.warp_spectrum(np.zeros(1, dtype=complex), 0.9)


def interp_frames_two_gather_oracle(frames, pos):
    """The gather-and-broadcast interpolation that _interp_frames replaced."""
    n = frames.shape[1]
    idx = np.minimum(np.floor(pos).astype(np.int64), n - 2)
    frac = pos - idx
    out = frames[:, idx] * (1.0 - frac) + frames[:, idx + 1] * frac
    out[:, 0] = out[:, 0].real
    out[:, -1] = out[:, -1].real
    return out


@pytest.mark.parametrize("alpha", [0.8, 0.93, 1.0, 1.2])
def test_interp_frames_bit_identical_to_two_gather_oracle(alpha):
    rng = np.random.default_rng(17)
    frames = rng.standard_normal((12, 513)) + 1j * rng.standard_normal((12, 513))
    frames[2] = 0.0
    frames[5] = complex(0.0, -0.0)
    frames.imag[7] = -0.0
    frames.real[9] = -0.0
    signed_zeros = rng.random(frames.shape) < 0.1
    frames.imag[signed_zeros] = -0.0
    pos = vtlp._source_positions(frames.shape[1], alpha)
    got = vtlp._interp_frames(frames, pos)
    want = interp_frames_two_gather_oracle(frames, pos)
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def test_resynthesis_identity_alpha_one():
    rng = np.random.default_rng(6)
    w = dsp.Waveform(rng.standard_normal(16000) * 0.2, 16000)
    res = vtlp.vtlp_resynthesize(w, vtlp.WarpSpec(), alpha=1.0)
    assert res.applied
    assert len(res.waveform.samples) == len(w.samples)
    rel = (np.linalg.norm(res.waveform.samples - w.samples)
           / np.linalg.norm(w.samples))
    assert rel < 1e-4


def test_resynthesis_deterministic_given_seed():
    w = dsp.Waveform(np.sin(np.linspace(0, 400, 8000)) * 0.4, 16000)
    spec = vtlp.WarpSpec()
    a = vtlp.vtlp_resynthesize(w, spec, rng=np.random.default_rng(33))
    b = vtlp.vtlp_resynthesize(w, spec, rng=np.random.default_rng(33))
    assert a.alpha == b.alpha
    np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)


def test_resynthesis_tone_lands_at_predicted_frequency():
    sr = 16000
    tone_hz = 1000.0
    alpha = 0.8
    t = np.arange(sr) / sr
    w = dsp.Waveform(0.4 * np.sin(2 * np.pi * tone_hz * t), sr)
    res = vtlp.vtlp_resynthesize(w, vtlp.WarpSpec(), alpha=alpha)
    # peak-picking oracle on the output spectrum
    spec = np.abs(np.fft.rfft(res.waveform.samples))
    got_hz = np.argmax(spec) * sr / len(res.waveform.samples)
    predicted_hz = (sr / (2 * np.pi)) * vtlp.warp_frequency(
        2 * np.pi * tone_hz / sr, alpha)
    fft_bin_hz = sr / vtlp.WarpSpec().dft_size
    assert abs(got_hz - predicted_hz) <= fft_bin_hz


def test_short_input_passes_through_with_flag():
    w = dsp.Waveform(np.ones(100) * 0.1, 16000)  # shorter than the 50 ms window
    res = vtlp.vtlp_resynthesize(w, vtlp.WarpSpec(), alpha=0.8)
    assert not res.applied
    np.testing.assert_array_equal(res.waveform.samples, w.samples)


def test_warp_spec_validates_range():
    with pytest.raises(ConfigurationError):
        vtlp.WarpSpec(alpha_range=(0.0, 1.2))
    with pytest.raises(ConfigurationError):
        vtlp.WarpSpec(alpha_range=(1.2, 0.8))


def test_resynthesize_needs_exactly_one_of_alpha_rng():
    w = dsp.Waveform(np.zeros(4000), 16000)
    with pytest.raises(ValueError):
        vtlp.vtlp_resynthesize(w, vtlp.WarpSpec())
    with pytest.raises(ValueError):
        vtlp.vtlp_resynthesize(w, vtlp.WarpSpec(), alpha=1.0,
                               rng=np.random.default_rng(0))


@pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0, 2.5])
@pytest.mark.parametrize("call", [
    lambda a: vtlp.warp_frequency(1.0, a),
    lambda a: vtlp.invert_warp(1.0, a),
    lambda a: vtlp.warp_spectrum(np.ones(513, dtype=complex), a),
    lambda a: vtlp.vtlp_resynthesize(dsp.Waveform(np.zeros(16000), 16000), alpha=a),
], ids=["warp_frequency", "invert_warp", "warp_spectrum", "vtlp_resynthesize"])
def test_warp_factor_outside_open_interval_rejected(call, alpha):
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        call(alpha)


def utterances(seed, count):
    """count noise utterances of 1-3 s at 16 kHz."""
    rng = np.random.default_rng(seed)
    return [dsp.Waveform(rng.standard_normal(int(16000 * d)) * 0.2, 16000)
            for d in rng.uniform(1.0, 3.0, count)]


def u64(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_resynthesis_result_keeps_its_bits_after_a_longer_call():
    # a long call first, so that the later calls reuse this thread's buffers
    vtlp.vtlp_resynthesize(dsp.Waveform(np.ones(48000) * 0.1, 16000), alpha=1.0)
    short = dsp.Waveform(np.sin(np.arange(20000) * 0.1) * 0.3, 16000)
    longer = dsp.Waveform(np.cos(np.arange(30000) * 0.2) * 0.3, 16000)
    first = vtlp.vtlp_resynthesize(short, alpha=0.9).waveform.samples
    kept = first.copy()
    second = vtlp.vtlp_resynthesize(longer, alpha=1.1).waveform.samples
    assert not np.shares_memory(first, second)
    assert np.array_equal(u64(first), u64(kept))


def test_concurrent_resynthesis_matches_serial_bits():
    inputs = [utterances(seed, 6) for seed in (21, 22)]
    alphas = [0.8 + 0.07 * i for i in range(6)]
    serial = [[vtlp.vtlp_resynthesize(w, alpha=a).waveform.samples
               for w, a in zip(ws, alphas)] for ws in inputs]
    results: list[list] = [[], []]
    start = threading.Barrier(2, timeout=30)

    def run(k):
        start.wait()
        for _ in range(3):
            results[k].append([vtlp.vtlp_resynthesize(w, alpha=a).waveform.samples
                               for w, a in zip(inputs[k], alphas)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in (0, 1):
        assert len(results[k]) == 3
        for run_out in results[k]:
            for got, want in zip(run_out, serial[k]):
                assert np.array_equal(u64(got), u64(want))


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                    reason="per-thread rusage is Linux-only")
def test_resynthesis_stops_page_faulting_once_warm():
    waves = utterances(31, 22)
    faults = []

    def run():
        for w in waves[:2]:
            vtlp.vtlp_resynthesize(w, alpha=0.9)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for i, w in enumerate(waves[2:]):
            vtlp.vtlp_resynthesize(w, alpha=0.85 + 0.015 * i)
        faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert faults[0] / 20 < 100
