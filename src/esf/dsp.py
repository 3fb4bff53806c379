"""Waveform and spectral primitives: STFT/ISTFT, mel filterbank energies,
power-mel features, and an MFCC baseline.

Front-end defaults: 25 ms window, 10 ms hop, 40 mel filters between 125 Hz
and 7600 Hz. Mel energies are compressed either with the power law
x^(1/15) (power-mel) or log + DCT (MFCC). No waveform peak normalization
and no feature-range clipping is applied anywhere.
"""

from __future__ import annotations

import functools
import math
import threading
import wave as _wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError

POWER_LAW_EXPONENT = 1.0 / 15.0
MFCC_LOG_FLOOR = 1e-10

DEFAULT_WINDOW_MS = 25.0
DEFAULT_HOP_MS = 10.0
DEFAULT_NUM_FILTERS = 40
DEFAULT_NUM_CEPS = 13
DEFAULT_FMIN = 125.0
DEFAULT_FMAX = 7600.0


@dataclass
class Waveform:
    """Real-valued audio in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class StftConfig:
    """Periodic-Hann analysis parameters. dft_size must be a power of two covering
    the window."""

    window_ms: float = DEFAULT_WINDOW_MS
    hop_ms: float = DEFAULT_HOP_MS
    dft_size: int = 512

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))

    def validate(self, sample_rate: int) -> None:
        win = self.window_samples(sample_rate)
        hop = self.hop_samples(sample_rate)
        if win < 1 or hop < 1:
            raise ConfigurationError(f"window/hop too small at {sample_rate} Hz")
        if hop > win:
            raise ConfigurationError(
                f"hop ({hop}) must not exceed window ({win}): frames would leave gaps")
        if self.dft_size < win:
            raise ConfigurationError(
                f"dft_size ({self.dft_size}) must cover the window ({win} samples)")
        if self.dft_size & (self.dft_size - 1):
            raise ConfigurationError(f"dft_size must be a power of two, got {self.dft_size}")


@dataclass
class Spectrogram:
    """Complex half-spectra, one row per frame, each of length dft_size/2 + 1."""

    frames: np.ndarray  # (num_frames, K//2 + 1) complex128
    config: StftConfig
    sample_rate: int

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class FeatureMatrix:
    """Frames x coefficients of real feature values."""

    values: np.ndarray  # (frames, coeffs) float64
    kind: str  # "mel_energy" | "power_mel" | "mfcc"


class Scratch:
    """A grow-only buffer to compute in, reused from call to call.

    array() returns a view of the buffer's leading bytes, reallocating only
    when asked for more bytes than it holds, so a caller that reuses one
    Scratch over inputs of many sizes allocates a few times at most. Every
    array() call hands out the same memory: the previous view's contents
    are spent.
    """

    __slots__ = ("_bytes",)

    def __init__(self):
        self._bytes = np.empty(0, dtype=np.uint8)

    def array(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if self._bytes.nbytes < nbytes:
            # a power-of-two capacity reallocates only when the request
            # doubles; the pages past it stay untouched, costing address
            # space but no memory
            self._bytes = np.empty(1 << (nbytes - 1).bit_length(), dtype=np.uint8)
        return self._bytes[:nbytes].view(dtype).reshape(shape)


_thread = threading.local()


def thread_scratch() -> tuple[Scratch, Scratch, Scratch, Scratch]:
    """The calling thread's own scratch: one signal-sized buffer, then three
    frame-sized ones.

    The per-record stages (VTLP, the room convolution, power-mel features)
    run one after another on a thread and share these, so a thread keeps at
    most three frame-sized buffers, sized to the longest input it has seen.
    A stage uses them only until it returns, and returns nothing that views
    them.
    """
    buffers = getattr(_thread, "buffers", None)
    if buffers is None:
        buffers = _thread.buffers = (Scratch(), Scratch(), Scratch(), Scratch())
    return buffers


def _empty(scratch: Scratch | None, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialised array in scratch, or a fresh one without it."""
    return np.empty(shape, dtype) if scratch is None else scratch.array(shape, dtype)


@functools.lru_cache(maxsize=16)
def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window; sums of shifted squares are flat for hop <= n/2.

    Cached per length; treat the returned array as read-only.
    """
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.setflags(write=False)
    return window


def feature_config(sample_rate: int, window_ms: float = DEFAULT_WINDOW_MS,
                   hop_ms: float = DEFAULT_HOP_MS) -> StftConfig:
    """Front-end StftConfig with the DFT size rounded up to a power of two."""
    win = int(round(window_ms * sample_rate / 1000.0))
    k = 1
    while k < win:
        k *= 2
    return StftConfig(window_ms=window_ms, hop_ms=hop_ms, dft_size=k)


def stft(w: Waveform, cfg: StftConfig, *,
         scratch: tuple[Scratch, Scratch] | None = None) -> Spectrogram:
    """Short-time Fourier transform.

    Frame m covers samples [m*hop, m*hop + window), windowed and zero-padded
    to dft_size before the transform.

    Without scratch the result is freshly allocated. With scratch (two
    distinct buffers, neither holding w.samples) the windowed frames are
    computed in the first and the spectra in the second, which the returned
    Spectrogram views. The bits are the same either way.
    """
    cfg.validate(w.sample_rate)
    win = cfg.window_samples(w.sample_rate)
    hop = cfg.hop_samples(w.sample_rate)
    n = len(w.samples)
    if n < win:
        raise ValueError(f"waveform ({n} samples) shorter than one window ({win})")
    frames_buf, spectra_buf = scratch or (None, None)
    num_frames = 1 + (n - win) // hop
    # frames padded in place: rfft without n= makes no padded copy of its own
    frames = _empty(frames_buf, (num_frames, cfg.dft_size))
    frames[:, win:] = 0.0
    np.multiply(sliding_window_view(w.samples, win)[::hop], hann_periodic(win),
                out=frames[:, :win])
    spectra = np.fft.rfft(frames, axis=1,
                          out=_empty(spectra_buf, (num_frames, cfg.dft_size // 2 + 1),
                                     np.complex128))
    return Spectrogram(spectra, cfg, w.sample_rate)


def istft(s: Spectrogram, *,
          scratch: tuple[Scratch, Scratch, Scratch] | None = None) -> Waveform:
    """Weighted overlap-add inverse of stft.

    Output length is the analysis span (num_frames-1)*hop + window. Samples
    where the synthesis weight underflows (window endpoints with no overlap)
    come out as zero.

    Summation order: every output sample starts from 0.0 and adds the
    windowed frames that cover it in ascending frame order, and its weight
    adds window^2 terms the same way, as a frame-by-frame loop would. The
    frames are cut into r = ceil(window/hop) hop-wide chunks; chunk j of
    frame m lands on output chunk m + j, so adding chunk j for j = r-1 down
    to 0 visits each sample's frames in ascending m. A last partial chunk (hop not dividing
    the window) is added by slicing, never as zero padding, so no sample
    gains an extra +0.0 term. The result is bit-identical to that loop.

    Without scratch the result is freshly allocated. With scratch (three
    distinct buffers) the inverse-transformed frames are computed in the
    first, and the overlap-add sum and weights in the second and third,
    which are written only after s.frames has been read: s.frames may live
    in either of those two, but not in the first. The returned Waveform
    views the second.
    """
    cfg = s.config
    cfg.validate(s.sample_rate)
    win = cfg.window_samples(s.sample_rate)
    hop = cfg.hop_samples(s.sample_rate)
    num_frames = s.num_frames
    span = (num_frames - 1) * hop + win
    frames_buf, out_buf, norm_buf = scratch or (None, None, None)
    window = hann_periodic(win)
    frames = np.fft.irfft(s.frames, n=cfg.dft_size, axis=1,
                          out=_empty(frames_buf, (num_frames, cfg.dft_size)))[:, :win]
    np.multiply(frames, window, out=frames)
    weight = window * window
    chunks = -(-win // hop)
    out = _empty(out_buf, (num_frames + chunks - 1, hop))
    out.fill(0.0)
    norm = _empty(norm_buf, (num_frames + chunks - 1, hop))
    norm.fill(0.0)
    for j in range(chunks - 1, -1, -1):
        lo = j * hop
        width = min(hop, win - lo)
        out[j:j + num_frames, :width] += frames[:, lo:lo + width]
        norm[j:j + num_frames, :width] += weight[lo:lo + width]
    out = out.reshape(-1)[:span]
    norm = norm.reshape(-1)[:span]
    # interior coverage check: every sample past the first/last window edge
    # must carry real synthesis weight, otherwise the pair cannot reconstruct
    if num_frames > 1:
        interior = norm[win:span - win] if span > 2 * win else norm[hop:span - hop]
        if interior.size and interior.min() < 1e-6:
            raise ConfigurationError(
                "window/hop pair does not satisfy overlap-add reconstruction")
    good = norm > 1e-12
    np.divide(out, norm, out=out, where=good)
    out[~good] = 0.0
    return Waveform(out, s.sample_rate)


def mel_scale(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_inverse(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(num_filters: int, num_bins: int, sample_rate: int,
                   fmin: float, fmax: float) -> np.ndarray:
    """Triangular filters on the mel scale, (num_filters, num_bins), unnormalized.

    Cached per parameter set; treat the returned array as read-only.
    """
    if num_filters < 1:
        raise ValueError("num_filters must be >= 1")
    if not (0.0 <= fmin < fmax <= sample_rate / 2.0):
        raise ValueError(
            f"band edges must satisfy 0 <= fmin < fmax <= Nyquist, "
            f"got fmin={fmin}, fmax={fmax} at {sample_rate} Hz")
    edges = mel_inverse(np.linspace(mel_scale(fmin), mel_scale(fmax), num_filters + 2))
    bin_freqs = np.arange(num_bins) * (sample_rate / 2.0) / (num_bins - 1)
    fb = np.zeros((num_filters, num_bins))
    for j in range(num_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    fb.setflags(write=False)
    return fb


def mel_energies(s: Spectrogram, num_filters: int = DEFAULT_NUM_FILTERS,
                 fmin: float = DEFAULT_FMIN, fmax: float = DEFAULT_FMAX, *,
                 scratch: Scratch | None = None) -> FeatureMatrix:
    """Triangular mel filters applied to the power spectrum |X|^2.

    With scratch (not holding s.frames) the power spectrum is computed in it.
    """
    power = np.abs(s.frames, out=_empty(scratch, s.frames.shape))
    np.square(power, out=power)
    fb = mel_filterbank(num_filters, power.shape[1], s.sample_rate, fmin, fmax)
    return FeatureMatrix(power @ fb.T, "mel_energy")


def power_mel_features(e: FeatureMatrix) -> FeatureMatrix:
    """Elementwise x^(1/15) compression of mel energies."""
    values = np.asarray(e.values if isinstance(e, FeatureMatrix) else e, dtype=np.float64)
    if values.size and values.min() < 0.0:
        raise ValueError("power-law compression requires nonnegative energies")
    return FeatureMatrix(np.power(values, POWER_LAW_EXPONENT), "power_mel")


@functools.lru_cache(maxsize=16)
def _dct_matrix(n: int) -> np.ndarray:
    """(n, n) orthonormal type-II DCT matrix: x @ _dct_matrix(n).T is the DCT of x.

    Row k is sqrt(2/n) cos(pi k (2m + 1) / 2n) over m, row 0 scaled by
    1/sqrt(2). The integer k (2m + 1) is reduced modulo the period 4n before
    the cosine, so no angle is large. Cached per n; treat the returned array
    as read-only.
    """
    phase = np.arange(n)[:, None] * (2 * np.arange(n) + 1) % (4 * n)
    d = np.cos(np.pi * phase / (2 * n)) * math.sqrt(2.0 / n)
    d[0] *= math.sqrt(0.5)
    d.setflags(write=False)
    return d


def mfcc(e: FeatureMatrix, num_ceps: int = DEFAULT_NUM_CEPS) -> FeatureMatrix:
    """Log of floored mel energies followed by an orthonormal type-II DCT,
    of which the first num_ceps coefficients are kept."""
    values = np.asarray(e.values if isinstance(e, FeatureMatrix) else e, dtype=np.float64)
    if num_ceps > values.shape[1]:
        raise ValueError(
            f"num_ceps ({num_ceps}) cannot exceed the filter count ({values.shape[1]})")
    log_e = np.log(np.maximum(values, MFCC_LOG_FLOOR))
    return FeatureMatrix(log_e @ _dct_matrix(values.shape[1])[:num_ceps].T, "mfcc")


def extract_power_mel(w: Waveform, cfg: StftConfig | None = None,
                      num_filters: int = DEFAULT_NUM_FILTERS,
                      fmin: float = DEFAULT_FMIN, fmax: float = DEFAULT_FMAX) -> FeatureMatrix:
    """Waveform to power-mel filterbank coefficients with front-end defaults.

    Computes in the calling thread's scratch (thread_scratch).
    """
    cfg = cfg or feature_config(w.sample_rate)
    _, frames_buf, spectra_buf, _ = thread_scratch()
    spectra = stft(w, cfg, scratch=(frames_buf, spectra_buf))
    return power_mel_features(mel_energies(spectra, num_filters, fmin, fmax,
                                           scratch=frames_buf))


def extract_mfcc(w: Waveform, cfg: StftConfig | None = None,
                 num_filters: int = DEFAULT_NUM_FILTERS, num_ceps: int = DEFAULT_NUM_CEPS,
                 fmin: float = DEFAULT_FMIN, fmax: float = DEFAULT_FMAX) -> FeatureMatrix:
    """Waveform to MFCC baseline features."""
    cfg = cfg or feature_config(w.sample_rate)
    return mfcc(mel_energies(stft(w, cfg), num_filters, fmin, fmax), num_ceps)


def read_wav(path: str) -> Waveform:
    """Read a mono 16-bit PCM WAV file."""
    with _wave.open(path, "rb") as fh:
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: only mono WAV is supported")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: only 16-bit PCM WAV is supported")
        rate = fh.getframerate()
        data = fh.readframes(fh.getnframes())
    pcm = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(pcm, rate)


def write_wav(path: str, w: Waveform) -> None:
    """Write a mono 16-bit PCM WAV file (values clipped to the int16 range)."""
    pcm = np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with _wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())
