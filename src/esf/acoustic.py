"""On-the-fly far-field simulation.

Rooms are shoeboxes with one absorption coefficient on all six surfaces,
derived from the target reverberation time with Sabine's formula. Impulse
responses come from the image-source method: every image contributes
r^reflections / (4*pi*distance) at fractional delay distance/c, deposited
with linear interpolation. Noise is mixed at a sampled SNR with the gain

    g = sqrt(P_speech / (P_noise * 10^(snr/10)))

measured as mean-square power over the overlap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dsp import Waveform, thread_scratch
from .errors import (ConfigurationError, DegenerateGeometryError,
                     DegenerateSignalError)
from .recordio import UtteranceRecord

SPEED_OF_SOUND = 343.0
WALL_CLEARANCE = 0.3
MIN_ABSORPTION = 1e-4
SABINE_COEFFICIENT = 0.161


@dataclass
class RoomSpec:
    """Sampled shoebox geometry with a reverberation target."""

    dimensions: tuple[float, float, float]
    source_position: np.ndarray
    mic_position: np.ndarray
    target_t60: float
    max_image_order: int = 20
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        self.source_position = np.asarray(self.source_position, dtype=np.float64)
        self.mic_position = np.asarray(self.mic_position, dtype=np.float64)
        dims = np.asarray(self.dimensions, dtype=np.float64)
        if np.any(dims <= 0.0):
            raise ValueError(f"room dimensions must be positive, got {self.dimensions}")
        if self.target_t60 <= 0.0:
            raise ValueError(f"target_t60 must be positive, got {self.target_t60}")
        for name, p in (("source", self.source_position), ("mic", self.mic_position)):
            if np.any(p <= 0.0) or np.any(p >= dims):
                raise ValueError(f"{name} position {p} not strictly inside room {dims}")

    @property
    def volume(self) -> float:
        lx, ly, lz = self.dimensions
        return lx * ly * lz

    @property
    def surface_area(self) -> float:
        lx, ly, lz = self.dimensions
        return 2.0 * (lx * ly + lx * lz + ly * lz)


@dataclass
class ImpulseResponse:
    taps: np.ndarray
    sample_rate: int


@dataclass(frozen=True)
class SimulatorConfig:
    """Sampling ranges for rooms, reverberation, and noise."""

    dim_ranges: tuple = ((3.0, 10.0), (3.0, 8.0), (2.5, 4.0))
    t60_range: tuple[float, float] = (0.2, 0.8)
    snr_range_db: tuple[float, float] = (0.0, 25.0)
    noise_source: str = "white"  # "white" or a shard path
    probability_of_reverb: float = 1.0
    probability_of_noise: float = 1.0
    max_image_order: int = 20
    wall_clearance: float = WALL_CLEARANCE

    def __post_init__(self):
        for lo, hi in (*self.dim_ranges, self.t60_range, self.snr_range_db):
            if hi < lo:
                raise ConfigurationError(f"range ({lo}, {hi}) is not ordered")
        for lo, hi in self.dim_ranges:
            if hi <= 2.0 * self.wall_clearance:
                raise ConfigurationError(
                    f"dimension range ({lo}, {hi}) too tight for "
                    f"{self.wall_clearance} m wall clearance")


def sample_room(rng: np.random.Generator, cfg: SimulatorConfig) -> RoomSpec:
    """Draw room dimensions, T60, and source/mic positions with wall clearance."""
    dims = tuple(float(rng.uniform(lo, hi)) for lo, hi in cfg.dim_ranges)
    t60 = float(rng.uniform(*cfg.t60_range))
    c = cfg.wall_clearance
    for d in dims:
        if d <= 2.0 * c:
            raise ConfigurationError(
                f"sampled dimension {d} m cannot satisfy {c} m wall clearance")
    source = np.array([rng.uniform(c, d - c) for d in dims])
    mic = np.array([rng.uniform(c, d - c) for d in dims])
    return RoomSpec(dims, source, mic, t60, max_image_order=cfg.max_image_order)


def t60_to_absorption(room: RoomSpec) -> float:
    """Sabine's formula 0.161*V / (S*T60), clamped into (0, 1]."""
    alpha = SABINE_COEFFICIENT * room.volume / (room.surface_area * room.target_t60)
    return float(min(1.0, max(MIN_ABSORPTION, alpha)))


def _axis_images(src: float, length: float, order: int,
                 reach: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Image coordinates and reflection counts along one axis.

    Mirrored lattice 2*q*L + s*src; the unmirrored branch reflects |2q| times
    and the mirrored branch |2q - 1| times. With a finite reach, images whose
    coordinate cannot fall within reach of the room are dropped (their taps
    would land beyond the stored response anyway).
    """
    if reach is None:
        q_hi = order // 2
        q_pairs = range(-q_hi, q_hi + 1)
        q_lo_m = -((order - 1) // 2)
        q_hi_m = (order + 1) // 2
        q_mirror = range(q_lo_m, q_hi_m + 1)
    else:
        span = int(math.ceil((reach + length) / (2.0 * length))) + 1
        q_pairs = range(-span, span + 1)
        q_mirror = q_pairs
    coords = []
    counts = []
    for q in q_pairs:
        n = abs(2 * q)
        if n <= order:
            coords.append(2.0 * q * length + src)
            counts.append(n)
    for q in q_mirror:
        n = abs(2 * q - 1)
        if n <= order:
            coords.append(2.0 * q * length - src)
            counts.append(n)
    idx = np.argsort(np.asarray(coords, dtype=np.float64), kind="stable")
    return (np.asarray(coords, dtype=np.float64)[idx],
            np.asarray(counts, dtype=np.int64)[idx])


@functools.lru_cache(maxsize=16)
def _kept_images(nx: bytes, ny: bytes, nz: bytes,
                 order: int) -> tuple[np.ndarray, ...]:
    """Lattice indices (ix, iy, iz) of the images within order reflections,
    in C order of the (x, y, z) lattice, and their reflection counts.

    Keyed on the three axes' int64 reflection counts: without a reach these
    depend on the order alone, so simulate's rooms share one entry. The
    arrays have the smallest integer type that holds them, and are
    read-only, as every caller gets the same ones.
    """
    x, y, z = (np.frombuffer(n, dtype=np.int64) for n in (nx, ny, nz))
    total = x[:, None, None] + y[None, :, None] + z[None, None, :]
    kept = np.nonzero(total <= order)
    dtype = np.min_scalar_type(max(*total.shape, order))
    out = tuple(a.astype(dtype) for a in (*kept, total[kept]))
    for a in out:
        a.flags.writeable = False
    return out


def compute_rir(room: RoomSpec, sample_rate: int, *,
                duration: float | None = None) -> ImpulseResponse:
    """Image-source impulse response up to room.max_image_order.

    With duration set, the response is truncated to that many seconds and
    images that can only land beyond it are skipped; taps inside the stored
    span are identical to the untruncated computation.
    """
    if np.array_equal(room.source_position, room.mic_position):
        raise DegenerateGeometryError("source and microphone positions coincide")
    order = room.max_image_order
    c = room.speed_of_sound
    reach = None if duration is None else duration * c
    reflect = math.sqrt(max(0.0, 1.0 - t60_to_absorption(room)))

    (cx, nx), (cy, ny), (cz, nz) = (
        _axis_images(room.source_position[i], room.dimensions[i], order, reach)
        for i in range(3))
    ix, iy, iz, refl_count = _kept_images(nx.tobytes(), ny.tobytes(), nz.tobytes(), order)
    # squares per axis, then summed per image: the same float64 operations
    dx, dy, dz = (c - m for c, m in zip((cx, cy, cz), room.mic_position))
    dist = np.sqrt((dx * dx)[ix] + (dy * dy)[iy] + (dz * dz)[iz])
    if reach is not None:
        near = dist <= reach
        dist = dist[near]
        refl_count = refl_count[near]

    delays = dist * (sample_rate / c)
    if duration is None:
        length = int(np.ceil(delays.max())) + 2 if delays.size else 1
    else:
        length = int(np.ceil(duration * sample_rate)) + 2
    amps = np.power(reflect, refl_count) / (4.0 * np.pi * dist)
    base = np.floor(delays).astype(np.int64)
    frac = delays - base
    # fixed deposit order keeps taps bit-identical: bincount adds from 0.0 in
    # input order, flattened lattice order with every lower tap before every
    # upper one; a deposit past the stored span lands in a bin cut off below
    taps = np.bincount(np.concatenate([base, base + 1]),
                       weights=np.concatenate([amps * (1.0 - frac), amps * frac]),
                       minlength=length)[:length]
    return ImpulseResponse(taps, sample_rate)


def apply_rir(w: Waveform, h: ImpulseResponse) -> Waveform:
    """Convolve with the impulse response, truncated to the input length.

    The transforms are computed in the calling thread's scratch
    (dsp.thread_scratch); the result is a fresh array.
    """
    if w.sample_rate != h.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: waveform {w.sample_rate}, RIR {h.sample_rate}")
    x, taps = w.samples, h.taps
    if len(x) == 1 or len(taps) == 1:
        out = (x * taps)[:len(x)]  # no transform, as fftconvolve does
    else:
        n = _next_fast_len(len(x) + len(taps) - 1)
        _, a, b, _ = thread_scratch()
        spectrum = np.fft.rfft(x, n, out=a.array((n // 2 + 1,), np.complex128))
        spectrum *= np.fft.rfft(taps, n, out=b.array((n // 2 + 1,), np.complex128))
        out = np.fft.irfft(spectrum, n, out=b.array((n,)))[:len(x)].copy()
    return Waveform(out, w.sample_rate)


def _next_fast_len(target: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) at or above target: the FFT
    length scipy.signal.fftconvolve picks for a real transform."""
    best = 2 ** (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that lifts p35 to the target
            quotient = -(-target // p35)
            n = p35 * 2 ** (quotient - 1).bit_length()
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def estimate_t60(h: ImpulseResponse,
                 fit_range_db: tuple[float, float] = (-5.0, -25.0)) -> float:
    """Reverberation time from Schroeder backward integration.

    Fits the energy-decay curve between the two dB levels and extrapolates the
    slope to -60 dB.
    """
    energy = h.taps.astype(np.float64) ** 2
    total = energy.sum()
    if total <= 0.0:
        raise ValueError("impulse response has no energy")
    edc = np.cumsum(energy[::-1])[::-1] / total
    db = 10.0 * np.log10(np.maximum(edc, 1e-30))
    hi, lo = fit_range_db
    start = int(np.argmax(db <= hi))
    stop = int(np.argmax(db <= lo))
    if db[start] > hi or db[stop] > lo or stop <= start + 1:
        raise ValueError("decay range insufficient for the requested fit")
    t = np.arange(start, stop + 1) / h.sample_rate
    slope, _ = np.polyfit(t, db[start:stop + 1], 1)
    if slope >= 0.0:
        raise ValueError("energy-decay curve does not decay over the fit range")
    return float(-60.0 / slope)


@dataclass
class MixResult:
    waveform: Waveform
    snr_db: float
    gain: float
    peak_scaled: bool


def mix_noise(speech: Waveform, noise: Waveform, snr_db: float, *,
              rng: np.random.Generator | None = None) -> MixResult:
    """Add noise at a target SNR.

    Shorter noise is looped circularly (random start offset when rng is
    given); longer noise is cropped. If the mixture would leave [-1, 1] it is
    rescaled by its peak and the result flagged.
    """
    if math.isinf(snr_db):
        if snr_db > 0:  # no-noise sentinel
            return MixResult(Waveform(speech.samples.copy(), speech.sample_rate),
                             snr_db, 0.0, False)
        raise ValueError("snr_db must be finite or +inf")
    if speech.sample_rate != noise.sample_rate:
        raise ValueError("speech and noise sample rates differ")
    n = len(speech.samples)
    m = len(noise.samples)
    if m == 0:
        raise DegenerateSignalError("noise signal is empty")
    if m < n:
        start = int(rng.integers(0, m)) if rng is not None else 0
        seg = np.take(noise.samples, (start + np.arange(n)) % m)
    elif m > n:
        start = int(rng.integers(0, m - n + 1)) if rng is not None else 0
        seg = noise.samples[start:start + n]
    else:
        seg = noise.samples
    p_speech = float(np.mean(speech.samples ** 2))
    p_noise = float(np.mean(seg ** 2))
    if p_speech <= 0.0:
        raise DegenerateSignalError("speech has zero power")
    if p_noise <= 0.0:
        raise DegenerateSignalError("noise has zero power")
    gain = math.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0)))
    out = speech.samples + gain * seg
    peak = float(np.max(np.abs(out))) if n else 0.0
    scaled = peak > 1.0
    if scaled:
        out = out / peak
    return MixResult(Waveform(out, speech.sample_rate), snr_db, gain, scaled)


@functools.lru_cache(maxsize=4)
def _noise_bank(shard_path: str) -> tuple[np.ndarray, ...]:
    from .recordio import read_shard

    bank = tuple(rec.float_samples() for rec in read_shard(shard_path))
    if not bank:
        raise ConfigurationError(f"noise shard {shard_path} holds no records")
    return bank


def _draw_noise(cfg: SimulatorConfig, rng: np.random.Generator,
                length: int, sample_rate: int) -> Waveform:
    if cfg.noise_source == "white":
        return Waveform(rng.standard_normal(length), sample_rate)
    bank = _noise_bank(cfg.noise_source)
    pick = int(rng.integers(0, len(bank)))
    return Waveform(bank[pick], sample_rate)


def simulate(utt: UtteranceRecord, rng: np.random.Generator,
             cfg: SimulatorConfig) -> UtteranceRecord:
    """Reverberate and/or add noise to one utterance, recording what was done.

    Deterministic given the rng seed; the transcript is never touched.
    Metadata keys written: room.dims, room.t60, mix.snr_db, mix.peak_scaled.
    """
    w = Waveform(utt.float_samples(), utt.sample_rate)
    meta = list(utt.metadata)
    if rng.random() < cfg.probability_of_reverb:
        room = sample_room(rng, cfg)
        h = compute_rir(room, utt.sample_rate)
        w = apply_rir(w, h)
        meta.append(("room.dims", "x".join(f"{d:.3f}" for d in room.dimensions)))
        meta.append(("room.t60", f"{room.target_t60:.4f}"))
    if rng.random() < cfg.probability_of_noise:
        snr = float(rng.uniform(*cfg.snr_range_db))
        noise = _draw_noise(cfg, rng, len(w.samples), utt.sample_rate)
        mixed = mix_noise(w, noise, snr, rng=rng)
        w = mixed.waveform
        meta.append(("mix.snr_db", f"{snr:.4f}"))
        if mixed.peak_scaled:
            meta.append(("mix.peak_scaled", "1"))
    out = UtteranceRecord.from_float(utt.utt_id, utt.sample_rate, w.samples,
                                     utt.transcript, meta)
    return out
