"""Vocal tract length perturbation by bilinear frequency warping.

The warp maps input frequency w in [0, pi] to

    w' = w + 2*atan( (1-a)*sin(w) / (1 - (1-a)*cos(w)) )

with warping factor a. For a in (0, 2) the map is a strictly increasing
bijection of [0, pi] with fixed endpoints. It is the phase of a first-order
all-pass, and these warps form a group (Oppenheim & Johnson, "Discrete
representation of signals", Proc. IEEE 1972): the warp by 2 - a undoes the
warp by a, so invert_warp is that warp, in closed form.

Utterances are warped in the spectral domain (its own 50 ms analysis
window, independent of the feature front end) and resynthesized by
overlap-add, so acoustic simulation can run on the already-warped waveform.

Resynthesis computes in the calling thread's scratch (dsp.thread_scratch):
one buffer for the padded signal and three frame-sized ones that each step
hands on to the next once their contents are spent. The buffers are per
thread and grow-only, to fit the longest utterance the thread has seen, so
a thread that warps many utterances allocates its frame-sized arrays about
once instead of once per utterance. No buffer escapes a public function:
vtlp_resynthesize returns a fresh copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (Scratch, Spectrogram, StftConfig, Waveform, _empty, istft, stft,
                  thread_scratch)
from .errors import ConfigurationError

DEFAULT_ALPHA_RANGE = (0.8, 1.2)


@dataclass(frozen=True)
class WarpSpec:
    """Warp factor sampling range plus the analysis parameters for resynthesis."""

    alpha_range: tuple[float, float] = DEFAULT_ALPHA_RANGE
    window_ms: float = 50.0
    hop_ms: float = 12.5
    dft_size: int = 1024

    def __post_init__(self):
        lo, hi = self.alpha_range
        if not (0.0 < lo <= hi < 2.0):
            raise ConfigurationError(
                f"alpha_range must lie within (0, 2) and be ordered, got {self.alpha_range}")

    def stft_config(self) -> StftConfig:
        return StftConfig(window_ms=self.window_ms, hop_ms=self.hop_ms,
                          dft_size=self.dft_size)


@dataclass
class VtlpResult:
    """Resynthesized waveform plus the warp factor that produced it.

    applied is False when the input was shorter than one analysis window and
    passed through unwarped.
    """

    waveform: Waveform
    alpha: float
    applied: bool


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"warp factor must lie in (0, 2), got {alpha}")


def warp_frequency(omega, alpha: float):
    """Warped frequency for omega in [0, pi]. Accepts scalars or arrays."""
    _check_alpha(alpha)
    om = np.asarray(omega, dtype=np.float64)
    if om.size and (om.min() < 0.0 or om.max() > np.pi):
        raise ValueError("frequencies must lie in [0, pi]")
    num = (1.0 - alpha) * np.sin(om)
    den = 1.0 - (1.0 - alpha) * np.cos(om)
    out = np.clip(om + 2.0 * np.arctan2(num, den), 0.0, np.pi)
    return float(out) if np.isscalar(omega) else out


def invert_warp(omega_target, alpha: float):
    """The omega in [0, pi] that warp_frequency(omega, alpha) maps to omega_target:
    the warp by 2 - alpha. Accepts scalars or arrays."""
    _check_alpha(alpha)
    return warp_frequency(omega_target, 2.0 - alpha)


def _source_positions(num_bins: int, alpha: float) -> np.ndarray:
    """Fractional input-bin positions that feed each output bin."""
    k = 2 * (num_bins - 1)
    omega_out = np.arange(num_bins) * (2.0 * np.pi / k)
    omega_out[-1] = np.pi  # guard against rounding past the domain edge
    omega_src = invert_warp(omega_out, alpha)
    return omega_src * (k / (2.0 * np.pi))


def warp_spectrum(frame: np.ndarray, alpha: float) -> np.ndarray:
    """Resample a complex half-spectrum along the inverse-warped frequency axis.

    Output bin k' takes the linearly interpolated complex value of the input
    spectrum at the frequency that warps onto k'. DC and Nyquist stay real.
    """
    frame = np.asarray(frame)
    if frame.ndim != 1 or frame.shape[0] < 2:
        raise ValueError("frame must be a half-spectrum of length K/2 + 1 >= 2")
    _check_alpha(alpha)
    pos = _source_positions(frame.shape[0], alpha)
    return _interp_frames(frame[None, :], pos)[0]


def _interp_frames(frames: np.ndarray, pos: np.ndarray,
                   scratch: tuple[Scratch, Scratch] | None = None) -> np.ndarray:
    """Complex linear interpolation of each row at fractional bin positions.

    With scratch (two distinct buffers, neither holding frames) the result is
    computed in the first, which it views, and the upper neighbours in the
    second.
    """
    n = frames.shape[1]
    idx = np.minimum(np.floor(pos).astype(np.int64), n - 2)
    frac = pos - idx
    out_buf, upper_buf = scratch or (None, None)
    # numpy multiplies complex by real through the complex loop anyway, so
    # weights cast up front keep every bit while the products run in place;
    # idx lies in [0, n - 2], so mode="clip" changes no index and spares
    # take() the copy it makes of out= under the default mode="raise"
    out = np.take(frames, idx, axis=1, out=_empty(out_buf, frames.shape, np.complex128),
                  mode="clip")
    out *= (1.0 - frac).astype(np.complex128)
    upper = np.take(frames, idx + 1, axis=1,
                    out=_empty(upper_buf, frames.shape, np.complex128), mode="clip")
    upper *= frac.astype(np.complex128)
    out += upper
    out[:, 0] = out[:, 0].real
    out[:, -1] = out[:, -1].real
    return out


def sample_alpha(spec: WarpSpec, rng: np.random.Generator) -> float:
    lo, hi = spec.alpha_range
    return float(rng.uniform(lo, hi))


def vtlp_resynthesize(w: Waveform, spec: WarpSpec | None = None, *,
                      alpha: float | None = None,
                      rng: np.random.Generator | None = None) -> VtlpResult:
    """Warp an utterance's spectrum and resynthesize, preserving its length.

    Exactly one of alpha or rng must be given; with rng, alpha is drawn
    uniformly from spec.alpha_range. Inputs shorter than one analysis window
    pass through unwarped with applied=False.
    """
    spec = spec or WarpSpec()
    if (alpha is None) == (rng is None):
        raise ValueError("pass exactly one of alpha or rng")
    if alpha is None:
        alpha = sample_alpha(spec, rng)
    _check_alpha(alpha)
    cfg = spec.stft_config()
    win = cfg.window_samples(w.sample_rate)
    n = len(w.samples)
    if n < win:
        return VtlpResult(Waveform(w.samples.copy(), w.sample_rate), alpha, False)
    # pad one window on each side so every original sample sits in the
    # fully-overlapped interior, then crop back to the input length
    hop = cfg.hop_samples(w.sample_rate)
    signal, a, b, c = thread_scratch()
    padded = signal.array((n + 2 * win + hop,))
    padded[:win] = 0.0
    padded[win:win + n] = w.samples
    padded[win + n:] = 0.0
    # spectra land in b, the warped spectra in c, and istft sums into b and c
    # once it has read c; a takes each step's short-lived temporary
    spec_in = stft(Waveform(padded, w.sample_rate), cfg, scratch=(a, b))
    pos = _source_positions(spec_in.frames.shape[1], alpha)
    warped = _interp_frames(spec_in.frames, pos, scratch=(c, a))
    out = istft(Spectrogram(warped, spec_in.config, spec_in.sample_rate), scratch=(a, b, c))
    samples = out.samples[win:win + n].copy()
    return VtlpResult(Waveform(samples, w.sample_rate), alpha, True)
