"""Signal-processing primitives: band-pass filtering, time-frequency
analysis, and mel-cepstral features.

Everything here is pure and deterministic: no global state, no hidden
randomness, safe to call from worker threads.  Frequencies are Hz,
times are seconds, signals are float64 arrays normalized to [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .errors import ParameterError

DEFAULT_BANDPASS_TAPS = 513


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Signal:
    """A sampled waveform, mono (n,) or two-channel (n, 2).

    Two-channel recordings follow the medial/lateral sensor convention:
    column 0 medial, column 1 lateral.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ParameterError(f"sample_rate must be > 0, got {self.sample_rate}")
        if self.samples.ndim == 2 and self.samples.shape[1] == 1:
            self.samples = self.samples[:, 0]
        if self.samples.ndim not in (1, 2):
            raise ParameterError("samples must be a 1-D or 2-D array")
        if self.samples.ndim == 2 and self.samples.shape[1] != 2:
            raise ParameterError(
                f"two-channel signals must have shape (n, 2), got {self.samples.shape}"
            )
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ParameterError("samples must all be finite")

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else 2

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def channel(self, index: int) -> "Signal":
        """Extract one channel as a mono Signal."""
        if index < 0 or index >= self.channels:
            raise ParameterError(f"channel {index} out of range for {self.channels}-channel signal")
        if self.channels == 1:
            return self
        return Signal(self.samples[:, index].copy(), self.sample_rate)


@dataclass
class Spectrogram:
    """Linear-magnitude time-frequency grid.

    ``magnitudes`` is time-major: shape (n_frames, n_bins).  Detectors
    square it to power internally; the export keeps magnitude because
    that is what manual inspection plots want.
    """

    magnitudes: np.ndarray
    frame_times: np.ndarray
    bin_freqs: np.ndarray
    frame_len: int
    hop: int

    def __post_init__(self) -> None:
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        self.frame_times = np.asarray(self.frame_times, dtype=np.float64)
        self.bin_freqs = np.asarray(self.bin_freqs, dtype=np.float64)
        if np.any(self.magnitudes < 0):
            raise ParameterError("magnitudes must be >= 0")
        if np.any(np.diff(self.bin_freqs) <= 0):
            raise ParameterError("bin_freqs must be strictly increasing")

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_bins(self) -> int:
        return self.magnitudes.shape[1]


@dataclass
class MfccConfig:
    """Mel-cepstrum parameters.

    Coefficient indexing is zero-based throughout the package: the
    coefficient named ``mfcc08`` is column 8 of the output, i.e. the
    ninth coefficient, with ``mfcc00`` carrying overall log energy.
    Filterbank energies are floored at ``log_floor`` before the natural
    log so digital silence maps to log(log_floor) instead of -inf.
    """

    fmin: float
    fmax: float
    frame_ms: float = 20.0
    hop_fraction: float = 0.5
    n_mels: int = 26
    n_coeffs: int = 13
    log_floor: float = 1e-10

    def __post_init__(self) -> None:
        if not (0 <= self.fmin < self.fmax):
            raise ParameterError(f"need 0 <= fmin < fmax, got ({self.fmin}, {self.fmax})")
        if self.n_coeffs > self.n_mels:
            raise ParameterError(
                f"n_coeffs ({self.n_coeffs}) must be <= n_mels ({self.n_mels})"
            )
        if self.n_mels < 1 or self.n_coeffs < 1:
            raise ParameterError("n_mels and n_coeffs must be >= 1")
        if self.frame_ms <= 0 or not (0 < self.hop_fraction <= 1):
            raise ParameterError("frame_ms must be > 0 and hop_fraction in (0, 1]")
        if self.log_floor <= 0:
            raise ParameterError("log_floor must be > 0")

    def frame_len(self, sample_rate: float) -> int:
        return max(2, int(round(sample_rate * self.frame_ms / 1000.0)))

    def hop(self, sample_rate: float) -> int:
        return max(1, int(round(self.frame_len(sample_rate) * self.hop_fraction)))


# ---------------------------------------------------------------------------
# band-pass filtering


def design_bandpass_fir(lo: float, hi: float, sample_rate: float, taps: int = DEFAULT_BANDPASS_TAPS) -> np.ndarray:
    """Design a linear-phase windowed-sinc band-pass FIR.

    The ideal band-pass impulse response (difference of two sinc
    low-passes with -6 dB points at ``lo`` and ``hi``) is truncated to
    ``taps`` coefficients and shaped with a Blackman window, whose
    ~74 dB sidelobe floor keeps the realized stopband at or beyond the
    60 dB the audits rely on (a Hamming window tops out near 53 dB).
    Taps are exactly palindromic, so the phase is exactly linear and
    the group delay is the constant (taps - 1) / 2.
    """
    nyq = sample_rate / 2.0
    if not (0 < lo < hi):
        raise ParameterError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if hi > nyq:
        raise ParameterError(f"hi={hi} exceeds Nyquist {nyq}")
    if taps < 3 or taps % 2 == 0:
        raise ParameterError(f"taps must be an odd integer >= 3, got {taps}")
    m = (taps - 1) // 2
    n = np.arange(taps) - m
    f_lo = lo / sample_rate
    f_hi = hi / sample_rate
    # difference of sampled sincs; np.sinc(x) = sin(pi x)/(pi x) handles n=0
    ideal = 2 * f_hi * np.sinc(2 * f_hi * n) - 2 * f_lo * np.sinc(2 * f_lo * n)
    h = ideal * np.blackman(taps)
    # enforce exact symmetry against accumulated rounding
    h = 0.5 * (h + h[::-1])
    return h


def fir_response_db(taps_arr: np.ndarray, freqs_hz: np.ndarray, sample_rate: float) -> np.ndarray:
    """Gain of an FIR in dB at arbitrary frequencies, by direct summation.

    Deliberately avoids the FFT so tests can use it as an independent
    check of the designed taps.
    """
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    n = np.arange(len(taps_arr))
    phase = -2j * np.pi * np.outer(freqs_hz / sample_rate, n)
    resp = np.abs(np.exp(phase) @ taps_arr)
    return 20.0 * np.log10(np.maximum(resp, 1e-300))


def apply_fir_zero_delay(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Convolve a mono sample array with an odd-length linear-phase FIR.

    The input is extended by (len(h)-1)/2 samples of symmetric padding at
    each end before taking the valid part of the convolution, which
    cancels the group delay exactly: the output has the same length as
    the input and no time shift.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or len(h) % 2 == 0:
        raise ParameterError("zero-delay filtering needs an odd number of taps")
    if len(x) == 0:
        return np.asarray(x, dtype=np.float64).copy()
    m = (len(h) - 1) // 2
    padded = np.pad(np.asarray(x, dtype=np.float64), m, mode="symmetric")
    return fftconvolve(padded, h, mode="valid")


def bandpass(signal: Signal, lo: float, hi: float, taps: int = DEFAULT_BANDPASS_TAPS) -> Signal:
    """Zero-delay band-pass filter.

    The signal is convolved with the linear-phase FIR from
    :func:`design_bandpass_fir` through :func:`apply_fir_zero_delay`, so
    the output has the same length as the input and no time shift.
    """
    h = design_bandpass_fir(lo, hi, signal.sample_rate, taps)
    if signal.channels == 1:
        out = apply_fir_zero_delay(signal.samples, h)
    else:
        out = np.column_stack(
            [apply_fir_zero_delay(signal.samples[:, c], h) for c in range(2)]
        )
    return Signal(out, signal.sample_rate)


# ---------------------------------------------------------------------------
# short-time Fourier analysis


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice a mono sample array into (n_frames, frame_len) frames.

    Frames start at 0, hop, 2*hop, ...; only frames that fit entirely
    inside the signal are produced (no padding).  The frames are a
    read-only strided view of ``x``, not a copy.
    """
    if x.ndim != 1:
        raise ParameterError("framing expects a mono sample array")
    if hop < 1:
        raise ParameterError(f"hop must be >= 1, got {hop}")
    n = len(x)
    if n < frame_len:
        raise ParameterError(
            f"signal of {n} samples is shorter than one frame ({frame_len} samples)"
        )
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def _hann_rfft(x: np.ndarray, frame_len: int, hop: int, n_fft: int | None = None) -> np.ndarray:
    """rfft of the periodic-Hann-windowed frames of ``x``, zero-padded to ``n_fft``."""
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len)
    return np.fft.rfft(frame_signal(x, frame_len, hop) * hann, n=n_fft, axis=1)


def stft_complex(signal: Signal, frame_len: int, hop: int) -> np.ndarray:
    """Complex one-sided STFT with a periodic Hann analysis window.

    Returns shape (n_frames, frame_len // 2 + 1).  Kept separate from
    :func:`stft` because the public Spectrogram carries magnitudes only;
    :func:`spectral_frame_energy` takes these coefficients.
    """
    if signal.channels != 1:
        raise ParameterError("stft expects a mono signal; use Signal.channel() first")
    if frame_len < 2 or (frame_len & (frame_len - 1)) != 0:
        raise ParameterError(f"frame_len must be a power of two >= 2, got {frame_len}")
    if not (0 < hop <= frame_len):
        raise ParameterError(f"hop must satisfy 0 < hop <= frame_len, got {hop}")
    return _hann_rfft(signal.samples, frame_len, hop)


def stft(signal: Signal, frame_len: int, hop: int) -> Spectrogram:
    """Magnitude spectrogram of a mono signal.

    ``frame_times`` are frame centers.  Frame energy satisfies Parseval
    against the Hann-windowed time frames (see
    :func:`spectral_frame_energy`).
    """
    coeffs = stft_complex(signal, frame_len, hop)
    n_frames = coeffs.shape[0]
    starts = np.arange(n_frames) * hop
    return Spectrogram(
        magnitudes=np.abs(coeffs),
        frame_times=(starts + frame_len / 2.0) / signal.sample_rate,
        bin_freqs=np.fft.rfftfreq(frame_len, 1.0 / signal.sample_rate),
        frame_len=frame_len,
        hop=hop,
    )


def spectral_frame_energy(coeffs: np.ndarray, frame_len: int) -> np.ndarray:
    """Per-frame energy from one-sided spectra (Parseval form).

    Equals ``sum(windowed_frame ** 2)`` for each frame up to float
    rounding; interior bins count twice because the one-sided transform
    folds conjugate pairs.
    """
    power = np.abs(coeffs) ** 2
    weights = np.full(power.shape[1], 2.0)
    weights[0] = 1.0
    if frame_len % 2 == 0:
        weights[-1] = 1.0
    return power @ weights / frame_len


# ---------------------------------------------------------------------------
# mel cepstrum


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: float, fmin: float, fmax: float) -> np.ndarray:
    """Triangular mel filterbank on the one-sided FFT bin grid.

    Centers are equally spaced on the m = 2595 log10(1 + f/700) scale
    between fmin and fmax; each row is a unit-peak triangle between its
    neighbors' centers.  Shape (n_mels, n_fft // 2 + 1).
    """
    nyq = sample_rate / 2.0
    if fmax > nyq:
        raise ParameterError(f"fmax={fmax} exceeds Nyquist {nyq}")
    if fmin >= fmax:
        raise ParameterError(f"need fmin < fmax, got ({fmin}, {fmax})")
    edges_hz = np.asarray(
        mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    )
    bin_freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    fbank = np.zeros((n_mels, len(bin_freqs)))
    for i in range(n_mels):
        left, center, right = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        fbank[i] = np.maximum(0.0, np.minimum(up, down))
    return fbank


def dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n x n (rows are basis vectors)."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * j + 1) / (2.0 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return mat


def power_frames(signal: Signal, frame_len: int, hop: int, n_fft: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed per-frame power spectra of a mono signal.

    Returns (bin_freqs, power) with power of shape (n_frames, n_bins).
    ``n_fft`` defaults to the next power of two >= frame_len; frames are
    zero-padded up to it.
    """
    if signal.channels != 1:
        raise ParameterError("power_frames expects a mono signal")
    if n_fft is None:
        n_fft = 1 << (frame_len - 1).bit_length()
    if n_fft < frame_len:
        raise ParameterError(f"n_fft ({n_fft}) must be >= frame_len ({frame_len})")
    power = np.abs(_hann_rfft(signal.samples, frame_len, hop, n_fft)) ** 2
    return np.fft.rfftfreq(n_fft, 1.0 / signal.sample_rate), power


def mfcc_from_power(power: np.ndarray, fbank: np.ndarray, n_coeffs: int, log_floor: float) -> np.ndarray:
    """Mel energies -> floored natural log -> orthonormal DCT-II, truncated.

    On digital silence every row is the DCT of the constant log-floor
    vector: coefficient 0 is sqrt(n_mels) * log(log_floor), the rest 0.
    """
    energies = power @ fbank.T
    logs = np.log(np.maximum(energies, log_floor))
    return logs @ dct2_matrix(fbank.shape[0])[:n_coeffs].T

