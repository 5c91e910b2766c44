"""Signal-processing primitives: band-pass filtering, time-frequency
analysis, and mel-cepstral features.

Everything here is pure and deterministic: no hidden randomness, safe to
call from worker threads.  The only state is three bounded caches of
derived constants (band-pass kernel spectra, mel filterbanks, DCT
matrices), which hand out read-only arrays.  Frequencies are Hz, times
are seconds, signals are float64 arrays normalized to [-1, 1].

A :class:`Signal` checks its samples once, when it is built.  The
routines of the feature map (:func:`zero_delay_filter`,
:func:`frame_signal`, :func:`power_frames`) take plain mono sample
arrays cut from a checked Signal, plus the sample rate where they need
it, and check them no further.

:func:`fft_length` is the one rule for a frame's transform length, which
:func:`power_frames` pads to and the feature map's mel grid is built on;
:func:`parseval_weights` turn one-sided power spectra into frame energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sp_fft

from .errors import ParameterError

DEFAULT_BANDPASS_TAPS = 513
# frames per block in which :func:`stft` builds a magnitude spectrogram
STFT_BLOCK_FRAMES = 64


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
        if not (0 < self.frame_ms < np.inf) or not (0 < self.hop_fraction <= 1):
            raise ParameterError("frame_ms must be finite and > 0 and hop_fraction in (0, 1]")
        if self.log_floor <= 0:
            raise ParameterError("log_floor must be > 0")

    def frame_len(self, sample_rate: float) -> int:
        n = sample_rate * self.frame_ms / 1000.0
        if n == np.inf:
            raise ParameterError(f"frame_ms={self.frame_ms} gives no finite frame at {sample_rate} Hz")
        return max(2, int(round(n)))

    def hop(self, sample_rate: float) -> int:
        return max(1, int(round(self.frame_len(sample_rate) * self.hop_fraction)))


# ---------------------------------------------------------------------------
# band-pass filtering


def bandpass_problem(lo: float, hi: float, sample_rate: float, taps: int) -> str | None:
    """Why :func:`design_bandpass_fir` refuses (lo, hi, taps) at
    ``sample_rate``, or None."""
    nyq = sample_rate / 2.0
    if not (0 < lo < hi):
        return f"need 0 < lo < hi, got lo={lo}, hi={hi}"
    if hi > nyq:
        return f"hi={hi} exceeds Nyquist {nyq}"
    if taps < 3 or taps % 2 == 0:
        return f"taps must be an odd integer >= 3, got {taps}"
    return None


def _check_band(lo: float, hi: float, sample_rate: float, taps: int) -> None:
    problem = bandpass_problem(lo, hi, sample_rate, taps)
    if problem:
        raise ParameterError(problem)


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
    _check_band(lo, hi, sample_rate, taps)
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


def design_sampled_response_fir(freqs: np.ndarray, gains: np.ndarray, sample_rate: float, taps: int) -> np.ndarray:
    """Design a linear-phase FIR of ``taps`` coefficients by frequency
    sampling: the gain response through the points (``freqs`` Hz,
    ``gains``), from 0 to Nyquist, is interpolated onto a uniform grid,
    inverse-transformed and shaped with a symmetric Hamming window.

    The operations and their order are those of scipy's
    ``firwin2(taps, freqs, gains, fs=sample_rate)`` for an odd ``taps``,
    so the taps equal it bit for bit.
    """
    if taps < 3 or taps % 2 == 0:
        raise ParameterError(f"taps must be an odd integer >= 3, got {taps}")
    nyq = 0.5 * sample_rate
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs[0] != 0 or freqs[-1] != nyq or np.any(np.diff(freqs) <= 0):
        raise ParameterError("freqs must rise strictly from 0 to Nyquist")
    x = np.linspace(0.0, nyq, 1 + fft_length(taps))
    fx = np.interp(x, freqs, np.asarray(gains, dtype=np.float64))
    # the phase shift makes the first `taps` values of the inverse transform the filter
    shift = np.exp(-(taps - 1) / 2. * 1j * np.pi * x / nyq)
    # symmetric Hamming window; firwin2's coefficient is `1.0 - 0.54`, one
    # ulp below the double 0.46, and only it reproduces firwin2's taps
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    return sp_fft.irfft(fx * shift)[:taps] * window


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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _band_spectrum(lo: float, hi: float, sample_rate: float, taps: int, n_fft: int) -> np.ndarray:
    """rfft of the :func:`design_bandpass_fir` kernel at length ``n_fft``."""
    return _readonly(sp_fft.rfft(design_bandpass_fir(lo, hi, sample_rate, taps), n_fft))


def band_spectrum(lo: float, hi: float, sample_rate: float, taps: int) -> Callable[[int], np.ndarray]:
    """The band-pass kernel of (lo, hi, sample_rate, taps) as :func:`zero_delay_filter`
    takes it: a function of the transform length, cached and read-only."""
    _check_band(lo, hi, sample_rate, taps)
    return partial(_band_spectrum, lo, hi, sample_rate, taps)


def zero_delay_filter(x: np.ndarray, taps: int,
                      kernels: Sequence[Callable[[int], np.ndarray]]) -> list[np.ndarray]:
    """Convolve a mono sample array with odd-length linear-phase FIRs of
    ``taps`` coefficients each, without delay.

    The input is extended by (taps - 1) / 2 samples of symmetric padding
    at each end and transformed once; each kernel, given as its one-sided
    spectrum at a transform length (``kernels[i](n_fft)``), then costs
    one multiply and one inverse FFT.  The centred valid part of each
    convolution cancels the group delay exactly: every output has the
    length of the input and no time shift.  Transform lengths and
    operation order are those of scipy's ``fftconvolve(padded, h,
    "valid")``, so the output equals it bit for bit.
    """
    if taps < 1 or taps % 2 == 0:
        raise ParameterError("zero-delay filtering needs an odd number of taps")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("zero-delay filtering expects a mono sample array")
    if len(x) == 0:
        return [x.copy() for _ in kernels]
    padded = np.pad(x, (taps - 1) // 2, mode="symmetric")
    n_fft = sp_fft.next_fast_len(len(padded) + taps - 1, True)
    spectrum = sp_fft.rfft(padded, n_fft)
    # np.multiply, not `*`: numpy may evaluate `a * temporary` in place as
    # `temporary * a`, and the swapped complex product can round differently
    return [sp_fft.irfft(np.multiply(spectrum, kernel(n_fft)), n_fft)[taps - 1 : taps - 1 + len(x)]
            for kernel in kernels]


def fir_spectrum(h: np.ndarray) -> Callable[[int], np.ndarray]:
    """An explicit FIR ``h`` as :func:`zero_delay_filter` takes it.

    The spectrum at each transform length is computed once and kept, read
    only, by the returned function (not in a module cache), so one FIR
    applied to many equal-length arrays is transformed once.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ParameterError("zero-delay filtering needs a 1-D kernel")
    spectra: dict[int, np.ndarray] = {}

    def kernel(n_fft: int) -> np.ndarray:
        if n_fft not in spectra:
            spectra[n_fft] = _readonly(sp_fft.rfft(h, n_fft))
        return spectra[n_fft]

    return kernel


def bandpass(signal: Signal, lo: float, hi: float, taps: int = DEFAULT_BANDPASS_TAPS) -> Signal:
    """Zero-delay band-pass filter.

    Each channel is convolved with the linear-phase FIR from
    :func:`design_bandpass_fir` through :func:`zero_delay_filter`, so
    the output has the same length as the input and no time shift.
    """
    kernel = band_spectrum(lo, hi, signal.sample_rate, taps)
    columns = signal.samples.reshape(signal.n_samples, signal.channels).T
    out = [zero_delay_filter(col, taps, [kernel])[0] for col in columns]
    return Signal(np.column_stack(out), signal.sample_rate)


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


def _check_stft(signal: Signal, frame_len: int, hop: int) -> None:
    if signal.channels != 1:
        raise ParameterError("stft expects a mono signal; mix its channels down first")
    if frame_len < 2 or (frame_len & (frame_len - 1)) != 0:
        raise ParameterError(f"frame_len must be a power of two >= 2, got {frame_len}")
    if not (0 < hop <= frame_len):
        raise ParameterError(f"hop must satisfy 0 < hop <= frame_len, got {hop}")


def stft_complex(signal: Signal, frame_len: int, hop: int) -> np.ndarray:
    """Complex one-sided STFT with a periodic Hann analysis window.

    Returns shape (n_frames, frame_len // 2 + 1).  Kept separate from
    :func:`stft` because the public Spectrogram carries magnitudes only;
    :func:`spectral_frame_energy` takes these coefficients.
    """
    _check_stft(signal, frame_len, hop)
    return _hann_rfft(signal.samples, frame_len, hop)


def stft(signal: Signal, frame_len: int, hop: int) -> Spectrogram:
    """Magnitude spectrogram of a mono signal.

    ``frame_times`` are frame centers.  Frame energy satisfies Parseval
    against the Hann-windowed time frames (see
    :func:`spectral_frame_energy`).  The magnitudes equal
    ``np.abs(stft_complex(...))`` bit for bit, but are computed
    :data:`STFT_BLOCK_FRAMES` frames at a time, so the complex
    coefficients of no more than one block are held at once.
    """
    _check_stft(signal, frame_len, hop)
    x = signal.samples
    n_frames = frame_signal(x, frame_len, hop).shape[0]
    magnitudes = np.empty((n_frames, frame_len // 2 + 1))
    for first in range(0, n_frames, STFT_BLOCK_FRAMES):
        last = min(first + STFT_BLOCK_FRAMES, n_frames)
        span = x[first * hop:(last - 1) * hop + frame_len]
        np.abs(_hann_rfft(span, frame_len, hop), out=magnitudes[first:last])
    starts = np.arange(n_frames) * hop
    return Spectrogram(
        magnitudes=magnitudes,
        frame_times=(starts + frame_len / 2.0) / signal.sample_rate,
        bin_freqs=np.fft.rfftfreq(frame_len, 1.0 / signal.sample_rate),
        frame_len=frame_len,
        hop=hop,
    )


def parseval_weights(n_fft: int) -> np.ndarray:
    """Energy weight of each one-sided bin of an ``n_fft``-point transform:
    1 for DC and an even length's Nyquist bin, 2 for the folded pairs."""
    weights = np.full(n_fft // 2 + 1, 2.0)
    weights[0] = 1.0
    if n_fft % 2 == 0:
        weights[-1] = 1.0
    return weights


def spectral_frame_energy(coeffs: np.ndarray, frame_len: int) -> np.ndarray:
    """Per-frame energy from one-sided spectra (Parseval form).

    Equals ``sum(windowed_frame ** 2)`` for each frame up to float
    rounding.
    """
    return np.abs(coeffs) ** 2 @ parseval_weights(frame_len) / frame_len


# ---------------------------------------------------------------------------
# mel cepstrum


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_bins_problem(n_mels: int, n_fft: int) -> str | None:
    """Why ``n_mels`` filters do not fit the one-sided bins of an
    ``n_fft``-point FFT, or None."""
    if n_mels > n_fft // 2 + 1:
        return f"n_mels={n_mels} exceeds the {n_fft // 2 + 1} one-sided bins of a {n_fft}-point FFT"
    return None


def mel_filterbank_problem(n_mels: int, n_fft: int, sample_rate: float, fmin: float, fmax: float) -> str | None:
    """Why :func:`mel_filterbank` refuses its arguments, or None."""
    nyq = sample_rate / 2.0
    if fmax > nyq:
        return f"fmax={fmax} exceeds Nyquist {nyq}"
    if fmin >= fmax:
        return f"need fmin < fmax, got ({fmin}, {fmax})"
    return mel_bins_problem(n_mels, n_fft)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: float, fmin: float, fmax: float) -> np.ndarray:
    """Triangular mel filterbank on the one-sided FFT bin grid.

    Centers are equally spaced on the m = 2595 log10(1 + f/700) scale
    between fmin and fmax; each row is a unit-peak triangle between its
    neighbors' centers.  Shape (n_mels, n_fft // 2 + 1); n_mels may not
    exceed the bin count.  The array is cached and read-only.
    """
    problem = mel_filterbank_problem(n_mels, n_fft, sample_rate, fmin, fmax)
    if problem:
        raise ParameterError(problem)
    return _mel_filterbank(n_mels, n_fft, sample_rate, fmin, fmax)


@lru_cache(maxsize=32)
def _mel_filterbank(n_mels: int, n_fft: int, sample_rate: float, fmin: float, fmax: float) -> np.ndarray:
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
    return _readonly(fbank)


@lru_cache(maxsize=32)
def dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n x n (rows are basis vectors),
    cached and read-only."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * j + 1) / (2.0 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return _readonly(mat)


def fft_length(frame_len: int) -> int:
    """Transform length of a frame in :func:`power_frames`: the next power of two >= frame_len."""
    return 1 << (frame_len - 1).bit_length()


def power_frames(x: np.ndarray, sample_rate: float, frame_len: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed per-frame power spectra of a mono sample array.

    Returns (bin_freqs, power) with power of shape (n_frames, n_bins).
    Frames are zero-padded to :func:`fft_length` of ``frame_len``.
    """
    n_fft = fft_length(frame_len)
    power = np.abs(_hann_rfft(x, frame_len, hop, n_fft)) ** 2
    return np.fft.rfftfreq(n_fft, 1.0 / sample_rate), power


def mfcc_from_power(power: np.ndarray, fbank: np.ndarray, n_coeffs: int, log_floor: float) -> np.ndarray:
    """Mel energies -> floored natural log -> orthonormal DCT-II, truncated.

    On digital silence every row is the DCT of the constant log-floor
    vector: coefficient 0 is sqrt(n_mels) * log(log_floor), the rest 0.
    """
    energies = power @ fbank.T
    logs = np.log(np.maximum(energies, log_floor))
    return logs @ dct2_matrix(fbank.shape[0])[:n_coeffs].T

