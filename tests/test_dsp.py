"""Tests for the signal-processing layer.

Derived expectations are checked against oracles implemented here with
independent code paths (plain-Python direct summation), not against the
package's own transforms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroaudit.dataset import FeatureConfig, extract_features
from vibroaudit.dsp import (
    MfccConfig,
    Signal,
    Spectrogram,
    bandpass,
    dct2_matrix,
    design_bandpass_fir,
    fir_response_db,
    frame_signal,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc_from_power,
    power_frames,
    spectral_frame_energy,
    stft,
    stft_complex,
)
from vibroaudit.errors import ParameterError

FS = 100_000.0


# ---------------------------------------------------------------------------
# oracles (independent code paths)


def oracle_gain_db(taps, freq_hz, fs):
    """FIR gain at one frequency by direct summation, no FFT."""
    re = 0.0
    im = 0.0
    for n, h in enumerate(taps):
        ang = -2.0 * math.pi * freq_hz * n / fs
        re += h * math.cos(ang)
        im += h * math.sin(ang)
    return 20.0 * math.log10(math.hypot(re, im) + 1e-300)


def oracle_dct2(x):
    """Orthonormal DCT-II by direct summation."""
    n = len(x)
    out = []
    for k in range(n):
        s = 0.0
        for j in range(n):
            s += x[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out.append(scale * s)
    return np.array(out)


def sine(freq, dur=1.0, fs=FS, amp=1.0):
    t = np.arange(int(round(dur * fs))) / fs
    return Signal(amp * np.sin(2 * np.pi * freq * t), fs)


# ---------------------------------------------------------------------------
# Signal type


class TestSignal:
    def test_basic_properties(self):
        s = sine(1000, dur=0.5)
        assert s.channels == 1
        assert s.n_samples == 50_000
        assert s.duration == pytest.approx(0.5)

    def test_two_channel(self):
        x = np.random.default_rng(0).normal(size=(100, 2))
        s = Signal(x, 1000.0)
        assert s.channels == 2
        ch1 = s.channel(1)
        assert ch1.channels == 1
        np.testing.assert_array_equal(ch1.samples, x[:, 1])

    def test_column_vector_squeezed_to_mono(self):
        s = Signal(np.ones((10, 1)), 100.0)
        assert s.channels == 1

    def test_invalid_sample_rate(self):
        with pytest.raises(ParameterError):
            Signal(np.zeros(10), 0.0)

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ParameterError):
            Signal(np.array([0.0, np.nan]), 100.0)

    def test_three_channels_rejected(self):
        with pytest.raises(ParameterError):
            Signal(np.zeros((10, 3)), 100.0)

    def test_channel_out_of_range(self):
        with pytest.raises(ParameterError):
            sine(100).channel(1)


# ---------------------------------------------------------------------------
# band-pass FIR


class TestBandpassDesign:
    def test_taps_palindromic(self):
        h = design_bandpass_fir(250, 10_000, FS, 513)
        np.testing.assert_array_equal(h, h[::-1])

    @given(
        lo=st.floats(min_value=100, max_value=5_000),
        width=st.floats(min_value=500, max_value=30_000),
        half_taps=st.integers(min_value=16, max_value=300),
    )
    @settings(max_examples=25, deadline=None)
    def test_taps_palindromic_property(self, lo, width, half_taps):
        taps = 2 * half_taps + 1
        h = design_bandpass_fir(lo, lo + width, FS, taps)
        assert len(h) == taps
        np.testing.assert_array_equal(h, h[::-1])

    def test_33khz_stopband_from_tap_transform(self):
        # independent direct-summation oracle on the designed taps
        h = design_bandpass_fir(250, 10_000, FS, 513)
        assert oracle_gain_db(h, 33_000, FS) <= -60.0
        # and the package's own response helper agrees with the oracle
        assert fir_response_db(h, np.array([33_000.0]), FS)[0] == pytest.approx(
            oracle_gain_db(h, 33_000, FS), abs=1e-3
        )

    def test_stopband_at_scaled_edges(self):
        # 0.8x lo / 1.2x hi reachable when the transition band fits
        h = design_bandpass_fir(5_000, 15_000, FS, 513)
        assert oracle_gain_db(h, 0.8 * 5_000, FS) <= -60.0
        assert oracle_gain_db(h, 1.2 * 15_000, FS) <= -60.0

    def test_passband_ripple_below_tenth_db(self):
        h = design_bandpass_fir(5_000, 15_000, FS, 513)
        gains = fir_response_db(h, np.linspace(6_000, 14_000, 200), FS)
        assert np.max(np.abs(gains)) < 0.1

    def test_parameter_errors(self):
        s = sine(1000, dur=0.01)
        with pytest.raises(ParameterError):
            bandpass(s, 10_000, 250)
        with pytest.raises(ParameterError):
            bandpass(s, 250, 60_000)
        with pytest.raises(ParameterError):
            bandpass(s, 250, 10_000, taps=512)
        with pytest.raises(ParameterError):
            bandpass(s, 0, 10_000)


class TestBandpassFilter:
    def test_passband_identity_rms(self):
        s = sine(1000)
        out = bandpass(s, 250, 10_000)
        rms_in = np.sqrt(np.mean(s.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert abs(rms_out - rms_in) / rms_in < 0.01

    def test_zero_delay_alignment(self):
        s = sine(1000)
        out = bandpass(s, 250, 10_000)
        assert out.n_samples == s.n_samples
        # away from the padded edges the output tracks the input sample
        # for sample, which a delayed filter could not do
        core = slice(2000, -2000)
        assert np.max(np.abs(out.samples[core] - s.samples[core])) < 0.01

    def test_stopband_sine_killed(self):
        s = sine(33_000, dur=0.5)
        out = bandpass(s, 250, 10_000)
        interior = out.samples[1100:-1100]
        rms_in = np.sqrt(np.mean(s.samples**2))
        assert np.sqrt(np.mean(interior**2)) < 1e-3 * rms_in

    def test_zero_signal(self):
        s = Signal(np.zeros(5_000), FS)
        out = bandpass(s, 250, 10_000)
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-300)

    def test_two_channel_filters_each_column(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20_000, 2))
        s = Signal(x, FS)
        out = bandpass(s, 250, 10_000)
        left = bandpass(Signal(x[:, 0], FS), 250, 10_000)
        np.testing.assert_allclose(out.samples[:, 0], left.samples, rtol=0, atol=1e-12)
        assert out.samples.shape == x.shape


# ---------------------------------------------------------------------------
# STFT


class TestStft:
    def test_tone_bin_location(self):
        s = sine(33_000, dur=0.2)
        spec = stft(s, 2048, 1024)
        expected_bin = round(33_000 * 2048 / FS)
        power = spec.magnitudes**2
        for frame in power:
            assert abs(int(np.argmax(frame)) - expected_bin) <= 1

    def test_dc_energy_in_lowest_bins(self):
        s = Signal(np.ones(8_192) * 0.5, FS)
        spec = stft(s, 1024, 512)
        power = spec.magnitudes**2
        assert np.all(np.argmax(power, axis=1) == 0)
        # the Hann window spreads a DC line into bins 0 and 1 only
        assert np.all(power[:, :2].sum(axis=1) / power.sum(axis=1) > 0.999)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50_000)
        frame_len, hop = 1024, 512
        coeffs = stft_complex(Signal(x, FS), frame_len, hop)
        spec_energy = spectral_frame_energy(coeffs, frame_len)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame_len) / frame_len)
        n_frames = coeffs.shape[0]
        time_energy = np.array(
            [np.sum((x[k * hop : k * hop + frame_len] * w) ** 2) for k in range(n_frames)]
        )
        np.testing.assert_allclose(spec_energy, time_energy, rtol=1e-6)

    def test_white_noise_no_persistent_peak(self):
        # Monte Carlo: white noise must not produce a bin persistently
        # 10x above the per-frame median bin power
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=256 + 63 * 128)
            spec = stft(Signal(x, 8_000.0), 256, 128)
            power = spec.magnitudes**2
            med = np.median(power, axis=1, keepdims=True)
            exceed = power > 10.0 * med
            persistence = exceed.mean(axis=0)
            worst = max(worst, float(persistence.max()))
        assert worst < 0.5

    def test_frame_grid(self):
        s = sine(1000, dur=0.1)
        spec = stft(s, 1024, 256)
        assert spec.n_frames == 1 + (s.n_samples - 1024) // 256
        assert spec.n_bins == 513
        assert spec.frame_times[0] == pytest.approx(512 / FS)
        assert np.all(np.diff(spec.bin_freqs) > 0)
        assert spec.bin_freqs[-1] == pytest.approx(FS / 2)

    def test_errors(self):
        with pytest.raises(ParameterError):
            stft(sine(1000, dur=0.001), 1024, 512)  # too short
        with pytest.raises(ParameterError):
            stft(sine(1000, dur=0.1), 1000, 500)  # not power of two
        with pytest.raises(ParameterError):
            stft(sine(1000, dur=0.1), 1024, 0)  # bad hop


def index_frames(x, frame_len, hop):
    """Reference framing: gather every frame through an index matrix."""
    n_frames = 1 + (len(x) - frame_len) // hop
    starts = np.arange(n_frames) * hop
    return x[starts[:, None] + np.arange(frame_len)[None, :]]


class TestFrameSignal:
    @pytest.mark.parametrize("n, frame_len, hop", [
        (1000, 64, 1), (1000, 64, 64), (1000, 64, 100), (64, 64, 1), (64, 64, 7),
        (1001, 64, 32),
    ])
    def test_equals_index_built_frames(self, n, frame_len, hop):
        x = np.random.default_rng(n + hop).normal(size=n)
        frames = frame_signal(x, frame_len, hop)
        assert np.array_equal(frames, index_frames(x, frame_len, hop))
        assert frames.shape == (1 + (n - frame_len) // hop, frame_len)

    @pytest.mark.parametrize("hop", [0, -1, -3])
    def test_hop_below_one_is_rejected(self, hop):
        with pytest.raises(ParameterError, match="hop"):
            frame_signal(np.zeros(1000), 64, hop)
        with pytest.raises(ParameterError, match="hop"):
            power_frames(Signal(np.zeros(1000), FS), 64, hop)

    @pytest.mark.parametrize("frame_len", [256, 250])
    def test_spectra_equal_the_index_built_reference(self, frame_len):
        x = np.random.default_rng(1).normal(size=5000)
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame_len) / frame_len)
        ref = np.fft.rfft(index_frames(x, frame_len, 100) * hann[None, :], n=256, axis=1)
        _, power = power_frames(Signal(x, FS), frame_len, 100)
        assert np.array_equal(power, np.abs(ref) ** 2)
        if frame_len == 256:
            assert np.array_equal(stft_complex(Signal(x, FS), 256, 100), ref)


# ---------------------------------------------------------------------------
# mel cepstrum


class TestMelScale:
    def test_known_values(self):
        assert hz_to_mel(0.0) == 0.0
        assert float(hz_to_mel(1000.0)) == pytest.approx(2595.0 * math.log10(1 + 1000 / 700))

    @given(st.floats(min_value=0.0, max_value=50_000.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, f):
        assert float(mel_to_hz(hz_to_mel(f))) == pytest.approx(f, abs=1e-6, rel=1e-9)


class TestMelFilterbank:
    def test_tiles_interior_band(self):
        fbank = mel_filterbank(26, 2048, FS, 250.0, 10_000.0)
        bin_freqs = np.fft.rfftfreq(2048, 1.0 / FS)
        edges = np.asarray(mel_to_hz(np.linspace(hz_to_mel(250.0), hz_to_mel(10_000.0), 28)))
        centers = edges[1:-1]
        interior = (bin_freqs >= centers[0]) & (bin_freqs <= centers[-1])
        colsum = fbank.sum(axis=0)
        assert np.all(colsum[interior] >= 0.99)
        assert np.all(colsum[interior] <= 1.0 + 1e-9)

    def test_rows_positive(self):
        fbank = mel_filterbank(26, 2048, FS, 250.0, 10_000.0)
        assert np.all(fbank.sum(axis=1) > 0)
        assert np.all(fbank >= 0)

    def test_errors(self):
        with pytest.raises(ParameterError):
            mel_filterbank(26, 2048, FS, 250.0, 60_000.0)
        with pytest.raises(ParameterError):
            mel_filterbank(26, 2048, FS, 10_000.0, 250.0)


class TestDct2:
    def test_orthonormal(self):
        for n in (13, 26):
            mat = dct2_matrix(n)
            np.testing.assert_allclose(mat @ mat.T, np.eye(n), atol=1e-10)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=26)
        np.testing.assert_allclose(dct2_matrix(26) @ x, oracle_dct2(x), atol=1e-9)


class TestMfcc:
    """The cepstrum stage of the feature map g, through mfcc_from_power and extract_features."""

    FS = 16_000.0

    def cfg(self, fmin=100.0, fmax=8_000.0):
        return FeatureConfig(band_lo=fmin, band_hi=fmax)

    def test_silence(self):
        # every frame's mel energies sit below the log floor
        fbank = mel_filterbank(26, 512, self.FS, 100.0, 8_000.0)
        coeffs = mfcc_from_power(np.zeros((40, 257)), fbank, 13, 1e-10)
        assert coeffs.shape == (40, 13)
        np.testing.assert_array_equal(coeffs, np.tile(coeffs[0], (40, 1)))
        expected_c0 = math.sqrt(26) * math.log(1e-10)
        assert coeffs[0, 0] == pytest.approx(expected_c0, rel=1e-12)
        np.testing.assert_allclose(coeffs[0, 1:], 0.0, atol=1e-9)
        # the feature map reads the same cepstrum off digital silence
        vec = extract_features(Signal(np.zeros(int(self.FS)), self.FS), self.cfg())
        assert vec.values["mfcc00_mean"] == pytest.approx(expected_c0, rel=1e-12)
        for j in range(13):
            assert abs(vec.values[f"mfcc{j:02d}_std"]) < 1e-9
            if j:
                assert abs(vec.values[f"mfcc{j:02d}_mean"]) < 1e-9

    def test_single_frame_against_dct_oracle(self):
        fs = 16_000.0
        rng = np.random.default_rng(9)
        power = rng.uniform(0.1, 2.0, size=(1, 257))
        fbank = mel_filterbank(26, 512, fs, 100.0, 8_000.0)
        got = mfcc_from_power(power, fbank, 13, 1e-10)
        energies = power[0] @ fbank.T
        logs = np.log(np.maximum(energies, 1e-10))
        expected = oracle_dct2(logs)[:13]
        np.testing.assert_allclose(got[0], expected, atol=1e-9)

    def test_two_identical_chunks_give_identical_frames(self):
        mc = MfccConfig(fmin=100.0, fmax=8_000.0)
        frame_len = mc.frame_len(self.FS)
        rng = np.random.default_rng(2)
        chunk = rng.normal(size=frame_len) * 0.1
        _, power = power_frames(Signal(np.concatenate([chunk, chunk]), self.FS), frame_len, mc.hop(self.FS))
        fbank = mel_filterbank(mc.n_mels, (power.shape[1] - 1) * 2, self.FS, mc.fmin, mc.fmax)
        coeffs = mfcc_from_power(power, fbank, mc.n_coeffs, mc.log_floor)
        # hop_fraction 0.5: frames 0 and 2 both see one full chunk
        assert coeffs.shape[0] == 3
        np.testing.assert_array_equal(coeffs[0], coeffs[2])

    def test_deterministic(self):
        s = sine(1000, dur=0.3, fs=self.FS)
        a = extract_features(s, self.cfg())
        b = extract_features(s, self.cfg())
        assert a.values == b.values

    def test_errors(self):
        s = sine(1000, dur=1.0, fs=self.FS)
        with pytest.raises(ParameterError, match="fmax=9000.0 exceeds Nyquist 8000.0"):
            extract_features(s, FeatureConfig(
                band_lo=100.0, band_hi=7_000.0, mfcc=MfccConfig(fmin=100.0, fmax=9_000.0)))
        with pytest.raises(ParameterError, match="too short"):
            extract_features(Signal(np.zeros(10), self.FS), self.cfg())
        with pytest.raises(ParameterError):
            MfccConfig(fmin=100.0, fmax=8_000.0, n_coeffs=30)
        with pytest.raises(ParameterError):
            MfccConfig(fmin=5_000.0, fmax=100.0)


# ---------------------------------------------------------------------------
# cross-cutting: out-of-band energy does not reach in-band power frames


def test_power_frames_band_isolation():
    # the first/last (taps-1)/2 filtered samples carry padding
    # transients, so framing starts past them, as the feature
    # extractor does
    fs = FS
    m = 256
    rng = np.random.default_rng(21)
    base = 0.05 * rng.normal(size=40_000)
    t = np.arange(40_000) / fs
    tone = 0.3 * np.sin(2 * np.pi * 33_000 * t)

    def interior_power(x):
        filtered = bandpass(Signal(x, fs), 250, 10_000).samples[m:-m]
        return power_frames(Signal(filtered, fs), 2000, 1000)

    f_a, p_a = interior_power(base)
    _, p_b = interior_power(base + tone)
    in_band = (f_a >= 250) & (f_a <= 10_000)
    num = np.abs(p_b[:, in_band] - p_a[:, in_band]).max()
    den = p_a[:, in_band].max()
    assert num / den < 1e-6
