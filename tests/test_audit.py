"""Tests for the bias-detection battery."""

import re
import warnings
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter
from scipy.stats import fisher_exact

import vibroaudit.audit as audit
import vibroaudit.dataset as dataset
import vibroaudit.sigsynth as sg
from tablegen import (
    assemble_table,
    day_level_table,
    device_shortcut_table,
    rotated_pair_table,
    uniform_signal_table,
)
from vibroaudit.audit import (
    TONE_MEDIAN_WINDOW_HZ,
    _above_window_median,
    _edge_padded,
    _exact_association_p,
    _window_medians,
    band_scan,
    condition_on_covariate,
    counterfactual_relabel,
    covariate_predictability,
    detect_persistent_tones,
    incremental_mixing_curve,
    rotation_analysis,
    summarize_draws,
    tone_prevalence_by_label,
    uniform_band_plan,
)
from vibroaudit._rng import stream, substream_id
from vibroaudit.dataset import FeatureConfig, FeatureTable, extract_table, feature_map_problem, load_manifest
from vibroaudit.dsp import MfccConfig, Signal, stft
from vibroaudit.errors import DegeneracyError, ParameterError
from vibroaudit.learn import loso_cv


def tone_spec(tones, fs=100_000.0, duration=1.0, noise_sigma=0.1, seed=0,
              scale=1.0, tone_start=0):
    """Noise plus optional sinusoids, as a magnitude spectrogram."""
    rng = np.random.default_rng(seed)
    n = int(round(fs * duration))
    x = rng.normal(0.0, noise_sigma, n)
    t = np.arange(n) / fs
    for freq, amp in tones:
        wave = amp * np.sin(2 * np.pi * freq * t)
        wave[:tone_start] = 0.0
        x = x + wave
    return stft(Signal(scale * x, fs), 2048, 1024)


# ---------------------------------------------------------------------------
# band_scan


@pytest.fixture(scope="module")
def tone_manifest(tmp_path_factory):
    world = sg.scenario_preset(
        "tone-bias", n_subjects=6, seed=0, n_repetitions=3,
        repetition_duration_s=2.0,
    )
    sessions = sg.sample_cohort(world)
    out = sg.write_dataset(sessions, tmp_path_factory.mktemp("tone"), world)
    return load_manifest(out)


class TestBandScan:
    def test_single_full_band_reproduces_plain_loso_exactly(self, tone_manifest):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        res = band_scan(tone_manifest, [(250.0, 10_000.0)], cfg)
        plain = loso_cv(extract_table(tone_manifest, cfg))
        assert res.per_band_accuracy[0] == plain.mean_repetition_accuracy
        assert res.cv[0].per_group_accuracy == plain.per_group_accuracy
        assert res.skipped == {}

        # a multi-band plan: every scored band equals its own extraction
        plan = [(250.0, 10_000.0), (10_000.0, 20_000.0), (20_000.0, 20_050.0),
                (30_000.0, 40_000.0)]
        res = band_scan(tone_manifest, plan, cfg)
        assert sorted(res.skipped) == [2]
        for i in (0, 1, 3):
            lo, hi = plan[i]
            band_cfg = FeatureConfig(band_lo=lo, band_hi=hi)
            plain = loso_cv(extract_table(tone_manifest, band_cfg))
            got = res.cv[i]
            assert res.per_band_accuracy[i] == plain.mean_repetition_accuracy
            assert got.per_group_accuracy == plain.per_group_accuracy
            assert np.array_equal(got.row_score, plain.row_score)
            assert np.array_equal(got.row_pred, plain.row_pred)
            assert got.fold_models == plain.fold_models

    def test_each_session_is_read_once_for_all_bands(self, tone_manifest, monkeypatch):
        reads = []
        original = dataset.ingest_wav
        monkeypatch.setattr(dataset, "ingest_wav", lambda p: reads.append(p) or original(p))
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        plan = [(250.0, 10_000.0), (10_000.0, 20_000.0), (20_000.0, 30_000.0),
                (30_000.0, 40_000.0), (40_000.0, 50_000.0)]
        res = band_scan(tone_manifest, plan, cfg)
        assert res.skipped == {}
        wavs = [tone_manifest.wav_file(rec) for rec in tone_manifest.sessions]
        assert sorted(map(str, reads)) == sorted(map(str, wavs))

    def test_narrow_band_skipped_with_reason_and_wide_band_scored(self, tone_manifest):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        res = band_scan(
            tone_manifest, [(250.0, 320.0), (30_000.0, 40_000.0)], cfg
        )
        assert 0 in res.skipped and "too narrow" in res.skipped[0]
        assert np.isnan(res.per_band_accuracy[0])
        assert 0.0 <= res.per_band_accuracy[1] <= 1.0
        assert res.best_band() == (30_000.0, 40_000.0)

    def test_best_band_with_nothing_scored_raises(self, tone_manifest):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        res = band_scan(tone_manifest, [(250.0, 300.0), (400.0, 450.0)], cfg)
        assert sorted(res.skipped) == [0, 1]
        with pytest.raises(ParameterError, match="no scored band"):
            res.best_band()

    def test_uniform_band_plan(self):
        # the plan `audit band-scan` uses without --bands
        assert uniform_band_plan(50_000.0) == [
            (250.0, 10_000.0), (10_000.0, 20_000.0), (20_000.0, 30_000.0),
            (30_000.0, 40_000.0), (40_000.0, 50_000.0),
        ]
        assert uniform_band_plan(8_000.0) == [(250.0, 8_000.0)]
        assert uniform_band_plan(8_000.0, 3_000.0) == [(250.0, 3_000.0), (3_000.0, 6_000.0)]
        with pytest.raises(ParameterError, match="band width must exceed 250 Hz"):
            uniform_band_plan(8_000.0, 250.0)
        with pytest.raises(ParameterError, match="band width must exceed 250 Hz, got nan"):
            uniform_band_plan(8_000.0, float("nan"))

    def test_band_plan_validation(self, tone_manifest):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        with pytest.raises(ParameterError, match="empty"):
            band_scan(tone_manifest, [], cfg)
        with pytest.raises(ParameterError, match="non-overlapping"):
            band_scan(
                tone_manifest, [(250.0, 10_000.0), (5_000.0, 20_000.0)], cfg
            )
        # each band's own config and mel grid check its edges
        with pytest.raises(ParameterError, match=re.escape("need 0 <= fmin < fmax, got (1000.0, 500.0)")):
            band_scan(tone_manifest, [(1000.0, 500.0)], cfg)
        with pytest.raises(ParameterError, match=re.escape("need 0 < band_lo < band_hi, got (0.0, 500.0)")):
            band_scan(tone_manifest, [(0.0, 500.0)], cfg)
        # a band above Nyquist is skipped, like one the mel grid cannot resolve
        res = band_scan(tone_manifest, [(45_000.0, 60_000.0)], cfg)
        assert res.skipped == {0: "hi=60000.0 exceeds Nyquist 50000.0"}

    def test_band_pass_edge_above_nyquist_is_skipped_before_any_read(self, tone_manifest, monkeypatch):
        # the mel range of the reused config is below Nyquist; only the
        # band-pass edge is not
        cfg = FeatureConfig(band_lo=250.0, band_hi=60_000.0, mfcc=MfccConfig(fmin=250.0, fmax=10_000.0))
        reads = []
        original = dataset.ingest_wav
        monkeypatch.setattr(dataset, "ingest_wav", lambda path: reads.append(path) or original(path))
        res = band_scan(tone_manifest, [(250.0, 60_000.0)], cfg)
        assert res.skipped == {0: "hi=60000.0 exceeds Nyquist 50000.0"}
        assert reads == []
        with pytest.raises(ParameterError, match="hi=60000.0 exceeds Nyquist 50000.0"):
            extract_table(tone_manifest, cfg)
        assert reads == []

    def test_skip_follows_the_mel_grid_of_a_reused_config(self, tone_manifest):
        # a band equal to cfg's keeps cfg, so cfg's mel range decides the skip
        narrow_mel = FeatureConfig(band_lo=250.0, band_hi=10_000.0, mfcc=MfccConfig(fmin=250.0, fmax=400.0))
        res = band_scan(tone_manifest, [(250.0, 10_000.0)], narrow_mel)
        assert res.skipped == {0: feature_map_problem(narrow_mel, 100_000.0)}
        assert "20 of 26 filters cover no FFT bin" in res.skipped[0]
        wide_mel = FeatureConfig(band_lo=250.0, band_hi=400.0, mfcc=MfccConfig(fmin=250.0, fmax=10_000.0))
        res = band_scan(tone_manifest, [(250.0, 400.0)], wide_mel)
        assert res.skipped == {}
        plain = loso_cv(extract_table(tone_manifest, wide_mel))
        assert res.per_band_accuracy[0] == plain.mean_repetition_accuracy

    def test_mel_range_above_nyquist_skips_only_its_band(self, tone_manifest):
        # the reused config keeps its mel range in its own band only
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0, mfcc=MfccConfig(fmin=250.0, fmax=60_000.0))
        res = band_scan(tone_manifest, [(250.0, 10_000.0), (10_000.0, 20_000.0)], cfg)
        assert res.skipped == {0: "fmax=60000.0 exceeds Nyquist 50000.0"}
        assert np.isnan(res.per_band_accuracy[0]) and not np.isnan(res.per_band_accuracy[1])

    def test_fewer_than_two_subjects_raises(self, tmp_path):
        world = sg.scenario_preset(
            "tone-bias", n_subjects=1, seed=0, n_repetitions=1,
            repetition_duration_s=1.0,
        )
        man = load_manifest(
            sg.write_dataset(sg.sample_cohort(world), tmp_path, world)
        )
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        with pytest.raises(ParameterError, match=">= 2 subjects"):
            band_scan(man, [(250.0, 10_000.0)], cfg)


# ---------------------------------------------------------------------------
# detect_persistent_tones


# power values with ties, zeros, subnormals and a wide dynamic range
power_values = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 0.25, 1.0, 1.0, 3.0, 1e300]) | st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _running_median(power, w):
    """Median of each row over a window of ``w`` (odd) bins centred on each
    bin, rows extended by their edge value: the uncapped reference the
    detector's capped, rank-counted path is held to."""
    half = w // 2
    return _window_medians(np.pad(power, ((0, 0), (half, half)), mode="edge"), w)


class TestRunningMedian:
    @given(
        data=st.data(),
        n_frames=st.sampled_from([1, 16, 17, 20, 33]),
        n_bins=st.integers(1, 40),
        half=st.integers(1, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_median_filter(self, data, n_frames, n_bins, half):
        w = 2 * half + 1  # wider than the row when half >= n_bins
        cells = data.draw(st.lists(power_values, min_size=n_frames * n_bins, max_size=n_frames * n_bins))
        power = np.array(cells, dtype=np.float64).reshape(n_frames, n_bins)
        zero_rows = data.draw(st.lists(st.integers(0, n_frames - 1), max_size=3))
        power[zero_rows] = 0.0
        expected = median_filter(power, size=(1, w), mode="nearest")
        np.testing.assert_array_equal(_running_median(power, w), expected)

    def test_session_sized_spectrogram(self):
        spec = tone_spec([(33_000.0, 0.05)])
        power = spec.magnitudes**2
        np.testing.assert_array_equal(
            _running_median(power, 41), median_filter(power, size=(1, 41), mode="nearest")
        )


class TestAboveWindowMedian:
    @given(
        data=st.data(),
        n_frames=st.sampled_from([1, 16, 33, 40]),
        n_bins=st.integers(1, 40),
        half=st.integers(1, 30),
        wide=st.booleans(),
        threshold=st.sampled_from([10.0**0.6, 1.0 + 2.0**-52, 2.0, 1e300])
        | st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_count_equals_thresholded_running_median(
        self, data, n_frames, n_bins, half, wide, threshold
    ):
        # windows of 3..61 bins, or wider than twice the row, whose edge
        # copies the capped padding drops
        w = 2 * (n_bins + half) + 1 if wide else 2 * half + 1
        values = power_values | st.sampled_from([np.nan, np.inf])
        cells = data.draw(st.lists(values, min_size=n_frames * n_bins, max_size=n_frames * n_bins))
        power = np.array(cells, dtype=np.float64).reshape(n_frames, n_bins)
        zero_rows = data.draw(st.lists(st.integers(0, n_frames - 1), max_size=3))
        power[zero_rows] = 0.0
        median = _running_median(power, w)
        padded = _edge_padded(power, w)
        assert padded.shape[1] == n_bins + 2 * (min(w, 2 * n_bins - 1) // 2)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = power > median * threshold
            above = _above_window_median(padded, power, threshold)
        np.testing.assert_array_equal(above, expected)
        capped = padded.shape[1] - n_bins + 1
        np.testing.assert_array_equal(_window_medians(padded, capped), median)


class TestDetectPersistentTones:
    def test_injected_tone_found_within_one_bin(self):
        spec = tone_spec([(33_000.0, 0.05)])
        dets = detect_persistent_tones(spec)
        assert len(dets) == 1
        df = spec.bin_freqs[1] - spec.bin_freqs[0]
        assert abs(dets[0].center_freq - 33_000.0) <= df
        assert dets[0].persistence > 0.95
        assert dets[0].prominence_db >= 6.0
        assert dets[0].bin_span[0] <= dets[0].bin_span[1]

    def test_two_tones_give_exactly_two_detections(self):
        spec = tone_spec([(20_000.0, 0.05), (33_000.0, 0.05)])
        dets = detect_persistent_tones(spec)
        assert len(dets) == 2
        df = spec.bin_freqs[1] - spec.bin_freqs[0]
        assert abs(dets[0].center_freq - 20_000.0) <= df
        assert abs(dets[1].center_freq - 33_000.0) <= df

    def test_power_of_two_scaling_is_bit_exact(self):
        # scaling by 2**k is exact in floating point, so every
        # intermediate scales exactly and the detections must match
        # field for field
        ref = detect_persistent_tones(tone_spec([(33_000.0, 0.05)]))
        up = detect_persistent_tones(tone_spec([(33_000.0, 0.05)], scale=4.0))
        down = detect_persistent_tones(tone_spec([(33_000.0, 0.05)], scale=0.25))
        assert ref == up == down

    def test_generic_scaling_leaves_detections_unchanged(self):
        ref = detect_persistent_tones(tone_spec([(33_000.0, 0.05)]))
        scl = detect_persistent_tones(tone_spec([(33_000.0, 0.05)], scale=1.7))
        assert len(ref) == len(scl) == 1
        assert ref[0].bin_span == scl[0].bin_span
        assert ref[0].persistence == scl[0].persistence
        assert np.isclose(ref[0].center_freq, scl[0].center_freq, rtol=1e-9)
        assert np.isclose(ref[0].prominence_db, scl[0].prominence_db, rtol=1e-9)

    def test_white_noise_rarely_triggers(self):
        hits = 0
        for seed in range(20):
            hits += len(detect_persistent_tones(tone_spec([], seed=seed)))
        assert hits <= 1

    def test_window_wider_than_spectrum_is_capped_exactly(self):
        # bins narrowed by powers of two stretch the fixed median window
        # over more bins, and scale every center frequency exactly
        spec = tone_spec([(33_000.0, 0.05)])
        df = spec.bin_freqs[1] - spec.bin_freqs[0]

        def narrowed(k):
            return detect_persistent_tones(replace(spec, bin_freqs=spec.bin_freqs / 2.0**k))

        # 2**6 narrower: a window of 2621 bins, capped at 2 * n_bins - 1
        assert TONE_MEDIAN_WINDOW_HZ / (df / 2.0**6) > 2 * spec.n_bins - 1
        capped = narrowed(6)
        assert len(capped) == 1
        # a window of 2e10 bins, whose uncapped edge padding would not fit in memory
        assert TONE_MEDIAN_WINDOW_HZ / (df / 2.0**29) > 2e10
        huge = [replace(d, center_freq=d.center_freq * 2.0**23) for d in narrowed(29)]
        assert huge == capped

    def test_too_few_frames_raise(self):
        spec = tone_spec([], duration=0.2)
        with pytest.raises(ParameterError, match=">= 20 frames"):
            detect_persistent_tones(spec)

    def test_window_of_more_than_2_to_the_63_bins_raises(self):
        spec = tone_spec([])
        with pytest.raises(ParameterError, match=r"spans more than 2\*\*63 bins"):
            detect_persistent_tones(replace(spec, bin_freqs=spec.bin_freqs / 2.0**60))


# ---------------------------------------------------------------------------
# tone_prevalence_by_label


class TestTonePrevalence:
    def test_strong_association(self):
        detections = {f"u{i}": True for i in range(10)}
        detections.update({f"h{i}": i == 0 for i in range(10)})
        labels = {f"u{i}": "Unhealthy" for i in range(10)}
        labels.update({f"h{i}": "Healthy" for i in range(10)})
        res = tone_prevalence_by_label(detections, labels)
        assert res.prevalence == {"Healthy": 0.1, "Unhealthy": 1.0}
        assert res.counts == {"Healthy": (1, 10), "Unhealthy": (10, 10)}
        assert res.p_value < 1e-3
        ref = fisher_exact([[1, 9], [10, 0]]).pvalue
        assert res.p_value == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_tone_in_nobody_is_uninformative(self):
        detections = {"a": False, "b": False, "c": [], "d": []}
        labels = {"a": "Healthy", "b": "Healthy", "c": "Unhealthy", "d": "Unhealthy"}
        res = tone_prevalence_by_label(detections, labels)
        assert res.prevalence == {"Healthy": 0.0, "Unhealthy": 0.0}
        assert res.p_value == 1.0

    def test_tone_in_everyone_is_uninformative(self):
        detections = {"a": True, "b": True, "c": True, "d": True}
        labels = {"a": "Healthy", "b": "Healthy", "c": "Unhealthy", "d": "Unhealthy"}
        res = tone_prevalence_by_label(detections, labels)
        assert res.prevalence == {"Healthy": 1.0, "Unhealthy": 1.0}
        assert res.p_value == 1.0

    def test_detection_lists_count_like_booleans(self):
        spec = tone_spec([(33_000.0, 0.05)])
        hit = detect_persistent_tones(spec)
        detections = {"a": hit, "b": [], "c": hit, "d": []}
        labels = {"a": "Unhealthy", "c": "Unhealthy", "b": "Healthy", "d": "Healthy"}
        res = tone_prevalence_by_label(detections, labels)
        assert res.counts == {"Healthy": (0, 2), "Unhealthy": (2, 2)}

    def test_missing_session_raises(self):
        with pytest.raises(ParameterError, match="without detection entries"):
            tone_prevalence_by_label({"a": True}, {"a": "Healthy", "b": "Unhealthy"})

    def test_needs_exactly_two_classes(self):
        with pytest.raises(ParameterError, match="exactly 2 classes"):
            tone_prevalence_by_label(
                {"a": True, "b": False}, {"a": "Healthy", "b": "Healthy"}
            )
        with pytest.raises(ParameterError, match="exactly 2 classes"):
            tone_prevalence_by_label(
                {"a": True, "b": False, "c": True},
                {"a": "x", "b": "y", "c": "z"},
            )

    @given(
        st.tuples(
            st.integers(1, 12), st.integers(1, 12),
            st.integers(0, 12), st.integers(0, 12),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_exact_test(self, quad):
        n1, n2, k1, k2 = quad
        k1, k2 = min(k1, n1), min(k2, n2)
        p = _exact_association_p(k1, n1, k2, n2)
        ref = fisher_exact([[k1, n1 - k1], [k2, n2 - k2]]).pvalue
        assert 0.0 < p <= 1.0
        assert p == pytest.approx(ref, rel=1e-9, abs=1e-12)
        # the table is symmetric in the two groups
        assert p == _exact_association_p(k2, n2, k1, n1)


# ---------------------------------------------------------------------------
# covariate_predictability


class TestCovariatePredictability:
    def test_device_offset_makes_device_predictable(self):
        table = device_shortcut_table()
        cv = covariate_predictability(table, "device")
        assert cv.target == "device"
        assert cv.mean_repetition_accuracy >= 0.95

    def test_constant_covariate_raises(self):
        table = day_level_table()
        with pytest.raises(ParameterError, match="constant"):
            covariate_predictability(table, "device")

    def test_unknown_covariate_raises(self):
        table = device_shortcut_table()
        with pytest.raises(ParameterError, match="covariate must be one of"):
            covariate_predictability(table, "health")

    def test_subject_covariate_with_one_session_each_raises(self):
        rng = np.random.default_rng(0)
        table = assemble_table(
            rng.normal(size=(10, 1)),
            ["sessA"] * 5 + ["sessB"] * 5,
            ["subjA"] * 5 + ["subjB"] * 5,
            ["Healthy"] * 5 + ["Unhealthy"] * 5,
            ["left"] * 10,
            ["D0"] * 10,
        )
        with pytest.raises(ParameterError, match="scored no fold"):
            covariate_predictability(table, "subject")


# ---------------------------------------------------------------------------
# condition_on_covariate


class TestSummarizeDraws:
    def test_equals_numpy_over_the_defined_draws(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 100, 1001):
            samples = rng.random(n)
            samples[rng.random(n) < 0.3] = np.nan
            valid = samples[~np.isnan(samples)]
            if not len(valid):
                continue
            for q in (0.025, 0.1, 0.25, 0.4):
                s = summarize_draws(samples, q)
                assert (s.n_valid, s.n_invalid) == (len(valid), n - len(valid))
                assert s.mean == np.mean(valid) and s.std == np.std(valid)
                assert s.lo == np.quantile(valid, q)
                assert s.hi == np.quantile(valid, 1 - q)

    @pytest.mark.parametrize("samples", [np.array([]), np.full(4, np.nan)])
    def test_no_defined_draw_gives_nan_without_warning(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize_draws(samples)
        assert (s.n_valid, s.n_invalid) == (0, len(samples))
        assert all(np.isnan(v) for v in (s.mean, s.std, s.lo, s.hi))

    def test_reported_control_cutoff(self):
        # a control distribution of 67.15% +/- 7.4% puts its 2.5% cutoff
        # between a 75% and a 50% stratum
        rng = np.random.default_rng(0)
        assert 0.51 < summarize_draws(rng.normal(0.6715, 0.074, 10_000)).lo < 0.54


def one_class_subjects_table():
    """8 subjects with one DL and one DR session each; subjects 0-3 are
    Healthy, 4-7 Unhealthy, so a control draw of 3 subjects is single-class
    (and its accuracy undefined) 8 times in 56."""
    rng = np.random.default_rng(0)
    subj = [f"subj{s}" for s in range(8) for _ in range(4)]
    health = ["Healthy" if s < 4 else "Unhealthy" for s in range(8) for _ in range(4)]
    x = rng.normal(size=(32, 1)) + 0.8 * (np.array(health) == "Unhealthy")[:, None]
    sess = [f"{s}-{r % 2}" for r, s in enumerate(subj)]
    return assemble_table(x, sess, subj, health, ["left"] * 32, ["DL", "DR"] * 16)


def with_label(table, column, sessions, value):
    """``table`` with label ``column`` set to ``value`` on the rows of ``sessions``."""
    col = table.label(column).copy()
    col[np.isin(table.label("session_id"), sessions)] = value
    return FeatureTable(
        list(table.feature_names), table.matrix,
        {**table.labels, column: col}, table.repetition_index,
    )


class TestConditionOnCovariate:
    def test_shortcut_stratum_is_flagged(self):
        table = device_shortcut_table()
        res = condition_on_covariate(
            table, "device", control_repeats=300, seed=0
        )
        assert res.flagged == ["DL"]
        assert res.full_accuracy == loso_cv(table).mean_repetition_accuracy
        for v in ("DL", "DR"):
            stratum = table.select(table.label("device") == v)
            assert res.stratum_accuracy[v] == loso_cv(stratum).mean_repetition_accuracy
        assert res.stratum_accuracy["DR"] >= 0.9
        assert res.stratum_accuracy["DL"] < res.control_cutoff
        assert res.full_accuracy >= 0.6
        assert res.n_control_repeats == 300
        assert len(res.control_samples) == 300
        assert res.control_cutoff <= res.control_mean
        assert not res.flagged_for_review

    def test_no_flag_when_the_signal_is_device_independent(self):
        table = uniform_signal_table()
        res = condition_on_covariate(
            table, "device", control_repeats=200, seed=0
        )
        assert res.flagged == []
        assert not res.flagged_for_review
        assert res.stratum_accuracy == {"DL": 1.0, "DR": 1.0}

    def test_strata_above_control_trigger_review_not_flags(self):
        # within either side the classes separate cleanly, across sides
        # the inter-axis angle blurs them, so both strata outscore every
        # control subsample: nothing is suspect but the control is not
        # comparable and the run is marked for review
        table = rotated_pair_table(seed=1)
        res = condition_on_covariate(
            table, "device", control_repeats=200, seed=0
        )
        assert res.flagged == []
        assert res.flagged_for_review
        assert min(res.stratum_accuracy.values()) > res.control_mean

    def test_same_seed_reruns_bit_identically(self):
        table = device_shortcut_table()
        a = condition_on_covariate(table, "device", control_repeats=60, seed=7)
        b = condition_on_covariate(table, "device", control_repeats=60, seed=7)
        assert np.array_equal(a.control_samples, b.control_samples, equal_nan=True)
        assert a.stratum_accuracy == b.stratum_accuracy
        assert a.flagged == b.flagged

    def test_thread_count_does_not_change_results(self, monkeypatch):
        table = device_shortcut_table()
        monkeypatch.setenv("VIBROAUDIT_THREADS", "1")
        a = condition_on_covariate(table, "device", control_repeats=40, seed=3)
        monkeypatch.setenv("VIBROAUDIT_THREADS", "3")
        b = condition_on_covariate(table, "device", control_repeats=40, seed=3)
        assert np.array_equal(a.control_samples, b.control_samples, equal_nan=True)
        assert a.flagged == b.flagged

    def test_single_class_strata_are_undefined_and_marked_for_review(self):
        # device perfectly tracks the class, so neither stratum can be
        # cross-validated; the control then has nothing to compare against
        rng = np.random.default_rng(2)
        n_subj = 8
        rows, subj, health, dev = [], [], [], []
        for s in range(n_subj):
            label = "Healthy" if s < 4 else "Unhealthy"
            rows.append(rng.normal(float(s >= 4), 1.0, (4, 1)))
            subj += [f"subj{s}"] * 4
            health += [label] * 4
            dev += ["DL" if label == "Unhealthy" else "DR"] * 4
        table = assemble_table(
            np.vstack(rows), [f"{s}-x" for s in subj], subj, health,
            ["left"] * len(subj), dev,
        )
        res = condition_on_covariate(table, "device", control_repeats=50, seed=0)
        assert np.isnan(res.stratum_accuracy["DL"])
        assert np.isnan(res.stratum_accuracy["DR"])
        assert "single-class" in res.stratum_notes["DL"]
        assert res.flagged == []
        assert res.flagged_for_review

    def test_cutoff_is_the_quantile_of_the_defined_draws(self):
        table = one_class_subjects_table()
        res = condition_on_covariate(
            table, "device", control_repeats=60, control_fraction=0.375, quantile=0.1, seed=2
        )
        valid = res.control_samples[~np.isnan(res.control_samples)]
        assert res.n_control_invalid == 60 - len(valid) > 0
        assert res.control_cutoff == np.quantile(valid, 0.1)
        assert res.control_mean == np.mean(valid) and res.control_std == np.std(valid)
        assert res.flagged == [
            v for v, a in res.stratum_accuracy.items() if a < res.control_cutoff
        ]

    def test_undefined_stratum_is_never_flagged(self):
        # one session on a third device: a single-group, single-class stratum
        table = with_label(device_shortcut_table(), "device", ["subj000-left"], "DX")
        res = condition_on_covariate(table, "device", control_repeats=100, seed=0)
        assert np.isnan(res.stratum_accuracy["DX"])
        assert "single-class" in res.stratum_notes["DX"]
        assert res.flagged == ["DL"]

    def test_stratum_of_one_subject_per_class_is_explained(self):
        # an Unhealthy and a Healthy leg of two subjects on a third device:
        # two subjects and two classes, but each fold trains on one subject
        table = with_label(device_shortcut_table(), "device", ["subj000-left", "subj001-left"], "DX")
        res = condition_on_covariate(table, "device", control_repeats=100, seed=0)
        assert np.isnan(res.stratum_accuracy["DX"])
        assert res.stratum_notes == {
            "DX": "every leave-one-subject-out fold trains on a single class; accuracy undefined"
        }

    def test_no_defined_control_draw_raises(self):
        # a draw of 2 subjects holds one class, or one subject per class so
        # that every fold trains on a single class
        table = one_class_subjects_table()
        with pytest.raises(ParameterError, match=(
            r"no control subsample has a defined accuracy: 2 of 5 distinct subsamples were "
            r"single-class, and the other 3 trained every leave-one-subject-out fold on a "
            r"single class; control_fraction too small"
        )):
            condition_on_covariate(table, "device", control_repeats=5, control_fraction=0.25)
        # seed 2 draws two same-class pairs
        with pytest.raises(ParameterError, match=(
            "^every control subsample was single-class; control_fraction too small$"
        )):
            condition_on_covariate(
                table, "device", control_repeats=2, control_fraction=0.25, seed=2
            )

    def test_validation(self):
        table = device_shortcut_table()
        with pytest.raises(ParameterError, match="must be 'device' or 'side'"):
            condition_on_covariate(table, "subject")
        with pytest.raises(ParameterError, match="control_fraction"):
            condition_on_covariate(table, "device", control_fraction=1.0)
        with pytest.raises(ParameterError, match="control_repeats"):
            condition_on_covariate(table, "device", control_repeats=0)
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ParameterError, match="quantile"):
                condition_on_covariate(table, "device", quantile=bad)
        with pytest.raises(ParameterError, match="full table"):
            condition_on_covariate(table.select(table.label("subject") == "subj000"), "device")


# ---------------------------------------------------------------------------
# incremental_mixing_curve


class TestIncrementalMixing:
    def test_full_stratum_endpoint_equals_full_accuracy(self):
        table = device_shortcut_table()
        res = incremental_mixing_curve(
            table, "device", "DL", "DR", counts=[12], repeats=3, seed=0
        )
        assert res.counts == [12]
        assert np.all(res.stratified[0] == res.full_accuracy)
        assert np.all(res.reference[0] == res.full_accuracy)

    def test_stratified_curve_starts_below_reference(self):
        table = device_shortcut_table()
        res = incremental_mixing_curve(
            table, "device", "DL", "DR", counts=[1], repeats=25, seed=0
        )
        strat = np.nanmean(res.stratified[0])
        ref = np.nanmean(res.reference[0])
        assert strat + 0.03 < ref

    def test_default_counts_cover_every_added_size(self):
        table = device_shortcut_table(n_subjects=4)
        res = incremental_mixing_curve(
            table, "device", "DL", "DR", repeats=2, seed=0
        )
        assert res.counts == [1, 2, 3, 4]
        assert len(res.stratified) == 4
        assert all(len(s) == 2 for s in res.stratified)

    def test_same_seed_reruns_bit_identically(self):
        table = device_shortcut_table()
        a = incremental_mixing_curve(
            table, "device", "DL", "DR", counts=[2], repeats=10, seed=5
        )
        b = incremental_mixing_curve(
            table, "device", "DL", "DR", counts=[2], repeats=10, seed=5
        )
        assert np.array_equal(a.stratified[0], b.stratified[0], equal_nan=True)
        assert np.array_equal(a.reference[0], b.reference[0], equal_nan=True)

    def test_validation(self):
        table = device_shortcut_table()
        with pytest.raises(ParameterError, match="repeats"):
            incremental_mixing_curve(table, "device", "DL", "DR", repeats=0)
        with pytest.raises(ParameterError, match="both strata need sessions"):
            incremental_mixing_curve(table, "device", "DL", "DX")
        with pytest.raises(ParameterError, match="outside"):
            incremental_mixing_curve(table, "device", "DL", "DR", counts=[0])
        with pytest.raises(ParameterError, match="outside"):
            incremental_mixing_curve(table, "device", "DL", "DR", counts=[99])

    def test_covariate_varying_within_a_session_raises(self):
        table = assemble_table(
            np.zeros((4, 1)),
            ["s0", "s0", "s1", "s1"],
            ["a", "a", "b", "b"],
            ["Healthy", "Healthy", "Unhealthy", "Unhealthy"],
            ["left"] * 4,
            ["DL", "DR", "DL", "DR"],
        )
        with pytest.raises(ParameterError, match="both strata"):
            incremental_mixing_curve(table, "device", "DL", "DR")


# ---------------------------------------------------------------------------
# rotation_analysis


class TestRotationAnalysis:
    def test_recovers_planted_angle(self):
        table = rotated_pair_table(seed=0)
        res = rotation_analysis(table, "side", [])
        assert abs(res.phi_degrees - 10.0) < 1.5
        assert np.isclose(np.linalg.norm(res.v_a), 1.0)
        assert np.isclose(np.linalg.norm(res.v_b), 1.0)
        assert 0.0 <= res.phi_degrees <= 90.0

    def test_large_sample_angle_recovery_is_tight(self):
        table = rotated_pair_table(n_subjects=8, reps=250, seed=3)
        res = rotation_analysis(table, "side", [])
        assert abs(res.phi_degrees - 10.0) < 0.3

    def test_requesting_observed_angle_reproduces_unmodified_accuracy(self):
        table = rotated_pair_table(seed=0)
        phi = rotation_analysis(table, "side", []).phi_degrees
        res = rotation_analysis(table, "side", [phi])
        assert res.accuracy_vs_rotation[0][1] == res.unmodified_accuracy

    def test_aligning_removes_the_class_separation(self):
        table = rotated_pair_table(seed=0)
        res = rotation_analysis(table, "side", [0.0])
        assert res.unmodified_accuracy >= 0.85
        assert res.accuracy_at_aligned <= 0.6
        assert res.accuracy_at_aligned == res.accuracy_vs_rotation[0][1]

    def test_identical_subgroups_have_zero_angle_and_chance_curve(self):
        rng = np.random.default_rng(5)
        base = np.column_stack(
            [rng.normal(0.0, 1.0, 24), rng.normal(0.0, 0.2, 24)]
        )
        pts = np.vstack([base, base])
        subj, health = [], []
        for s in range(6):
            subj += [f"subj{s}"] * 4
            health += ["Healthy", "Healthy", "Unhealthy", "Unhealthy"]
        table = assemble_table(
            pts,
            [f"{s}-L" for s in subj] + [f"{s}-R" for s in subj],
            subj * 2,
            health * 2,
            ["left"] * 24 + ["right"] * 24,
            ["DL"] * 24 + ["DR"] * 24,
        )
        res = rotation_analysis(table, "side", [0.0, 30.0, 60.0, 90.0])
        assert res.phi_degrees == 0.0
        accs = [a for _, a in res.accuracy_vs_rotation]
        assert all(0.3 <= a <= 0.7 for a in accs)
        assert res.accuracy_at_aligned == res.unmodified_accuracy

    def test_isotropic_subgroup_raises_degeneracy(self):
        ang = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        circle = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([circle, circle + 5.0])
        table = assemble_table(
            pts,
            [f"s{i}" for i in range(32)],
            [f"subj{i % 4}" for i in range(32)],
            ["Healthy", "Unhealthy"] * 16,
            ["left"] * 16 + ["right"] * 16,
            ["D0"] * 32,
        )
        with pytest.raises(DegeneracyError, match="near-isotropic"):
            rotation_analysis(table, "side", [0.0])

    def test_zero_variance_feature_raises_degeneracy(self):
        table = rotated_pair_table(n_subjects=4, reps=3, seed=0)
        table.matrix[:, 1] = 3.0
        with pytest.raises(DegeneracyError, match="zero variance"):
            rotation_analysis(table, "side", [0.0])

    def test_explicit_rotate_value(self):
        table = rotated_pair_table(seed=0)
        res = rotation_analysis(table, "side", [0.0], rotate_value="left")
        assert res.rotated_value == "left"
        assert res.accuracy_at_aligned <= 0.6

    def test_validation(self):
        table = rotated_pair_table(n_subjects=4, reps=3, seed=0)
        three = assemble_table(
            np.zeros((6, 3)),
            [f"s{i}" for i in range(6)],
            ["a", "a", "a", "b", "b", "b"],
            ["Healthy"] * 3 + ["Unhealthy"] * 3,
            ["left", "right"] * 3,
            ["D0"] * 6,
        )
        with pytest.raises(ParameterError, match="exactly 2 features"):
            rotation_analysis(three, "side", [0.0])
        with pytest.raises(ParameterError, match="exactly 2 values"):
            rotation_analysis(table.select(table.label("side") == "left"), "side", [0.0])
        with pytest.raises(ParameterError, match="outside \\[0, 90\\]"):
            rotation_analysis(table, "side", [91.0])
        with pytest.raises(ParameterError, match="not in"):
            rotation_analysis(table, "side", [0.0], rotate_value="middle")

    def test_small_subgroup_raises(self):
        table = assemble_table(
            np.arange(10, dtype=float).reshape(5, 2),
            [f"s{i}" for i in range(5)],
            ["a", "a", "a", "b", "b"],
            ["Healthy", "Healthy", "Healthy", "Unhealthy", "Unhealthy"],
            ["left", "left", "left", "right", "right"],
            ["D0"] * 5,
        )
        with pytest.raises(ParameterError, match="fewer than 3 rows"):
            rotation_analysis(table, "side", [0.0])


# ---------------------------------------------------------------------------
# counterfactual_relabel


class TestCounterfactualRelabel:
    def test_identity_relabel_equals_plain_loso_bit_exactly(self):
        table = device_shortcut_table()
        sess = table.label("session_id")
        subj = table.label("subject")
        health = table.label("health")
        relabel = {}
        for i in range(table.n_rows):
            relabel[str(sess[i])] = (str(subj[i]), str(health[i]))
        res = counterfactual_relabel(table, relabel, n_permutations=0)
        plain = loso_cv(table)
        assert res.accuracy == plain.mean_repetition_accuracy
        assert res.cv.per_group_accuracy == plain.per_group_accuracy
        assert np.array_equal(res.cv.row_pred, plain.row_pred)
        assert np.array_equal(res.cv.row_score, plain.row_score)
        assert np.isnan(res.null_mean)
        assert np.isnan(res.inflation_delta)

    def test_days_as_subjects_inflates_accuracy(self):
        table = day_level_table()
        relabel = {
            f"day{d}": (f"day-{d}", "Healthy" if d < 2 else "Unhealthy")
            for d in range(5)
        }
        res = counterfactual_relabel(table, relabel, n_permutations=30, seed=1)
        assert res.accuracy >= 0.8
        assert len(res.null_accuracies) == 30
        assert res.inflation_delta == res.accuracy - res.null_mean
        assert res.null_mean < res.accuracy

    def test_null_permutations_preserve_class_balance(self):
        table = day_level_table()
        relabel = {
            f"day{d}": (f"day-{d}", "Healthy" if d < 2 else "Unhealthy")
            for d in range(5)
        }
        res = counterfactual_relabel(table, relabel, n_permutations=10, seed=0)
        # every permutation reassigns the same 2-Healthy/3-Unhealthy
        # balance, so no null accuracy can be NaN
        assert not np.any(np.isnan(res.null_accuracies))

    def test_same_seed_reruns_bit_identically(self):
        table = day_level_table()
        relabel = {
            f"day{d}": (f"day-{d}", "Healthy" if d < 2 else "Unhealthy")
            for d in range(5)
        }
        a = counterfactual_relabel(table, relabel, n_permutations=12, seed=4)
        b = counterfactual_relabel(table, relabel, n_permutations=12, seed=4)
        c = counterfactual_relabel(table, relabel, n_permutations=12, seed=5)
        assert np.array_equal(a.null_accuracies, b.null_accuracies)
        assert not np.array_equal(a.null_accuracies, c.null_accuracies)

    def test_p_value_equals_a_brute_force_count(self):
        res = counterfactual_relabel(day_level_table(), DAY_RELABEL, n_permutations=40, seed=3)
        at_least = sum(1 for a in res.null_accuracies if a >= res.accuracy)
        assert res.null_p_value == (1 + at_least) / (1 + 40)

    def test_p_value_counts_defined_draws_only(self, monkeypatch):
        table = day_level_table()
        res = counterfactual_relabel(table, DAY_RELABEL, n_permutations=0)
        assert np.isnan(res.null_p_value)
        acc = res.accuracy
        null = np.array([np.nan, acc - 0.1, acc, acc + 0.05, np.nan, acc - 0.2])
        monkeypatch.setattr(audit, "_draw_accuracies", lambda keys, build: null)
        res = counterfactual_relabel(table, DAY_RELABEL, n_permutations=6)
        # 4 defined draws, 2 of them at or above the observed accuracy
        assert res.null_p_value == (1 + 2) / (1 + 4)
        defined = null[~np.isnan(null)]
        assert res.null_mean == np.mean(defined) and res.null_std == np.std(defined)
        assert res.inflation_delta == acc - np.mean(defined)
        monkeypatch.setattr(audit, "_draw_accuracies", lambda keys, build: np.full(6, np.nan))
        assert np.isnan(counterfactual_relabel(table, DAY_RELABEL, n_permutations=6).null_p_value)

    def test_missing_group_raises(self):
        table = day_level_table()
        relabel = {
            f"day{d}": (f"day-{d}", "Healthy" if d < 2 else "Unhealthy")
            for d in range(4)
        }
        with pytest.raises(ParameterError, match="misses groups"):
            counterfactual_relabel(table, relabel)

    def test_negative_permutations_raise(self):
        table = day_level_table()
        relabel = {f"day{d}": (f"day-{d}", "Healthy") for d in range(5)}
        with pytest.raises(ParameterError, match="n_permutations"):
            counterfactual_relabel(table, relabel, n_permutations=-1)


# ---------------------------------------------------------------------------
# each distinct Monte-Carlo draw is scored once

DAY_RELABEL = {
    f"day{d}": (f"day-{d}", "Healthy" if d < 2 else "Unhealthy") for d in range(5)
}


def _accuracy_or_nan(table, group_key="subject", target="health"):
    if min(len(set(table.label(c).tolist())) for c in (group_key, target)) < 2:
        return float("nan")
    return loso_cv(table, group_key=group_key, target=target).mean_repetition_accuracy


def _rows_in(table, column, chosen):
    return table.select(np.array([v in chosen for v in table.label(column)]))


def _wrap90(a):
    while a > 90.0:
        a -= 180.0
    while a <= -90.0:
        a += 180.0
    return a


class TestDistinctDrawsScoredOnce:
    """Every draw's accuracy equals a plain loop that scores each draw from
    its own stream id, duplicates included."""

    def test_control_samples_equal_a_per_draw_loop(self):
        # 6 subjects, 3 per draw: 20 distinct subsets for 40 draws
        table = device_shortcut_table(n_subjects=6)
        res = condition_on_covariate(table, "device", control_repeats=40, seed=2)
        groups = sorted(set(table.label("subject").tolist()))
        ref = []
        for i in range(40):
            picked = stream(2, substream_id("control", i)).choice(6, size=3, replace=False)
            sub = _rows_in(table, "subject", {groups[j] for j in picked})
            ref.append(_accuracy_or_nan(sub))
        assert np.array_equal(res.control_samples, ref, equal_nan=True)

    def test_mixing_curves_equal_a_per_draw_loop(self):
        table = device_shortcut_table(n_subjects=4)
        counts, repeats, seed = [1, 3, 4], 5, 1
        res = incremental_mixing_curve(
            table, "device", "DL", "DR", counts=counts, repeats=repeats, seed=seed
        )
        sess, dev = table.label("session_id"), table.label("device")
        base = sorted(set(sess[dev == "DL"].tolist()))
        added = sorted(set(sess[dev == "DR"].tolist()))
        pool = sorted(base + added)
        for j, k in enumerate(counts):
            strat, ref = [], []
            for i in range(repeats):
                n = (j * repeats + i) * 2
                rng = stream(seed, substream_id("mixing", n))
                chosen = set(base) | {added[p] for p in rng.choice(4, size=k, replace=False)}
                strat.append(_accuracy_or_nan(_rows_in(table, "session_id", chosen)))
                rng = stream(seed, substream_id("mixing", n + 1))
                chosen = {pool[p] for p in rng.choice(8, size=4 + k, replace=False)}
                ref.append(_accuracy_or_nan(_rows_in(table, "session_id", chosen)))
            assert np.array_equal(res.stratified[j], strat, equal_nan=True)
            assert np.array_equal(res.reference[j], ref, equal_nan=True)
        assert res.full_accuracy == _accuracy_or_nan(table)

    def test_rotation_accuracies_equal_a_per_angle_loop(self):
        table = rotated_pair_table(n_subjects=6, reps=4, seed=0)
        phi = rotation_analysis(table, "side", []).phi_degrees
        grid = [0.0, 30.0, phi, 30.0, 90.0]
        res = rotation_analysis(table, "side", grid)

        z = (table.matrix - table.matrix.mean(axis=0)) / table.matrix.std(axis=0)
        right = table.label("side") == "right"
        a_left, a_right = (
            _wrap90(float(np.degrees(np.arctan2(v[1], v[0])))) for v in (res.v_a, res.v_b)
        )
        phi_signed = _wrap90(a_right - a_left)
        orient = 1.0 if phi_signed >= 0 else -1.0
        center = z[right].mean(axis=0)

        def accuracy_at(theta):
            pts = z.copy()
            r = np.radians(orient * theta - phi_signed)
            if r != 0.0:
                rot = np.array([[np.cos(r), -np.sin(r)], [np.sin(r), np.cos(r)]])
                pts[right] = (z[right] - center) @ rot.T + center
            t2 = FeatureTable(
                list(table.feature_names), pts, dict(table.labels), table.repetition_index
            )
            return loso_cv(t2).mean_repetition_accuracy

        assert res.accuracy_vs_rotation == [(t, accuracy_at(t)) for t in grid]
        assert res.unmodified_accuracy == accuracy_at(phi)
        assert res.accuracy_at_aligned == accuracy_at(0.0)

    def test_null_equals_a_per_permutation_loop(self):
        table = day_level_table()
        res = counterfactual_relabel(table, DAY_RELABEL, n_permutations=40, seed=3)
        days = sorted(DAY_RELABEL)
        balance = np.array([DAY_RELABEL[d][1] for d in days], dtype=object)
        sess = table.label("session_id")
        ref = []
        for i in range(40):
            health_of = dict(zip(days, balance[stream(3, substream_id("permutation", i)).permutation(5)]))
            t = table.select(np.ones(table.n_rows, dtype=bool))
            t.labels["subject"] = np.array([DAY_RELABEL[g][0] for g in sess], dtype=object)
            t.labels["health"] = np.array([health_of[g] for g in sess], dtype=object)
            ref.append(loso_cv(t).mean_repetition_accuracy)
        assert np.array_equal(res.null_accuracies, ref)

    def test_counterfactual_fits_one_loso_per_distinct_assignment(self, monkeypatch):
        real, calls = audit.loso_cv, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(audit, "loso_cv", counting)
        res = counterfactual_relabel(day_level_table(), DAY_RELABEL, n_permutations=200)
        assert len(res.null_accuracies) == 200
        # the observed assignment plus at most C(5, 2) shuffled ones
        assert len(calls) <= 1 + comb(5, 2)

    def test_no_draw_reaches_pmap_or_loso_cv(self, monkeypatch):
        # at the default thread setting only the counterfactual's observed
        # fit goes through loso_cv, and no analysis starts a pool
        monkeypatch.delenv("VIBROAUDIT_THREADS", raising=False)
        calls = {"pmap": 0, "loso_cv": 0}

        def counting(name):
            real = getattr(audit, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(audit, name, counting(name))
        condition_on_covariate(
            device_shortcut_table(n_subjects=6), "device", control_repeats=30, seed=4
        )
        assert calls == {"pmap": 0, "loso_cv": 0}
        incremental_mixing_curve(
            device_shortcut_table(n_subjects=4), "device", "DL", "DR", counts=[2, 4], repeats=4
        )
        rotation_analysis(rotated_pair_table(n_subjects=6, reps=4), "side", [0.0, 45.0])
        assert calls == {"pmap": 0, "loso_cv": 0}
        counterfactual_relabel(day_level_table(), DAY_RELABEL, n_permutations=30, seed=4)
        assert calls == {"pmap": 0, "loso_cv": 1}

    def test_thread_count_does_not_change_any_draw(self, monkeypatch):
        def all_draws():
            cond = condition_on_covariate(
                device_shortcut_table(n_subjects=6), "device", control_repeats=30, seed=4
            )
            mix = incremental_mixing_curve(
                device_shortcut_table(n_subjects=4), "device", "DL", "DR",
                counts=[2, 4], repeats=4, seed=4,
            )
            rot = rotation_analysis(rotated_pair_table(n_subjects=6, reps=4), "side", [0.0, 45.0])
            cf = counterfactual_relabel(day_level_table(), DAY_RELABEL, n_permutations=30, seed=4)
            return [
                cond.control_samples, *mix.stratified, *mix.reference,
                np.array([mix.full_accuracy, rot.unmodified_accuracy, rot.accuracy_at_aligned]),
                np.array([a for _, a in rot.accuracy_vs_rotation]), cf.null_accuracies,
            ]

        monkeypatch.setenv("VIBROAUDIT_THREADS", "1")
        serial = all_draws()
        monkeypatch.delenv("VIBROAUDIT_THREADS")
        threaded = all_draws()
        for a, b in zip(serial, threaded, strict=True):
            assert np.array_equal(a, b, equal_nan=True)


@pytest.fixture
def refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw or fit started")

    monkeypatch.setattr(audit, "stream", refuse)
    monkeypatch.setattr(audit, "_draw_accuracies", refuse)
    monkeypatch.setattr(audit, "loso_cv", refuse)


@pytest.mark.usefixtures("refuse_draws")
class TestDrawCountsCheckedBeforeDrawing:
    """A run needing more draws than one stream kind has fails at once,
    naming its option, instead of after drawing up to the limit."""

    def test_control_repeats(self):
        with pytest.raises(ParameterError, match="control_repeats 1000001 needs"):
            condition_on_covariate(device_shortcut_table(), "device", control_repeats=1_000_001)

    def test_mixing_repeats_times_counts(self):
        # 2 draws per repeat and count: 2 * 8 * 62,501 = 1,000,016
        with pytest.raises(ParameterError, match="repeats 62501 needs 1000016 draws"):
            incremental_mixing_curve(
                device_shortcut_table(), "device", "DL", "DR", counts=range(1, 9), repeats=62_501
            )

    def test_n_permutations(self):
        with pytest.raises(ParameterError, match="n_permutations 1000001 needs"):
            counterfactual_relabel(day_level_table(), DAY_RELABEL, n_permutations=1_000_001)


@pytest.mark.usefixtures("refuse_draws")
class TestTargetCheckedBeforeDrawing:
    """A target column of more than 2 classes fails at once, naming the
    column, in every analysis that scores draws."""

    @pytest.mark.parametrize("analysis", [
        lambda t: condition_on_covariate(t, "device", control_repeats=10),
        lambda t: incremental_mixing_curve(t, "device", "DL", "DR", counts=[1], repeats=2),
        lambda t: rotation_analysis(t, "side", [0.0]),
    ], ids=["condition", "mixing", "rotation"])
    def test_third_class_is_named(self, analysis):
        with pytest.raises(ParameterError, match=(
            r"target 'health': need exactly 2 classes, got \['Healthy', 'Unhealthy', 'Unknown'\]"
        )):
            analysis(with_label(device_shortcut_table(), "health", ["subj000-left"], "Unknown"))
