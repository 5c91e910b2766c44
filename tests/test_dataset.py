"""Tests for ingestion, segmentation, and the feature map."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroaudit.dataset import (
    FeatureConfig,
    FeatureTable,
    Manifest,
    SessionRecord,
    LABEL_FIELDS,
    extract_features,
    extract_table,
    extract_tables,
    ingest_wav,
    load_manifest,
    minimum_segment_samples,
    save_manifest,
    segment_repetitions,
    write_wav,
)
from vibroaudit.dsp import Signal
from vibroaudit.errors import FormatError, ManifestError, ParameterError, VibroauditError

FS = 100_000.0


def small_wav(path, n=2_000, fs=1_000.0, seed=0):
    rng = np.random.default_rng(seed)
    write_wav(path, Signal(0.1 * rng.normal(size=n), fs))


def manifest_payload(sessions):
    return {"sessions": sessions}


def session_obj(i, health="Healthy", **over):
    obj = {
        "session_id": f"s{i:03d}",
        "subject_id": f"subj{i:03d}",
        "side": "left",
        "device_id": "D0",
        "health_label": health,
        "wav_path": f"s{i:03d}.wav",
        "n_repetitions": 2,
    }
    obj.update(over)
    return obj


# ---------------------------------------------------------------------------
# manifest


class TestManifest:
    def test_load_valid(self, tmp_path):
        for i in range(2):
            small_wav(tmp_path / f"s{i:03d}.wav")
        payload = manifest_payload([session_obj(0), session_obj(1, health="Unhealthy")])
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        man = load_manifest(tmp_path / "manifest.json")
        assert len(man.sessions) == 2
        assert man.class_counts() == {"Healthy": 1, "Unhealthy": 1}

    def test_clinical_scale_class_counts(self, tmp_path):
        # 43 sessions, 18 Healthy / 25 Unhealthy
        sessions = []
        for i in range(43):
            health = "Healthy" if i < 18 else "Unhealthy"
            small_wav(tmp_path / f"s{i:03d}.wav", n=50)
            sessions.append(session_obj(i, health=health))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload(sessions)))
        man = load_manifest(tmp_path / "manifest.json")
        assert man.class_counts() == {"Healthy": 18, "Unhealthy": 25}

    def test_empty_is_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload([])))
        with pytest.raises(ManifestError, match="'sessions' list is empty"):
            load_manifest(tmp_path / "manifest.json")

    def test_duplicate_id_named(self, tmp_path):
        small_wav(tmp_path / "s000.wav")
        sessions = [session_obj(0), session_obj(0)]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload(sessions)))
        with pytest.raises(ManifestError, match="s000"):
            load_manifest(tmp_path / "manifest.json")

    def test_missing_wav_named(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps(manifest_payload([session_obj(7)]))
        )
        with pytest.raises(ManifestError, match="s007"):
            load_manifest(tmp_path / "manifest.json")

    def test_bad_health_label(self, tmp_path):
        small_wav(tmp_path / "s000.wav")
        sessions = [session_obj(0, health_label="sick") | {"health_label": "sick"}]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload(sessions)))
        with pytest.raises(ManifestError, match="health_label"):
            load_manifest(tmp_path / "manifest.json")

    def test_missing_field_reported(self, tmp_path):
        obj = session_obj(0)
        del obj["side"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload([obj])))
        with pytest.raises(ManifestError, match="side"):
            load_manifest(tmp_path / "manifest.json")

    def test_not_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("not json {")
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("value", ["x", 2.5, None, [2], True])
    def test_non_integer_n_repetitions(self, tmp_path, value):
        small_wav(tmp_path / "s000.wav")
        sessions = [session_obj(0, n_repetitions=value)]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload(sessions)))
        with pytest.raises(ManifestError, match="n_repetitions must be an integer"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize(
        "bounds", [[0.0, float("nan"), 2.0], [0.0, float("inf")], ["a", "b"], 3.0, [[1.0]]]
    )
    def test_bad_boundaries(self, tmp_path, bounds):
        small_wav(tmp_path / "s000.wav")
        sessions = [session_obj(0, n_repetitions=1, repetition_boundaries=bounds)]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload(sessions)))
        with pytest.raises(ManifestError, match="repetition_boundaries"):
            load_manifest(tmp_path / "manifest.json")

    def test_session_must_be_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload([["s000"]])))
        with pytest.raises(ManifestError, match="must be an object"):
            load_manifest(tmp_path / "manifest.json")

    def test_save_round_trip(self, tmp_path):
        small_wav(tmp_path / "s000.wav")
        (tmp_path / "manifest.json").write_text(
            json.dumps(manifest_payload([session_obj(0)]))
        )
        man = load_manifest(tmp_path / "manifest.json")
        save_manifest(man, tmp_path / "again.json")
        again = load_manifest(tmp_path / "again.json")
        assert again.sessions[0].session_id == "s000"
        save_manifest(again, tmp_path / "third.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "third.json").read_bytes()


# ---------------------------------------------------------------------------
# WAV I/O


class TestWav:
    def test_pcm16_full_scale_square(self, tmp_path):
        square = np.array([32767, -32767] * 50, dtype="<i2")
        body = square.tobytes()
        raw = (
            b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 1000, 2000, 2, 16)
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path = tmp_path / "sq.wav"
        path.write_bytes(raw)
        sig = ingest_wav(path)
        assert np.all(np.abs(sig.samples) == pytest.approx(32767 / 32768))

    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.wav"
        write_wav(path, Signal(x, 48_000.0), encoding="float32")
        sig = ingest_wav(path)
        assert sig.sample_rate == 48_000.0
        np.testing.assert_array_equal(sig.samples, x)

    def test_pcm24(self, tmp_path):
        vals = [0, 1 << 22, -(1 << 22), (1 << 23) - 1, -(1 << 23)]
        body = b"".join(struct.pack("<i", v)[:3] for v in vals)
        raw = (
            b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 1000, 3000, 3, 24)
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path = tmp_path / "p24.wav"
        path.write_bytes(raw)
        sig = ingest_wav(path)
        expected = np.array(vals, dtype=np.float64) / (1 << 23)
        np.testing.assert_allclose(sig.samples, expected, atol=0)

    def test_pcm32(self, tmp_path):
        vals = np.array([0, 1 << 30, -(1 << 30)], dtype="<i4")
        body = vals.tobytes()
        raw = (
            b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 1000, 4000, 4, 32)
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path = tmp_path / "p32.wav"
        path.write_bytes(raw)
        sig = ingest_wav(path)
        np.testing.assert_allclose(sig.samples, vals / (1 << 31), atol=0)

    def test_stereo_interleave(self, tmp_path):
        x = np.column_stack([np.arange(10) / 100.0, -np.arange(10) / 100.0])
        path = tmp_path / "st.wav"
        write_wav(path, Signal(x, 8_000.0), encoding="float32")
        sig = ingest_wav(path)
        assert sig.channels == 2
        np.testing.assert_allclose(sig.samples, x, atol=1e-7)

    def test_unknown_chunks_skipped(self, tmp_path):
        x = np.ones(8, dtype="<f4") * 0.5
        body = x.tobytes()
        junk = b"LIST" + struct.pack("<I", 5) + b"12345\x00"  # odd size, padded
        raw = (
            b"RIFF" + struct.pack("<I", 100) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 1000, 4000, 4, 32)
            + junk
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path = tmp_path / "junk.wav"
        path.write_bytes(raw)
        sig = ingest_wav(path)
        assert sig.n_samples == 8

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(FormatError):
            ingest_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "bad2.wav"
        raw = (
            b"RIFF" + struct.pack("<I", 100) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 1000, 2000, 2, 16)
            + b"data" + struct.pack("<I", 1000) + b"\x00" * 10
        )
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            ingest_wav(path)

    def test_compressed_rejected(self, tmp_path):
        body = b"\x00" * 16
        raw = (
            b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 85, 1, 1000, 2000, 2, 16)
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path = tmp_path / "mp3ish.wav"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="unsupported encoding"):
            ingest_wav(path)

    def test_odd_sized_pcm16_payload(self, tmp_path):
        body = b"\x00" * 7
        raw = (
            b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 1000, 2000, 2, 16)
            + b"data" + struct.pack("<I", len(body)) + body
        )
        path = tmp_path / "odd.wav"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="16-bit payload of 7 bytes"):
            ingest_wav(path)

    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "zero.wav"
        small_wav(path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = struct.pack("<I", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="sample_rate"):
            ingest_wav(path)

    def test_pcm16_round_trip_close(self, tmp_path):
        rng = np.random.default_rng(2)
        x = np.clip(rng.normal(scale=0.2, size=300), -1, 1)
        path = tmp_path / "rt.wav"
        write_wav(path, Signal(x, 16_000.0), encoding="pcm16")
        sig = ingest_wav(path)
        assert np.max(np.abs(sig.samples - x)) <= 1.0 / 32768 + 1e-12


# ---------------------------------------------------------------------------
# segmentation


def record(n_reps, boundaries=None):
    return SessionRecord(
        session_id="sX", subject_id="subjX", side="left", device_id="D0",
        health_label="Healthy", wav_path="x.wav", n_repetitions=n_reps,
        repetition_boundaries=boundaries,
    )


class TestSegmentation:
    def test_equal_split_six(self):
        fs = 100.0
        sig = Signal(np.arange(2_400) / 2_400.0, fs)  # 24 s
        segs = segment_repetitions(sig, record(6))
        assert len(segs) == 6
        assert all(s.duration == pytest.approx(4.0) for s in segs)
        np.testing.assert_array_equal(segs[1].samples, sig.samples[400:800])

    def test_equal_split_eight(self):
        sig = Signal(np.zeros(3_205), 100.0)
        segs = segment_repetitions(sig, record(8))
        assert len(segs) == 8
        assert all(s.n_samples == 400 for s in segs)  # remainder 5 dropped

    def test_boundaries(self):
        fs = 100.0
        sig = Signal(np.zeros(1_000), fs)  # 10 s
        segs = segment_repetitions(sig, record(2, boundaries=[0.0, 3.5, 8.0]))
        assert [s.duration for s in segs] == [pytest.approx(3.5), pytest.approx(4.5)]

    def test_boundaries_out_of_range(self):
        sig = Signal(np.zeros(1_000), 100.0)
        with pytest.raises(ParameterError, match="duration"):
            segment_repetitions(sig, record(2, boundaries=[0.0, 3.5, 80.0]))

    def test_boundaries_count_mismatch(self):
        sig = Signal(np.zeros(1_000), 100.0)
        with pytest.raises(ParameterError, match="boundaries"):
            segment_repetitions(sig, record(3, boundaries=[0.0, 3.5, 8.0]))

    def test_boundaries_must_ascend(self):
        sig = Signal(np.zeros(1_000), 100.0)
        with pytest.raises(ParameterError, match="ascend"):
            segment_repetitions(sig, record(2, boundaries=[0.0, 8.0, 3.5]))


# ---------------------------------------------------------------------------
# feature extraction


def noise_segment(seed=0, n=60_000, fs=FS, extra=None):
    rng = np.random.default_rng(seed)
    x = 0.05 * rng.normal(size=n)
    if extra is not None:
        x = x + extra
    return Signal(x, fs)


class TestExtractFeatures:
    def test_deterministic_bit_exact(self):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        seg = noise_segment()
        a = extract_features(seg, cfg)
        b = extract_features(seg, cfg)
        assert a.values == b.values

    def test_feature_names(self):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        vec = extract_features(noise_segment(), cfg)
        assert "mfcc08_mean" in vec.values
        assert "mfcc11_std" in vec.values
        assert "spectral_centroid_mean" in vec.values
        assert len(vec.values) == (13 + 4) * 2

    def test_out_of_band_tone_invisible(self):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        t = np.arange(60_000) / FS
        tone = 0.3 * np.sin(2 * np.pi * 33_000 * t)
        base = extract_features(noise_segment(seed=5), cfg)
        with_tone = extract_features(noise_segment(seed=5, extra=tone), cfg)
        for name, val in base.values.items():
            ref = max(1e-12, abs(val))
            assert abs(with_tone.values[name] - val) / ref < 1e-6, name

    def test_in_band_tone_visible(self):
        cfg = FeatureConfig(band_lo=30_000.0, band_hi=40_000.0)
        t = np.arange(60_000) / FS
        tone = 0.1 * np.sin(2 * np.pi * 33_000 * t)
        base = extract_features(noise_segment(seed=5), cfg)
        base2 = extract_features(noise_segment(seed=6), cfg)
        with_tone = extract_features(noise_segment(seed=5, extra=tone), cfg)
        name = "spectral_centroid_mean"
        replicate_noise = abs(base.values[name] - base2.values[name])
        assert abs(with_tone.values[name] - base.values[name]) > 10 * replicate_noise

    def test_too_short_reports_minimum(self):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        with pytest.raises(ParameterError, match="at least"):
            extract_features(Signal(np.zeros(1_000), FS), cfg)
        assert minimum_segment_samples(cfg, FS) == 512 + 2_000

    def test_rms_reads_tone_amplitude(self):
        # 1 kHz tone at amplitude 0.2 -> rms 0.2/sqrt(2)
        t = np.arange(60_000) / FS
        seg = Signal(0.2 * np.sin(2 * np.pi * 1_000 * t), FS)
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        vec = extract_features(seg, cfg)
        assert vec.values["rms_mean"] == pytest.approx(0.2 / np.sqrt(2), rel=0.02)

    def test_zcr_reads_tone_frequency(self):
        t = np.arange(60_000) / FS
        seg = Signal(0.2 * np.sin(2 * np.pi * 2_000 * t), FS)
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        vec = extract_features(seg, cfg)
        assert vec.values["zero_crossing_rate_mean"] == pytest.approx(4_000, rel=0.02)

    def test_stereo_per_channel_and_mixdown(self):
        rng = np.random.default_rng(3)
        x = 0.05 * rng.normal(size=(60_000, 2))
        seg = Signal(x, FS)
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
        vec = extract_features(seg, cfg)
        assert "mfcc00_ch0_mean" in vec.values and "mfcc00_ch1_mean" in vec.values
        mono_cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0, channel_mode="mixdown")
        mixed = extract_features(seg, mono_cfg)
        assert "mfcc00_mean" in mixed.values

    def test_aggregator_subset(self):
        cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0, aggregators=("mean",))
        vec = extract_features(noise_segment(), cfg)
        assert all(name.endswith("_mean") for name in vec.values)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            FeatureConfig(band_lo=10_000.0, band_hi=250.0)
        with pytest.raises(ParameterError):
            FeatureConfig(band_lo=250.0, band_hi=10_000.0, aggregators=())
        with pytest.raises(ParameterError):
            FeatureConfig(band_lo=250.0, band_hi=10_000.0, extra_features=("flux",))

    def test_config_json_round_trip(self):
        cfg = FeatureConfig(band_lo=900.0, band_hi=3_000.0, aggregators=("mean",))
        again = FeatureConfig.from_json_dict(cfg.to_json_dict())
        assert again.to_json_dict() == cfg.to_json_dict()

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([250.0, 6000.0], "must be a JSON object, got list"),
            ({"band_lo": 250.0}, "missing required key 'band_hi'"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "bandlo": 1.0}, "unknown key 'bandlo'"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "mfcc": {"fmin": 250.0, "fmax": 6000.0, "nmels": 26}},
             "mfcc: unknown key 'nmels'"),
            ({"band_lo": "x", "band_hi": 6000.0}, "'band_lo' must be a finite number, got 'x'"),
            ({"band_lo": float("nan"), "band_hi": 6000.0}, "'band_lo' must be a finite number"),
            ({"band_lo": 10**400, "band_hi": 6000.0}, "'band_lo' must be a finite number"),
            ({"band_lo": True, "band_hi": 6000.0}, "'band_lo' must be a finite number"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "taps": 513.0}, "'taps' must be an integer"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "mfcc": {"fmin": 250.0, "fmax": 6000.0, "n_mels": 26.0}},
             "mfcc: 'n_mels' must be an integer"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "mfcc": {"fmax": 6000.0}}, "mfcc: missing required key 'fmin'"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "mfcc": []}, "'mfcc' must be an object or null"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "aggregators": "mean"}, "'aggregators' must be a list of strings"),
            ({"band_lo": 250.0, "band_hi": 6000.0, "channel_mode": 1}, "'channel_mode' must be a string"),
        ],
    )
    def test_config_json_shape_errors(self, obj, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            FeatureConfig.from_json_dict(obj)

    def test_config_json_keeps_given_values(self):
        # integers stay integers, so the report echoes the file as written
        cfg = FeatureConfig.from_json_dict({"band_lo": 250, "band_hi": 6000, "mfcc": None})
        assert cfg.to_json_dict()["band_lo"] == 250 and type(cfg.band_lo) is int
        assert cfg.mfcc.fmax == 6000


# ---------------------------------------------------------------------------
# feature table


def toy_table(tmp_path):
    fs = 16_000.0
    rng = np.random.default_rng(0)
    sessions = []
    for i in range(3):
        x = 0.1 * rng.normal(size=int(fs * 2))
        write_wav(tmp_path / f"s{i}.wav", Signal(x, fs))
        sessions.append(
            {
                "session_id": f"s{i}",
                "subject_id": f"subj{i}",
                "side": "left" if i % 2 == 0 else "right",
                "device_id": f"D{i % 2}",
                "health_label": "Healthy" if i == 0 else "Unhealthy",
                "wav_path": f"s{i}.wav",
                "n_repetitions": 2,
            }
        )
    (tmp_path / "manifest.json").write_text(json.dumps({"sessions": sessions}))
    manifest = load_manifest(tmp_path / "manifest.json")
    cfg = FeatureConfig(band_lo=200.0, band_hi=6_000.0)
    return manifest, cfg, extract_table(manifest, cfg)


class TestFeatureTable:
    def test_row_count_and_label_propagation(self, tmp_path):
        manifest, cfg, table = toy_table(tmp_path)
        assert table.n_rows == 6
        by_id = {rec.session_id: rec for rec in manifest.sessions}
        for i in range(table.n_rows):
            rec = by_id[table.labels["session_id"][i]]
            assert table.labels["health"][i] == rec.health_label
            assert table.labels["subject"][i] == rec.subject_id
            assert table.labels["side"][i] == rec.side
            assert table.labels["device"][i] == rec.device_id

    def test_csv_round_trip_exact(self, tmp_path):
        _, _, table = toy_table(tmp_path)
        path = tmp_path / "features.csv"
        table.to_csv(path)
        again = FeatureTable.from_csv(path)
        assert again.feature_names == table.feature_names
        np.testing.assert_array_equal(again.matrix, table.matrix)
        for key in table.labels:
            np.testing.assert_array_equal(again.labels[key], table.labels[key])
        path2 = tmp_path / "features2.csv"
        again.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_select_and_restrict(self, tmp_path):
        _, _, table = toy_table(tmp_path)
        sub = table.select(table.labels["health"] == "Unhealthy")
        assert sub.n_rows == 4
        two = table.restrict_features(["mfcc08_mean", "mfcc11_mean"])
        assert two.matrix.shape == (6, 2)
        with pytest.raises(ParameterError):
            table.restrict_features(["nope"])

    def test_rows_are_the_feature_map_of_each_segment(self, tmp_path):
        manifest, cfg, table = toy_table(tmp_path)
        row = 0
        for rec in manifest.sessions:
            segments = segment_repetitions(ingest_wav(manifest.wav_file(rec)), rec)
            for k, seg in enumerate(segments):
                values = extract_features(seg, cfg).values
                assert list(values) == table.feature_names
                np.testing.assert_array_equal(table.matrix[row], list(values.values()))
                assert table.repetition_index[row] == k
                for col, field in LABEL_FIELDS.items():
                    assert table.labels[col][row] == getattr(rec, field)
                row += 1
        assert row == table.n_rows

    def test_extract_tables_matches_extract_table_per_config(self, tmp_path):
        manifest, cfg, table = toy_table(tmp_path)
        narrow = FeatureConfig(band_lo=1_000.0, band_hi=3_000.0, aggregators=("mean",))
        both = extract_tables(manifest, [cfg, narrow])
        for got, want in zip(both, [table, extract_table(manifest, narrow)]):
            assert got.feature_names == want.feature_names
            np.testing.assert_array_equal(got.matrix, want.matrix)
            np.testing.assert_array_equal(got.repetition_index, want.repetition_index)
            for col in LABEL_FIELDS:
                np.testing.assert_array_equal(got.labels[col], want.labels[col])
        assert extract_tables(manifest, []) == []

    def test_mono_and_stereo_sessions_name_the_session(self, tmp_path):
        fs = 16_000.0
        rng = np.random.default_rng(1)
        write_wav(tmp_path / "mono.wav", Signal(0.1 * rng.normal(size=int(fs)), fs))
        write_wav(tmp_path / "stereo.wav", Signal(0.1 * rng.normal(size=(int(fs), 2)), fs))
        sessions = [
            session_obj(0, wav_path="mono.wav", session_id="mono"),
            session_obj(1, wav_path="stereo.wav", session_id="stereo", health="Unhealthy"),
        ]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_payload(sessions)))
        manifest = load_manifest(tmp_path / "manifest.json")
        cfg = FeatureConfig(band_lo=200.0, band_hi=6_000.0)
        with pytest.raises(ParameterError, match="feature name mismatch in session stereo"):
            extract_tables(manifest, [cfg])

    def test_empty_manifest_is_a_parameter_error(self, tmp_path):
        cfg = FeatureConfig(band_lo=200.0, band_hi=6_000.0)
        with pytest.raises(ParameterError, match="zero sessions"):
            extract_table(Manifest(sessions=[], root=tmp_path), cfg)

    def test_csv_is_plain_comma_separated(self, tmp_path):
        table = FeatureTable(
            feature_names=["f00", "f01"],
            matrix=np.array([[0.1, -2.5e-07], [3.0, float("nan")]]),
            labels={
                "session_id": np.array(["s0", "s1"], dtype=object),
                "subject": np.array(["p0", "p1"], dtype=object),
                "health": np.array(["Healthy", "Unhealthy"], dtype=object),
                "side": np.array(["left", "right"], dtype=object),
                "device": np.array(["D0", "D1"], dtype=object),
            },
            repetition_index=np.array([0, 1], dtype=np.int64),
        )
        path = tmp_path / "plain.csv"
        table.to_csv(path)
        assert path.read_bytes() == (
            b"session_id,repetition_index,subject,health,side,device,f00,f01\n"
            b"s0,0,p0,Healthy,left,D0,0.1,-2.5e-07\n"
            b"s1,1,p1,Unhealthy,right,D1,3.0,nan\n"
        )

    def test_csv_round_trips_ids_with_commas_and_quotes(self, tmp_path):
        _, _, table = toy_table(tmp_path)
        ids = table.labels["session_id"].copy()
        ids[0], ids[1] = "a,b", 'q"x'
        table.labels["session_id"] = ids
        path = tmp_path / "quoted.csv"
        table.to_csv(path)
        again = FeatureTable.from_csv(path)
        np.testing.assert_array_equal(again.labels["session_id"], ids)
        np.testing.assert_array_equal(again.matrix, table.matrix)
        path2 = tmp_path / "quoted2.csv"
        again.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_csv_field_over_the_reader_limit_is_a_format_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("session_id," + "x" * 200_000 + "\n")
        with pytest.raises(FormatError, match="field limit"):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize(
        "column, value, message",
        [("repetition_index", "x", "is not an integer"),
         ("f1", "abc", "is not a number")],
    )
    def test_non_numeric_field_names_row_and_column(self, tmp_path, column, value, message):
        header = ["session_id", "repetition_index", "subject", "health", "side", "device", "f0", "f1"]
        rows = [["s0", "0", "a", "Healthy", "left", "D0", "1.0", "2.0"] for _ in range(2)]
        rows[1][header.index(column)] = value
        path = tmp_path / "bad_field.csv"
        path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
        with pytest.raises(FormatError, match=f"row 2, column '{column}': '{value}' {message}"):
            FeatureTable.from_csv(path)

    def test_bad_csv_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            FeatureTable.from_csv(path)


# ---------------------------------------------------------------------------
# fuzzing: malformed input ends in a package error, never another exception

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=300),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)

fmt_bodies = st.builds(
    lambda tag, ch, rate, bits, extra: struct.pack(
        "<HHIIHH", tag, ch, rate, rate * ch * bits // 8 % 2**32, ch * bits // 8, bits
    ) + extra,
    st.sampled_from([1, 3, 85]),
    st.integers(0, 3),
    st.sampled_from([0, 1, 1000, 2**32 - 1]),
    st.sampled_from([0, 8, 16, 24, 32, 64]),
    st.binary(max_size=4),
)

chunks = st.tuples(
    st.sampled_from([b"fmt ", b"data", b"LIST", b"junk"]),
    fmt_bodies | st.binary(max_size=40),
    st.integers(-3, 3),
)


def _wav_bytes(chunk_list, cut):
    body = b"WAVE"
    for cid, payload, size_delta in chunk_list:
        body += cid + struct.pack("<I", max(0, len(payload) + size_delta)) + payload
    raw = b"RIFF" + struct.pack("<I", len(body)) + body
    return raw[:cut] if cut is not None else raw


class TestFuzz:
    @given(chunk_list=st.lists(chunks, max_size=4), cut=st.none() | st.integers(0, 120))
    @settings(max_examples=300, deadline=None)
    def test_ingest_wav_raises_only_package_errors(self, tmp_path_factory, chunk_list, cut):
        path = tmp_path_factory.mktemp("fuzzwav") / "x.wav"
        path.write_bytes(_wav_bytes(chunk_list, cut))
        try:
            sig = ingest_wav(path)
        except VibroauditError:
            return
        assert sig.sample_rate > 0 and np.all(np.isfinite(sig.samples))

    @given(
        over=st.dictionaries(
            st.sampled_from(
                ["session_id", "side", "health_label", "wav_path", "n_repetitions",
                 "repetition_boundaries", "metadata"]
            ),
            json_values,
            max_size=3,
        ),
        drop=st.sampled_from([None, "subject_id", "n_repetitions"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_load_manifest_raises_only_package_errors(self, tmp_path_factory, over, drop):
        root = tmp_path_factory.mktemp("fuzzman")
        small_wav(root / "s000.wav", n=50)
        obj = session_obj(0) | over
        obj.pop(drop, None)
        (root / "manifest.json").write_text(json.dumps(manifest_payload([obj])))
        try:
            man = load_manifest(root / "manifest.json")
        except ManifestError:
            return
        assert len(man.sessions) == 1

    @given(raw=st.binary(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_load_manifest_of_arbitrary_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzzbytes") / "manifest.json"
        path.write_bytes(raw)
        try:
            load_manifest(path)
        except ManifestError:
            pass

    @given(obj=json_values | st.dictionaries(
        st.sampled_from(["band_lo", "band_hi", "mfcc", "aggregators", "extra_features", "taps",
                         "channel_mode", "bogus"]),
        json_values | st.dictionaries(
            st.sampled_from(["fmin", "fmax", "frame_ms", "hop_fraction", "n_mels", "n_coeffs",
                             "log_floor", "bogus"]),
            json_values, max_size=4,
        ),
        max_size=5,
    ))
    @settings(max_examples=400, deadline=None)
    def test_feature_config_of_any_json_value(self, obj):
        try:
            cfg = FeatureConfig.from_json_dict(obj)
        except VibroauditError:
            return
        assert FeatureConfig.from_json_dict(cfg.to_json_dict()) == cfg
