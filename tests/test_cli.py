"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vibroaudit
from tablegen import day_level_table, device_shortcut_table, rotated_pair_table
from vibroaudit.cli import EXIT_ERROR, EXIT_FLAGS, EXIT_OK, _tone_frame_len, main
from vibroaudit.dataset import FeatureConfig, ingest_wav, load_manifest
from vibroaudit.dsp import Signal, stft
from vibroaudit.report import canonical_json, read_report, strip_timing, write_series_csv
from vibroaudit.sigsynth import SCENARIOS

# JSON texts that Python's parser refuses: nesting beyond the recursion
# limit, and an integer beyond the int-from-string digit limit
UNPARSABLE_JSON = {
    "deep": "[" * 100_000 + "]" * 100_000,
    "long-int": '{"n_repetitions": ' + "1" * 5_000 + "}",
}

SUITE_SECTIONS = ("band_scan", "tones", "prevalence", "covariate", "conditioning",
                  "mixing_curve", "rotation", "counterfactual")


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def tone_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tone")
    rc = run(
        "synth", "--scenario", "tone-bias", "--subjects", "6",
        "--repetitions", "3", "--duration", "2.0",
        "--seed", "0", "--out", str(out),
    )
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def clean_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    rc = run(
        "synth", "--scenario", "clean", "--subjects", "8",
        "--repetitions", "3", "--duration", "2.0",
        "--seed", "0", "--out", str(out),
    )
    assert rc == EXIT_OK
    return out


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_runs_the_documented_workflow(scenario, tmp_path, capsys):
    data, features, out = tmp_path / "data", tmp_path / "features.csv", tmp_path / "audit"
    assert run("synth", "--scenario", scenario, "--subjects", "4", "--repetitions", "2",
               "--duration", "0.5", "--out", str(data)) == EXIT_OK
    assert run("features", "--manifest", str(data / "manifest.json"),
               "--out", str(features)) == EXIT_OK
    rc = run("audit", "suite", "--manifest", str(data / "manifest.json"),
             "--features", str(features), "--repeats", "5", "--out", str(out))
    assert rc in (EXIT_OK, EXIT_FLAGS)
    assert "Traceback" not in capsys.readouterr().err
    doc = read_report(out / "report.json")
    for name in SUITE_SECTIONS:
        assert name in doc["sections"] or doc["skipped_sections"].get(name), name


def test_importing_the_cli_loads_no_scipy_signal():
    # scipy.signal alone takes about half a second and 50 MB to import
    code = ("import sys, vibroaudit, vibroaudit.cli; "
            "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'signal']])")
    env = {**os.environ, "PYTHONPATH": str(Path(vibroaudit.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


class TestSynth:
    def test_round_trip_manifest_validates(self, tone_dataset):
        manifest = load_manifest(tone_dataset / "manifest.json")
        assert len(manifest.sessions) == 6
        assert (tone_dataset / "ground_truth.json").exists()

    def test_same_seed_is_byte_identical(self, tmp_path):
        args = (
            "synth", "--scenario", "clean", "--subjects", "2",
            "--repetitions", "2", "--duration", "1.0", "--seed", "5",
        )
        assert run(*args, "--out", str(tmp_path / "a")) == EXIT_OK
        assert run(*args, "--out", str(tmp_path / "b")) == EXIT_OK
        for name in ("manifest.json", "ground_truth.json", "sess000.wav"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_zero_subjects_is_an_error(self, tmp_path, capsys):
        rc = run(
            "synth", "--scenario", "clean", "--subjects", "0",
            "--out", str(tmp_path / "z"),
        )
        assert rc == EXIT_ERROR
        assert "n_subjects" in capsys.readouterr().err

    @pytest.mark.parametrize("duration, message", [
        ("nan", "must be finite and > 0"),
        ("inf", "must be finite and > 0"),
        # 1 ns at 100 kHz rounds to a repetition of no samples; 1e308 s overflows
        ("1e-9", "does not round to a finite, nonzero sample count"),
        ("1e308", "does not round to a finite, nonzero sample count"),
    ])
    def test_degenerate_duration_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                              duration, message):
        out = tmp_path / "d"
        rc = run("synth", "--scenario", "clean", "--subjects", "2",
                 "--duration", duration, "--out", str(out))
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists() or not any(out.iterdir())


class TestFeatures:
    def test_row_count_and_rerun_bytes(self, tone_dataset, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        manifest = str(tone_dataset / "manifest.json")
        assert run("features", "--manifest", manifest, "--out", str(a)) == EXIT_OK
        assert run("features", "--manifest", manifest, "--out", str(b)) == EXIT_OK
        lines = a.read_text().splitlines()
        assert len(lines) == 1 + 6 * 3
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_changes_the_features(self, tone_dataset, tmp_path):
        manifest = str(tone_dataset / "manifest.json")
        default = tmp_path / "default.csv"
        assert run("features", "--manifest", manifest, "--out", str(default)) == EXIT_OK

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(FeatureConfig(band_lo=250.0, band_hi=25_000.0).to_json_dict())
        )
        wide = tmp_path / "wide.csv"
        rc = run(
            "features", "--manifest", manifest,
            "--config", str(cfg_path), "--out", str(wide),
        )
        assert rc == EXIT_OK
        assert wide.read_bytes() != default.read_bytes()

    def test_low_rate_cohort_needs_no_config(self, tmp_path):
        # 16 kHz: the default 10 kHz upper band edge is clamped below Nyquist
        data = tmp_path / "device"
        assert run(
            "synth", "--scenario", "device-shift", "--subjects", "2",
            "--repetitions", "2", "--duration", "1.0",
            "--seed", "0", "--out", str(data),
        ) == EXIT_OK
        out = tmp_path / "features.csv"
        rc = run("features", "--manifest", str(data / "manifest.json"), "--out", str(out))
        assert rc == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 4 * 2

    def test_missing_wav_names_the_session(self, tone_dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(tone_dataset, broken)
        (broken / "sess002.wav").unlink()
        rc = run(
            "features", "--manifest", str(broken / "manifest.json"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == EXIT_ERROR
        assert "sess002" in capsys.readouterr().err

    def test_band_the_mel_grid_cannot_resolve_exits_one(self, tone_dataset, tmp_path, capsys):
        # 250-400 Hz at 100 kHz: band scan skips it, features refuses it
        # with the same reason
        manifest = str(tone_dataset / "manifest.json")
        scan = tmp_path / "scan"
        rc = run("audit", "band-scan", "--manifest", manifest,
                 "--bands", "250-400,30000-40000", "--out", str(scan))
        assert rc in (EXIT_OK, EXIT_FLAGS)
        reason = read_report(scan / "report.json")["sections"]["band_scan"]["skipped"]["0"]
        assert "20 of 26 filters" in reason
        capsys.readouterr()

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"band_lo": 250.0, "band_hi": 400.0}))
        out = tmp_path / "features.csv"
        assert run("features", "--manifest", manifest, "--config", str(cfg_path),
                   "--out", str(out)) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()
        assert run("audit", "condition", "--manifest", manifest, "--config", str(cfg_path),
                   "--out", str(tmp_path / "condition")) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {reason}\n"

    def test_band_pass_edge_above_nyquist_exits_one_before_any_read(
            self, tone_dataset, tmp_path, capsys, monkeypatch):
        import vibroaudit.dataset as dataset

        reads = []
        original = dataset.ingest_wav
        monkeypatch.setattr(dataset, "ingest_wav", lambda path: reads.append(path) or original(path))
        manifest = str(tone_dataset / "manifest.json")
        scan = tmp_path / "scan"
        rc = run("audit", "band-scan", "--manifest", manifest,
                 "--bands", "250-60000", "--out", str(scan))
        assert rc in (EXIT_OK, EXIT_FLAGS)
        reason = read_report(scan / "report.json")["sections"]["band_scan"]["skipped"]["0"]
        assert reason == "hi=60000.0 exceeds Nyquist 50000.0"
        capsys.readouterr()

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"band_lo": 250.0, "band_hi": 60_000.0,
                                        "mfcc": {"fmin": 250.0, "fmax": 10_000.0}}))
        out = tmp_path / "features.csv"
        assert run("features", "--manifest", manifest, "--config", str(cfg_path),
                   "--out", str(out)) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()
        assert reads == []


    def test_mel_range_above_nyquist_exits_one_before_any_read(
            self, tone_dataset, tmp_path, capsys, monkeypatch):
        import vibroaudit.dataset as dataset

        reads = []
        original = dataset.ingest_wav
        monkeypatch.setattr(dataset, "ingest_wav", lambda path: reads.append(path) or original(path))
        manifest = str(tone_dataset / "manifest.json")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"band_lo": 250.0, "band_hi": 10_000.0,
                                        "mfcc": {"fmin": 250.0, "fmax": 60_000.0}}))
        out = tmp_path / "features.csv"
        assert run("features", "--manifest", manifest, "--config", str(cfg_path),
                   "--out", str(out)) == EXIT_ERROR
        assert capsys.readouterr().err == "error: fmax=60000.0 exceeds Nyquist 50000.0\n"
        assert not out.exists()
        assert reads == []

        # band scan skips the config's own band and scores the other
        scan = tmp_path / "scan"
        rc = run("audit", "band-scan", "--manifest", manifest, "--config", str(cfg_path),
                 "--bands", "250-10000,10000-20000", "--out", str(scan))
        assert rc in (EXIT_OK, EXIT_FLAGS)
        section = read_report(scan / "report.json")["sections"]["band_scan"]
        assert section["skipped"] == {"0": "fmax=60000.0 exceeds Nyquist 50000.0"}
        assert section["best_band"] == [10_000.0, 20_000.0]


class TestAuditSuite:
    def test_tone_bias_suite_raises_flags(self, tone_dataset, tmp_path):
        out = tmp_path / "audit"
        rc = run(
            "audit", "suite", "--manifest", str(tone_dataset / "manifest.json"),
            "--seed", "0", "--out", str(out), "--repeats", "50",
        )
        assert rc == EXIT_FLAGS
        doc = read_report(out / "report.json")
        assert any(f.startswith("tone-artifact") for f in doc["flags"])
        assert {"band_scan", "tones", "prevalence", "covariate",
                "conditioning", "mixing_curve"} <= set(doc["sections"])
        assert set(doc["skipped_sections"]) == {"rotation", "counterfactual"}
        for sec in doc["sections"].values():
            assert sec["seed"] == 0
            assert "timing_s" in sec
        for name in ("band_scan.csv", "tones.csv",
                     "conditioning_control.csv", "mixing_curve.csv"):
            assert (out / name).exists()

    def test_clean_suite_exits_zero(self, clean_dataset, tmp_path):
        rc = run(
            "audit", "suite", "--manifest", str(clean_dataset / "manifest.json"),
            "--seed", "0", "--out", str(tmp_path / "audit"), "--repeats", "60",
        )
        assert rc == EXIT_OK
        doc = read_report(tmp_path / "audit" / "report.json")
        assert doc["flags"] == []
        assert doc["sections"]["tones"]["n_sessions_with_detections"] == 0

    def test_suite_reruns_identically_modulo_timing(self, tone_dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run(
                "audit", "suite",
                "--manifest", str(tone_dataset / "manifest.json"),
                "--seed", "3", "--out", str(out), "--repeats", "40",
            )
            assert rc == EXIT_FLAGS
            outs.append(out)
        a = json.loads((outs[0] / "report.json").read_text())
        b = json.loads((outs[1] / "report.json").read_text())
        assert canonical_json(strip_timing(a)) == canonical_json(strip_timing(b))
        assert a != b or a["timing_s"] == b["timing_s"]
        for name in ("band_scan.csv", "tones.csv",
                     "conditioning_control.csv", "mixing_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_audit_directory_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert run("synth", "--scenario", "tone-bias", "--subjects", "6", "--repetitions", "2",
                   "--duration", "0.4", "--seed", "1", "--out", str(data)) == EXIT_OK
        relabel = tmp_path / "relabel.json"
        relabel.write_text(json.dumps({
            rec.session_id: [f"g{i}", "Healthy" if i < 3 else "Unhealthy"]
            for i, rec in enumerate(load_manifest(data / "manifest.json").sessions)
        }))
        files = {}
        for threads in ("1", "3"):
            monkeypatch.setenv("VIBROAUDIT_THREADS", threads)
            out = tmp_path / f"threads-{threads}"
            rc = run("audit", "suite", "--manifest", str(data / "manifest.json"),
                     "--relabel", str(relabel), "--seed", "1", "--repeats", "5",
                     "--spectrogram-csv", "--feature-pair", "mfcc01_mean,mfcc02_mean",
                     "--out", str(out))
            assert rc == EXIT_FLAGS
            files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(read_report(out / "report.json")["sections"]) == set(SUITE_SECTIONS)
        assert len([n for n in files["1"] if n.startswith("spectrogram_")]) == 6
        reports = {t: json.loads(f.pop("report.json")) for t, f in files.items()}
        assert canonical_json(strip_timing(reports["1"])) == canonical_json(strip_timing(reports["3"]))
        assert files["1"].keys() == files["3"].keys()
        for name, data in files["1"].items():
            assert data == files["3"][name], name

    def test_suite_without_a_manifest_skips_the_recording_sections(self, tmp_path, capsys):
        csv_path = tmp_path / "device.csv"
        device_shortcut_table().to_csv(csv_path)
        out = tmp_path / "out"
        rc = run("audit", "suite", "--features", str(csv_path), "--repeats", "5",
                 "--out", str(out))
        assert rc == EXIT_FLAGS
        doc = read_report(out / "report.json")
        assert doc["skipped_sections"] == {
            "band_scan": "band scan needs --manifest",
            "tones": "tone detection needs --manifest",
            "prevalence": "prevalence needs the tone detections",
            "rotation": "rotation needs --feature-pair with exactly 2 names",
            "counterfactual": "no --relabel file and the table is not single-subject "
                              "multi-session, so there is no regrouping to test",
        }
        assert set(doc["sections"]) == {"covariate", "conditioning", "mixing_curve"}
        assert sorted(p.name for p in out.iterdir()) == [
            "conditioning_control.csv", "mixing_curve.csv", "report.json"]
        assert "section band_scan: skipped (band scan needs --manifest)" in capsys.readouterr().out

    def test_config_digest_reflects_arguments(self, tone_dataset, tmp_path):
        docs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            run(
                "audit", "tones",
                "--manifest", str(tone_dataset / "manifest.json"),
                "--seed", seed, "--out", str(out),
            )
            docs.append(read_report(out / "report.json"))
        assert docs[0]["config_digest"] != docs[1]["config_digest"]
        assert docs[0]["master_seed"] == 1


class TestAuditSingleAnalyses:
    def test_band_scan_with_explicit_bands(self, tone_dataset, tmp_path):
        out = tmp_path / "bs"
        rc = run(
            "audit", "band-scan",
            "--manifest", str(tone_dataset / "manifest.json"),
            "--bands", "250-10000,30000-40000",
            "--seed", "0", "--out", str(out),
        )
        assert rc in (EXIT_OK, EXIT_FLAGS)
        doc = read_report(out / "report.json")
        assert doc["sections"]["band_scan"]["bands"] == [
            [250.0, 10_000.0], [30_000.0, 40_000.0],
        ]
        lines = (out / "band_scan.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_rotate_needs_feature_pair(self, tmp_path, capsys):
        table = rotated_pair_table(n_subjects=6, reps=4)
        csv_path = tmp_path / "rot.csv"
        table.to_csv(csv_path)
        rc = run(
            "audit", "rotate", "--features", str(csv_path),
            "--out", str(tmp_path / "no_pair"),
        )
        assert rc == EXIT_ERROR
        assert "feature-pair" in capsys.readouterr().err

        out = tmp_path / "rot"
        rc = run(
            "audit", "rotate", "--features", str(csv_path),
            "--feature-pair", ",".join(table.feature_names),
            "--out", str(out), "--seed", "0",
        )
        assert rc == EXIT_OK
        sec = read_report(out / "report.json")["sections"]["rotation"]
        assert abs(sec["phi_degrees"] - 10.0) < 2.0
        assert (out / "rotation_curve.csv").exists()
        assert (out / "rotation_scatter.csv").exists()

    def test_rotate_refuses_a_feature_named_twice(self, tmp_path, capsys):
        table = rotated_pair_table(n_subjects=6, reps=4)
        csv_path = tmp_path / "rot.csv"
        table.to_csv(csv_path)
        name = table.feature_names[0]
        rc = run(
            "audit", "rotate", "--features", str(csv_path),
            "--feature-pair", f"{name},{name}",
            "--out", str(tmp_path / "rot"), "--seed", "0",
        )
        assert rc == EXIT_ERROR
        assert f"feature '{name}' named twice" in capsys.readouterr().err

    def test_band_scan_refuses_a_nan_band_width(self, tone_dataset, tmp_path, capsys):
        rc = run(
            "audit", "band-scan",
            "--manifest", str(tone_dataset / "manifest.json"),
            "--band-width-hz", "nan", "--out", str(tmp_path / "bs"),
        )
        assert rc == EXIT_ERROR
        assert "band width must exceed 250 Hz, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis, step", [("band-scan", "band scan"),
                                                ("tones", "tone detection")])
    def test_recording_analysis_without_a_manifest_exits_one(self, tmp_path, capsys,
                                                             analysis, step):
        csv_path = tmp_path / "device.csv"
        device_shortcut_table().to_csv(csv_path)
        out = tmp_path / "out"
        rc = run("audit", analysis, "--features", str(csv_path), "--out", str(out))
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {step} needs --manifest\n"
        assert not any(out.iterdir())

    def test_counterfactual_auto_day_regrouping(self, tmp_path):
        csv_path = tmp_path / "day.csv"
        day_level_table().to_csv(csv_path)
        out = tmp_path / "cf"
        rc = run(
            "audit", "counterfactual", "--features", str(csv_path),
            "--out", str(out), "--seed", "0", "--repeats", "60",
        )
        assert rc == EXIT_FLAGS
        sec = read_report(out / "report.json")["sections"]["counterfactual"]
        assert sec["flags"][0].startswith("counterfactual-inflation")
        assert len(sec["relabel"]) == 5
        rows = (out / "counterfactual_null.csv").read_text().splitlines()[1:]
        null = [float(row.split(",")[1]) for row in rows]
        at_least = sum(1 for a in null if a >= sec["accuracy"])
        assert sec["null"]["p_value"] == (1 + at_least) / (1 + 60)

    def test_counterfactual_relabel_file(self, tmp_path):
        csv_path = tmp_path / "day.csv"
        day_level_table().to_csv(csv_path)
        relabel = {
            f"day{d}": [f"g{d}", "Healthy" if d < 3 else "Unhealthy"]
            for d in range(5)
        }
        spec_path = tmp_path / "relabel.json"
        spec_path.write_text(json.dumps(relabel))
        rc = run(
            "audit", "counterfactual", "--features", str(csv_path),
            "--relabel", str(spec_path),
            "--out", str(tmp_path / "cf"), "--seed", "0", "--repeats", "40",
        )
        assert rc in (EXIT_OK, EXIT_FLAGS)
        sec = read_report(tmp_path / "cf" / "report.json")["sections"]["counterfactual"]
        assert sec["relabel"]["day0"] == ["g0", "Healthy"]


class TestErrorPaths:
    def test_nonexistent_manifest(self, tmp_path, capsys):
        rc = run(
            "audit", "suite", "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out"),
        )
        assert rc == EXIT_ERROR
        assert "not found" in capsys.readouterr().err

    def test_usage_errors_exit_one_not_two(self, tmp_path, capsys):
        assert run("audit", "frobnicate", "--out", str(tmp_path)) == EXIT_ERROR
        assert run() == EXIT_ERROR
        assert run("audit", "suite", "--out", str(tmp_path)) == EXIT_ERROR
        capsys.readouterr()

    def test_usage_error_inside_the_suite_is_not_a_skipped_section(self, tmp_path, capsys):
        csv_path = tmp_path / "device.csv"
        device_shortcut_table().to_csv(csv_path)
        rc = run(
            "audit", "suite", "--features", str(csv_path), "--repeats", "0",
            "--out", str(tmp_path / "out"),
        )
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err.startswith("usage error: --repeats must be >= 1")

    def test_bad_band_syntax(self, tone_dataset, tmp_path, capsys):
        rc = run(
            "audit", "band-scan",
            "--manifest", str(tone_dataset / "manifest.json"),
            "--bands", "250:10000",
            "--out", str(tmp_path / "out"),
        )
        assert rc == EXIT_ERROR
        assert "lo-hi" in capsys.readouterr().err

    def test_single_analysis_errors_are_not_swallowed(self, tmp_path, capsys):
        csv_path = tmp_path / "day.csv"
        day_level_table().to_csv(csv_path)
        rc = run(
            "audit", "condition", "--features", str(csv_path),
            "--out", str(tmp_path / "out"),
        )
        assert rc == EXIT_ERROR
        assert "device" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"band_lo": 250.0,', "--config"),
            ("[250.0, 6000.0]", "must be a JSON object"),
            ('{"band_lo": 250.0, "band_hi": 6000.0, "bandhi": 1}', "unknown key 'bandhi'"),
            ('{"band_lo": 250.0, "band_hi": 6000.0, "mfcc": {"fmin": 1, "fmax": 2, "x": 0}}',
             "unknown key 'x'"),
            ('{"band_lo": "x", "band_hi": 6000.0}', "'band_lo' must be a finite number"),
            ('{"band_lo": 250.0, "band_hi": 6000.0, "taps": 513.0}', "'taps' must be an integer"),
            ('{"band_lo": 250.0, "band_hi": 6000.0, "mfcc": {"fmin": 250.0, "fmax": 6000.0, "n_mels": 26.0}}',
             "'n_mels' must be an integer"),
        ],
    )
    def test_malformed_config_file_exits_one(self, tone_dataset, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = run(
            "features", "--manifest", str(tone_dataset / "manifest.json"),
            "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"),
        )
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("features", {"taps": 10**20 + 1}, "segment too short"),
            ("features", {"taps": 10**20}, "taps must be an odd integer >= 3"),
            ("features", {"mfcc": {"fmin": 250.0, "fmax": 6000.0, "n_mels": 10**20}}, "n_mels="),
            ("band-scan", {"mfcc": {"fmin": 250.0, "fmax": 6000.0, "n_mels": 10**20}}, "n_mels="),
            ("features", {"mfcc": {"fmin": 250.0, "fmax": 6000.0, "frame_ms": 1e308}}, "frame_ms="),
            ("band-scan", {"mfcc": {"fmin": 250.0, "fmax": 6000.0, "frame_ms": 1e20}},
             "segment too short"),
        ],
    )
    def test_huge_well_typed_config_values_exit_one(self, tone_dataset, tmp_path, capsys,
                                                    command, extra, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"band_lo": 250.0, "band_hi": 6000.0, **extra}))
        argv = ["--manifest", str(tone_dataset / "manifest.json"), "--config", str(cfg_path),
                "--out", str(tmp_path / "out")]
        rc = run(command, *argv) if command == "features" else run("audit", command, *argv)
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("text", ['{"day0": ["g0", "Healthy"]', b"\xff\xfe{}"])
    def test_relabel_file_that_is_not_json_exits_one(self, tmp_path, capsys, text):
        csv_path = tmp_path / "day.csv"
        day_level_table().to_csv(csv_path)
        spec_path = tmp_path / "relabel.json"
        if isinstance(text, bytes):
            spec_path.write_bytes(text)
        else:
            spec_path.write_text(text)
        rc = run(
            "audit", "counterfactual", "--features", str(csv_path),
            "--relabel", str(spec_path), "--out", str(tmp_path / "cf"),
        )
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: --relabel {spec_path}: not valid JSON")

    @pytest.mark.parametrize("pair", [[1, "Healthy"], [None, "Healthy"], ["g0", False]])
    def test_relabel_entry_that_is_not_two_strings_exits_one(self, tmp_path, capsys, pair):
        csv_path = tmp_path / "day.csv"
        day_level_table().to_csv(csv_path)
        spec_path = tmp_path / "relabel.json"
        spec_path.write_text(json.dumps({"day0": pair}))
        rc = run(
            "audit", "counterfactual", "--features", str(csv_path),
            "--relabel", str(spec_path), "--out", str(tmp_path / "cf"),
        )
        assert rc == EXIT_ERROR
        assert "relabel entry 'day0' must be [subject, class] strings" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["manifest", "--config", "--relabel"])
    @pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON.keys())
    def test_json_that_python_cannot_parse_exits_one(self, tone_dataset, tmp_path, capsys,
                                                    kind, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        csv_path = tmp_path / "day.csv"
        day_level_table().to_csv(csv_path)
        manifest = str(tone_dataset / "manifest.json")
        argv = {
            "manifest": ["features", "--manifest", str(path)],
            "--config": ["features", "--manifest", manifest, "--config", str(path)],
            "--relabel": ["audit", "counterfactual", "--features", str(csv_path),
                          "--relabel", str(path)],
        }[kind]
        assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {kind} {path}: not valid JSON")

    @pytest.mark.parametrize("text", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON.keys())
    def test_unparsable_manifest_prints_no_traceback(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(Path(vibroaudit.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "vibroaudit.cli", "features", "--manifest", str(path),
             "--out", str(tmp_path / "x.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith("error: manifest ") and "Traceback" not in done.stderr

    def test_empty_manifest_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"sessions": []}')
        rc = run("audit", "tones", "--manifest", str(manifest), "--out", str(tmp_path / "out"))
        assert rc == EXIT_ERROR
        assert "'sessions' list is empty" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_non_numeric_feature_csv_field_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "features.csv"
        device_shortcut_table().to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = "x"
        lines[3] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        rc = run(
            "audit", "covariate", "--features", str(csv_path),
            "--out", str(tmp_path / "out"),
        )
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "data row 3, column 'repetition_index': 'x' is not an integer" in err

    def test_spectrogram_csv_writes_one_file_per_session(self, tone_dataset, tmp_path):
        out = tmp_path / "out"
        rc = run(
            "audit", "tones", "--manifest", str(tone_dataset / "manifest.json"),
            "--spectrogram-csv", "--out", str(out),
        )
        assert rc in (EXIT_OK, EXIT_FLAGS)
        names = sorted(p.name for p in out.glob("spectrogram_*.csv"))
        assert names == [f"spectrogram_sess{i:03d}.csv" for i in range(6)]

    def test_spectrogram_csv_comes_from_the_session_stft_and_changes_nothing_else(
        self, tone_dataset, tmp_path
    ):
        manifest_path = tone_dataset / "manifest.json"
        plain, exported = tmp_path / "plain", tmp_path / "exported"
        for out, extra in ((plain, []), (exported, ["--spectrogram-csv"])):
            rc = run("audit", "tones", "--manifest", str(manifest_path), *extra,
                     "--out", str(out))
            assert rc in (EXIT_OK, EXIT_FLAGS)
        assert (plain / "tones.csv").read_bytes() == (exported / "tones.csv").read_bytes()
        assert canonical_json(strip_timing(read_report(plain / "report.json"))) == \
            canonical_json(strip_timing(read_report(exported / "report.json")))
        manifest = load_manifest(manifest_path)
        for rec in manifest.sessions:
            sig = ingest_wav(manifest.wav_file(rec))
            if sig.channels == 2:
                sig = Signal(sig.samples.mean(axis=1), sig.sample_rate)
            frame_len = _tone_frame_len(sig.sample_rate)
            spec = stft(sig, frame_len, frame_len // 2)
            ref = tmp_path / "reference.csv"
            write_series_csv(
                ref,
                ["frame_time_s"] + [f"{f:.3f}" for f in spec.bin_freqs],
                ([spec.frame_times[i]] + list(spec.magnitudes[i]) for i in range(spec.n_frames)),
            )
            written = exported / f"spectrogram_{rec.session_id}.csv"
            assert written.read_bytes() == ref.read_bytes()

    def test_non_finite_feature_csv_field_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "features.csv"
        device_shortcut_table().to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        for row, value in ((3, "nan"), (5, "inf")):
            fields = lines[row].split(",")
            fields[7] = value
            lines[row] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        rc = run(
            "audit", "covariate", "--features", str(csv_path),
            "--out", str(tmp_path / "out"),
        )
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"data row 3, column {header[7]!r}: 'nan' is not a finite number" in err

    @pytest.mark.parametrize("command", ["synth", "condition"])
    def test_seed_of_two_to_the_64_exits_one(self, tmp_path, capsys, command):
        seed = str(2**64)
        if command == "synth":
            argv = ["synth", "--scenario", "clean", "--subjects", "2",
                    "--repetitions", "1", "--duration", "0.5"]
        else:
            csv_path = tmp_path / "features.csv"
            device_shortcut_table().to_csv(csv_path)
            argv = ["audit", "condition", "--features", str(csv_path), "--repeats", "5"]
        rc = run(*argv, "--seed", seed, "--out", str(tmp_path / "out"))
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        prefix = "error: " if command == "synth" else "usage error: --seed: "
        assert err.startswith(prefix) and "master_seed" in err

    @pytest.mark.parametrize("option, value, message, analysis", [
        ("--seed", str(2**64), f"master_seed must be in [0, 2**64), got {2**64}", "condition"),
        ("--seed", "-3", "master_seed must be in [0, 2**64), got -3", "mixing"),
        ("--seed", "-1", "master_seed must be in [0, 2**64), got -1", "counterfactual"),
        ("--quantile", "0.7", "quantile must be in (0, 0.5), got 0.7", "condition"),
        ("--band-width-hz", "100", "band width must exceed 250 Hz, got 100.0", "band-scan"),
        ("--grid-degrees", "0,95", "rotation grid angle 95.0 outside [0, 90] degrees", "rotate"),
    ], ids=["seed-2**64", "seed-3", "seed-1", "quantile", "band-width", "grid"])
    @pytest.mark.parametrize("suite", [True, False], ids=["suite", "single"])
    def test_out_of_range_option_value_is_a_usage_error_before_any_section(
            self, tone_dataset, tmp_path, capsys, option, value, message, analysis, suite):
        csv_path = tmp_path / "device.csv"
        device_shortcut_table().to_csv(csv_path)
        out = tmp_path / "out"
        rc = run("audit", "suite" if suite else analysis,
                 "--manifest", str(tone_dataset / "manifest.json"), "--features", str(csv_path),
                 "--feature-pair", "f00,f01", "--repeats", "5", option, value, "--out", str(out))
        assert rc == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {option}: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", ["../escape", "a\\b", ".."])
    def test_spectrogram_csv_rejects_ids_that_are_not_file_names(
        self, tone_dataset, tmp_path, capsys, bad_id
    ):
        data = tmp_path / "data"
        shutil.copytree(tone_dataset, data)
        doc = json.loads((data / "manifest.json").read_text())
        doc["sessions"][1]["session_id"] = bad_id
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "deep" / "out"
        rc = run(
            "audit", "tones", "--manifest", str(data / "manifest.json"),
            "--spectrogram-csv", "--out", str(out),
        )
        assert rc == EXIT_ERROR
        assert "not a plain file name" in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.is_file() and p.parent != data]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("vibroaudit ")
