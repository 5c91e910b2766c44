"""Report assembly: JSON stability, digests, section flags, CSV series."""

import json
import math

import numpy as np
import pytest

import vibroaudit.audit as audit
from tablegen import day_level_table, device_shortcut_table, rotated_pair_table
from vibroaudit.audit import (
    BandScanResult,
    PrevalenceResult,
    ToneDetection,
    condition_on_covariate,
    counterfactual_relabel,
    covariate_predictability,
    incremental_mixing_curve,
    rotation_analysis,
)
from vibroaudit.errors import FormatError, ParameterError
from vibroaudit.learn import loso_cv
from vibroaudit.report import (
    AuditReport,
    band_scan_section,
    canonical_json,
    config_digest,
    conditioning_section,
    counterfactual_section,
    covariate_section,
    distribution_summary,
    emit_band_scan_csv,
    emit_draws_csv,
    emit_mixing_csv,
    emit_rotation_csv,
    emit_tones_csv,
    file_digest,
    jsonable,
    mixing_section,
    prevalence_section,
    read_report,
    rotation_section,
    strip_timing,
    tones_section,
    write_series_csv,
)


def _detection(freq=33_000.0, inactive=None):
    return ToneDetection(
        center_freq=freq,
        persistence=1.0,
        prominence_db=40.0,
        present_during_inactivity=inactive,
        bin_span=(673, 679),
    )


@pytest.fixture(scope="module")
def device_table():
    return device_shortcut_table()


@pytest.fixture(scope="module")
def conditioning_result(device_table):
    return condition_on_covariate(
        device_table, "device", control_repeats=60, seed=0
    )


class TestJsonable:
    def test_passthrough_and_numpy_conversion(self):
        doc = jsonable(
            {
                "a": np.float64(0.5),
                "b": np.int32(7),
                "c": np.bool_(True),
                "d": np.array([1.0, 2.0]),
                "e": (1, "x"),
                5: "numeric key",
            }
        )
        assert doc == {
            "a": 0.5, "b": 7, "c": True, "d": [1.0, 2.0],
            "e": [1, "x"], "5": "numeric key",
        }
        assert all(
            not isinstance(v, (np.generic, np.ndarray, tuple))
            for v in doc.values()
        )

    def test_non_finite_floats_become_null(self):
        assert jsonable(float("nan")) is None
        assert jsonable(float("inf")) is None
        assert jsonable(np.float64("nan")) is None
        assert jsonable({"x": [1.0, float("nan")]}) == {"x": [1.0, None]}

    def test_unsupported_type_raises(self):
        with pytest.raises(ParameterError, match="cannot serialize"):
            jsonable({"bad": {1, 2}})


class TestDigests:
    def test_digest_stable_under_key_reordering(self):
        a = {"seed": 3, "bands": [[250.0, 10_000.0]], "quantile": 0.025}
        b = {"quantile": 0.025, "seed": 3, "bands": [[250.0, 10_000.0]]}
        assert config_digest(a) == config_digest(b)
        assert canonical_json(a) == canonical_json(b)

    def test_digest_sensitive_to_values(self):
        a = {"seed": 3}
        assert config_digest(a) != config_digest({"seed": 4})

    def test_file_digest_tracks_content(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("one")
        d1 = file_digest(p)
        p.write_text("two")
        assert file_digest(p) != d1
        assert len(d1) == 64


class TestStripTiming:
    def test_removes_nested_timing_fields(self):
        doc = {
            "timing_s": 1.0,
            "sections": {"tones": {"timing_s": 0.2, "n": 3}},
            "list": [{"timing_s": 0.1, "keep": True}],
        }
        assert strip_timing(doc) == {
            "sections": {"tones": {"n": 3}},
            "list": [{"keep": True}],
        }

    def test_leaves_other_fields_alone(self):
        doc = {"a": 1, "b": [1, 2]}
        assert strip_timing(doc) == doc


class TestAuditReport:
    def _report(self):
        rep = AuditReport(master_seed=7, config={"x": 1}, provenance={"n": 2})
        rep.add_section("tones", {"seed": 7, "flags": ["tone-artifact: t"]})
        rep.add_section("prevalence", {"seed": 7, "flags": []})
        rep.skip_section("rotation", "needs a feature pair")
        return rep

    def test_add_section_collects_flags(self):
        rep = self._report()
        assert rep.flags == ["tone-artifact: t"]
        assert set(rep.sections) == {"tones", "prevalence"}
        assert rep.skipped_sections == {"rotation": "needs a feature pair"}

    def test_document_shape(self):
        doc = self._report().to_json_dict()
        assert doc["schema_version"] == 1
        assert doc["master_seed"] == 7
        assert doc["config_digest"] == config_digest({"x": 1})
        assert "timing_s" not in doc

    def test_dumps_deterministic(self):
        assert self._report().dumps() == self._report().dumps()
        assert self._report().dumps().endswith("\n")

    def test_write_read_round_trip(self, tmp_path):
        rep = self._report()
        rep.write(tmp_path / "report.json")
        doc = read_report(tmp_path / "report.json")
        assert doc == rep.to_json_dict()

    def test_reader_ignores_unknown_fields(self, tmp_path):
        doc = self._report().to_json_dict()
        doc["future_field"] = {"anything": [1, 2]}
        doc["sections"]["tones"]["future_metric"] = 0.25
        p = tmp_path / "future.json"
        p.write_text(json.dumps(doc))
        loaded = read_report(p)
        assert loaded["future_field"] == {"anything": [1, 2]}
        assert loaded["sections"]["tones"]["future_metric"] == 0.25

    def test_reader_rejects_malformed_documents(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ not json")
        with pytest.raises(FormatError, match="not valid JSON"):
            read_report(p)
        p.write_text("[1, 2]")
        with pytest.raises(FormatError, match="JSON object"):
            read_report(p)
        doc = self._report().to_json_dict()
        del doc["config_digest"]
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="config_digest"):
            read_report(p)
        doc = self._report().to_json_dict()
        doc["schema_version"] = "one"
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="schema_version"):
            read_report(p)

    @pytest.mark.parametrize(
        "text", ["[" * 100_000 + "]" * 100_000, '{"master_seed": ' + "1" * 5_000 + "}"],
        ids=["deep", "long-int"],
    )
    def test_reader_refuses_json_that_python_cannot_parse(self, tmp_path, text):
        p = tmp_path / "report.json"
        p.write_text(text)
        with pytest.raises(FormatError, match="not valid JSON"):
            read_report(p)


class TestSectionFlags:
    def test_tones_artifact_and_inactivity_flags(self):
        detections = {
            "s1": [_detection(inactive=True)],
            "s2": [_detection()],
            "s3": [],
        }
        sec = tones_section(detections, 0, 0.9, 6.0)
        assert sec["n_sessions_with_detections"] == 2
        assert any(f.startswith("tone-artifact: ") for f in sec["flags"])
        assert any("2 of 3 sessions" in f for f in sec["flags"])
        inactive = [f for f in sec["flags"] if f.startswith("tone-inactive")]
        assert len(inactive) == 1 and "s1" in inactive[0]

    def test_tones_clean_has_no_flags(self):
        sec = tones_section({"s1": [], "s2": []}, 0, 0.9, 6.0)
        assert sec["flags"] == []
        assert sec["n_sessions_with_detections"] == 0

    def test_prevalence_flag_only_below_alpha(self):
        res = PrevalenceResult(
            classes=("Healthy", "Unhealthy"),
            counts={"Healthy": (0, 10), "Unhealthy": (10, 10)},
            prevalence={"Healthy": 0.0, "Unhealthy": 1.0},
            p_value=1e-5,
        )
        sec = prevalence_section(res, 0)
        assert len(sec["flags"]) == 1
        assert "'Unhealthy'" in sec["flags"][0]

        mild = PrevalenceResult(
            classes=("Healthy", "Unhealthy"),
            counts={"Healthy": (1, 3), "Unhealthy": (3, 3)},
            prevalence={"Healthy": 1 / 3, "Unhealthy": 1.0},
            p_value=0.05,
        )
        assert prevalence_section(mild, 0)["flags"] == []

    def test_covariate_flag_threshold(self, device_table):
        cv = covariate_predictability(device_table, "device")
        sec = covariate_section({"device": cv}, 0)
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("covariate-predictable: device")
        assert sec["covariates"]["device"]["target"] == "device"

        relaxed = covariate_section({"device": cv}, 0, threshold=2.0)
        assert relaxed["flags"] == []

    def test_conditioning_flags_name_strata(self, conditioning_result):
        sec = conditioning_section(conditioning_result, 0)
        assert sec["flagged_strata"] == ["DL"]
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("conditioning-stratum: device=DL")
        # the comparability warning is routed to reviewers, not to CI flags
        assert sec["flagged_for_review"] in (True, False)
        assert all("review" not in f for f in sec["flags"])
        assert sec["control"]["n_repeats"] == 60

    def test_counterfactual_flag_needs_null_and_both_thresholds(self):
        table = day_level_table()
        groups = sorted(set(table.label("session_id").tolist()))
        relabel = {
            g: (f"group-{i:02d}", "Healthy" if i < 2 else "Unhealthy")
            for i, g in enumerate(groups)
        }
        res = counterfactual_relabel(table, relabel, n_permutations=40, seed=0)
        sec = counterfactual_section(res, 0, relabel)
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("counterfactual-inflation")
        assert sec["inflation_delta"] == pytest.approx(
            res.accuracy - res.null_mean
        )

        no_null = counterfactual_relabel(table, relabel, n_permutations=0, seed=0)
        assert counterfactual_section(no_null, 0, relabel)["flags"] == []

        strict = counterfactual_section(res, 0, relabel, min_accuracy=1.01)
        assert strict["flags"] == []

    def test_undefined_null_draws_do_not_suppress_the_counterfactual_flag(self, monkeypatch):
        table = day_level_table()
        relabel = {
            g: (f"group-{i:02d}", "Healthy" if i < 2 else "Unhealthy")
            for i, g in enumerate(sorted(set(table.label("session_id").tolist())))
        }
        null = np.array([0.5, np.nan, 0.4, 0.6, np.nan])
        monkeypatch.setattr(audit, "_draw_accuracies", lambda keys, build: null)
        res = counterfactual_relabel(table, relabel, n_permutations=5, seed=0)
        sec = counterfactual_section(res, 0, relabel)
        assert sec["null"]["mean"] == pytest.approx(0.5)
        assert sec["inflation_delta"] == res.accuracy - res.null_mean
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("counterfactual-inflation")

    def test_informational_sections_never_flag(self, device_table):
        mix = incremental_mixing_curve(
            device_table, "device", "DL", "DR", counts=[1], repeats=8, seed=0
        )
        assert mixing_section(mix, 0)["flags"] == []
        rot = rotation_analysis(
            rotated_pair_table(n_subjects=6, reps=4), "side", [0.0, 10.0]
        )
        assert rotation_section(rot, 0)["flags"] == []

    def test_every_section_carries_its_seed(self, conditioning_result):
        secs = [
            tones_section({"s": []}, 11, 0.9, 6.0),
            conditioning_section(conditioning_result, 11),
        ]
        assert all(s["seed"] == 11 for s in secs)


class TestBandScanSection:
    def _result(self):
        table = device_shortcut_table(n_subjects=4, reps=2)
        cv = loso_cv(table)
        return BandScanResult(
            bands=[(250.0, 10_000.0), (10_000.0, 10_100.0)],
            per_band_accuracy=np.array([cv.mean_repetition_accuracy, np.nan]),
            cv={0: cv},
            skipped={1: "band too narrow"},
            group_key="subject",
            target="health",
        )

    def test_section_reports_skips_and_best_band(self):
        sec = band_scan_section(self._result(), 0)
        assert sec["bands"] == [[250.0, 10_000.0], [10_000.0, 10_100.0]]
        assert sec["skipped"] == {"1": "band too narrow"}
        assert sec["best_band"] == [250.0, 10_000.0]
        assert math.isnan(sec["accuracy"][1])
        assert sec["flags"] == []

    def test_csv_leaves_skipped_cells_empty(self, tmp_path):
        emit_band_scan_csv(tmp_path / "b.csv", self._result())
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "band_lo_hz,band_hi_hz,accuracy"
        assert lines[2].startswith("10000.0,10100.0,")
        assert lines[2].endswith(",")


class TestCsvSeries:
    def test_cell_formats(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(
            p,
            ["a", "b", "c", "d"],
            [[0.5, float("nan"), True, None], [np.int64(3), "x", False, 1.25]],
        )
        assert p.read_text() == "a,b,c,d\n0.5,,true,\n3,x,false,1.25\n"

    def test_rewrite_is_byte_identical(self, tmp_path):
        rows = [[i, i / 7.0] for i in range(20)]
        write_series_csv(tmp_path / "a.csv", ["i", "v"], rows)
        write_series_csv(tmp_path / "b.csv", ["i", "v"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_tone_and_control_and_null_emitters(self, tmp_path, conditioning_result):
        emit_tones_csv(tmp_path / "t.csv", {"s1": [_detection()], "s0": []})
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0].startswith("session_id,center_freq_hz")
        assert len(lines) == 2 and lines[1].startswith("s1,33000.0")

        emit_draws_csv(tmp_path / "c.csv", "sample_index", conditioning_result.control_samples)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "sample_index,accuracy"
        assert len(lines) == 1 + conditioning_result.n_control_repeats

        table = day_level_table()
        groups = sorted(set(table.label("session_id").tolist()))
        relabel = {
            g: (f"g{i}", "Healthy" if i < 2 else "Unhealthy")
            for i, g in enumerate(groups)
        }
        res = counterfactual_relabel(table, relabel, n_permutations=12, seed=0)
        emit_draws_csv(tmp_path / "n.csv", "permutation_index", res.null_accuracies)
        lines = (tmp_path / "n.csv").read_text().splitlines()
        assert lines[0] == "permutation_index,accuracy"
        assert len(lines) == 13

    def test_mixing_and_rotation_emitters(self, tmp_path, device_table):
        mix = incremental_mixing_curve(
            device_table, "device", "DL", "DR", counts=[1, 2], repeats=8, seed=0
        )
        emit_mixing_csv(tmp_path / "m.csv", mix)
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["n_added", "total_sessions"]
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"

        rot = rotation_analysis(
            rotated_pair_table(n_subjects=6, reps=4), "side", [0.0, 45.0]
        )
        emit_rotation_csv(tmp_path / "r.csv", rot)
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "theta_degrees,accuracy"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.0", "45.0"]


class TestDistributionSummary:
    def test_nan_aware_summary(self):
        s = distribution_summary(np.array([0.5, np.nan, 0.7, 0.6]))
        assert s["n_valid"] == 3 and s["n_invalid"] == 1
        assert s["mean"] == pytest.approx(0.6)
        assert s["q025"] <= s["mean"] <= s["q975"]

    def test_all_invalid(self):
        s = distribution_summary(np.array([np.nan, np.nan]))
        assert s == {
            "mean": None, "std": None, "q025": None, "q975": None,
            "n_valid": 0, "n_invalid": 2,
        }
