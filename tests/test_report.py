"""Report assembly: JSON stability, digests, section flags, CSV series."""

import json
import math
from dataclasses import replace

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
from vibroaudit.dataset import json_text
from vibroaudit.errors import FormatError, ParameterError
from vibroaudit.learn import loso_cv
from vibroaudit.report import (
    COUNTERFACTUAL_FLAG_ACCURACY,
    COUNTERFACTUAL_FLAG_DELTA,
    COVARIATE_FLAG_ACCURACY,
    PREVALENCE_ALPHA,
    AuditReport,
    band_scan_section,
    canonical_json,
    config_digest,
    conditioning_section,
    counterfactual_section,
    covariate_section,
    distribution_summary,
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


def _detection(freq=33_000.0):
    return ToneDetection(
        center_freq=freq,
        persistence=1.0,
        prominence_db=40.0,
        bin_span=(673, 679),
    )


def _below(x):
    """The largest float below ``x``."""
    return float(np.nextafter(x, -np.inf))


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

    def test_json_text_deterministic(self):
        text = json_text(self._report().to_json_dict())
        assert text == json_text(self._report().to_json_dict())
        assert text.endswith("\n")

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
    def test_tones_artifact_flag(self):
        detections = {
            "s1": [_detection(), _detection(21_000.0)],
            "s2": [_detection()],
            "s3": [],
        }
        sec, _ = tones_section(detections)
        assert sec["n_sessions_with_detections"] == 2
        assert sec["flags"] == ["tone-artifact: persistent narrowband tone detected in 2 of 3 sessions"]
        assert (sec["persistence_min"], sec["prominence_min_db"]) == (0.9, 6.0)

    def test_tones_clean_has_no_flags(self):
        sec, _ = tones_section({"s1": [], "s2": []})
        assert sec["flags"] == []
        assert sec["n_sessions_with_detections"] == 0

    def test_prevalence_flag_only_below_alpha(self):
        res = PrevalenceResult(
            classes=("Healthy", "Unhealthy"),
            counts={"Healthy": (0, 10), "Unhealthy": (10, 10)},
            prevalence={"Healthy": 0.0, "Unhealthy": 1.0},
            p_value=1e-5,
        )
        sec, series = prevalence_section(res)
        assert series == {}
        assert len(sec["flags"]) == 1
        assert "'Unhealthy'" in sec["flags"][0]

        mild = PrevalenceResult(
            classes=("Healthy", "Unhealthy"),
            counts={"Healthy": (1, 3), "Unhealthy": (3, 3)},
            prevalence={"Healthy": 1 / 3, "Unhealthy": 1.0},
            p_value=0.05,
        )
        assert prevalence_section(mild)[0]["flags"] == []

        # p must lie strictly below the constant
        assert prevalence_section(replace(res, p_value=PREVALENCE_ALPHA))[0]["flags"] == []
        assert len(prevalence_section(replace(res, p_value=_below(PREVALENCE_ALPHA)))[0]["flags"]) == 1

    def test_covariate_flag_threshold(self, device_table):
        cv = covariate_predictability(device_table, "device")
        sec, series = covariate_section({"device": cv}, {"side": "constant"})
        assert series == {}
        assert sec["not_evaluated"] == {"side": "constant"}
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("covariate-predictable: device")
        assert sec["covariates"]["device"]["target"] == "device"

        assert sec["threshold"] == COVARIATE_FLAG_ACCURACY

        at = replace(cv, mean_repetition_accuracy=COVARIATE_FLAG_ACCURACY)
        assert len(covariate_section({"device": at}, {})[0]["flags"]) == 1
        below = replace(cv, mean_repetition_accuracy=_below(COVARIATE_FLAG_ACCURACY))
        relaxed, _ = covariate_section({"device": below}, {})
        assert relaxed["flags"] == []
        assert relaxed["not_evaluated"] == {}

    def test_conditioning_flags_name_strata(self, conditioning_result):
        sec, _ = conditioning_section(conditioning_result)
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
        sec, _ = counterfactual_section(res, relabel)
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("counterfactual-inflation")
        assert sec["inflation_delta"] == pytest.approx(
            res.accuracy - res.null_mean
        )

        no_null = counterfactual_relabel(table, relabel, n_permutations=0, seed=0)
        assert counterfactual_section(no_null, relabel)[0]["flags"] == []

        # each threshold flags at the constant and not just below it
        assert res.accuracy >= COUNTERFACTUAL_FLAG_ACCURACY
        assert res.inflation_delta >= COUNTERFACTUAL_FLAG_DELTA
        for field, constant in (("accuracy", COUNTERFACTUAL_FLAG_ACCURACY),
                                ("inflation_delta", COUNTERFACTUAL_FLAG_DELTA)):
            at, _ = counterfactual_section(replace(res, **{field: constant}), relabel)
            assert len(at["flags"]) == 1
            strict, _ = counterfactual_section(replace(res, **{field: _below(constant)}), relabel)
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
        sec, _ = counterfactual_section(res, relabel)
        assert sec["null"]["mean"] == pytest.approx(0.5)
        assert sec["inflation_delta"] == res.accuracy - res.null_mean
        assert len(sec["flags"]) == 1
        assert sec["flags"][0].startswith("counterfactual-inflation")

    def test_informational_sections_never_flag(self, device_table):
        mix = incremental_mixing_curve(
            device_table, "device", "DL", "DR", counts=[1], repeats=8, seed=0
        )
        assert mixing_section(mix)[0]["flags"] == []
        pair = rotated_pair_table(n_subjects=6, reps=4)
        rot = rotation_analysis(pair, "side", [0.0, 10.0])
        assert rotation_section(rot, pair)[0]["flags"] == []

    def test_every_section_carries_its_seed(self, conditioning_result):
        rep = AuditReport(master_seed=11, config={}, provenance={})
        for name, (section, _) in {
            "tones": tones_section({"s": []}),
            "conditioning": conditioning_section(conditioning_result),
        }.items():
            assert "seed" not in section
            rep.add_section(name, section)
        assert all(s["seed"] == 11 for s in rep.sections.values())
        assert set(rep.sections) == {"tones", "conditioning"}


class TestBandScanSection:
    def _result(self):
        table = device_shortcut_table(n_subjects=4, reps=2)
        cv = loso_cv(table)
        return BandScanResult(
            bands=[(250.0, 10_000.0), (10_000.0, 10_100.0)],
            per_band_accuracy=np.array([cv.mean_repetition_accuracy, np.nan]),
            cv={0: cv},
            skipped={1: "band too narrow"},
        )

    def test_section_reports_skips_and_best_band(self):
        sec, _ = band_scan_section(self._result())
        assert (sec["group_key"], sec["target"]) == ("subject", "health")
        assert sec["bands"] == [[250.0, 10_000.0], [10_000.0, 10_100.0]]
        assert sec["skipped"] == {"1": "band too narrow"}
        assert sec["best_band"] == [250.0, 10_000.0]
        assert math.isnan(sec["accuracy"][1])
        assert sec["flags"] == []

    def test_csv_leaves_skipped_cells_empty(self, tmp_path):
        (name, (header, rows)), = band_scan_section(self._result())[1].items()
        assert name == "band_scan.csv"
        write_series_csv(tmp_path / "b.csv", header, rows)
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "band_lo_hz,band_hi_hz,accuracy"
        assert len(lines) == 3
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

    def test_tone_and_control_and_null_series(self, tmp_path, conditioning_result):
        series = tones_section({"s1": [_detection()], "s0": [], "a0": [_detection(21_000.0)]})[1]
        lines = _series_lines(tmp_path, series, "tones.csv")
        assert lines[0] == "session_id,center_freq_hz,persistence,prominence_db,bin_lo,bin_hi"
        # sessions in sorted order; one without detections writes no row
        assert lines[1:] == ["a0,21000.0,1.0,40.0,673,679", "s1,33000.0,1.0,40.0,673,679"]

        series = conditioning_section(conditioning_result)[1]
        lines = _series_lines(tmp_path, series, "conditioning_control.csv")
        assert lines[0] == "sample_index,accuracy"
        assert len(lines) == 1 + conditioning_result.n_control_repeats

        table = day_level_table()
        groups = sorted(set(table.label("session_id").tolist()))
        relabel = {
            g: (f"g{i}", "Healthy" if i < 2 else "Unhealthy")
            for i, g in enumerate(groups)
        }
        res = counterfactual_relabel(table, relabel, n_permutations=12, seed=0)
        res.null_accuracies[3] = np.nan
        lines = _series_lines(tmp_path, counterfactual_section(res, relabel)[1],
                              "counterfactual_null.csv")
        assert lines[0] == "permutation_index,accuracy"
        assert len(lines) == 13
        # an undefined draw leaves its accuracy cell empty
        assert lines[4] == "3,"

    def test_mixing_and_rotation_series(self, tmp_path, device_table):
        mix = incremental_mixing_curve(
            device_table, "device", "DL", "DR", counts=[1, 2], repeats=8, seed=0
        )
        section, series = mixing_section(mix)
        lines = _series_lines(tmp_path, series, "mixing_curve.csv")
        assert lines[0].split(",") == ["n_added", "total_sessions"] + [
            f"{kind}_{c}" for kind in ("stratified", "reference")
            for c in ("mean", "std", "q025", "q975", "n_valid")
        ]
        assert len(lines) == 3
        assert lines[1].split(",")[:2] == ["1", str(mix.n_base_sessions + 1)]
        # the rows restate the section's summaries
        assert lines[2].split(",")[2] == repr(section["stratified"][1]["mean"])

        pair = rotated_pair_table(n_subjects=6, reps=4)
        rot = rotation_analysis(pair, "side", [0.0, 45.0])
        series = rotation_section(rot, pair)[1]
        lines = _series_lines(tmp_path, series, "rotation_curve.csv")
        assert lines[0] == "theta_degrees,accuracy"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.0", "45.0"]
        lines = _series_lines(tmp_path, series, "rotation_scatter.csv")
        assert lines[0] == ",".join(pair.feature_names) + ",side,health"
        assert len(lines) == 1 + pair.n_rows
        x, y, side, health = lines[1].split(",")
        assert (float(x), float(y)) == tuple(pair.matrix[0])
        assert (side, health) == (pair.label("side")[0], pair.label("health")[0])


def _series_lines(tmp_path, series, name):
    """Write one series of a builder's ``series`` and read its lines back."""
    header, rows = series[name]
    write_series_csv(tmp_path / name, header, rows)
    return (tmp_path / name).read_text().splitlines()


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
