"""Audit report assembly: deterministic JSON plus plot-ready CSV series.

A report is a single JSON document carrying every analysis that ran,
the resolved configuration and its content digest, input provenance,
and the list of raised bias flags.  Each section builder also returns the
section's plot-ready CSV series (one value or one summary row per line),
built from the values the section holds, so external plotting needs no
JSON parsing.

Everything written here is byte-deterministic for fixed inputs: keys
are sorted, floats use shortest round-trip repr, and absolute paths
never enter the document (inputs are identified by content digest).
Wall-clock timings are the one exception; they live in ``timing_s``
fields that :func:`strip_timing` removes, so two runs can be compared
byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .audit import (
    GROUP_KEY,
    TARGET,
    TONE_PERSISTENCE_MIN,
    TONE_PROMINENCE_MIN_DB,
    BandScanResult,
    ConditioningResult,
    MixingCurveResult,
    PrevalenceResult,
    RelabelResult,
    RotationResult,
    ToneDetection,
    summarize_draws,
)
from .dataset import FeatureTable, read_json, write_json
from .errors import FormatError, ParameterError
from .learn import CvResult

SCHEMA_VERSION = 1

# flag thresholds; quantitative stand-ins for judgment calls the source
# analyses leave to the reader
PREVALENCE_ALPHA = 0.01
COVARIATE_FLAG_ACCURACY = 0.80
COUNTERFACTUAL_FLAG_DELTA = 0.15
COUNTERFACTUAL_FLAG_ACCURACY = 0.70

# a section's CSV series: file name -> (header, rows)
Series = dict[str, tuple[list[str], list]]


# ---------------------------------------------------------------------------
# canonical values


def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats -> None."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise ParameterError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    """Key-order-independent compact encoding used for digests."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_digest(config: Mapping) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def strip_timing(obj):
    """Copy with every ``timing_s`` field removed, for byte comparison."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing_s"}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


# ---------------------------------------------------------------------------
# the report document


@dataclass
class AuditReport:
    """All analysis outcomes of one run, serializable to stable JSON."""

    master_seed: int
    config: dict
    provenance: dict
    sections: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    skipped_sections: dict = field(default_factory=dict)
    timing_s: float | None = None
    tool_version: str = __version__

    def add_section(self, name: str, section: dict) -> None:
        """Every section records the run's seed and contributes its flags."""
        self.sections[name] = {**section, "seed": self.master_seed}
        self.flags.extend(section.get("flags", []))

    def skip_section(self, name: str, reason: str) -> None:
        self.skipped_sections[name] = reason

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "master_seed": self.master_seed,
            "config": self.config,
            "config_digest": config_digest(self.config),
            "provenance": self.provenance,
            "sections": self.sections,
            "skipped_sections": self.skipped_sections,
            "flags": self.flags,
        }
        if self.timing_s is not None:
            doc["timing_s"] = self.timing_s
        return jsonable(doc)

    def write(self, path) -> None:
        write_json(path, self.to_json_dict())


REQUIRED_REPORT_FIELDS = (
    "schema_version",
    "tool_version",
    "master_seed",
    "config",
    "config_digest",
    "sections",
    "flags",
)


def read_report(path) -> dict:
    """Parse a report document, tolerating fields this version never wrote.

    Unknown keys are preserved untouched so newer reports stay readable;
    only the structural skeleton is validated.
    """
    doc = read_json(path, "report", FormatError)
    if not isinstance(doc, dict):
        raise FormatError(f"report {path} must be a JSON object")
    missing = [k for k in REQUIRED_REPORT_FIELDS if k not in doc]
    if missing:
        raise FormatError(f"report {path} misses required fields: {missing}")
    if not isinstance(doc["schema_version"], int) or doc["schema_version"] < 1:
        raise FormatError(
            f"report {path} has invalid schema_version {doc['schema_version']!r}"
        )
    if not isinstance(doc["sections"], dict):
        raise FormatError(f"report {path}: sections must be an object")
    return doc


# ---------------------------------------------------------------------------
# CSV series


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return repr(v) if math.isfinite(v) else ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_series_csv(path, header: Sequence[str], rows) -> None:
    """One plot-ready series: a header row plus stringified value rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def distribution_summary(samples: np.ndarray) -> dict:
    """Mean, spread, and central 95% interval of the defined draws; the
    statistics are null when no draw is defined."""
    s = summarize_draws(samples, 0.025)
    return jsonable({
        "mean": s.mean, "std": s.std, "q025": s.lo, "q975": s.hi,
        "n_valid": s.n_valid, "n_invalid": s.n_invalid,
    })


# ---------------------------------------------------------------------------
# section builders


def _cv_summary(cv: CvResult) -> dict:
    return {
        "group_key": cv.group_key,
        "target": cv.target,
        "classes": list(cv.classes),
        "accuracy": cv.mean_repetition_accuracy,
        "subject_majority_accuracy": cv.subject_majority_accuracy,
        "per_group_accuracy": dict(cv.per_group_accuracy),
        "skipped_folds": dict(cv.skipped_folds),
        "confusion": {k: dict(v) for k, v in cv.confusion.items()},
    }


def _draws_series(index_name: str, draws: np.ndarray) -> tuple[list[str], list]:
    """One Monte-Carlo draw per row: its index and its accuracy, empty
    where undefined."""
    return [index_name, "accuracy"], list(enumerate(draws))


def band_scan_section(res: BandScanResult) -> tuple[dict, Series]:
    all_skipped = len(res.skipped) == len(res.bands)
    section = {
        "group_key": GROUP_KEY,
        "target": TARGET,
        "bands": [list(b) for b in res.bands],
        "accuracy": list(res.per_band_accuracy),
        "skipped": {str(i): reason for i, reason in res.skipped.items()},
        "per_band_fold_accuracy": {
            str(i): dict(cv.per_group_accuracy) for i, cv in res.cv.items()
        },
        "best_band": None if all_skipped else list(res.best_band()),
        "flags": [],
    }
    rows = [[lo, hi, acc] for (lo, hi), acc in zip(section["bands"], section["accuracy"])]
    return section, {"band_scan.csv": (["band_lo_hz", "band_hi_hz", "accuracy"], rows)}


# the scalar detection fields, in their tones.csv column order
_TONE_COLUMNS = ("center_freq_hz", "persistence", "prominence_db")


def _detection_dict(det: ToneDetection) -> dict:
    out = dict(vars(det))
    out["center_freq_hz"] = out.pop("center_freq")
    return out


def tones_section(detections: Mapping[str, Sequence[ToneDetection]]) -> tuple[dict, Series]:
    flags = []
    n_hit = sum(1 for dets in detections.values() if len(dets) > 0)
    if n_hit:
        # joint sounds are broadband transients; anything narrowband that
        # survives the persistence gate is an acquisition artifact
        flags.append(
            f"tone-artifact: persistent narrowband tone detected in "
            f"{n_hit} of {len(detections)} sessions"
        )
    sessions = {
        sid: [_detection_dict(d) for d in dets] for sid, dets in sorted(detections.items())
    }
    section = {
        "persistence_min": TONE_PERSISTENCE_MIN,
        "prominence_min_db": TONE_PROMINENCE_MIN_DB,
        "sessions": sessions,
        "n_sessions_with_detections": n_hit,
        "flags": flags,
    }
    rows = [
        [sid, *(d[c] for c in _TONE_COLUMNS), *d["bin_span"]]
        for sid, dets in sessions.items() for d in dets
    ]
    return section, {"tones.csv": (["session_id", *_TONE_COLUMNS, "bin_lo", "bin_hi"], rows)}


def prevalence_section(res: PrevalenceResult) -> tuple[dict, Series]:
    flags = []
    if res.p_value < PREVALENCE_ALPHA:
        richer = max(res.prevalence, key=lambda c: res.prevalence[c])
        flags.append(
            f"tone-prevalence: detections cooccur with class {richer!r} "
            f"(p={res.p_value:.3g} < {PREVALENCE_ALPHA})"
        )
    return {**vars(res), "alpha": PREVALENCE_ALPHA, "flags": flags}, {}


def covariate_section(
    results: Mapping[str, CvResult],
    not_evaluated: Mapping[str, str],
) -> tuple[dict, Series]:
    """``not_evaluated`` maps each covariate that could not be decoded to
    the reason."""
    flags = []
    for cov in sorted(results):
        acc = results[cov].mean_repetition_accuracy
        if acc >= COVARIATE_FLAG_ACCURACY:
            flags.append(
                f"covariate-predictable: {cov} decoded from the features at "
                f"{acc:.3f} (threshold {COVARIATE_FLAG_ACCURACY})"
            )
    return {
        "threshold": COVARIATE_FLAG_ACCURACY,
        "covariates": {cov: _cv_summary(cv) for cov, cv in sorted(results.items())},
        "not_evaluated": dict(not_evaluated),
        "flags": flags,
    }, {}


def conditioning_section(res: ConditioningResult) -> tuple[dict, Series]:
    flags = [
        f"conditioning-stratum: {res.covariate}={name} accuracy "
        f"{res.stratum_accuracy[name]:.3f} below the control "
        f"{res.quantile:.1%} cutoff {res.control_cutoff:.3f}"
        for name in res.flagged
    ]
    return {
        "covariate": res.covariate,
        "full_accuracy": res.full_accuracy,
        "stratum_accuracy": dict(res.stratum_accuracy),
        "stratum_notes": dict(res.stratum_notes),
        "control": {
            "mean": res.control_mean,
            "std": res.control_std,
            "cutoff": res.control_cutoff,
            "quantile": res.quantile,
            "fraction": res.control_fraction,
            "n_repeats": res.n_control_repeats,
            "n_invalid": res.n_control_invalid,
        },
        "flagged_strata": list(res.flagged),
        "flagged_for_review": res.flagged_for_review,
        "flags": flags,
    }, {"conditioning_control.csv": _draws_series("sample_index", res.control_samples)}


# the draw-summary statistics that mixing_curve.csv holds per curve
_MIXING_STATS = ("mean", "std", "q025", "q975", "n_valid")


def mixing_section(res: MixingCurveResult) -> tuple[dict, Series]:
    section = {
        **vars(res),
        "stratified": [distribution_summary(s) for s in res.stratified],
        "reference": [distribution_summary(s) for s in res.reference],
        "flags": [],
    }
    header = ["n_added", "total_sessions"] + [
        f"{kind}_{c}" for kind in ("stratified", "reference") for c in _MIXING_STATS
    ]
    rows = [
        [k, res.n_base_sessions + k, *(s[c] for c in _MIXING_STATS), *(r[c] for c in _MIXING_STATS)]
        for k, s, r in zip(res.counts, section["stratified"], section["reference"])
    ]
    return section, {"mixing_curve.csv": (header, rows)}


def rotation_section(res: RotationResult, pair_table: FeatureTable) -> tuple[dict, Series]:
    """``pair_table`` is the two-feature table the rotation ran on; its
    rows go to ``rotation_scatter.csv``."""
    side, health = pair_table.label(res.subgroup_key), pair_table.label(TARGET)
    scatter = [[x, y, s, h] for (x, y), s, h in zip(pair_table.matrix, side, health)]
    return {**vars(res), "flags": []}, {
        "rotation_curve.csv": (
            ["theta_degrees", "accuracy"], [[t, a] for t, a in res.accuracy_vs_rotation]
        ),
        "rotation_scatter.csv": ([*pair_table.feature_names, res.subgroup_key, TARGET], scatter),
    }


def counterfactual_section(
    res: RelabelResult, relabel: Mapping[str, tuple[str, str]]
) -> tuple[dict, Series]:
    flags = []
    # an undefined null (no defined draw) leaves the delta NaN, which never flags
    if (res.accuracy >= COUNTERFACTUAL_FLAG_ACCURACY
            and res.inflation_delta >= COUNTERFACTUAL_FLAG_DELTA):
        flags.append(
            f"counterfactual-inflation: regrouping scores {res.accuracy:.3f}, "
            f"{res.inflation_delta:.3f} above its permutation null"
        )
    return {
        "relabel": {g: list(v) for g, v in sorted(relabel.items())},
        "accuracy": res.accuracy,
        "cv": _cv_summary(res.cv),
        "null": {
            "n_permutations": int(len(res.null_accuracies)),
            "mean": res.null_mean,
            "std": res.null_std,
            "p_value": res.null_p_value,
        },
        "inflation_delta": res.inflation_delta,
        "min_delta": COUNTERFACTUAL_FLAG_DELTA,
        "min_accuracy": COUNTERFACTUAL_FLAG_ACCURACY,
        "flags": flags,
    }, {"counterfactual_null.csv": _draws_series("permutation_index", res.null_accuracies)}
