"""Audit report assembly: deterministic JSON plus plot-ready CSV series.

A report is a single JSON document carrying every analysis that ran,
the resolved configuration and its content digest, input provenance,
and the list of raised bias flags.  Accuracy-distribution data
additionally lands in small CSV files (one value or one summary row per
line) so external plotting needs no JSON parsing.

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
    BandScanResult,
    ConditioningResult,
    MixingCurveResult,
    PrevalenceResult,
    RelabelResult,
    RotationResult,
    ToneDetection,
    summarize_draws,
)
from .dataset import json_text, read_json, write_json
from .errors import FormatError, ParameterError
from .learn import CvResult

SCHEMA_VERSION = 1

# flag thresholds; quantitative stand-ins for judgment calls the source
# analyses leave to the reader
PREVALENCE_ALPHA = 0.01
COVARIATE_FLAG_ACCURACY = 0.80
COUNTERFACTUAL_FLAG_DELTA = 0.15
COUNTERFACTUAL_FLAG_ACCURACY = 0.70


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
        self.sections[name] = section
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

    def dumps(self) -> str:
        return json_text(self.to_json_dict())

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


def band_scan_section(res: BandScanResult, seed: int) -> dict:
    all_skipped = len(res.skipped) == len(res.bands)
    return {
        "seed": seed,
        "group_key": res.group_key,
        "target": res.target,
        "bands": [list(b) for b in res.bands],
        "accuracy": list(res.per_band_accuracy),
        "skipped": {str(i): reason for i, reason in res.skipped.items()},
        "per_band_fold_accuracy": {
            str(i): dict(cv.per_group_accuracy) for i, cv in res.cv.items()
        },
        "best_band": None if all_skipped else list(res.best_band()),
        "flags": [],
    }


def _detection_dict(det: ToneDetection) -> dict:
    out = dict(vars(det))
    out["center_freq_hz"] = out.pop("center_freq")
    return out


def tones_section(
    detections: Mapping[str, Sequence[ToneDetection]],
    seed: int,
    persistence_min: float,
    prominence_min_db: float,
) -> dict:
    flags = []
    n_hit = sum(1 for dets in detections.values() if len(dets) > 0)
    if n_hit:
        # joint sounds are broadband transients; anything narrowband that
        # survives the persistence gate is an acquisition artifact
        flags.append(
            f"tone-artifact: persistent narrowband tone detected in "
            f"{n_hit} of {len(detections)} sessions"
        )
    for sid in sorted(detections):
        for det in detections[sid]:
            if det.present_during_inactivity:
                flags.append(
                    f"tone-inactive: session {sid} holds a "
                    f"{det.center_freq:.0f} Hz component through rest periods"
                )
    return {
        "seed": seed,
        "persistence_min": persistence_min,
        "prominence_min_db": prominence_min_db,
        "sessions": {
            sid: [_detection_dict(d) for d in dets]
            for sid, dets in sorted(detections.items())
        },
        "n_sessions_with_detections": n_hit,
        "flags": flags,
    }


def prevalence_section(
    res: PrevalenceResult, seed: int, alpha: float = PREVALENCE_ALPHA
) -> dict:
    flags = []
    if res.p_value < alpha:
        richer = max(res.prevalence, key=lambda c: res.prevalence[c])
        flags.append(
            f"tone-prevalence: detections cooccur with class {richer!r} "
            f"(p={res.p_value:.3g} < {alpha})"
        )
    return {"seed": seed, **vars(res), "alpha": alpha, "flags": flags}


def covariate_section(
    results: Mapping[str, CvResult],
    seed: int,
    threshold: float = COVARIATE_FLAG_ACCURACY,
) -> dict:
    flags = []
    for cov in sorted(results):
        acc = results[cov].mean_repetition_accuracy
        if acc >= threshold:
            flags.append(
                f"covariate-predictable: {cov} decoded from the features at "
                f"{acc:.3f} (threshold {threshold})"
            )
    return {
        "seed": seed,
        "threshold": threshold,
        "covariates": {cov: _cv_summary(cv) for cov, cv in sorted(results.items())},
        "flags": flags,
    }


def conditioning_section(res: ConditioningResult, seed: int) -> dict:
    flags = [
        f"conditioning-stratum: {res.covariate}={name} accuracy "
        f"{res.stratum_accuracy[name]:.3f} below the control "
        f"{res.quantile:.1%} cutoff {res.control_cutoff:.3f}"
        for name in res.flagged
    ]
    return {
        "seed": seed,
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
    }


def mixing_section(res: MixingCurveResult, seed: int) -> dict:
    return {
        "seed": seed,
        **vars(res),
        "stratified": [distribution_summary(s) for s in res.stratified],
        "reference": [distribution_summary(s) for s in res.reference],
        "flags": [],
    }


def rotation_section(res: RotationResult, seed: int) -> dict:
    return {"seed": seed, **vars(res), "flags": []}


def counterfactual_section(
    res: RelabelResult,
    seed: int,
    relabel: Mapping[str, tuple[str, str]],
    min_delta: float = COUNTERFACTUAL_FLAG_DELTA,
    min_accuracy: float = COUNTERFACTUAL_FLAG_ACCURACY,
) -> dict:
    flags = []
    # an undefined null (no defined draw) leaves the delta NaN, which never flags
    if res.accuracy >= min_accuracy and res.inflation_delta >= min_delta:
        flags.append(
            f"counterfactual-inflation: regrouping scores {res.accuracy:.3f}, "
            f"{res.inflation_delta:.3f} above its permutation null"
        )
    return {
        "seed": seed,
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
        "min_delta": min_delta,
        "min_accuracy": min_accuracy,
        "flags": flags,
    }


# ---------------------------------------------------------------------------
# CSV emissions per section


def emit_band_scan_csv(path, res: BandScanResult) -> None:
    rows = [
        [lo, hi, res.per_band_accuracy[i]]
        for i, (lo, hi) in enumerate(res.bands)
    ]
    write_series_csv(path, ["band_lo_hz", "band_hi_hz", "accuracy"], rows)


def emit_tones_csv(path, detections: Mapping[str, Sequence[ToneDetection]]) -> None:
    rows = []
    for sid in sorted(detections):
        for det in detections[sid]:
            rows.append(
                [
                    sid,
                    det.center_freq,
                    det.persistence,
                    det.prominence_db,
                    det.present_during_inactivity,
                    det.bin_span[0],
                    det.bin_span[1],
                ]
            )
    write_series_csv(
        path,
        [
            "session_id", "center_freq_hz", "persistence", "prominence_db",
            "present_during_inactivity", "bin_lo", "bin_hi",
        ],
        rows,
    )


def emit_mixing_csv(path, res: MixingCurveResult) -> None:
    header = ["n_added", "total_sessions"]
    for kind in ("stratified", "reference"):
        header += [f"{kind}_{c}" for c in ("mean", "std", "q025", "q975", "n_valid")]
    rows = []
    for j, k in enumerate(res.counts):
        s = distribution_summary(res.stratified[j])
        r = distribution_summary(res.reference[j])
        rows.append(
            [k, res.n_base_sessions + k]
            + [s[c] for c in ("mean", "std", "q025", "q975", "n_valid")]
            + [r[c] for c in ("mean", "std", "q025", "q975", "n_valid")]
        )
    write_series_csv(path, header, rows)


def emit_rotation_csv(path, res: RotationResult) -> None:
    rows = [[t, a] for t, a in res.accuracy_vs_rotation]
    write_series_csv(path, ["theta_degrees", "accuracy"], rows)


def emit_draws_csv(path, index_name: str, draws: np.ndarray) -> None:
    """One Monte-Carlo draw per row: its index and its accuracy, empty
    where undefined."""
    write_series_csv(path, [index_name, "accuracy"], enumerate(draws))
