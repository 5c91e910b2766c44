"""Bias-detection battery for leave-one-subject-out biomarker pipelines.

A cross-validated accuracy well above chance proves only that *something*
label-correlated lives in the features.  Whether that something is the
biomarker or a recording artifact is a causal question, and every analysis
in this module is a way of asking it with the data alone:

* :func:`band_scan` localizes the discriminative signal in frequency; a
  physiologically implausible band winning the scan is a red flag.
* :func:`detect_persistent_tones` looks for narrowband components that sit
  at constant frequency through the whole recording, machinery-style.
* :func:`tone_prevalence_by_label` asks whether such components co-occur
  with one class more than chance allows.
* :func:`covariate_predictability` reruns the identical pipeline with a
  nuisance covariate (device, side) as the prediction target; high accuracy
  there means the features encode the covariate.
* :func:`condition_on_covariate` compares per-stratum accuracy against a
  distribution of equally sized random subsamples, so "accuracy collapses
  inside a stratum" can be told apart from "small datasets are noisy".
* :func:`incremental_mixing_curve` watches accuracy evolve as one stratum
  is mixed into another, against a reference of random compositions.
* :func:`rotation_analysis` measures the angle between subgroup principal
  axes in a 2-feature plane and reruns the classifier with the angle set to
  chosen values, separating "the subgroups differ in distribution" from
  "the classes differ".
* :func:`counterfactual_relabel` reruns the pipeline under a hypothetical
  regrouping (sessions as subjects, days as subjects, ...) and compares
  against a permutation null of the same class balance.

Everything is deterministic given (inputs, seed): stochastic steps draw
from per-item counter-based streams, so parallel execution and repetition
order cannot change any number.  The Monte-Carlo analyses (conditioning,
mixing, rotation, counterfactual) draw first and score each distinct draw
once, since a draw's accuracy is a pure function of what was drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Mapping, Sequence

import numpy as np
from scipy.ndimage import median_filter

from ._parallel import pmap
from ._rng import stream, substream_id
from .dataset import (
    FeatureConfig,
    FeatureTable,
    Manifest,
    extract_table,  # noqa: F401  unused here; perfbench/spans.py patches audit.extract_table
    extract_tables,
    ingest_wav,
)
from .dsp import Spectrogram, mel_filterbank
from .errors import DegeneracyError, ParameterError
from .learn import (
    CvResult,
    loso_cv,
    pca2,
)

AUDIT_COVARIATES = ("device", "side", "subject")


# ---------------------------------------------------------------------------
# band scan


@dataclass
class BandScanResult:
    """Per-band leave-one-group-out accuracy.

    ``per_band_accuracy`` is aligned with ``bands`` and holds NaN for
    skipped bands; ``skipped`` maps band index to the reason.  ``cv``
    keeps the full fold-level result of every band that ran.
    """

    bands: list[tuple[float, float]]
    per_band_accuracy: np.ndarray
    cv: dict[int, CvResult]
    skipped: dict[int, str]
    group_key: str
    target: str

    def best_band(self) -> tuple[float, float]:
        if np.all(np.isnan(self.per_band_accuracy)):
            raise ParameterError("band scan has no scored band")
        return self.bands[int(np.nanargmax(self.per_band_accuracy))]


def _validate_bands(bands: Sequence[tuple[float, float]], nyquist: float) -> None:
    if not bands:
        raise ParameterError("band plan is empty")
    prev_hi = 0.0
    for lo, hi in bands:
        if not (0 < lo < hi):
            raise ParameterError(f"need 0 < lo < hi, got band ({lo}, {hi})")
        if hi > nyquist:
            raise ParameterError(
                f"band ({lo}, {hi}) exceeds the Nyquist frequency {nyquist}"
            )
        if lo < prev_hi:
            raise ParameterError("bands must be ascending and non-overlapping")
        prev_hi = hi


def band_scan(
    manifest: Manifest,
    bands: Sequence[tuple[float, float]],
    cfg: FeatureConfig,
    group_key: str = "subject",
    target: str = "health",
) -> BandScanResult:
    """Re-extract features inside each band and rerun the classifier.

    Each band gets its own band-pass and its own mel analysis range, so
    the per-band accuracy reflects only information inside that band.  A
    band too narrow for the mel grid to resolve (some triangular filter
    covers no FFT bin) is skipped with a reason instead of producing
    coefficients made of log-floor noise.  Each session is read and
    segmented once for all bands.
    """
    if len({rec.subject_id for rec in manifest.sessions}) < 2:
        raise ParameterError("band scan needs >= 2 subjects")
    probe = ingest_wav(manifest.wav_file(manifest.sessions[0]))
    _validate_bands(bands, probe.sample_rate / 2.0)

    accs = np.full(len(bands), np.nan)
    skipped: dict[int, str] = {}
    scored: dict[int, FeatureConfig] = {}
    for i, (lo, hi) in enumerate(bands):
        band_cfg = cfg if (lo, hi) == (cfg.band_lo, cfg.band_hi) else replace(
            cfg, band_lo=lo, band_hi=hi, mfcc=replace(cfg.mfcc, fmin=lo, fmax=hi)
        )
        m = band_cfg.mfcc
        frame_len = m.frame_len(probe.sample_rate)
        n_fft = 1 << (frame_len - 1).bit_length()
        fbank = mel_filterbank(m.n_mels, n_fft, probe.sample_rate, lo, hi)
        empty = int(np.sum(fbank.sum(axis=1) == 0))
        if empty:
            skipped[i] = (
                f"band ({lo}, {hi}) Hz is too narrow for the mel grid: "
                f"{empty} of {m.n_mels} filters cover no FFT bin"
            )
            continue
        scored[i] = band_cfg
    tables = extract_tables(manifest, list(scored.values()))
    cvs = {i: loso_cv(t, group_key=group_key, target=target) for i, t in zip(scored, tables)}
    for i, cv in cvs.items():
        accs[i] = cv.mean_repetition_accuracy
    return BandScanResult(
        bands=[(float(lo), float(hi)) for lo, hi in bands],
        per_band_accuracy=accs,
        cv=cvs,
        skipped=skipped,
        group_key=group_key,
        target=target,
    )


# ---------------------------------------------------------------------------
# persistent narrowband components


@dataclass
class ToneDetection:
    """One narrowband component that stays put across frames.

    ``persistence`` is the fraction of frames in which any member bin
    rises above the prominence threshold; ``prominence_db`` is the median
    prominence over those frames, so it always exceeds the detection
    threshold.  ``present_during_inactivity`` is None when no inactivity
    mask was supplied.
    """

    center_freq: float
    persistence: float
    prominence_db: float
    present_during_inactivity: bool | None
    bin_span: tuple[int, int]


def detect_persistent_tones(
    spec: Spectrogram,
    persistence_min: float = 0.9,
    prominence_min_db: float = 6.0,
    inactivity_mask: np.ndarray | None = None,
    median_window_hz: float = 2000.0,
) -> list[ToneDetection]:
    """Find frequency bins that outshine their spectral neighborhood in
    nearly every frame.

    Prominence is the ratio of bin power to the running median across
    neighboring bins, so the detector is invariant to scaling the whole
    signal.  Adjacent flagged bins merge into a single detection at their
    power-weighted center frequency.
    """
    if spec.n_frames < 20:
        raise ParameterError(
            f"persistence needs >= 20 frames, got {spec.n_frames}"
        )
    if not (0 < persistence_min <= 1):
        raise ParameterError(f"persistence_min must be in (0, 1], got {persistence_min}")
    if prominence_min_db <= 0:
        raise ParameterError(f"prominence_min_db must be > 0, got {prominence_min_db}")
    if median_window_hz <= 0:
        raise ParameterError(f"median_window_hz must be > 0, got {median_window_hz}")
    if inactivity_mask is not None:
        inactivity_mask = np.asarray(inactivity_mask, dtype=bool)
        if inactivity_mask.shape != (spec.n_frames,):
            raise ParameterError(
                f"inactivity mask must have one flag per frame ({spec.n_frames})"
            )
        if not inactivity_mask.any():
            raise ParameterError("inactivity mask selects no frames")

    power = spec.magnitudes**2
    df = float(spec.bin_freqs[1] - spec.bin_freqs[0])
    w = max(3, int(round(median_window_hz / df)) | 1)
    local_median = median_filter(power, size=(1, w), mode="nearest")
    threshold = 10.0 ** (prominence_min_db / 10.0)
    above = power > local_median * threshold

    per_bin = above.mean(axis=0)
    flagged = per_bin >= persistence_min

    detections: list[ToneDetection] = []
    b = 0
    n_bins = spec.n_bins
    while b < n_bins:
        if not flagged[b]:
            b += 1
            continue
        b1 = b
        while b1 + 1 < n_bins and flagged[b1 + 1]:
            b1 += 1
        members = slice(b, b1 + 1)
        weights = power[:, members].mean(axis=0)
        center = float(np.sum(spec.bin_freqs[members] * weights) / np.sum(weights))
        hit_frames = above[:, members].any(axis=1)
        # ratio of the loudest member bin to its local median, per frame
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                local_median[:, members] > 0,
                power[:, members] / np.maximum(local_median[:, members], 1e-300),
                np.where(power[:, members] > 0, np.inf, 1.0),
            ).max(axis=1)
        prominence_db = float(10.0 * np.log10(np.median(ratio[hit_frames])))
        inactive: bool | None = None
        if inactivity_mask is not None:
            inactive = bool(hit_frames[inactivity_mask].mean() >= persistence_min)
        detections.append(
            ToneDetection(
                center_freq=center,
                persistence=float(hit_frames.mean()),
                prominence_db=prominence_db,
                present_during_inactivity=inactive,
                bin_span=(b, b1),
            )
        )
        b = b1 + 1
    return detections


# ---------------------------------------------------------------------------
# prevalence association


@dataclass
class PrevalenceResult:
    """Per-class detection prevalence with an exact association p-value.

    ``counts`` maps class -> (sessions with a detection, sessions total);
    the p-value is the two-sided exact hypergeometric tail at the observed
    2x2 table, computed in integer arithmetic.
    """

    classes: tuple[str, str]
    counts: dict[str, tuple[int, int]]
    prevalence: dict[str, float]
    p_value: float


def _exact_association_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sided exact p for a 2x2 table with fixed margins.

    Sums hypergeometric probabilities no larger than the observed table's.
    Weights share the denominator C(n1+n2, k1+k2), so the comparison is
    exact integer arithmetic with no floating tolerance.
    """
    total = k1 + k2
    observed = comb(n1, k1) * comb(n2, k2)
    acc = 0
    for x in range(max(0, total - n2), min(n1, total) + 1):
        wx = comb(n1, x) * comb(n2, total - x)
        if wx <= observed:
            acc += wx
    return acc / comb(n1 + n2, total)


def tone_prevalence_by_label(
    detections: Mapping[str, object],
    labels: Mapping[str, str],
) -> PrevalenceResult:
    """Association between per-session detections and a binary label.

    ``detections`` maps session id to either a boolean or the session's
    detection list (empty meaning none).  Every labeled session needs an
    entry; a tone present in everyone associates with nothing (p = 1).
    """
    missing = sorted(set(labels) - set(detections))
    if missing:
        raise ParameterError(f"sessions without detection entries: {missing}")
    classes = tuple(sorted(set(labels.values())))
    if len(classes) != 2:
        raise ParameterError(f"need exactly 2 classes, got {list(classes)}")

    counts: dict[str, tuple[int, int]] = {}
    for cls in classes:
        ids = [s for s, v in labels.items() if v == cls]
        if not ids:
            raise ParameterError(f"class {cls!r} has no sessions")
        hit = 0
        for s in ids:
            v = detections[s]
            hit += int(bool(v) if isinstance(v, (bool, np.bool_)) else len(v) > 0)
        counts[cls] = (hit, len(ids))
    (k1, n1), (k2, n2) = counts[classes[0]], counts[classes[1]]
    return PrevalenceResult(
        classes=(str(classes[0]), str(classes[1])),
        counts=counts,
        prevalence={cls: k / n for cls, (k, n) in counts.items()},
        p_value=_exact_association_p(k1, n1, k2, n2),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo draws


def _draw_accuracies(keys: Sequence, build, group_key: str, target: str) -> np.ndarray:
    """LOSO accuracy of every draw, scoring each distinct key once.

    ``build(key)`` gives the draw's table, or None where the cross
    validation is undefined (NaN); a key fully determines its accuracy.
    """

    def score(key) -> float:
        sub = build(key)
        if sub is None:
            return float("nan")
        return loso_cv(sub, group_key=group_key, target=target).mean_repetition_accuracy

    unique = list(dict.fromkeys(keys))
    acc_of = dict(zip(unique, pmap(score, unique)))
    return np.array([acc_of[key] for key in keys], dtype=np.float64)


def _rows_in(table: FeatureTable, column: str, key, group_key: str, target: str):
    """Rows whose ``column`` is in ``key``; None unless 2 classes and 2 groups remain."""
    chosen = set(key)
    sub = table.select(np.array([v in chosen for v in table.label(column)]))
    if min(len(set(sub.label(c).tolist())) for c in (target, group_key)) < 2:
        return None
    return sub


# ---------------------------------------------------------------------------
# covariate predictability


def covariate_predictability(
    table: FeatureTable,
    covariate: str,
    group_key: str | None = None,
) -> CvResult:
    """Rerun the identical pipeline with a nuisance covariate as target.

    Groups default to subjects, or to sessions when the covariate is the
    subject itself.  If every fold is skipped (each group carries its own
    covariate value, so training sets are single-class) the cross
    validation is impossible and an error is raised.
    """
    if covariate not in AUDIT_COVARIATES:
        raise ParameterError(
            f"covariate must be one of {AUDIT_COVARIATES}, got {covariate!r}"
        )
    values = set(table.label(covariate).tolist())
    if len(values) < 2:
        raise ParameterError(
            f"covariate {covariate!r} is constant ({values.pop()!r}); nothing to predict"
        )
    if group_key is None:
        group_key = "subject" if covariate != "subject" else "session_id"
    cv = loso_cv(table, group_key=group_key, target=covariate)
    if not cv.per_group_accuracy:
        raise ParameterError(
            f"leave-one-{group_key}-out on target {covariate!r} scored no fold: "
            f"{sorted(cv.skipped_folds.values())[0]}"
        )
    return cv


# ---------------------------------------------------------------------------
# conditioning on a covariate


@dataclass
class ConditioningResult:
    """Stratified accuracy against a random-subsample control.

    ``stratum_accuracy`` holds NaN for strata where the cross validation
    is undefined (single class or single group inside the stratum), with
    the reason in ``stratum_notes``.  A stratum is flagged when its
    accuracy falls below the ``quantile`` quantile of the control
    distribution.  ``flagged_for_review`` marks runs whose control mean
    falls outside the span of the defined stratum accuracies, which
    indicates the control is not comparable to the strata.
    """

    covariate: str
    full_accuracy: float
    full_cv: CvResult
    stratum_accuracy: dict[str, float]
    stratum_cv: dict[str, CvResult]
    stratum_notes: dict[str, str]
    control_samples: np.ndarray
    control_mean: float
    control_std: float
    control_cutoff: float
    quantile: float
    control_fraction: float
    n_control_repeats: int
    n_control_invalid: int
    flagged: list[str]
    flagged_for_review: bool


def flag_below_control(
    stratum_accuracy: Mapping[str, float],
    control_samples: np.ndarray,
    quantile: float = 0.025,
) -> tuple[list[str], float]:
    """Strata whose accuracy falls below the control quantile.

    Returns (flagged stratum names, cutoff).  NaN strata are never
    flagged; they are undefined, not suspicious.
    """
    if not (0 < quantile < 0.5):
        raise ParameterError(f"quantile must be in (0, 0.5), got {quantile}")
    samples = np.asarray(control_samples, dtype=np.float64)
    samples = samples[~np.isnan(samples)]
    if len(samples) == 0:
        raise ParameterError("control distribution has no valid samples")
    cutoff = float(np.quantile(samples, quantile))
    flagged = [
        name
        for name, acc in stratum_accuracy.items()
        if not np.isnan(acc) and acc < cutoff
    ]
    return flagged, cutoff


def condition_on_covariate(
    table: FeatureTable,
    covariate: str,
    control_repeats: int = 10_000,
    control_fraction: float = 0.5,
    seed: int = 0,
    quantile: float = 0.025,
    group_key: str = "subject",
    target: str = "health",
) -> ConditioningResult:
    """Compare per-stratum accuracy against equally sized random controls.

    Accuracy differences between full data and a stratum can come from
    the smaller sample alone.  The control distribution reruns the cross
    validation on ``control_repeats`` random subsets of
    ``control_fraction`` of the groups, so the stratum is judged against
    what random shrinkage actually does on this dataset.  A subset drawn
    more than once is scored once.
    """
    if covariate not in ("device", "side"):
        raise ParameterError(
            f"conditioning covariate must be 'device' or 'side', got {covariate!r}"
        )
    if not (0 < control_fraction < 1):
        raise ParameterError(
            f"control_fraction must be in (0, 1), got {control_fraction}"
        )
    if control_repeats < 1:
        raise ParameterError(f"control_repeats must be >= 1, got {control_repeats}")
    if not (0 < quantile < 0.5):
        raise ParameterError(f"quantile must be in (0, 0.5), got {quantile}")

    col = table.label(covariate)
    values = sorted(set(col.tolist()))
    if len(values) < 2:
        raise ParameterError(f"covariate {covariate!r} is constant; nothing to stratify")

    full_cv = loso_cv(table, group_key=group_key, target=target)

    stratum_accuracy: dict[str, float] = {}
    stratum_cv: dict[str, CvResult] = {}
    stratum_notes: dict[str, str] = {}
    for v in values:
        sub = table.select(col == v)
        classes = set(sub.label(target).tolist())
        if len(classes) < 2:
            note = f"single-class stratum ({classes.pop()!r}); accuracy undefined"
        elif len(set(sub.label(group_key).tolist())) < 2:
            note = "single group in stratum; accuracy undefined"
        else:
            stratum_cv[str(v)] = loso_cv(sub, group_key=group_key, target=target)
            stratum_accuracy[str(v)] = stratum_cv[str(v)].mean_repetition_accuracy
            continue
        stratum_accuracy[str(v)] = float("nan")
        stratum_notes[str(v)] = note

    groups_all = sorted(set(table.label(group_key).tolist()))
    k = int(round(control_fraction * len(groups_all)))
    if k < 2:
        raise ParameterError(
            f"control_fraction {control_fraction} keeps {k} of {len(groups_all)} "
            f"groups; need >= 2"
        )

    def draw(i: int) -> tuple[str, ...]:
        rng = stream(seed, substream_id("control", i))
        picked = rng.choice(len(groups_all), size=k, replace=False)
        return tuple(sorted(groups_all[j] for j in picked))

    samples = _draw_accuracies(
        [draw(i) for i in range(control_repeats)],
        lambda key: _rows_in(table, group_key, key, group_key, target), group_key, target,
    )
    valid = samples[~np.isnan(samples)]
    if len(valid) == 0:
        raise ParameterError(
            "every control subsample was single-class; control_fraction too small"
        )
    flagged, cutoff = flag_below_control(stratum_accuracy, samples, quantile)

    defined = [a for a in stratum_accuracy.values() if not np.isnan(a)]
    control_mean = float(valid.mean())
    review = (not defined) or not (min(defined) <= control_mean <= max(defined))

    return ConditioningResult(
        covariate=covariate,
        full_accuracy=full_cv.mean_repetition_accuracy,
        full_cv=full_cv,
        stratum_accuracy=stratum_accuracy,
        stratum_cv=stratum_cv,
        stratum_notes=stratum_notes,
        control_samples=samples,
        control_mean=control_mean,
        control_std=float(valid.std()),
        control_cutoff=cutoff,
        quantile=quantile,
        control_fraction=control_fraction,
        n_control_repeats=control_repeats,
        n_control_invalid=int(np.isnan(samples).sum()),
        flagged=flagged,
        flagged_for_review=bool(review),
    )


# ---------------------------------------------------------------------------
# incremental mixing


@dataclass
class MixingCurveResult:
    """Accuracy as one stratum's sessions are mixed into another.

    ``stratified[j]`` holds the accuracy samples at ``counts[j]`` added
    sessions drawn from the added stratum; ``reference[j]`` holds the
    matched-size curve where the same total number of sessions is drawn
    from the union without regard to stratum.  NaN entries mark draws
    whose subset left the cross validation undefined.
    """

    covariate: str
    base_value: str
    added_value: str
    counts: list[int]
    stratified: list[np.ndarray]
    reference: list[np.ndarray]
    n_base_sessions: int
    full_accuracy: float


def incremental_mixing_curve(
    table: FeatureTable,
    covariate: str,
    base_value: str,
    added_value: str,
    counts: Sequence[int] | None = None,
    repeats: int = 500,
    seed: int = 0,
    group_key: str = "subject",
    target: str = "health",
) -> MixingCurveResult:
    """Mix sessions of one stratum into another and watch accuracy.

    For each count k, ``repeats`` subsets of k added-stratum sessions are
    drawn; the reference curve draws base+k sessions from the union, so
    both curves share total size and differ only in composition.  Each
    distinct subset, the full pool included, is scored once, which keeps
    the endpoint (k = full stratum, a single possible subset) cheap.
    """
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    col = table.label(covariate)
    sess = table.label("session_id")
    base_sessions = sorted(set(sess[col == base_value].tolist()))
    added_sessions = sorted(set(sess[col == added_value].tolist()))
    if not base_sessions or not added_sessions:
        raise ParameterError(
            f"both strata need sessions; got {len(base_sessions)} base and "
            f"{len(added_sessions)} added"
        )
    overlap = set(base_sessions) & set(added_sessions)
    if overlap:
        raise ParameterError(
            f"sessions in both strata (covariate varies within a session): "
            f"{sorted(overlap)[:3]}"
        )
    pool = sorted(set(base_sessions) | set(added_sessions))
    if counts is None:
        counts = list(range(1, len(added_sessions) + 1))
    counts = [int(k) for k in counts]
    for k in counts:
        if not (1 <= k <= len(added_sessions)):
            raise ParameterError(
                f"count {k} outside 1..{len(added_sessions)} added sessions"
            )

    def draw(n: int) -> tuple[str, ...]:
        # stream 2m draws the m-th stratified subset, 2m + 1 its reference
        k = counts[n // (2 * repeats)]
        rng = stream(seed, substream_id("mixing", n))
        if n % 2 == 0:
            picked = rng.choice(len(added_sessions), size=k, replace=False)
            return tuple(sorted(base_sessions + [added_sessions[p] for p in picked]))
        picked = rng.choice(len(pool), size=len(base_sessions) + k, replace=False)
        return tuple(sorted(pool[p] for p in picked))

    accs = _draw_accuracies(
        [draw(n) for n in range(2 * len(counts) * repeats)] + [tuple(pool)],
        lambda key: _rows_in(table, "session_id", key, group_key, target), group_key, target,
    )
    draws = accs[:-1].reshape(len(counts), repeats, 2)
    return MixingCurveResult(
        covariate=covariate,
        base_value=str(base_value),
        added_value=str(added_value),
        counts=counts,
        stratified=list(draws[:, :, 0]),
        reference=list(draws[:, :, 1]),
        n_base_sessions=len(base_sessions),
        full_accuracy=float(accs[-1]),
    )


# ---------------------------------------------------------------------------
# rotation analysis


@dataclass
class RotationResult:
    """Subgroup principal-axis angle and accuracy under controlled angles.

    ``v_a`` and ``v_b`` are the leading principal axes of the two
    subgroups in the standardized 2-feature plane; ``phi_degrees`` is the
    angle between them reduced to [0, 90] (principal axes carry no sign).
    ``accuracy_vs_rotation`` pairs each requested angle with the accuracy
    after rotating one subgroup about its own mean so the inter-axis angle
    equals that value.
    """

    subgroup_key: str
    subgroup_values: tuple[str, str]
    rotated_value: str
    feature_names: tuple[str, str]
    v_a: np.ndarray
    v_b: np.ndarray
    phi_degrees: float
    unmodified_accuracy: float
    accuracy_at_aligned: float
    accuracy_vs_rotation: list[tuple[float, float]]


def _wrap90(a: float) -> float:
    """An angle between axes (which carry no sign) in (-90, 90] degrees."""
    while a > 90.0:
        a -= 180.0
    while a <= -90.0:
        a += 180.0
    return a


def _axis_angle_degrees(v: np.ndarray) -> float:
    return _wrap90(float(np.degrees(np.arctan2(v[1], v[0]))))


def rotation_analysis(
    table: FeatureTable,
    subgroup_key: str,
    rotation_grid_deg: Sequence[float],
    rotate_value: str | None = None,
    group_key: str = "subject",
    target: str = "health",
) -> RotationResult:
    """Set the angle between subgroup principal axes and rerun the model.

    The table must already be restricted to exactly 2 features.  Features
    are standardized over all rows, each subgroup's leading principal axis
    is taken, and one subgroup is rotated about its own mean until the
    inter-axis angle equals each grid value.  Requesting the observed
    angle applies a zero rotation, leaving the rows bit-identical, so that
    grid point reproduces the unmodified accuracy exactly.  The observed
    angle, 0 and the grid are scored once per distinct angle.
    """
    if len(table.feature_names) != 2:
        raise ParameterError(
            f"rotation analysis needs exactly 2 features, got "
            f"{len(table.feature_names)}; use restrict_features first"
        )
    col = table.label(subgroup_key)
    values = sorted(set(col.tolist()))
    if len(values) != 2:
        raise ParameterError(
            f"subgroup key {subgroup_key!r} must have exactly 2 values, got {values}"
        )
    for v in values:
        if int((col == v).sum()) < 3:
            raise ParameterError(f"subgroup {v!r} has fewer than 3 rows")
    if rotate_value is None:
        rotate_value = values[1]
    if rotate_value not in values:
        raise ParameterError(f"rotate_value {rotate_value!r} not in {values}")
    grid = [float(t) for t in rotation_grid_deg]
    for t in grid:
        if not (0.0 <= t <= 90.0):
            raise ParameterError(f"rotation grid angle {t} outside [0, 90] degrees")

    mu = table.matrix.mean(axis=0)
    sd = table.matrix.std(axis=0)
    if np.any(sd == 0):
        dead = table.feature_names[int(np.argmax(sd == 0))]
        raise DegeneracyError(f"feature {dead!r} has zero variance; no plane to rotate in")
    z = (table.matrix - mu) / sd

    axes = {}
    for v in values:
        p = pca2(z[col == v])
        if p.degenerate:
            raise DegeneracyError(
                f"subgroup {v!r} is near-isotropic; its principal direction "
                f"(and any angle built from it) is undefined"
            )
        axes[v] = p
    fixed_value = values[0] if rotate_value == values[1] else values[1]
    a_fixed = _axis_angle_degrees(axes[fixed_value].v1)
    a_rot = _axis_angle_degrees(axes[rotate_value].v1)
    phi_signed = _wrap90(a_rot - a_fixed)
    phi = abs(phi_signed)
    orient = 1.0 if phi_signed >= 0 else -1.0

    rot_mask = col == rotate_value
    center = z[rot_mask].mean(axis=0)

    def table_at(theta: float) -> FeatureTable:
        # theta = phi gives delta = 0 exactly: the unmodified rows
        delta = orient * theta - phi_signed
        pts = z
        if delta != 0.0:
            r = np.radians(delta)
            rot = np.array(
                [[np.cos(r), -np.sin(r)], [np.sin(r), np.cos(r)]]
            )
            pts = z.copy()
            pts[rot_mask] = (z[rot_mask] - center) @ rot.T + center
        return FeatureTable(
            feature_names=list(table.feature_names),
            matrix=pts,
            labels=dict(table.labels),
            repetition_index=table.repetition_index,
        )

    accs = _draw_accuracies([phi, 0.0] + grid, table_at, group_key, target).tolist()
    return RotationResult(
        subgroup_key=subgroup_key,
        subgroup_values=(str(values[0]), str(values[1])),
        rotated_value=str(rotate_value),
        feature_names=(table.feature_names[0], table.feature_names[1]),
        v_a=axes[values[0]].v1,
        v_b=axes[values[1]].v1,
        phi_degrees=phi,
        unmodified_accuracy=accs[0],
        accuracy_at_aligned=accs[1],
        accuracy_vs_rotation=list(zip(grid, accs[2:])),
    )


# ---------------------------------------------------------------------------
# counterfactual relabeling


@dataclass
class RelabelResult:
    """Cross validation under a hypothetical regrouping.

    ``null_accuracies`` holds one accuracy per permutation of the
    counterfactual class assignment (same class balance, assignment
    shuffled across the counterfactual subjects); ``inflation_delta`` is
    observed accuracy minus the null mean.
    """

    cv: CvResult
    accuracy: float
    null_accuracies: np.ndarray
    null_mean: float
    null_std: float
    inflation_delta: float


def counterfactual_relabel(
    table: FeatureTable,
    relabel: Mapping[str, tuple[str, str]],
    n_permutations: int = 200,
    seed: int = 0,
    group_key: str = "session_id",
    target: str = "health",
) -> RelabelResult:
    """Rerun the pipeline as if groups belonged to different subjects.

    ``relabel`` maps every value of ``group_key`` to a counterfactual
    (subject, class) pair; the cross validation then groups by the
    counterfactual subject.  The class stays a per-group property (the
    two legs of one subject may differ), so the permutation null keeps
    the counterfactual subjects and shuffles the class assignment across
    the groups, preserving class balance.  The reported delta isolates
    what the specific assignment adds over any assignment.  Each distinct
    shuffled assignment is scored once.
    """
    if n_permutations < 0:
        raise ParameterError(f"n_permutations must be >= 0, got {n_permutations}")
    groups = table.label(group_key)
    group_values = sorted(set(groups.tolist()))
    missing = sorted(set(group_values) - set(relabel))
    if missing:
        raise ParameterError(f"relabel spec misses groups: {missing[:5]}")

    def relabeled(classes: Sequence[str]) -> FeatureTable:
        health_of = dict(zip(group_values, classes))
        t2 = table.select(np.ones(table.n_rows, dtype=bool))
        t2.labels["subject"] = np.array([relabel[g][0] for g in groups], dtype=object)
        t2.labels[target] = np.array([health_of[g] for g in groups], dtype=object)
        return t2

    balance = np.array([relabel[g][1] for g in group_values], dtype=object)
    cv = loso_cv(relabeled(balance), group_key="subject", target=target)

    def draw(i: int) -> tuple[str, ...]:
        rng = stream(seed, substream_id("permutation", i))
        return tuple(balance[rng.permutation(len(balance))])

    null = _draw_accuracies(
        [draw(i) for i in range(n_permutations)], relabeled, "subject", target
    )
    null_mean = float(null.mean()) if len(null) else float("nan")
    return RelabelResult(
        cv=cv,
        accuracy=cv.mean_repetition_accuracy,
        null_accuracies=null,
        null_mean=null_mean,
        null_std=float(null.std()) if len(null) else float("nan"),
        inflation_delta=cv.mean_repetition_accuracy - null_mean,
    )
