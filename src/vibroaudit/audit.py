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
once, as plain arrays in stacked blocks, since a draw's accuracy is a pure
function of what was drawn.  :func:`summarize_draws` reduces every
resulting distribution, leaving undefined (NaN) draws out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import pmap  # noqa: F401  unused here; perfbench/spans.py patches audit.pmap
from ._rng import STREAM_INDICES, stream, substream_id
from .dataset import (
    FeatureConfig,
    FeatureTable,
    Manifest,
    check_segment_length,
    extract_table,  # noqa: F401  unused here; perfbench/spans.py patches audit.extract_table
    extract_tables,
    feature_map_problem,
    ingest_wav,  # noqa: F401  unused here; perfbench/spans.py patches audit.ingest_wav
    wav_frames,
    wav_sample_rate,
)
from .dsp import Spectrogram
from .dsp import mel_filterbank  # noqa: F401  unused here; perfbench/spans.py patches audit.mel_filterbank
from .errors import DegeneracyError, ParameterError
from .learn import CvResult, loso_accuracies, loso_cv, pca2

AUDIT_COVARIATES = ("device", "side", "subject")
DEFAULT_BAND_WIDTH_HZ = 10_000.0
# defaults of the tone detector's gates
TONE_PERSISTENCE_MIN = 0.9
TONE_PROMINENCE_MIN_DB = 6.0
# default Monte-Carlo sizes of conditioning, mixing and counterfactual
# relabeling, and the control quantile that conditioning flags below
CONTROL_REPEATS = 10_000
CONTROL_QUANTILE = 0.025
MIXING_REPEATS = 500
RELABEL_PERMUTATIONS = 200


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


def uniform_band_plan(nyquist: float, width: float = DEFAULT_BAND_WIDTH_HZ) -> list[tuple[float, float]]:
    """The band-scan plan of a run without explicit bands: contiguous
    bands of ``width`` Hz from 250 Hz up to Nyquist.

    Band edges sit at multiples of ``width``; the part above the last
    multiple below Nyquist is left out, and a width beyond Nyquist gives
    the one band (250 Hz, Nyquist).
    """
    if not width > 250.0:
        raise ParameterError(f"band width must exceed 250 Hz, got {width}")
    if width >= nyquist:
        return [(250.0, nyquist)]
    edges = [250.0]
    k = 1
    while k * width <= nyquist:
        edges.append(k * width)
        k += 1
    return list(zip(edges[:-1], edges[1:]))


def _validate_bands(bands: Sequence[tuple[float, float]]) -> None:
    # the plan as a whole; each band's own config and mel grid check its edges
    if not bands:
        raise ParameterError("band plan is empty")
    if any(lo < prev_hi for (_, prev_hi), (lo, _) in zip(bands, bands[1:])):
        raise ParameterError("bands must be ascending and non-overlapping")


def band_scan(
    manifest: Manifest,
    bands: Sequence[tuple[float, float]],
    cfg: FeatureConfig,
    group_key: str = "subject",
    target: str = "health",
) -> BandScanResult:
    """Re-extract features inside each band and rerun the classifier.

    Each band gets its own band-pass and its own mel analysis range, so
    the per-band accuracy reflects only information inside that band; a
    band equal to cfg's keeps cfg, mel range included.  A band the feature
    map refuses (:func:`~vibroaudit.dataset.feature_map_problem`), such as
    one whose band-pass edge or mel range lies above Nyquist, is skipped
    with that reason before any session is read.  Each session is read and
    segmented once for all bands.
    """
    if len({rec.subject_id for rec in manifest.sessions}) < 2:
        raise ParameterError("band scan needs >= 2 subjects")
    _validate_bands(bands)
    band_cfgs = [cfg if (lo, hi) == (cfg.band_lo, cfg.band_hi) else replace(
        cfg, band_lo=lo, band_hi=hi, mfcc=replace(cfg.mfcc, fmin=lo, fmax=hi)) for lo, hi in bands]
    first = manifest.wav_file(manifest.sessions[0])
    fs = wav_sample_rate(first)
    # every band keeps cfg's frame, taps and filter count; if the first
    # session cannot hold them, extraction would stop there (and the frame
    # sizes the mel grids built below)
    check_segment_length(wav_frames(first), cfg, fs)

    problems = [feature_map_problem(c, fs) for c in band_cfgs]
    scored = [i for i, problem in enumerate(problems) if not problem]
    tables = extract_tables(manifest, [band_cfgs[i] for i in scored])
    cvs = {i: loso_cv(t, group_key=group_key, target=target) for i, t in zip(scored, tables)}
    accs = np.full(len(bands), np.nan)
    for i, cv in cvs.items():
        accs[i] = cv.mean_repetition_accuracy
    return BandScanResult(
        bands=[(float(lo), float(hi)) for lo, hi in bands],
        per_band_accuracy=accs,
        cv=cvs,
        skipped={i: problem for i, problem in enumerate(problems) if problem},
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


# frames per block of the running median: bounds its (frames, bins, window)
# temporary to a few MB
_MEDIAN_BLOCK_FRAMES = 16
# frames per block of the rank count: keeps a block's rows in cache across
# the window's offsets
_COUNT_BLOCK_FRAMES = 32


def _window_medians(padded: np.ndarray, w: int) -> np.ndarray:
    """Median of every window of ``w`` (odd) consecutive columns of each row."""
    half = w // 2
    out = np.empty((len(padded), padded.shape[1] - w + 1), dtype=padded.dtype)
    for start in range(0, len(padded), _MEDIAN_BLOCK_FRAMES):
        block = slice(start, start + _MEDIAN_BLOCK_FRAMES)
        windows = sliding_window_view(padded[block], w, axis=1)
        out[block] = np.partition(windows, half, axis=-1)[..., half]
    return out


def _edge_padded(power: np.ndarray, w: int) -> np.ndarray:
    """``power`` with each row extended by its edge value, for windows of
    ``w`` (odd) bins centred on each bin, capped at ``2 * n_bins - 1`` bins.

    Bin ``b``'s window is ``padded[:, b : b + v]``, ``v = padded.shape[1] -
    n_bins + 1``.  Its median is that of the uncapped window.  A median
    ranks at most ``w // 2`` values strictly below it (NaN ranking last)
    and at most ``w // 2`` strictly above.  Once ``w >= 2 * n_bins + 1``,
    a window holds every bin plus at least one more copy of each edge
    value.  Dropping one copy of each then leaves at most ``w // 2 - 1``
    values on either side: a side that loses no copy holds interior bins
    only, and there are ``n_bins - 2`` of those.
    """
    half = min(w, 2 * power.shape[1] - 1) // 2
    return np.pad(power, ((0, 0), (half, half)), mode="edge")


def _above_window_median(padded: np.ndarray, power: np.ndarray, threshold: float) -> np.ndarray:
    """``power > median * threshold`` for each bin's window in ``padded``
    (see :func:`_edge_padded`), without computing the median.

    Rounding a product by ``threshold > 0`` is monotone, so the window
    values ``v`` with ``fl(v * threshold) < p`` are its smallest ones, and
    ``p > fl(median * threshold)`` exactly when more than half of the
    window's values satisfy it.  NaN counts as a value that never does,
    which is where the median ranks it.
    """
    n_bins = power.shape[1]
    w = padded.shape[1] - n_bins + 1
    above = np.empty(power.shape, dtype=bool)
    for start in range(0, len(power), _COUNT_BLOCK_FRAMES):
        block = slice(start, start + _COUNT_BLOCK_FRAMES)
        p, scaled = power[block], padded[block] * threshold
        count = np.zeros(p.shape, dtype=np.min_scalar_type(w))
        hit = np.empty(p.shape, dtype=bool)
        for j in range(w):
            np.less(scaled[:, j : j + n_bins], p, out=hit)
            count += hit.view(np.uint8)
        np.greater(count, w // 2, out=above[block])
    return above


def detect_persistent_tones(
    spec: Spectrogram,
    persistence_min: float = TONE_PERSISTENCE_MIN,
    prominence_min_db: float = TONE_PROMINENCE_MIN_DB,
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
    try:
        threshold = 10.0 ** (float(prominence_min_db) / 10.0)
    except OverflowError:
        threshold = np.inf
    if not (prominence_min_db > 0 and threshold < np.inf):
        raise ParameterError(
            f"prominence_min_db must be > 0 with 10 ** (dB / 10) finite, got {prominence_min_db}"
        )
    if not 0 < median_window_hz < np.inf:
        raise ParameterError(f"median_window_hz must be finite and > 0, got {median_window_hz}")
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
    window_bins = median_window_hz / df
    if not window_bins < 2.0**63:
        raise ParameterError(
            f"median_window_hz {median_window_hz} spans more than 2**63 bins of {df} Hz"
        )
    w = max(3, int(round(window_bins)) | 1)
    padded = _edge_padded(power, w)
    w = padded.shape[1] - spec.n_bins + 1  # the capped window
    above = _above_window_median(padded, power, threshold)

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
        local_median = _window_medians(padded[:, b : b1 + w], w)
        # ratio of the loudest member bin to its local median, per frame
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                local_median > 0,
                power[:, members] / np.maximum(local_median, 1e-300),
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


def _draw_accuracies(keys: Sequence, build) -> np.ndarray:
    """LOSO accuracy of every draw, scoring each distinct key once.

    ``build(key)`` gives the draw's (matrix, groups, targets), built
    lazily as ``loso_accuracies`` fits them; a key fully determines its
    accuracy (NaN where fewer than 2 groups or 2 classes remain).
    """
    unique = list(dict.fromkeys(keys))
    acc_of = dict(zip(unique, loso_accuracies(map(build, unique))))
    return np.array([acc_of[key] for key in keys], dtype=np.float64)


def _pick(rng: np.random.Generator, pool: Sequence, size: int) -> tuple:
    """``size`` members of ``pool``, drawn without replacement, sorted."""
    return tuple(sorted(pool[j] for j in rng.choice(len(pool), size=size, replace=False)))


def _check_repeats(option: str, value: int, minimum: int, draws_per_repeat: int = 1) -> None:
    """Reject a repeat count below ``minimum``, or one whose draws would
    need more random streams than one kind has, before anything is drawn."""
    if value < minimum:
        raise ParameterError(f"{option} must be >= {minimum}, got {value}")
    if value * draws_per_repeat > STREAM_INDICES:
        raise ParameterError(
            f"{option} {value} needs {value * draws_per_repeat} draws; "
            f"at most {STREAM_INDICES} are available"
        )


@dataclass(frozen=True)
class DrawSummary:
    """A draw distribution reduced over its defined (non-NaN) draws.

    ``lo`` and ``hi`` are the ``quantile`` and ``1 - quantile`` quantiles.
    Every statistic is NaN when no draw is defined.
    """

    n_valid: int
    n_invalid: int
    mean: float
    std: float
    lo: float
    hi: float


def summarize_draws(samples: np.ndarray, quantile: float = 0.025) -> DrawSummary:
    """The one reduction of a Monte-Carlo accuracy distribution: undefined
    (NaN) draws are counted and left out of every statistic."""
    samples = np.asarray(samples, dtype=np.float64)
    valid = samples[~np.isnan(samples)]
    n_invalid = len(samples) - len(valid)
    if not len(valid):
        return DrawSummary(0, n_invalid, *[float("nan")] * 4)
    lo, hi = np.quantile(valid, [quantile, 1 - quantile]).tolist()
    return DrawSummary(len(valid), n_invalid, float(valid.mean()), float(valid.std()), lo, hi)


def _check_target(table: FeatureTable, target: str) -> None:
    """Reject a target column of more than 2 classes before anything is
    drawn; a draw's classes are a subset of the table's."""
    classes = sorted(set(table.label(target).tolist()))
    if len(classes) > 2:
        raise ParameterError(f"target {target!r}: need exactly 2 classes, got {classes}")


def _rows_in(table: FeatureTable, column: str, group_key: str, target: str):
    """``build`` of draws that keep the rows whose ``column`` is in the key."""
    values, groups, targets = (table.label(c) for c in (column, group_key, target))

    def build(key):
        rows = np.isin(values, key)
        return table.matrix[rows], groups[rows], targets[rows]

    return build


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
    accuracy falls below the ``quantile`` quantile of the defined control
    draws, so an undefined stratum never is.  ``flagged_for_review`` marks
    runs whose control mean falls outside the span of the defined stratum
    accuracies, which indicates the control is not comparable to the
    strata.
    """

    covariate: str
    full_accuracy: float
    stratum_accuracy: dict[str, float]
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


def condition_on_covariate(
    table: FeatureTable,
    covariate: str,
    control_repeats: int = CONTROL_REPEATS,
    control_fraction: float = 0.5,
    seed: int = 0,
    quantile: float = CONTROL_QUANTILE,
    group_key: str = "subject",
    target: str = "health",
) -> ConditioningResult:
    """Compare per-stratum accuracy against equally sized random controls.

    Accuracy differences between full data and a stratum can come from
    the smaller sample alone.  The control distribution reruns the cross
    validation on ``control_repeats`` random subsets of
    ``control_fraction`` of the groups, so the stratum is judged against
    what random shrinkage actually does on this dataset.  A subset drawn
    more than once is scored once, and so is the full table and each
    stratum.
    """
    if covariate not in ("device", "side"):
        raise ParameterError(
            f"conditioning covariate must be 'device' or 'side', got {covariate!r}"
        )
    if not (0 < control_fraction < 1):
        raise ParameterError(
            f"control_fraction must be in (0, 1), got {control_fraction}"
        )
    _check_repeats("control_repeats", control_repeats, 1)
    if not (0 < quantile < 0.5):
        raise ParameterError(f"quantile must be in (0, 0.5), got {quantile}")

    _check_target(table, target)
    col, groups, targets = (table.label(c) for c in (covariate, group_key, target))
    values = sorted(set(col.tolist()))
    if len(values) < 2:
        raise ParameterError(f"covariate {covariate!r} is constant; nothing to stratify")

    full_accuracy, *strata = _draw_accuracies(
        [tuple(values)] + [(v,) for v in values], _rows_in(table, covariate, group_key, target)
    ).tolist()
    if np.isnan(full_accuracy):
        raise ParameterError(f"the full table needs >= 2 {group_key} values and 2 {target} classes")
    stratum_accuracy = {str(v): a for v, a in zip(values, strata)}
    stratum_notes: dict[str, str] = {}
    for v in values:
        if not np.isnan(stratum_accuracy[str(v)]):
            continue
        classes = set(targets[col == v].tolist())
        if len(classes) < 2:
            note = f"single-class stratum ({classes.pop()!r})"
        elif len(set(groups[col == v].tolist())) < 2:
            note = "single group in stratum"
        else:
            note = f"every leave-one-{group_key}-out fold trains on a single class"
        stratum_notes[str(v)] = note + "; accuracy undefined"

    groups_all = sorted(set(groups.tolist()))
    k = int(round(control_fraction * len(groups_all)))
    if k < 2:
        raise ParameterError(
            f"control_fraction {control_fraction} keeps {k} of {len(groups_all)} "
            f"groups; need >= 2"
        )

    keys = [_pick(stream(seed, substream_id("control", i)), groups_all, k) for i in range(control_repeats)]
    samples = _draw_accuracies(keys, _rows_in(table, group_key, group_key, target))
    control = summarize_draws(samples, quantile)
    if not control.n_valid:
        # a subsample of >= 2 groups is undefined when it holds one class,
        # or when holding out any one group leaves a single class to train on
        distinct = set(keys)
        single = sum(len(set(targets[np.isin(groups, key)].tolist())) < 2 for key in distinct)
        reason = "every control subsample was single-class" if single == len(distinct) else (
            f"no control subsample has a defined accuracy: {single} of {len(distinct)} distinct "
            f"subsamples were single-class, and the other {len(distinct) - single} trained "
            f"every leave-one-{group_key}-out fold on a single class"
        )
        raise ParameterError(f"{reason}; control_fraction too small")
    defined = [a for a in stratum_accuracy.values() if not np.isnan(a)]
    review = (not defined) or not (min(defined) <= control.mean <= max(defined))

    return ConditioningResult(
        covariate=covariate,
        full_accuracy=full_accuracy,
        stratum_accuracy=stratum_accuracy,
        stratum_notes=stratum_notes,
        control_samples=samples,
        control_mean=control.mean,
        control_std=control.std,
        control_cutoff=control.lo,
        quantile=quantile,
        control_fraction=control_fraction,
        n_control_repeats=control_repeats,
        n_control_invalid=control.n_invalid,
        flagged=[name for name, acc in stratum_accuracy.items() if acc < control.lo],
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
    repeats: int = MIXING_REPEATS,
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
    _check_target(table, target)
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
    _check_repeats("repeats", repeats, 1, 2 * len(counts))

    def draw(n: int) -> tuple[str, ...]:
        # stream 2m draws the m-th stratified subset, 2m + 1 its reference
        k = counts[n // (2 * repeats)]
        rng = stream(seed, substream_id("mixing", n))
        if n % 2 == 0:
            return tuple(sorted((*base_sessions, *_pick(rng, added_sessions, k))))
        return _pick(rng, pool, len(base_sessions) + k)

    accs = _draw_accuracies(
        [draw(n) for n in range(2 * len(counts) * repeats)] + [tuple(pool)],
        _rows_in(table, "session_id", group_key, target),
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
    _check_target(table, target)
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

    def rotated(theta: float):
        # theta = phi gives delta = 0 exactly: the unmodified rows
        delta = orient * theta - phi_signed
        pts = z
        if delta != 0.0:
            r = np.radians(delta)
            rot = np.array([[np.cos(r), -np.sin(r)], [np.sin(r), np.cos(r)]])
            pts = z.copy()
            pts[rot_mask] = (z[rot_mask] - center) @ rot.T + center
        return pts, table.label(group_key), table.label(target)

    accs = _draw_accuracies([phi, 0.0] + grid, rotated).tolist()
    if np.isnan(accs[0]):
        raise ParameterError(f"rotation needs >= 2 {group_key} values and 2 {target} classes")
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
    shuffled across the counterfactual subjects); ``null_mean`` and
    ``null_std`` run over its defined draws, and ``inflation_delta`` is
    observed accuracy minus the null mean.  ``null_p_value`` is
    (1 + #{defined null accuracies >= observed}) / (1 + #defined), after
    Phipson & Smyth (SAGMB 2010), and NaN when no null accuracy or the
    observed one is undefined.
    """

    cv: CvResult
    accuracy: float
    null_accuracies: np.ndarray
    null_mean: float
    null_std: float
    inflation_delta: float
    null_p_value: float


def counterfactual_relabel(
    table: FeatureTable,
    relabel: Mapping[str, tuple[str, str]],
    n_permutations: int = RELABEL_PERMUTATIONS,
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
    _check_repeats("n_permutations", n_permutations, 0)
    group_values, group_index = np.unique(table.label(group_key), return_inverse=True)
    missing = sorted(set(group_values) - set(relabel))
    if missing:
        raise ParameterError(f"relabel spec misses groups: {missing[:5]}")

    subjects = np.array([relabel[g][0] for g in group_values], dtype=object)[group_index]

    def relabeled(classes: Sequence[str]):
        # the unchanged rows, grouped by counterfactual subject
        return table.matrix, subjects, np.asarray(classes, dtype=object)[group_index]

    balance = np.array([relabel[g][1] for g in group_values], dtype=object)
    observed = {**table.labels, "subject": subjects, target: relabeled(balance)[2]}
    cv = loso_cv(replace(table, labels=observed), group_key="subject", target=target)

    def draw(i: int) -> tuple[str, ...]:
        rng = stream(seed, substream_id("permutation", i))
        return tuple(balance[rng.permutation(len(balance))])

    null = _draw_accuracies([draw(i) for i in range(n_permutations)], relabeled)
    summary = summarize_draws(null)
    accuracy = cv.mean_repetition_accuracy
    p_value = float("nan")
    if summary.n_valid and not np.isnan(accuracy):
        p_value = (1 + int(np.sum(null >= accuracy))) / (1 + summary.n_valid)
    return RelabelResult(
        cv=cv,
        accuracy=accuracy,
        null_accuracies=null,
        null_mean=summary.mean,
        null_std=summary.std,
        inflation_delta=accuracy - summary.mean,
        null_p_value=p_value,
    )
