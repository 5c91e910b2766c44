"""Command-line interface: synthesize datasets, extract features, run audits.

Three subcommands cover the full workflow:

* ``synth`` renders a named scenario to WAVs plus manifest.
* ``features`` turns a manifest into the per-repetition feature CSV.
* ``audit`` runs one analysis or the whole applicable battery (``suite``)
  and writes a report JSON plus plot-ready CSV series into ``--out``.

Exit codes are CI-oriented: 0 means the run completed and raised no
bias flag, 2 means it completed and raised at least one, 1 means the
run itself failed.  argparse's own usage failures are rerouted to 1 so
that 2 stays unambiguous.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import pmap
from .audit import (
    CONTROL_QUANTILE,
    CONTROL_REPEATS,
    DEFAULT_BAND_WIDTH_HZ,
    MIXING_REPEATS,
    RELABEL_PERMUTATIONS,
    TONE_PERSISTENCE_MIN,
    TONE_PROMINENCE_MIN_DB,
    band_scan,
    condition_on_covariate,
    counterfactual_relabel,
    covariate_predictability,
    detect_persistent_tones,
    incremental_mixing_curve,
    rotation_analysis,
    tone_prevalence_by_label,
    uniform_band_plan,
)
from .dataset import (
    FeatureConfig,
    FeatureTable,
    Manifest,
    default_feature_config,
    extract_table,
    ingest_wav,
    load_manifest,
    read_json,
    wav_sample_rate,
)
from .dsp import Signal, stft
from .errors import FormatError, ParameterError, UsageError, VibroauditError
from .report import (
    AuditReport,
    band_scan_section,
    conditioning_section,
    counterfactual_section,
    covariate_section,
    emit_band_scan_csv,
    emit_draws_csv,
    emit_mixing_csv,
    emit_rotation_csv,
    emit_tones_csv,
    file_digest,
    mixing_section,
    prevalence_section,
    rotation_section,
    tones_section,
    write_series_csv,
)
from .sigsynth import SCENARIOS, sample_cohort, scenario_preset, write_dataset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGS = 2

AUDIT_ANALYSES = (
    "band-scan",
    "tones",
    "covariate",
    "condition",
    "mixing",
    "rotate",
    "counterfactual",
    "suite",
)

# per-analysis Monte-Carlo repeat defaults when --repeats is not given;
# the suite lowers conditioning and mixing to keep full runs short
DEFAULT_REPEATS = {"condition": CONTROL_REPEATS, "mixing": MIXING_REPEATS,
                   "counterfactual": RELABEL_PERMUTATIONS}
SUITE_REPEATS = {"condition": 1_000, "mixing": 200, "counterfactual": 200}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide
    # with the flags-raised exit code
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vibroaudit",
        description="Synthesize acoustic worlds, extract features, audit for bias.",
    )
    parser.add_argument(
        "--version", action="version", version=f"vibroaudit {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render a scenario to WAVs + manifest")
    p_synth.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_synth.add_argument("--subjects", type=int, default=None)
    p_synth.add_argument("--repetitions", type=int, default=None)
    p_synth.add_argument("--duration", type=float, default=None,
                         help="repetition duration in seconds")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_feat = sub.add_parser("features", help="extract the feature CSV")
    p_feat.add_argument("--manifest", required=True)
    p_feat.add_argument("--config", default=None,
                        help="feature config JSON file")
    p_feat.add_argument("--out", required=True)
    p_feat.set_defaults(func=cmd_features)

    p_audit = sub.add_parser("audit", help="run one analysis or the suite")
    p_audit.add_argument("analysis", choices=AUDIT_ANALYSES)
    p_audit.add_argument("--manifest", default=None)
    p_audit.add_argument("--features", default=None,
                         help="feature CSV (skips extraction)")
    p_audit.add_argument("--config", default=None,
                         help="feature config JSON file")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", required=True)
    p_audit.add_argument("--bands", default=None,
                         help="comma list of lo-hi Hz pairs, e.g. 250-10000,10000-20000")
    p_audit.add_argument("--band-width-hz", type=float, default=DEFAULT_BAND_WIDTH_HZ)
    p_audit.add_argument("--covariate", default="device",
                         choices=("device", "side"))
    p_audit.add_argument("--repeats", type=int, default=None)
    p_audit.add_argument("--quantile", type=float, default=CONTROL_QUANTILE)
    p_audit.add_argument("--feature-pair", default=None,
                         help="two feature names for the rotation analysis")
    p_audit.add_argument("--grid-degrees", default=None,
                         help="comma list of rotation angles (default 0..90 step 5)")
    p_audit.add_argument("--relabel", default=None,
                         help="JSON file mapping session -> [subject, class]")
    p_audit.add_argument("--spectrogram-csv", action="store_true",
                         help="also write the per-session spectrogram grids")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def _first_sample_rate(manifest: Manifest | None) -> float | None:
    """Sample rate of the first session's recording, None without one."""
    if manifest is None:
        return None
    return wav_sample_rate(manifest.wav_file(manifest.sessions[0]))


def _load_feature_config(path: str | None, sample_rate: float | None) -> FeatureConfig:
    """Explicit config file, else the default config at the data's sample
    rate (probed from the first session)."""
    if path is not None:
        return FeatureConfig.from_json_dict(read_json(path, "--config", FormatError))
    return default_feature_config(sample_rate)


def _parse_bands(text: str) -> list[tuple[float, float]]:
    bands = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if not sep:
            raise UsageError(f"band {part!r} is not of the form lo-hi")
        try:
            bands.append((float(lo), float(hi)))
        except ValueError:
            raise UsageError(f"band {part!r} has non-numeric edges") from None
    return bands


def _resolve_bands(args, nyquist: float) -> list[tuple[float, float]]:
    """Explicit --bands, else a uniform plan of --band-width-hz bands."""
    if args.bands:
        return _parse_bands(args.bands)
    return uniform_band_plan(nyquist, args.band_width_hz)


def _parse_grid(text: str | None) -> list[float]:
    if text is None:
        return [float(t) for t in range(0, 91, 5)]
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"--grid-degrees {text!r} has non-numeric entries") from None


def _repeats(args, analysis: str, suite: bool) -> int:
    if args.repeats is not None:
        if args.repeats < 1:
            raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
        return args.repeats
    return (SUITE_REPEATS if suite else DEFAULT_REPEATS)[analysis]


# ---------------------------------------------------------------------------
# synth / features


def cmd_synth(args) -> int:
    world = scenario_preset(
        args.scenario,
        n_subjects=args.subjects,
        seed=args.seed,
        n_repetitions=args.repetitions,
        repetition_duration_s=args.duration,
    )
    # sessions are rendered as write_dataset consumes them
    manifest_path = write_dataset(sample_cohort(world), args.out, world)
    print(f"wrote {len(load_manifest(manifest_path).sessions)} sessions to {manifest_path}")
    return EXIT_OK


def cmd_features(args) -> int:
    manifest = load_manifest(args.manifest)
    cfg = _load_feature_config(args.config, None if args.config else _first_sample_rate(manifest))
    table = extract_table(manifest, cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    table.to_csv(args.out)
    print(f"wrote {table.n_rows} rows x {len(table.feature_names)} features to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit helpers


def _tone_frame_len(sample_rate: float) -> int:
    """Power-of-two frame closest to 20 ms, clamped to [256, 8192]."""
    target = sample_rate * 0.02
    n = 1 << int(round(np.log2(max(target, 2.0))))
    return min(max(n, 256), 8192)


def _detect_all_sessions(manifest: Manifest, spectrogram_dir: Path | None = None) -> dict:
    """Tone detections per session; each spectrogram also goes to ``spectrogram_dir``."""
    def one(rec):
        sig = ingest_wav(manifest.wav_file(rec))
        if sig.channels == 2:
            sig = Signal(sig.samples.mean(axis=1), sig.sample_rate)
        frame_len = _tone_frame_len(sig.sample_rate)
        spec = stft(sig, frame_len, frame_len // 2)
        del sig  # the detector needs only the spectrogram; drop the samples first
        found = detect_persistent_tones(spec, persistence_min=TONE_PERSISTENCE_MIN,
                                        prominence_min_db=TONE_PROMINENCE_MIN_DB)
        if spectrogram_dir is not None:
            header = ["frame_time_s"] + [f"{f:.3f}" for f in spec.bin_freqs]
            rows = ([spec.frame_times[i]] + list(spec.magnitudes[i]) for i in range(spec.n_frames))
            write_series_csv(spectrogram_dir / f"spectrogram_{rec.session_id}.csv", header, rows)
        return found

    detections = pmap(one, manifest.sessions)
    return {rec.session_id: d for rec, d in zip(manifest.sessions, detections)}


def _check_spectrogram_ids(manifest: Manifest) -> None:
    """Session ids name the spectrogram files, so each must be a plain file name."""
    for rec in manifest.sessions:
        sid = rec.session_id
        if sid in (".", "..") or any(c in sid for c in "/\\\0"):
            raise ParameterError(
                f"--spectrogram-csv names files after session ids, and {sid!r} "
                f"is not a plain file name"
            )


def _auto_day_relabel(table: FeatureTable) -> dict | None:
    """Sessions-as-subjects relabel for single-subject multi-session data.

    The first half of the sessions (sorted) becomes Healthy, the rest
    Unhealthy; that is the hypothetical "what if these were different
    patients" regrouping for recordings that differ only in day.
    """
    if len(set(table.label("subject").tolist())) != 1:
        return None
    groups = sorted(set(table.label("session_id").tolist()))
    if len(groups) < 4:
        return None
    n_healthy = len(groups) // 2
    return {
        g: (f"group-{i:02d}", "Healthy" if i < n_healthy else "Unhealthy")
        for i, g in enumerate(groups)
    }


def _load_relabel(path: str) -> dict:
    raw = read_json(path, "--relabel", FormatError)
    if not isinstance(raw, dict):
        raise ParameterError("relabel file must be a JSON object")
    for group, pair in raw.items():
        if not (type(pair) is list and len(pair) == 2 and all(type(s) is str for s in pair)):
            raise ParameterError(
                f"relabel entry {group!r} must be [subject, class] strings, got {pair!r}"
            )
    return {group: tuple(pair) for group, pair in raw.items()}


# ---------------------------------------------------------------------------
# audit command


def cmd_audit(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = args.analysis == "suite"

    manifest = load_manifest(args.manifest) if args.manifest else None
    if args.spectrogram_csv and manifest is not None:
        _check_spectrogram_ids(manifest)
    # one probe serves both the default feature band and the default band plan
    needs_rate = args.config is None or suite or args.analysis == "band-scan"
    fs = _first_sample_rate(manifest) if needs_rate else None
    cfg = _load_feature_config(args.config, fs)

    needs_table = suite or args.analysis in (
        "covariate", "condition", "mixing", "rotate", "counterfactual"
    )
    table = None
    if args.features:
        table = FeatureTable.from_csv(args.features)
    elif needs_table and manifest is not None:
        table = extract_table(manifest, cfg)
    if manifest is None and table is None:
        raise ParameterError("audit needs --manifest or --features")
    if args.analysis in ("band-scan", "tones") and manifest is None:
        raise ParameterError(f"analysis {args.analysis!r} needs --manifest")

    relabel = _load_relabel(args.relabel) if args.relabel else None
    feature_pair = args.feature_pair.split(",") if args.feature_pair else None

    config = {
        "analysis": args.analysis,
        "seed": args.seed,
        "feature_config": cfg.to_json_dict(),
        "covariate": args.covariate,
        "quantile": args.quantile,
        "repeats": args.repeats,
        "bands": args.bands,
        "band_width_hz": args.band_width_hz,
        "feature_pair": feature_pair,
        "grid_degrees": args.grid_degrees,
        "relabel": relabel,
    }
    provenance = {}
    if args.manifest:
        provenance["manifest_file"] = Path(args.manifest).name
        provenance["manifest_sha256"] = file_digest(args.manifest)
        provenance["n_sessions"] = len(manifest.sessions)
    if args.features:
        provenance["features_file"] = Path(args.features).name
        provenance["features_sha256"] = file_digest(args.features)
    if table is not None:
        provenance["n_rows"] = table.n_rows

    report = AuditReport(master_seed=args.seed, config=config, provenance=provenance)
    t_total = time.perf_counter()

    def run(name: str, analysis: str, fn, soft: bool = False) -> None:
        if not (suite or args.analysis == analysis):
            return
        try:
            t0 = time.perf_counter()
            section = fn()
            section["timing_s"] = time.perf_counter() - t0
            report.add_section(name, section)
        except UsageError:
            # an incoherent command line aborts even the suite
            raise
        except VibroauditError as exc:
            if not (suite or soft):
                raise
            report.skip_section(name, str(exc))

    # --- band scan
    def do_band_scan() -> dict:
        if fs is None:
            raise ParameterError("band scan needs --manifest")
        bands = _resolve_bands(args, fs / 2.0)
        res = band_scan(manifest, bands, cfg)
        emit_band_scan_csv(out_dir / "band_scan.csv", res)
        return band_scan_section(res, args.seed)

    run("band_scan", "band-scan", do_band_scan)

    # --- tones + prevalence
    detections = None

    def do_tones() -> dict:
        nonlocal detections
        if manifest is None:
            raise ParameterError("tone detection needs --manifest")
        detections = _detect_all_sessions(manifest, out_dir if args.spectrogram_csv else None)
        emit_tones_csv(out_dir / "tones.csv", detections)
        return tones_section(
            detections, args.seed, TONE_PERSISTENCE_MIN, TONE_PROMINENCE_MIN_DB
        )

    run("tones", "tones", do_tones)

    def do_prevalence() -> dict:
        if detections is None:
            raise ParameterError("prevalence needs the tone detections")
        labels = {rec.session_id: rec.health_label for rec in manifest.sessions}
        res = tone_prevalence_by_label(detections, labels)
        return prevalence_section(res, args.seed)

    run("prevalence", "tones", do_prevalence, soft=True)

    # --- covariate predictability
    def do_covariate() -> dict:
        wanted = ("device", "side") if suite else (args.covariate,)
        results, not_evaluated = {}, {}
        for cov in wanted:
            try:
                results[cov] = covariate_predictability(table, cov)
            except VibroauditError as exc:
                not_evaluated[cov] = str(exc)
        if not results:
            raise ParameterError(
                "; ".join(f"{c}: {r}" for c, r in not_evaluated.items())
            )
        section = covariate_section(results, args.seed)
        section["not_evaluated"] = not_evaluated
        return section

    run("covariate", "covariate", do_covariate)

    # --- conditioning
    def do_condition() -> dict:
        res = condition_on_covariate(
            table,
            args.covariate,
            control_repeats=_repeats(args, "condition", suite),
            quantile=args.quantile,
            seed=args.seed,
        )
        emit_draws_csv(out_dir / "conditioning_control.csv", "sample_index", res.control_samples)
        return conditioning_section(res, args.seed)

    run("conditioning", "condition", do_condition)

    # --- incremental mixing
    def do_mixing() -> dict:
        values = sorted(set(table.label(args.covariate).tolist()))
        if len(values) != 2:
            raise ParameterError(
                f"mixing needs exactly 2 values of {args.covariate!r}, got {values}"
            )
        res = incremental_mixing_curve(
            table,
            args.covariate,
            values[0],
            values[1],
            repeats=_repeats(args, "mixing", suite),
            seed=args.seed,
        )
        emit_mixing_csv(out_dir / "mixing_curve.csv", res)
        return mixing_section(res, args.seed)

    run("mixing_curve", "mixing", do_mixing)

    # --- rotation
    def do_rotate() -> dict:
        if feature_pair is None or len(feature_pair) != 2:
            raise ParameterError(
                "rotation needs --feature-pair with exactly 2 names"
            )
        sub = table.restrict_features(feature_pair)
        res = rotation_analysis(sub, "side", _parse_grid(args.grid_degrees))
        emit_rotation_csv(out_dir / "rotation_curve.csv", res)
        scatter_rows = (
            [sub.matrix[i, 0], sub.matrix[i, 1],
             sub.label("side")[i], sub.label("health")[i]]
            for i in range(sub.n_rows)
        )
        write_series_csv(
            out_dir / "rotation_scatter.csv",
            feature_pair + ["side", "health"],
            scatter_rows,
        )
        return rotation_section(res, args.seed)

    run("rotation", "rotate", do_rotate)

    # --- counterfactual relabeling
    def do_counterfactual() -> dict:
        spec = relabel if relabel is not None else _auto_day_relabel(table)
        if spec is None:
            raise ParameterError(
                "no --relabel file and the table is not single-subject "
                "multi-session, so there is no regrouping to test"
            )
        res = counterfactual_relabel(
            table,
            spec,
            n_permutations=_repeats(args, "counterfactual", suite),
            seed=args.seed,
        )
        emit_draws_csv(out_dir / "counterfactual_null.csv", "permutation_index", res.null_accuracies)
        return counterfactual_section(res, args.seed, spec)

    run("counterfactual", "counterfactual", do_counterfactual)

    report.timing_s = time.perf_counter() - t_total
    report.write(out_dir / "report.json")

    for name in sorted(report.sections):
        print(f"section {name}: ok")
    for name, reason in sorted(report.skipped_sections.items()):
        print(f"section {name}: skipped ({reason})")
    for flag in report.flags:
        print(f"FLAG {flag}")
    print(f"report written to {out_dir / 'report.json'} "
          f"({len(report.flags)} flag(s))")
    return EXIT_FLAGS if report.flags else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (VibroauditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
