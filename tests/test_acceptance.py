"""Release gates: every audited bias mechanism at its documented tolerance.

One test per gate, in the order the README lists them.  Each test
prints a single summary line with its measured margins so a verbose
run reads as a checklist.  The synthetic scales here (subject counts,
seed counts, Monte Carlo repeats) are part of the contract and must
not be reduced to save time.
"""

import json
import tempfile
import time

import numpy as np
import pytest

from tablegen import assemble_table, rotated_pair_table
from vibroaudit.audit import (
    band_scan,
    condition_on_covariate,
    counterfactual_relabel,
    covariate_predictability,
    detect_persistent_tones,
    rotation_analysis,
)
from vibroaudit.cli import EXIT_FLAGS, EXIT_OK, main as cli_main
from vibroaudit.dataset import (
    FeatureConfig,
    FeatureTable,
    extract_features,
    extract_table,
    ingest_wav,
    load_manifest,
)
from vibroaudit.dsp import (
    Signal,
    design_bandpass_fir,
    dct2_matrix,
    fir_response_db,
    spectral_frame_energy,
    stft,
    stft_complex,
)
from vibroaudit.learn import fit_linear, loso_cv, predict
from vibroaudit.report import strip_timing
from vibroaudit.sigsynth import (
    BaseSource,
    CohortSpec,
    QuantizerSpec,
    WorldSpec,
    bayes_accuracy,
    enumerate_composite_events,
    independent_sensor_channel,
    sample_cohort,
    scenario_preset,
    write_dataset,
)
from vibroaudit.sigsynth.presets import default_band_plan, recommended_feature_config

pytestmark = pytest.mark.acceptance

FS = 100_000.0
TONE_BAND = (30_000.0, 40_000.0)


def render_dataset(name, seed, out_dir, n_subjects=None):
    world = scenario_preset(name, seed=seed, n_subjects=n_subjects)
    sessions = sample_cohort(world)
    return write_dataset(sessions, out_dir, world)


@pytest.fixture(scope="module")
def tone_world_seed0(tmp_path_factory):
    """The 20-subject biased-tone dataset reused by the scan and detector gates."""
    out = tmp_path_factory.mktemp("tone20")
    manifest_path = render_dataset("tone-bias", 0, out, n_subjects=20)
    truth = json.loads((out / "ground_truth.json").read_text())
    return load_manifest(manifest_path), truth


def test_tone_band_scan_separates_artifact_band(tone_world_seed0):
    bands = default_band_plan()
    cfg = recommended_feature_config("tone-bias")
    tone_idx = bands.index(TONE_BAND)
    base_idx = bands.index((250.0, 10_000.0))

    per_band = []
    worst_seed_s = 0.0
    manifest0, _ = tone_world_seed0
    for seed in range(10):
        t0 = time.perf_counter()
        if seed == 0:
            res = band_scan(manifest0, bands, cfg)
        else:
            with tempfile.TemporaryDirectory() as td:
                manifest = load_manifest(render_dataset("tone-bias", seed, td, 20))
                res = band_scan(manifest, bands, cfg)
        per_band.append(res.per_band_accuracy)
        worst_seed_s = max(worst_seed_s, time.perf_counter() - t0)
    per_band = np.asarray(per_band)
    means = per_band.mean(axis=0)

    assert means[tone_idx] >= 0.85
    for i, m in enumerate(means):
        if i != tone_idx:
            assert 0.35 <= m <= 0.65, (bands[i], m)
    # conditioning away the artifact band deflates accuracy on every seed
    gaps = per_band[:, tone_idx] - per_band[:, base_idx]
    assert np.all(gaps >= 0.20)
    assert worst_seed_s <= 180.0

    rand = []
    for seed in range(10):
        with tempfile.TemporaryDirectory() as td:
            manifest = load_manifest(render_dataset("randomized-tone", seed, td, 20))
            rand.append(band_scan(manifest, [TONE_BAND], cfg).per_band_accuracy[0])
    rand_mean = float(np.mean(rand))
    assert 0.35 <= rand_mean <= 0.65

    print(
        f"PASS band scan: tone band mean {means[tone_idx]:.3f}, other bands "
        f"{[round(m, 3) for i, m in enumerate(means) if i != tone_idx]}, "
        f"min deflation gap {gaps.min():.3f}, randomized mean {rand_mean:.3f}, "
        f"worst seed {worst_seed_s:.1f}s"
    )


def test_persistent_tone_detector_hits_and_stays_quiet(tone_world_seed0):
    manifest, truth = tone_world_seed0
    t0 = time.perf_counter()
    n_tone = 0
    worst_err, min_persistence = 0.0, 1.0
    df = None
    for rec in manifest.sessions:
        reps = truth["sessions"][rec.session_id]["repetitions"]
        if not any(r["observed_event"].get("interference-tone") for r in reps):
            continue
        n_tone += 1
        sig = ingest_wav(manifest.wav_file(rec))
        if sig.channels == 2:
            sig = Signal(sig.samples.mean(axis=1), sig.sample_rate)
        spec = stft(sig, 2048, 1024)
        df = spec.bin_freqs[1] - spec.bin_freqs[0]
        near = [
            d for d in detect_persistent_tones(spec)
            if abs(d.center_freq - 33_000.0) <= df
        ]
        assert near, f"{rec.session_id}: no detection near 33 kHz"
        worst_err = max(worst_err, abs(near[0].center_freq - 33_000.0))
        min_persistence = min(min_persistence, near[0].persistence)
    assert n_tone >= 11
    assert min_persistence > 0.95

    false_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noise = Signal(rng.normal(0.0, 0.1, int(FS)), FS)
        if detect_persistent_tones(stft(noise, 2048, 1024)):
            false_hits += 1
    elapsed = time.perf_counter() - t0
    assert false_hits <= 5
    assert elapsed <= 60.0

    print(
        f"PASS tone detector: {n_tone} tone sessions, worst center error "
        f"{worst_err:.2f} Hz (bin {df:.2f} Hz), min persistence "
        f"{min_persistence:.3f}, {false_hits}/100 white-noise false hits, "
        f"{elapsed:.1f}s"
    )


def test_day_regrouping_inflates_without_any_mechanism():
    cfg = recommended_feature_config("day-nuisance")
    hits = 0
    accs, null_means = [], []
    for seed in range(10):
        with tempfile.TemporaryDirectory() as td:
            manifest = load_manifest(render_dataset("day-nuisance", seed, td))
            table = extract_table(manifest, cfg)
        days = sorted(set(table.label("session_id").tolist()))
        relabel = {
            d: (f"day-subj{i}", "Healthy" if i < 2 else "Unhealthy")
            for i, d in enumerate(days)
        }
        res = counterfactual_relabel(table, relabel, n_permutations=200, seed=seed)
        accs.append(res.accuracy)
        null_means.append(res.null_mean)
        hits += res.accuracy >= 0.80
        assert 0.40 <= res.null_mean <= 0.60, (seed, res.null_mean)
    assert hits >= 8

    print(
        f"PASS day regrouping: accuracy >= 0.80 on {hits}/10 seeds "
        f"(min {min(accs):.3f}), null means within "
        f"[{min(null_means):.3f}, {max(null_means):.3f}]"
    )


def test_device_conditioning_collapses_one_stratum():
    cfg = recommended_feature_config("device-shift")
    t0 = time.perf_counter()
    fulls, covs = [], []
    below_cutoff = 0
    for seed in range(20):
        with tempfile.TemporaryDirectory() as td:
            manifest = load_manifest(render_dataset("device-shift", seed, td))
            table = extract_table(manifest, cfg)
        fulls.append(loso_cv(table).mean_repetition_accuracy)
        cond = condition_on_covariate(
            table, "device", control_repeats=1000, seed=seed
        )
        below_cutoff += cond.stratum_accuracy["DL"] <= cond.control_cutoff
        covs.append(covariate_predictability(table, "device").mean_repetition_accuracy)
    elapsed = time.perf_counter() - t0

    assert float(np.mean(fulls)) >= 0.70
    assert below_cutoff >= 18
    assert float(np.mean(covs)) >= 0.80
    assert elapsed <= 600.0

    print(
        f"PASS device conditioning: full accuracy mean {np.mean(fulls):.3f} "
        f"(min {min(fulls):.3f}), left-device stratum below control cutoff on "
        f"{below_cutoff}/20 seeds, device predictability {np.mean(covs):.3f}, "
        f"{elapsed:.0f}s"
    )


def test_rotation_alignment_removes_class_separation():
    big = rotated_pair_table(n_subjects=20, reps=2500, seed=0)
    phi = rotation_analysis(big, "side", [0.0]).phi_degrees
    assert abs(phi - 10.0) < 1.0

    acc0, acc10 = [], []
    for seed in range(100):
        res = rotation_analysis(rotated_pair_table(seed=seed), "side", [0.0, 10.0])
        curve = dict(res.accuracy_vs_rotation)
        acc0.append(curve[0.0])
        acc10.append(curve[10.0])
    mean0 = float(np.mean(acc0))
    mean10 = float(np.mean(acc10))
    assert 0.40 <= mean0 <= 0.60
    assert mean10 - mean0 >= 0.10

    print(
        f"PASS rotation: planted 10.0 deg recovered as {phi:.3f} on 1e5 points; "
        f"aligned accuracy {mean0:.3f}, at 10 deg {mean10:.3f} "
        f"(gap {mean10 - mean0:.3f} over 100 seeds)"
    )


def _toy_world_and_quantizer(p_tone_h=0.15, p_tone_u=0.85, observe=0.9):
    knee = BaseSource(
        "knee", "knee", {"Healthy": 1.0, "Unhealthy": 1.0},
        {"health_effect": False},
    )
    tone = BaseSource(
        "tone", "tone", {"Healthy": p_tone_h, "Unhealthy": p_tone_u},
        {"freq": 440.0},
    )
    world = WorldSpec(
        base_sources=[knee, tone],
        cohort=CohortSpec(n_subjects=4, n_repetitions=2, repetition_duration_s=0.5),
        sample_rate=8_000.0,
        causal_link_enabled=False,
        sensor_channel=independent_sensor_channel(2, [1.0, observe]),
        seed=0,
    )
    events = enumerate_composite_events(2)
    cells = np.zeros((len(events), 2))
    for i, ev in enumerate(events):
        cells[i, 0 if ev.signs[1] else 1] = 1.0
    return world, QuantizerSpec(2, cells), np.array([1.0, observe])


def _sample_toy_table(world, observe_probs, n_subjects, reps, seed):
    rng = np.random.default_rng(seed)
    rows, subjects, health = [], [], []
    for s in range(n_subjects):
        label = "Healthy" if s < n_subjects // 2 else "Unhealthy"
        act = np.asarray(world.activation_probs(label))
        for _ in range(reps):
            src = rng.random(2) < act
            obs = src & (rng.random(2) < observe_probs)
            rows.append([1.0 if obs[1] else 0.0])
            subjects.append(f"subj{s:03d}")
            health.append(label)
    n = len(rows)
    return assemble_table(
        np.asarray(rows),
        session_id=subjects,
        subject=subjects,
        health=health,
        side=["left"] * n,
        device=["DL"] * n,
    )


def test_empirical_loso_tracks_enumerated_ceiling():
    world, quantizer, observe = _toy_world_and_quantizer()
    bayes = bayes_accuracy(world, quantizer)
    n_subjects, reps = 24, 40
    n_rows = n_subjects * reps
    sigma = (bayes * (1.0 - bayes) / n_rows) ** 0.5

    gaps = []
    for seed in range(50):
        table = _sample_toy_table(world, observe, n_subjects, reps, seed)
        gaps.append(loso_cv(table).mean_repetition_accuracy - bayes)
    gaps = np.asarray(gaps)

    assert np.all(np.abs(gaps) <= 0.05)
    assert np.all(gaps <= 3.0 * sigma)

    print(
        f"PASS enumeration ceiling: Bayes {bayes:.3f}, empirical gap in "
        f"[{gaps.min():+.4f}, {gaps.max():+.4f}] over 50 seeds "
        f"(3-sigma band {3 * sigma:.4f})"
    )


def _gaussian_pair_table(n_subjects, reps, sep, noise, seed, names=None):
    rng = np.random.default_rng(seed)
    rows, subjects, health = [], [], []
    for s in range(n_subjects):
        label = "Healthy" if s < n_subjects // 2 else "Unhealthy"
        center = -sep / 2 if label == "Healthy" else sep / 2
        for _ in range(reps):
            rows.append([center + noise * rng.normal(), rng.normal()])
            subjects.append(f"subj{s:03d}")
            health.append(label)
    n = len(rows)
    return assemble_table(
        np.asarray(rows),
        session_id=subjects,
        subject=subjects,
        health=health,
        side=["left"] * n,
        device=["DL"] * n,
        names=names,
    )


def test_loso_matches_retraining_oracle_and_null_is_chance():
    table = _gaussian_pair_table(4, 3, sep=2.0, noise=1.0, seed=7)
    cv = loso_cv(table)
    subjects = table.labels["subject"]
    names = list(table.feature_names)
    for g in sorted(set(subjects.tolist())):
        train = subjects != g
        model = fit_linear(table.matrix[train], table.labels["health"][train], names)
        for i in np.where(~train)[0]:
            row = {n: table.matrix[i, j] for j, n in enumerate(names)}
            label, score = predict(model, row)
            assert cv.row_pred[i] == label
            assert cv.row_score[i] == score
    scored = cv.row_pred != ""
    assert cv.mean_repetition_accuracy == float(
        np.mean(cv.row_pred[scored] == table.labels["health"][scored])
    )

    null_accs = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(48, 3))
        subj = np.repeat([f"subj{i}" for i in range(8)], 6)
        health = np.array(["Healthy"] * 24 + ["Unhealthy"] * 24, dtype=object)
        rng.shuffle(health)
        shuffled = assemble_table(
            x,
            session_id=subj.tolist(),
            subject=subj.tolist(),
            health=health.tolist(),
            side=["left"] * 48,
            device=["DL"] * 48,
        )
        null_accs.append(loso_cv(shuffled).mean_repetition_accuracy)
    null_mean = float(np.mean(null_accs))
    assert 0.45 <= null_mean <= 0.55

    base = _gaussian_pair_table(6, 4, sep=3.0, noise=0.5, seed=13)
    cv_a = loso_cv(base)
    scaled = FeatureTable(
        feature_names=list(base.feature_names),
        matrix=base.matrix.copy(),
        labels=base.labels,
        repetition_index=base.repetition_index,
    )
    scaled.matrix[:, 0] *= 4.0
    cv_b = loso_cv(scaled)
    np.testing.assert_array_equal(cv_a.row_pred, cv_b.row_pred)
    np.testing.assert_array_equal(cv_a.row_score, cv_b.row_score)
    assert cv_a.mean_repetition_accuracy == cv_b.mean_repetition_accuracy

    print(
        f"PASS learning: retraining oracle matched on all folds, shuffled null "
        f"mean {null_mean:.4f} over 200 seeds, rescaling left predictions "
        f"bit-identical"
    )


def test_signal_chain_reference_points():
    h = design_bandpass_fir(250.0, 10_000.0, FS, 513)
    gain_33k = fir_response_db(h, np.array([33_000.0]), FS)[0]
    assert gain_33k <= -60.0
    h2 = design_bandpass_fir(5_000.0, 15_000.0, FS, 513)
    edge_gains = fir_response_db(h2, np.array([0.8 * 5_000.0, 1.2 * 15_000.0]), FS)
    assert np.all(edge_gains <= -60.0)

    for n in (13, 26):
        mat = dct2_matrix(n)
        np.testing.assert_allclose(mat @ mat.T, np.eye(n), atol=1e-10)

    rng = np.random.default_rng(3)
    x = rng.normal(size=50_000)
    frame_len, hop = 1024, 512
    coeffs = stft_complex(Signal(x, FS), frame_len, hop)
    spec_energy = spectral_frame_energy(coeffs, frame_len)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame_len) / frame_len)
    time_energy = np.array(
        [
            np.sum((x[k * hop : k * hop + frame_len] * w) ** 2)
            for k in range(coeffs.shape[0])
        ]
    )
    np.testing.assert_allclose(spec_energy, time_energy, rtol=1e-6)

    cfg = FeatureConfig(band_lo=250.0, band_hi=10_000.0)
    rng = np.random.default_rng(5)
    base_x = 0.05 * rng.normal(size=60_000)
    t = np.arange(60_000) / FS
    tone = 0.3 * np.sin(2 * np.pi * 33_000.0 * t)
    base = extract_features(Signal(base_x, FS), cfg)
    with_tone = extract_features(Signal(base_x + tone, FS), cfg)
    worst_rel = 0.0
    for name, val in base.values.items():
        rel = abs(with_tone.values[name] - val) / max(1e-12, abs(val))
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-6, name

    print(
        f"PASS signal chain: 33 kHz leakage {gain_33k:.1f} dB, scaled edges "
        f"{edge_gains.round(1).tolist()} dB, orthonormality and frame energy "
        f"within tolerance, out-of-band feature drift {worst_rel:.2e}"
    )


def test_pipeline_reruns_byte_identical(tmp_path):
    def one_run(tag):
        root = tmp_path / tag
        data = root / "data"
        assert cli_main([
            "synth", "--scenario", "tone-bias", "--subjects", "6",
            "--repetitions", "3", "--duration", "2.0",
            "--seed", "11", "--out", str(data),
        ]) == EXIT_OK
        assert cli_main([
            "features", "--manifest", str(data / "manifest.json"),
            "--out", str(root / "features.csv"),
        ]) == EXIT_OK
        rc = cli_main([
            "audit", "suite", "--manifest", str(data / "manifest.json"),
            "--seed", "11", "--out", str(root / "audit"), "--repeats", "200",
        ])
        assert rc == EXIT_FLAGS
        return root

    a = one_run("a")
    b = one_run("b")

    assert (a / "data" / "manifest.json").read_bytes() == (
        b / "data" / "manifest.json"
    ).read_bytes()
    assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()

    def stable_bytes(root):
        doc = strip_timing(json.loads((root / "audit" / "report.json").read_text()))
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    assert stable_bytes(a) == stable_bytes(b)

    csvs = sorted(p.name for p in (a / "audit").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (a / "audit" / name).read_bytes() == (
            b / "audit" / name
        ).read_bytes()

    print(
        f"PASS determinism: reports byte-identical after timing removal, "
        f"{len(csvs)} emitted series byte-identical across independent runs"
    )
