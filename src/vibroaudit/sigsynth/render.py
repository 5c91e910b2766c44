"""Cohort sampling and waveform rendering for synthetic worlds.

Each recording session is rendered from its own random stream keyed by
(world seed, session index), so sessions are reproducible independently
of how many are generated or in what order.  Within a session the draw
order is fixed: session-scope activations and tone phases first, then
per repetition the repetition-scope activations, the observation draw,
and finally the renderer draws for observed sources in source order;
the sensor noise for the whole session is drawn last.

A cohort is rendered lazily, a batch of ``worker_count()`` sessions at a
time, and :func:`write_dataset` writes each session as it arrives, so
synthesis holds about one session per worker in memory, not the cohort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .._parallel import pmap, worker_count
from .._rng import stream, substream_id
from ..dataset import Manifest, SessionRecord, save_manifest, write_json, write_wav
from ..dsp import (
    DEFAULT_BANDPASS_TAPS,
    Signal,
    design_bandpass_fir,
    design_sampled_response_fir,
    fir_spectrum,
    zero_delay_filter,
)
from .world import DEFAULT_TILT_TAPS, BaseSource, WorldSpec, event_index, event_signs, validate_world


# ---------------------------------------------------------------------------
# ground truth containers


@dataclass
class GroundTruth:
    """Per-session record of everything the generative model decided.

    source_events and observed_events hold one {source name: bool} dict
    per repetition (S and O respectively).  component_rms maps source
    name to the per-repetition RMS of that source's contribution to the
    mixture, 0.0 where the source was not observed.  Full component
    waveforms are only retained when the cohort was sampled with
    keep_components=True; they are memory-heavy and default to None.
    """

    source_events: list[dict[str, bool]]
    observed_events: list[dict[str, bool]]
    component_rms: dict[str, list[float]]
    knee_click_amplitudes: list[np.ndarray]
    sensor_noise_rms: float
    components: dict[str, np.ndarray] | None = None
    sensor_noise: np.ndarray | None = None


@dataclass
class RecordingSession:
    session_id: str
    subject_id: str
    side: str
    device_id: str
    health: str
    signal: Signal
    n_repetitions: int
    ground_truth: GroundTruth
    metadata: dict = field(default_factory=dict)


@dataclass
class _PlannedSession:
    session_index: int
    session_id: str
    subject_id: str
    subject_index: int
    side: str
    device_id: str
    health: str
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cohort layout

_DEVICES = ("DL", "DR")


def plan_cohort(world: WorldSpec) -> list[_PlannedSession]:
    """Deterministic session plan for a world (no waveforms yet).

    Health, sides and side-locked devices follow a fixed first-k layout
    so the plan is a pure function of the cohort spec; only 'shuffled'
    device assignment consumes randomness, from the cohort stream, one
    draw per session in session order.
    """
    cohort = world.cohort
    n = cohort.n_subjects
    # each layout lists its legs, in session order, as
    # (subject index, side, health, metadata)
    if cohort.session_tag == "day":
        legs = [(0, "left", "Healthy", {"day": day}) for day in range(n)]
    elif cohort.pairing == "independent":
        n_healthy = n - int(round(n * cohort.health_split))
        legs = [(s, "left" if s % 2 == 0 else "right", "Healthy" if s < n_healthy else "Unhealthy", {})
                for s in range(n)]
    else:
        # complementary: one Healthy and one Unhealthy leg per subject
        n_left_unhealthy = int(round(n * cohort.left_unhealthy_fraction))
        legs = []
        for s in range(n):
            left, right = ("Unhealthy", "Healthy") if s < n_left_unhealthy else ("Healthy", "Unhealthy")
            legs += [(s, "left", left, {}), (s, "right", right, {})]

    rng = stream(world.seed, substream_id("cohort", 0))
    plans = []
    for i, (s, side, health, metadata) in enumerate(legs):
        if cohort.device_assignment == "side-locked":
            device = "DL" if side == "left" else "DR"
        else:
            device = _DEVICES[int(rng.integers(0, len(_DEVICES)))]
        plans.append(_PlannedSession(i, f"sess{i:03d}", f"subj{s:03d}", s, side, device, health, metadata))
    return plans


# ---------------------------------------------------------------------------
# per-source renderers


def _render_knee(rng: np.random.Generator, n: int, fs: float, params: dict,
                 unhealthy_effect: bool) -> tuple[np.ndarray, np.ndarray]:
    """Poisson train of damped sinusoid bursts; returns (wave, click amps)."""
    effect = bool(params.get("health_effect", False)) and unhealthy_effect
    rate = float(params.get("click_rate", 8.0)) * (1.3 if effect else 1.0)
    amp = float(params.get("click_amp", 0.15)) * (1.5 if effect else 1.0)
    f_c = float(params.get("center_freq", 1500.0))
    damping = float(params.get("damping", 80.0))
    jitter = float(params.get("amp_jitter_sigma", 0.1))

    dur = n / fs
    n_clicks = int(rng.poisson(rate * dur))
    starts = rng.uniform(0.0, dur, size=n_clicks)
    amps = amp * rng.lognormal(0.0, jitter, size=n_clicks) if jitter > 0 else np.full(n_clicks, amp)

    # burst long enough for a 60 dB decay
    burst_len = max(1, int(np.ceil(np.log(1000.0) / damping * fs)))
    t = np.arange(burst_len) / fs
    burst = np.sin(2.0 * np.pi * f_c * t) * np.exp(-damping * t)

    out = np.zeros(n)
    for start, a in zip(starts, amps):
        i0 = int(start * fs)
        seg = min(burst_len, n - i0)
        if seg > 0:
            out[i0:i0 + seg] += a * burst[:seg]
    return out, amps


def _render_tone(n: int, fs: float, params: dict, phase: float, abs_start: int) -> np.ndarray:
    """Steady sinusoid; absolute sample time keeps session-scope tones
    phase-continuous across repetition boundaries."""
    freq = float(params.get("freq", 1000.0))
    amp = float(params.get("amp", 0.03))
    t = (abs_start + np.arange(n)) / fs
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def _tilt_taps(slope_db_per_khz: float, fs: float, ref_hz: float, ntaps: int,
               bump: tuple[float, float, float] | None = None) -> np.ndarray:
    """Linear-phase FIR shaping the spectrum by a dB-per-kHz tilt.

    An optional bump (center Hz, gain dB, width Hz) superimposes a
    Gaussian resonance, used as a health-independent device signature.
    """
    nyq = fs / 2.0
    freqs = np.linspace(0.0, nyq, 257)
    gains_db = slope_db_per_khz * (freqs - ref_hz) / 1000.0
    if bump is not None:
        center, gain_db, width = bump
        gains_db = gains_db + gain_db * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    return design_sampled_response_fir(freqs, 10.0 ** (gains_db / 20.0), fs, ntaps)


def _source_fir(src: BaseSource, fs: float, device_id: str, unhealthy: bool) -> np.ndarray:
    """The FIR a filtering source applies in one session.

    A broadband source with a band is colored by the shared zero-delay
    band-pass.  A device-tilt source shapes the mixture of everything else
    by its device's slope (plus the health delta on its delta device) and
    bump; it enters the mixture as the additive residual F(mix) - mix, so
    the session mixture is still an exact sum of per-source components
    plus noise.
    """
    params = src.waveform_params
    if src.kind == "broadband":
        lo, hi = (float(v) for v in params["band"])
        return design_bandpass_fir(lo, hi, fs, int(params.get("taps", DEFAULT_BANDPASS_TAPS)))
    slope = float(params["slopes_db_per_khz"][device_id])
    if unhealthy and device_id == params.get("health_delta_device"):
        slope += float(params.get("health_delta_db_per_khz", 0.0))
    bump = params.get("bumps", {}).get(device_id)
    return _tilt_taps(
        slope,
        fs,
        float(params.get("ref_hz", 1000.0)),
        int(params.get("ntaps", DEFAULT_TILT_TAPS)),
        bump=None if bump is None else tuple(float(v) for v in bump),
    )


# ---------------------------------------------------------------------------
# session rendering


def _day_level_offsets(world: WorldSpec, n_sessions: int) -> dict[int, np.ndarray]:
    """Per-session level offsets for broadband sources with day_levels.

    day_levels gives a fixed offsets_db schedule (extended by repeating
    its last step when there are more sessions than entries) plus an
    optional per-day Gaussian jitter, drawn once per world from a stream
    keyed by the source index so every session sees the same schedule
    regardless of render order.
    """
    offsets: dict[int, np.ndarray] = {}
    for j, src in enumerate(world.base_sources):
        profile = src.waveform_params.get("day_levels")
        if src.kind == "broadband" and profile is not None:
            base = np.asarray(profile.get("offsets_db", [0.0]), dtype=np.float64)
            if len(base) < n_sessions:
                step = base[-1] - base[-2] if len(base) >= 2 else 0.0
                extra = base[-1] + step * np.arange(1, n_sessions - len(base) + 1)
                base = np.concatenate([base, extra])
            out = base[:n_sessions].copy()
            jitter = float(profile.get("jitter_db", 0.0))
            if jitter > 0:
                rng = stream(world.seed, substream_id("misc", j))
                out = out + jitter * rng.standard_normal(n_sessions)
            offsets[j] = out
    return offsets


def _render_session(world: WorldSpec, plan: _PlannedSession,
                    day_offsets: dict[int, np.ndarray],
                    keep_components: bool) -> RecordingSession:
    fs = world.sample_rate
    cohort = world.cohort
    n_rep = cohort.n_repetitions
    rep_len = int(round(cohort.repetition_duration_s * fs))
    total = n_rep * rep_len
    sources = world.base_sources
    names = world.source_names
    n_src = len(sources)
    unhealthy = plan.health == "Unhealthy"
    probs = world.activation_probs(plan.health)

    rng = stream(world.seed, substream_id("session", plan.session_index))

    def draw_scope(scope: str) -> tuple[dict[int, bool], dict[int, float]]:
        # every activation and tone phase of the scope is drawn, in source
        # order, whatever the outcomes, so the stream stays aligned
        active: dict[int, bool] = {}
        phase: dict[int, float] = {}
        for j, src in enumerate(sources):
            if src.activation_scope == scope:
                forced = plan.subject_index in src.forced_active_subjects
                active[j] = bool(rng.random() < probs[j]) or forced
                if src.kind == "tone":
                    phase[j] = float(rng.uniform(0.0, 2.0 * np.pi))
        return active, phase

    session_active, session_phase = draw_scope("session")

    channel = None
    if world.sensor_channel is not None:
        channel = np.asarray(world.sensor_channel, dtype=np.float64)

    # each source's FIR is designed, and its spectrum computed, once per
    # session: device and health, which choose it, are fixed per session
    firs: dict[int, tuple[int, Callable[[int], np.ndarray]]] = {}

    def filtered(j: int, x: np.ndarray) -> np.ndarray:
        if j not in firs:
            h = _source_fir(sources[j], fs, plan.device_id, unhealthy)
            firs[j] = len(h), fir_spectrum(h)
        taps, kernel = firs[j]
        return zero_delay_filter(x, taps, [kernel])[0]

    components = {name: np.zeros(total) for name in names}
    source_events: list[dict[str, bool]] = []
    observed_events: list[dict[str, bool]] = []
    component_rms: dict[str, list[float]] = {name: [] for name in names}
    knee_amps: list[np.ndarray] = []

    for r in range(n_rep):
        lo = r * rep_len
        sl = slice(lo, lo + rep_len)

        rep_active, rep_phase = draw_scope("repetition")
        scope_active = session_active | rep_active
        active = [scope_active[j] for j in range(n_src)]
        phases = session_phase | rep_phase

        if channel is None:
            observed = list(active)
        else:
            col = channel[:, event_index(active)]
            obs_index = int(rng.choice(len(col), p=col / col.sum()))
            observed = event_signs(obs_index, n_src)

        source_events.append(dict(zip(names, active)))
        observed_events.append(dict(zip(names, observed)))

        rep_click_amps = np.zeros(0)
        mix_rep = np.zeros(rep_len)
        tilt_indices = []
        for j, src in enumerate(sources):
            if not observed[j]:
                continue
            if src.kind == "device-tilt":
                tilt_indices.append(j)
                continue
            if src.kind == "knee":
                wave, rep_click_amps = _render_knee(
                    rng, rep_len, fs, src.waveform_params,
                    unhealthy and world.causal_link_enabled,
                )
            elif src.kind == "tone":
                wave = _render_tone(rep_len, fs, src.waveform_params, phases[j], lo)
            else:
                level = float(src.waveform_params.get("level_db", -40.0))
                if j in day_offsets:
                    level += float(day_offsets[j][plan.session_index])
                wave = rng.normal(0.0, 10.0 ** (level / 20.0), size=rep_len)
                if src.waveform_params.get("band") is not None:
                    wave = filtered(j, wave)
            components[names[j]][sl] = wave
            mix_rep += wave

        # tilt acts on the mixture of everything else in this repetition
        for j in tilt_indices:
            components[names[j]][sl] = filtered(j, mix_rep) - mix_rep

        for j, name in enumerate(names):
            if observed[j]:
                seg = components[name][sl]
                component_rms[name].append(float(np.sqrt(np.mean(seg * seg))))
            else:
                component_rms[name].append(0.0)
        knee_amps.append(rep_click_amps)

    noise = rng.normal(0.0, 10.0 ** (world.sensor_noise_db / 20.0), size=total)
    noise_rms = float(np.sqrt(np.mean(noise * noise)))
    # without kept components the mixture is summed into the noise array,
    # each component released as it is added
    mixture = noise.copy() if keep_components else noise
    for name in names:
        mixture += components[name] if keep_components else components.pop(name)

    truth = GroundTruth(
        source_events=source_events,
        observed_events=observed_events,
        component_rms=component_rms,
        knee_click_amplitudes=knee_amps,
        sensor_noise_rms=noise_rms,
        components=components if keep_components else None,
        sensor_noise=noise if keep_components else None,
    )
    return RecordingSession(
        session_id=plan.session_id,
        subject_id=plan.subject_id,
        side=plan.side,
        device_id=plan.device_id,
        health=plan.health,
        signal=Signal(mixture, fs),
        n_repetitions=n_rep,
        ground_truth=truth,
        metadata=dict(plan.metadata),
    )


def sample_cohort(world: WorldSpec, *, keep_components: bool = False) -> Iterator[RecordingSession]:
    """Render every session of a world, lazily, in plan order.

    The world is validated and the cohort planned at the call; sessions
    are rendered as the result is iterated, ``worker_count()`` at a time,
    so memory holds one session per worker, not the cohort.  Iterate once,
    or take ``list(...)`` to keep every session.  Pass keep_components=True
    to retain the per-source waveforms and the noise floor in each ground
    truth (memory scales with sources x session length; the summary RMS
    values are always recorded).
    """
    validate_world(world)
    plans = plan_cohort(world)
    day_offsets = _day_level_offsets(world, len(plans))
    return _render_batches(world, plans, day_offsets, keep_components)


def _render_batches(world: WorldSpec, plans: list[_PlannedSession],
                    day_offsets: dict[int, np.ndarray],
                    keep_components: bool) -> Iterator[RecordingSession]:
    step = worker_count()
    for start in range(0, len(plans), step):
        yield from pmap(
            lambda plan: _render_session(world, plan, day_offsets, keep_components),
            plans[start:start + step],
        )


# ---------------------------------------------------------------------------
# dataset export


def write_dataset(sessions: Iterable[RecordingSession], out_dir, world: WorldSpec) -> Path:
    """Write float32 WAVs, manifest.json and ground_truth.json.

    ``sessions`` may be any iterable, such as the lazy one
    :func:`sample_cohort` returns: each WAV is written as its session
    arrives, and only the session's manifest record and ground-truth
    entry are kept.  manifest.json and ground_truth.json are written after
    the last WAV, and any left by an earlier export are removed first, so
    a render that fails part way leaves no manifest beside its WAVs.
    Output bytes are deterministic for a given (world, sessions) pair:
    JSON is dumped with sorted keys and WAV samples are float32 exact.
    Returns the manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    truth_path = out_dir / "ground_truth.json"
    for stale in (manifest_path, truth_path):
        stale.unlink(missing_ok=True)

    records = []
    truth_sessions: dict[str, dict] = {}
    # the loop holds each session until the next one arrives, and so keeps
    # the allocator from handing the memory the session's render freed back
    # to the OS: the next render reuses it instead of faulting in fresh pages
    for sess in sessions:
        wav_name = f"{sess.session_id}.wav"
        write_wav(out_dir / wav_name, sess.signal, encoding="float32")
        records.append(
            SessionRecord(
                session_id=sess.session_id,
                subject_id=sess.subject_id,
                side=sess.side,
                device_id=sess.device_id,
                health_label=sess.health,
                wav_path=wav_name,
                n_repetitions=sess.n_repetitions,
                metadata=dict(sess.metadata),
            )
        )
        truth = sess.ground_truth
        truth_sessions[sess.session_id] = {
            "subject_id": sess.subject_id,
            "side": sess.side,
            "device_id": sess.device_id,
            "health_label": sess.health,
            "repetitions": [
                {
                    "source_event": truth.source_events[r],
                    "observed_event": truth.observed_events[r],
                    "component_rms": {
                        name: truth.component_rms[name][r] for name in truth.component_rms
                    },
                    "n_knee_clicks": int(len(truth.knee_click_amplitudes[r])),
                }
                for r in range(sess.n_repetitions)
            ],
            "sensor_noise_rms": truth.sensor_noise_rms,
        }

    save_manifest(Manifest(sessions=records, root=out_dir), manifest_path)
    write_json(truth_path, {"world": world.to_json_dict(), "sessions": truth_sessions})
    return manifest_path
