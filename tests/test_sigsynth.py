"""Tests for the synthetic world model, rendering and exact posteriors."""

import json
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.signal import firwin2
from scipy.stats import ks_2samp

from vibroaudit.dataset import ingest_wav, load_manifest
from vibroaudit.errors import CapacityError, ParameterError
from vibroaudit.sigsynth import (
    SCENARIOS,
    BaseSource,
    CohortSpec,
    QuantizerSpec,
    WorldSpec,
    bayes_accuracy,
    enumerate_composite_events,
    event_probability,
    exact_posterior,
    independent_sensor_channel,
    sample_cohort,
    scenario_preset,
    validate_world,
    write_dataset,
)
from vibroaudit.sigsynth import render
from vibroaudit.sigsynth.render import plan_cohort
from vibroaudit.sigsynth.world import HEALTH_VALUES, event_index


def make_world(sources, n_subjects=4, fs=8000.0, seed=0, reps=2, dur=0.5, **kw):
    return WorldSpec(
        base_sources=sources,
        cohort=CohortSpec(
            n_subjects=n_subjects,
            n_repetitions=reps,
            repetition_duration_s=dur,
            **kw.pop("cohort_kw", {}),
        ),
        sample_rate=fs,
        seed=seed,
        **kw,
    )


def quiet_knee(active=1.0, effect=False):
    return BaseSource(
        name="knee",
        kind="knee",
        activation_prob_given_health={"Healthy": active, "Unhealthy": active},
        waveform_params={"health_effect": effect},
    )


class TestCompositeEvents:
    def test_two_source_listing(self):
        events = enumerate_composite_events(2)
        assert [e.signs for e in events] == [
            (True, True),
            (False, True),
            (True, False),
            (False, False),
        ]

    def test_count_and_disjointness(self):
        events = enumerate_composite_events(4)
        assert len(events) == 16
        assert len({e.signs for e in events}) == 16
        # the index the renderer looks events up by is their position
        assert [event_index(e.signs) for e in events] == list(range(16))

    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(0, 7))
            probs = rng.uniform(0, 1, size=n)
            total = sum(event_probability(e, probs) for e in enumerate_composite_events(n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_event_probability_example(self):
        events = enumerate_composite_events(2)
        p = [event_probability(e, [0.6, 0.25]) for e in events]
        assert p[0] == pytest.approx(0.6 * 0.25)
        assert p[1] == pytest.approx(0.4 * 0.25)
        assert p[2] == pytest.approx(0.6 * 0.75)
        assert p[3] == pytest.approx(0.4 * 0.75)

    def test_active_names(self):
        events = enumerate_composite_events(2)
        assert events[1].active_names(["a", "b"]) == ("b",)

    def test_capacity_and_parameter_errors(self):
        with pytest.raises(CapacityError):
            enumerate_composite_events(21)
        with pytest.raises(ParameterError):
            enumerate_composite_events(-1)
        with pytest.raises(ParameterError):
            event_probability(enumerate_composite_events(2)[0], [0.5])


class TestSensorChannel:
    def test_columns_are_distributions(self):
        mat = independent_sensor_channel(3, [0.9, 0.5, 0.1])
        assert mat.shape == (8, 8)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)

    def test_perfect_sensor_is_identity(self):
        assert np.array_equal(independent_sensor_channel(2, [1.0, 1.0]), np.eye(4))

    def test_inactive_source_never_observed(self):
        events = enumerate_composite_events(2)
        mat = independent_sensor_channel(2, [0.9, 0.9])
        # column: only source 0 active; rows where source 1 is observed must be 0
        j = next(i for i, e in enumerate(events) if e.signs == (True, False))
        for i, obs in enumerate(events):
            if obs.signs[1]:
                assert mat[i, j] == 0.0

    def test_drop_probability(self):
        events = enumerate_composite_events(1)
        mat = independent_sensor_channel(1, [0.7])
        j = events.index(next(e for e in events if e.signs == (True,)))
        i_seen = next(i for i, e in enumerate(events) if e.signs == (True,))
        i_missed = next(i for i, e in enumerate(events) if e.signs == (False,))
        assert mat[i_seen, j] == pytest.approx(0.7)
        assert mat[i_missed, j] == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            independent_sensor_channel(2, [0.5])
        with pytest.raises(ParameterError):
            independent_sensor_channel(1, [1.5])


class TestWorldValidation:
    def test_exactly_one_knee_required(self):
        with pytest.raises(ParameterError, match="knee"):
            validate_world(make_world([]))
        with pytest.raises(ParameterError, match="knee"):
            two = [quiet_knee(), quiet_knee()]
            two[1].name = "knee2"
            validate_world(make_world(two))

    def test_duplicate_names_rejected(self):
        tone = BaseSource("knee", "tone", {"Healthy": 0, "Unhealthy": 0}, {"freq": 100})
        with pytest.raises(ParameterError, match="unique"):
            validate_world(make_world([quiet_knee(), tone]))

    def test_tone_must_sit_below_nyquist(self):
        tone = BaseSource("t", "tone", {"Healthy": 0, "Unhealthy": 0}, {"freq": 4000.0})
        with pytest.raises(ParameterError, match="Nyquist"):
            validate_world(make_world([quiet_knee(), tone], fs=8000.0))

    def test_forced_subject_must_exist(self):
        tone = BaseSource(
            "t", "tone", {"Healthy": 0, "Unhealthy": 0}, {"freq": 100.0},
            forced_active_subjects=(9,),
        )
        with pytest.raises(ParameterError, match="forced"):
            validate_world(make_world([quiet_knee(), tone], n_subjects=4))

    def test_disabled_causal_link_forbids_health_effect(self):
        w = make_world([quiet_knee(effect=True)], causal_link_enabled=False)
        with pytest.raises(ParameterError, match="health_effect"):
            validate_world(w)

    def test_device_tilt_needs_a_slope_for_every_planned_device(self):
        def tilt_world(n_subjects):
            tilt = BaseSource(
                "tilt", "device-tilt", {"Healthy": 1.0, "Unhealthy": 1.0},
                {"slopes_db_per_khz": {"DL": 0.25}}, activation_scope="session",
            )
            return make_world([quiet_knee(), tilt], n_subjects=n_subjects, reps=1, dur=0.1)

        # one subject plays only the left side, side-locked to DL
        validate_world(tilt_world(1))
        with pytest.raises(ParameterError, match="no slope for device 'DR'"):
            validate_world(tilt_world(2))

    @pytest.mark.parametrize(
        "name, source, params, message",
        [
            ("day-nuisance", "day-hum", {"band": (2800.0, 9000.0)},
             "source day-hum: hi=9000.0 exceeds Nyquist 8000.0"),
            ("day-nuisance", "day-hum", {"taps": 512},
             "source day-hum: taps must be an odd integer >= 3, got 512"),
            ("device-shift", "device-tilt", {"ntaps": 128},
             "source device-tilt: tilt filter needs an odd number of taps"),
            ("device-shift", "device-tilt", {"ntaps": 1},
             "source device-tilt: tilt filter needs an odd number of taps >= 3, got 1"),
        ],
    )
    def test_source_filters_are_checked_before_any_render(self, monkeypatch, name, source, params, message):
        w = scenario_preset(name, seed=0, n_subjects=2, n_repetitions=1, repetition_duration_s=0.1)
        next(s for s in w.base_sources if s.name == source).waveform_params.update(params)
        monkeypatch.setattr(render, "_render_session", lambda *args: pytest.fail("a session rendered"))
        with pytest.raises(ParameterError, match=re.escape(message)):
            sample_cohort(w)

    def test_sensor_channel_shape_and_columns(self):
        w = make_world([quiet_knee()], sensor_channel=np.eye(4))
        with pytest.raises(ParameterError, match="shape"):
            validate_world(w)
        bad = np.eye(2)
        bad[0, 0] = 0.5
        w = make_world([quiet_knee()], sensor_channel=bad)
        with pytest.raises(ParameterError, match="sum to 1"):
            validate_world(w)

    def test_activation_probability_bounds(self):
        with pytest.raises(ParameterError):
            BaseSource("k", "knee", {"Healthy": 1.2, "Unhealthy": 0.0})
        with pytest.raises(ParameterError):
            BaseSource("k", "knee", {"Healthy": 0.5})

    def test_unknown_kind_and_scope(self):
        with pytest.raises(ParameterError):
            BaseSource("k", "hum", {"Healthy": 0, "Unhealthy": 0})
        with pytest.raises(ParameterError):
            BaseSource("k", "knee", {"Healthy": 0, "Unhealthy": 0}, activation_scope="week")


# every planned session at seed 0: session id, subject id, side, device,
# health and metadata; shuffled devices come from the cohort stream's Philox
# integers, so these hold on every platform
PLAN_PINS = {
    'clean': """
        sess000 subj000 left DL Healthy
        sess001 subj001 right DL Healthy
        sess002 subj002 left DR Healthy
        sess003 subj003 right DL Healthy
        sess004 subj004 left DL Healthy
        sess005 subj005 right DL Healthy
        sess006 subj006 left DL Healthy
        sess007 subj007 right DR Healthy
        sess008 subj008 left DR Healthy
        sess009 subj009 right DR Healthy
        sess010 subj010 left DR Unhealthy
        sess011 subj011 right DL Unhealthy
        sess012 subj012 left DR Unhealthy
        sess013 subj013 right DR Unhealthy
        sess014 subj014 left DL Unhealthy
        sess015 subj015 right DR Unhealthy
        sess016 subj016 left DR Unhealthy
        sess017 subj017 right DL Unhealthy
        sess018 subj018 left DL Unhealthy
        sess019 subj019 right DL Unhealthy
    """,
    'tone-bias': """
        sess000 subj000 left DL Healthy
        sess001 subj001 right DR Healthy
        sess002 subj002 left DL Healthy
        sess003 subj003 right DR Healthy
        sess004 subj004 left DL Healthy
        sess005 subj005 right DR Healthy
        sess006 subj006 left DL Healthy
        sess007 subj007 right DR Healthy
        sess008 subj008 left DL Healthy
        sess009 subj009 right DR Healthy
        sess010 subj010 left DL Unhealthy
        sess011 subj011 right DR Unhealthy
        sess012 subj012 left DL Unhealthy
        sess013 subj013 right DR Unhealthy
        sess014 subj014 left DL Unhealthy
        sess015 subj015 right DR Unhealthy
        sess016 subj016 left DL Unhealthy
        sess017 subj017 right DR Unhealthy
        sess018 subj018 left DL Unhealthy
        sess019 subj019 right DR Unhealthy
    """,
    'randomized-tone': """
        sess000 subj000 left DL Healthy
        sess001 subj001 right DR Healthy
        sess002 subj002 left DL Healthy
        sess003 subj003 right DR Healthy
        sess004 subj004 left DL Healthy
        sess005 subj005 right DR Healthy
        sess006 subj006 left DL Healthy
        sess007 subj007 right DR Healthy
        sess008 subj008 left DL Healthy
        sess009 subj009 right DR Healthy
        sess010 subj010 left DL Unhealthy
        sess011 subj011 right DR Unhealthy
        sess012 subj012 left DL Unhealthy
        sess013 subj013 right DR Unhealthy
        sess014 subj014 left DL Unhealthy
        sess015 subj015 right DR Unhealthy
        sess016 subj016 left DL Unhealthy
        sess017 subj017 right DR Unhealthy
        sess018 subj018 left DL Unhealthy
        sess019 subj019 right DR Unhealthy
    """,
    'device-shift': """
        sess000 subj000 left DL Unhealthy
        sess001 subj000 right DR Healthy
        sess002 subj001 left DL Unhealthy
        sess003 subj001 right DR Healthy
        sess004 subj002 left DL Unhealthy
        sess005 subj002 right DR Healthy
        sess006 subj003 left DL Unhealthy
        sess007 subj003 right DR Healthy
        sess008 subj004 left DL Unhealthy
        sess009 subj004 right DR Healthy
        sess010 subj005 left DL Unhealthy
        sess011 subj005 right DR Healthy
        sess012 subj006 left DL Healthy
        sess013 subj006 right DR Unhealthy
        sess014 subj007 left DL Healthy
        sess015 subj007 right DR Unhealthy
        sess016 subj008 left DL Healthy
        sess017 subj008 right DR Unhealthy
        sess018 subj009 left DL Healthy
        sess019 subj009 right DR Unhealthy
        sess020 subj010 left DL Healthy
        sess021 subj010 right DR Unhealthy
        sess022 subj011 left DL Healthy
        sess023 subj011 right DR Unhealthy
        sess024 subj012 left DL Healthy
        sess025 subj012 right DR Unhealthy
        sess026 subj013 left DL Healthy
        sess027 subj013 right DR Unhealthy
        sess028 subj014 left DL Healthy
        sess029 subj014 right DR Unhealthy
        sess030 subj015 left DL Healthy
        sess031 subj015 right DR Unhealthy
    """,
    'day-nuisance': """
        sess000 subj000 left DL Healthy day=0
        sess001 subj000 left DL Healthy day=1
        sess002 subj000 left DL Healthy day=2
        sess003 subj000 left DL Healthy day=3
        sess004 subj000 left DL Healthy day=4
    """,
    'shuffled-0': """
        sess000 subj000 left DL Unhealthy
        sess001 subj000 right DL Healthy
        sess002 subj001 left DR Unhealthy
        sess003 subj001 right DL Healthy
        sess004 subj002 left DL Healthy
        sess005 subj002 right DL Unhealthy
        sess006 subj003 left DL Healthy
        sess007 subj003 right DR Unhealthy
    """,
    'shuffled-1': """
        sess000 subj000 left DL Unhealthy
        sess001 subj000 right DL Healthy
        sess002 subj001 left DR Unhealthy
        sess003 subj001 right DR Healthy
        sess004 subj002 left DL Healthy
        sess005 subj002 right DL Unhealthy
        sess006 subj003 left DL Healthy
        sess007 subj003 right DL Unhealthy
    """,
}


def layout(world) -> list[str]:
    return [" ".join([p.session_id, p.subject_id, p.side, p.device_id, p.health]
                     + [f"{k}={v}" for k, v in p.metadata.items()]) for p in plan_cohort(world)]


def shuffled_world(seed: int) -> WorldSpec:
    # complementary legs with shuffled devices: one cohort-stream draw per leg
    w = scenario_preset("device-shift", n_subjects=4, seed=seed, n_repetitions=2,
                        repetition_duration_s=0.25)
    return replace(w, cohort=replace(w.cohort, device_assignment="shuffled"))


class TestCohortPlanning:
    @pytest.mark.parametrize("name", list(PLAN_PINS))
    def test_layout_is_pinned(self, name):
        world = (shuffled_world(int(name[-1])) if name.startswith("shuffled")
                 else scenario_preset(name, seed=0))
        assert layout(world) == [line.strip() for line in PLAN_PINS[name].strip().splitlines()]

    def test_independent_first_k_layout(self):
        w = make_world([quiet_knee()], n_subjects=6)
        plans = plan_cohort(w)
        assert [p.health for p in plans] == [
            "Healthy", "Healthy", "Healthy", "Unhealthy", "Unhealthy", "Unhealthy",
        ]
        assert [p.side for p in plans] == ["left", "right"] * 3
        assert [p.device_id for p in plans] == ["DL", "DR"] * 3

    def test_complementary_has_no_same_health_subject(self):
        w = scenario_preset("device-shift", seed=0)
        plans = plan_cohort(w)
        assert len(plans) == 32
        by_subject = {}
        for p in plans:
            by_subject.setdefault(p.subject_id, []).append(p)
        for legs in by_subject.values():
            assert sorted(leg.health for leg in legs) == ["Healthy", "Unhealthy"]
            assert sorted(leg.side for leg in legs) == ["left", "right"]
        left_unhealthy = sum(
            1 for p in plans if p.side == "left" and p.health == "Unhealthy"
        )
        assert left_unhealthy == 6

    def test_day_cohort_is_one_subject(self):
        w = scenario_preset("day-nuisance", seed=0)
        plans = plan_cohort(w)
        assert len(plans) == 5
        assert {p.subject_id for p in plans} == {"subj000"}
        assert [p.metadata["day"] for p in plans] == [0, 1, 2, 3, 4]

    def test_shuffled_devices_deterministic_per_seed(self):
        w = make_world([quiet_knee()], n_subjects=8, cohort_kw={"device_assignment": "shuffled"})
        a = [p.device_id for p in plan_cohort(w)]
        b = [p.device_id for p in plan_cohort(w)]
        assert a == b
        w2 = make_world([quiet_knee()], n_subjects=8, seed=1,
                        cohort_kw={"device_assignment": "shuffled"})
        c = [p.device_id for p in plan_cohort(w2)]
        assert set(a) <= {"DL", "DR"} and set(c) <= {"DL", "DR"}


class TestRendering:
    def test_resampling_is_bit_identical(self):
        w = scenario_preset("tone-bias", seed=11, n_subjects=4,
                            n_repetitions=2, repetition_duration_s=0.25)
        a = sample_cohort(w)
        b = sample_cohort(w)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.signal.samples, sb.signal.samples)
            assert sa.ground_truth.source_events == sb.ground_truth.source_events

    def test_mixture_is_exact_sum_of_components(self):
        w = scenario_preset("device-shift", seed=2, n_subjects=3,
                            n_repetitions=2, repetition_duration_s=0.5)
        for sess in sample_cohort(w, keep_components=True):
            gt = sess.ground_truth
            recon = gt.sensor_noise.copy()
            for comp in gt.components.values():
                recon += comp
            scale = np.max(np.abs(sess.signal.samples))
            assert np.max(np.abs(recon - sess.signal.samples)) <= 1e-6 * scale

    def test_silent_world_leaves_only_noise_floor(self):
        w = make_world([quiet_knee(active=0.0)], n_subjects=2, reps=4, dur=1.0)
        for sess in sample_cohort(w):
            rms = float(np.sqrt(np.mean(sess.signal.samples ** 2)))
            assert rms == pytest.approx(10 ** (-60 / 20), rel=0.05)
            assert all(v == 0.0 for v in sess.ground_truth.component_rms["knee"])

    def test_session_scope_tone_is_phase_continuous(self):
        tone = BaseSource(
            "hum", "tone", {"Healthy": 1.0, "Unhealthy": 1.0},
            {"freq": 440.0, "amp": 0.05}, activation_scope="session",
        )
        w = make_world([quiet_knee(active=0.0), tone], n_subjects=1, reps=3, dur=0.5)
        sess = list(sample_cohort(w, keep_components=True))[0]
        c = sess.ground_truth.components["hum"]
        # a pure sinusoid obeys x[n+1] + x[n-1] = 2 cos(w) x[n] everywhere,
        # including across repetition boundaries
        k = 2.0 * np.cos(2.0 * np.pi * 440.0 / w.sample_rate)
        resid = c[2:] + c[:-2] - k * c[1:-1]
        assert np.max(np.abs(resid)) < 1e-9

    def test_forced_activation_overrides_zero_probability(self):
        tone = BaseSource(
            "t", "tone", {"Healthy": 0.0, "Unhealthy": 0.0}, {"freq": 440.0},
            activation_scope="session", forced_active_subjects=(1,),
        )
        w = make_world([quiet_knee(active=0.0), tone], n_subjects=3)
        sessions = sample_cohort(w)
        seen = [s.ground_truth.source_events[0]["t"] for s in sessions]
        assert seen == [False, True, False]

    def test_sensor_channel_can_hide_active_source(self):
        tone = BaseSource(
            "t", "tone", {"Healthy": 1.0, "Unhealthy": 1.0}, {"freq": 440.0},
        )
        chan = independent_sensor_channel(2, [1.0, 0.0])
        w = make_world([quiet_knee(active=0.0), tone], n_subjects=2, sensor_channel=chan)
        for sess in sample_cohort(w):
            for s_ev, o_ev in zip(sess.ground_truth.source_events,
                                  sess.ground_truth.observed_events):
                assert s_ev["t"] is True
                assert o_ev["t"] is False

    def test_component_rms_zero_iff_unobserved(self):
        w = scenario_preset("randomized-tone", seed=4, n_subjects=6,
                            n_repetitions=1, repetition_duration_s=0.25)
        for sess in sample_cohort(w):
            gt = sess.ground_truth
            for r, obs in enumerate(gt.observed_events):
                rms = gt.component_rms["interference-tone"][r]
                assert (rms > 0) == obs["interference-tone"]


class TestPresets:
    def test_tone_bias_prevalence(self):
        w = scenario_preset("tone-bias", seed=3, n_repetitions=1,
                            repetition_duration_s=0.25)
        sessions = list(sample_cohort(w))
        by_health = {"Healthy": 0, "Unhealthy": 0}
        totals = {"Healthy": 0, "Unhealthy": 0}
        for s in sessions:
            totals[s.health] += 1
            if s.ground_truth.observed_events[0]["interference-tone"]:
                by_health[s.health] += 1
        assert totals == {"Healthy": 10, "Unhealthy": 10}
        assert by_health["Unhealthy"] == 10
        assert by_health["Healthy"] == 1
        healthy_with_tone = [
            s.subject_id for s in sessions
            if s.health == "Healthy" and s.ground_truth.observed_events[0]["interference-tone"]
        ]
        assert healthy_with_tone == ["subj000"]

    def test_clean_world_has_single_causal_source(self):
        w = scenario_preset("clean", seed=0)
        assert w.source_names == ["knee"]
        assert w.causal_link_enabled
        assert w.base_sources[0].waveform_params["health_effect"] is True

    def test_randomized_tone_carries_no_label(self):
        w = scenario_preset("randomized-tone", seed=0)
        tone = w.base_sources[1]
        assert tone.activation_prob_given_health == {"Healthy": 0.5, "Unhealthy": 0.5}
        assert tone.forced_active_subjects == ()

    def test_scenario_overrides_and_unknown_name(self):
        w = scenario_preset("clean", n_subjects=7, seed=2, n_repetitions=3,
                            repetition_duration_s=1.5)
        assert w.cohort.n_subjects == 7
        assert w.cohort.n_repetitions == 3
        assert w.cohort.repetition_duration_s == 1.5
        assert w.seed == 2
        with pytest.raises(ParameterError):
            scenario_preset("treadmill")

    def test_every_tilt_kernel_equals_firwin2(self, monkeypatch):
        # every kernel a preset's device-tilt source renders: each device,
        # healthy and unhealthy (the health delta on its device), with its bump
        designs = []
        design = render.design_sampled_response_fir

        def recording_design(freqs, gains, fs, taps):
            designs.append((freqs, gains, fs, taps))
            return design(freqs, gains, fs, taps)

        monkeypatch.setattr(render, "design_sampled_response_fir", recording_design)
        kernels = []
        for name in SCENARIOS:
            w = scenario_preset(name, seed=0)
            for src in w.base_sources:
                if src.kind == "device-tilt":
                    for device in src.waveform_params["slopes_db_per_khz"]:
                        for unhealthy in (False, True):
                            kernels.append(render._source_fir(src, w.sample_rate, device, unhealthy))
        # device-shift: DL, DR healthy and DR unhealthy differ; DL ignores health
        assert len({k.tobytes() for k in kernels}) == 3 and len(designs) == 4
        for (freqs, gains, fs, taps), got in zip(designs, kernels):
            assert got.tobytes() == firwin2(taps, freqs, gains, fs=fs).tobytes()

    def test_all_presets_validate(self):
        for name in ("clean", "tone-bias", "randomized-tone", "device-shift", "day-nuisance"):
            validate_world(scenario_preset(name, seed=1))


@pytest.fixture(scope="module")
def click_amps():
    def gather(world):
        amps = {"Healthy": [], "Unhealthy": []}
        for sess in sample_cohort(world):
            for rep in sess.ground_truth.knee_click_amplitudes:
                amps[sess.health].extend(rep.tolist())
        return {k: np.asarray(v) for k, v in amps.items()}

    on = scenario_preset("clean", seed=9, n_repetitions=4, repetition_duration_s=4.0)
    off = scenario_preset("tone-bias", seed=9, n_repetitions=4, repetition_duration_s=4.0)
    return gather(on), gather(off)


class TestCausalToggle:

    def test_enabled_link_shifts_amplitudes(self, click_amps):
        on, _ = click_amps
        assert min(len(on["Healthy"]), len(on["Unhealthy"])) >= 1000
        stat = ks_2samp(on["Healthy"], on["Unhealthy"])
        assert stat.pvalue < 1e-6
        assert np.median(on["Unhealthy"]) > 1.3 * np.median(on["Healthy"])

    def test_disabled_link_renders_identically(self, click_amps):
        _, off = click_amps
        assert min(len(off["Healthy"]), len(off["Unhealthy"])) >= 1000
        stat = ks_2samp(off["Healthy"], off["Unhealthy"])
        assert stat.pvalue > 0.01


class TestDatasetExport:
    def test_wavs_manifest_and_truth(self, tmp_path):
        w = scenario_preset("tone-bias", seed=6, n_subjects=4,
                            n_repetitions=2, repetition_duration_s=0.25)
        sessions = list(sample_cohort(w))
        manifest_path = write_dataset(sessions, tmp_path / "ds", w)
        man = load_manifest(manifest_path)
        assert len(man.sessions) == 4
        rec = man.sessions[0]
        sig = ingest_wav(man.wav_file(rec))
        expect = sessions[0].signal.samples.astype(np.float32).astype(np.float64)
        assert np.array_equal(sig.samples, expect)
        truth = json.loads((tmp_path / "ds" / "ground_truth.json").read_text())
        assert truth["world"]["sample_rate"] == 100000.0
        sess_truth = truth["sessions"][rec.session_id]
        assert sess_truth["health_label"] == rec.health_label
        assert len(sess_truth["repetitions"]) == 2
        rep = sess_truth["repetitions"][0]
        assert set(rep["source_event"]) == {"knee", "interference-tone"}
        assert "component_rms" in rep and "n_knee_clicks" in rep

    def test_export_bytes_are_stable(self, tmp_path):
        w = scenario_preset("day-nuisance", seed=5, n_repetitions=1,
                            repetition_duration_s=0.25)
        p1 = write_dataset(sample_cohort(w), tmp_path / "a", w)
        p2 = write_dataset(sample_cohort(w), tmp_path / "b", w)
        assert p1.read_bytes() == p2.read_bytes()
        gt1 = (tmp_path / "a" / "ground_truth.json").read_bytes()
        gt2 = (tmp_path / "b" / "ground_truth.json").read_bytes()
        assert gt1 == gt2
        wav1 = (tmp_path / "a" / "sess000.wav").read_bytes()
        wav2 = (tmp_path / "b" / "sess000.wav").read_bytes()
        assert wav1 == wav2


    @pytest.mark.parametrize("name", ["device-shift", "clean"])
    def test_export_bytes_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch, name):
        # device-shift filters every session by its device tilt; clean shuffles devices
        w = scenario_preset(name, seed=1, n_subjects=5, n_repetitions=2, repetition_duration_s=0.1)
        written = []
        for threads in ("1", "3"):
            monkeypatch.setenv("VIBROAUDIT_THREADS", threads)
            write_dataset(sample_cohort(w), tmp_path / threads, w)
            written.append({p.name: p.read_bytes() for p in sorted((tmp_path / threads).iterdir())})
        assert len(written[0]) == len(plan_cohort(w)) + 2  # the WAVs, manifest and ground truth
        assert written[0] == written[1]

    def test_world_json_carries_every_field(self):
        w = replace(scenario_preset("device-shift", seed=0), sensor_channel=np.eye(8))
        doc = json.loads(json.dumps(w.to_json_dict()))
        assert set(doc) == {f.name for f in fields(WorldSpec)} - {"base_sources"} | {"sources"}
        assert set(doc["cohort"]) == {f.name for f in fields(CohortSpec)}
        assert [set(src) for src in doc["sources"]] == [{f.name for f in fields(BaseSource)}] * 3
        assert doc["sensor_channel"] == np.eye(8).tolist()


class TestStreamingSynthesis:
    def test_each_wav_is_written_before_later_sessions_render(self, tmp_path, monkeypatch):
        w = scenario_preset("tone-bias", seed=0, n_subjects=7, n_repetitions=1,
                            repetition_duration_s=0.05)
        out = tmp_path / "ds"
        on_disk = {}
        original = render._render_session

        def recording(world, plan, *args):
            on_disk[plan.session_index] = sorted(p.name for p in out.glob("*.wav"))
            return original(world, plan, *args)

        monkeypatch.setattr(render, "_render_session", recording)
        sessions = sample_cohort(w)
        assert on_disk == {}  # nothing renders until the sessions are consumed
        write_dataset(sessions, out, w)
        # sessions render worker_count() at a time; a batch starts once
        # every earlier session's WAV is on disk
        batch = render.worker_count()
        assert on_disk == {i: [f"sess{j:03d}.wav" for j in range(i - i % batch)] for i in range(7)}

    def test_memory_does_not_grow_with_the_cohort(self, tmp_path, monkeypatch):
        # one worker: with several, how their transients overlap, and so
        # the peak, varies from run to run
        monkeypatch.setenv("VIBROAUDIT_THREADS", "1")

        def peak(n_subjects):
            w = scenario_preset("tone-bias", seed=0, n_subjects=n_subjects, n_repetitions=2,
                                repetition_duration_s=0.25)
            tracemalloc.start()
            try:
                write_dataset(sample_cohort(w), tmp_path / str(n_subjects), w)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: lazy imports and caches
        session_bytes = 2 * 25_000 * 8  # one float64 mixture: 2 x 0.25 s at 100 kHz
        assert peak(8) - peak(2) < session_bytes

    def test_failed_render_leaves_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIBROAUDIT_THREADS", "1")
        w = scenario_preset("tone-bias", seed=0, n_subjects=4, n_repetitions=1,
                            repetition_duration_s=0.05)
        out = tmp_path / "ds"
        write_dataset(sample_cohort(w), out, w)
        original = render._render_session

        def failing(world, plan, *args):
            if plan.session_index == 2:
                raise ParameterError("render failed")
            return original(world, plan, *args)

        monkeypatch.setattr(render, "_render_session", failing)
        (out / "sess000.wav").unlink()
        with pytest.raises(ParameterError, match="render failed"):
            write_dataset(sample_cohort(w), out, w)
        assert (out / "sess000.wav").exists()
        assert not (out / "manifest.json").exists()
        assert not (out / "ground_truth.json").exists()


class TestExactPosterior:
    def toy_world(self, p_tone_h=0.15, p_tone_u=0.85, observe=0.9):
        knee = quiet_knee()
        tone = BaseSource("tone", "tone", {"Healthy": p_tone_h, "Unhealthy": p_tone_u},
                          {"freq": 440.0})
        chan = independent_sensor_channel(2, [1.0, observe])
        return make_world([knee, tone], sensor_channel=chan, causal_link_enabled=False)

    def tone_quantizer(self, n_sources=2, tone_index=1):
        events = enumerate_composite_events(n_sources)
        q = np.zeros((len(events), 2))
        for i, ev in enumerate(events):
            q[i, 0 if ev.signs[tone_index] else 1] = 1.0
        return QuantizerSpec(2, q)

    def test_uninformative_quantizer_returns_prior(self):
        w = self.toy_world()
        events = enumerate_composite_events(2)
        q = QuantizerSpec(3, np.full((len(events), 3), 1.0 / 3.0))
        res = exact_posterior(w, q, prior=(0.3, 0.7))
        assert res.reachable.all()
        assert np.allclose(res.posterior, [[0.3, 0.7]] * 3, atol=1e-12)
        assert bayes_accuracy(w, q, prior=(0.3, 0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_deterministic_chain_is_perfect(self):
        w = self.toy_world(p_tone_h=0.0, p_tone_u=1.0, observe=1.0)
        res = exact_posterior(w, self.tone_quantizer())
        assert bayes_accuracy(w, self.tone_quantizer()) == pytest.approx(1.0, abs=1e-12)
        seen = res.posterior[0]
        assert seen[list(res.classes).index("Unhealthy")] == pytest.approx(1.0)

    def test_toy_world_ceiling(self):
        w = self.toy_world()
        q = self.tone_quantizer()
        assert bayes_accuracy(w, q) == pytest.approx(0.815, abs=1e-12)
        res = exact_posterior(w, q)
        assert np.allclose(res.cell_mass.sum(), 1.0, atol=1e-12)
        assert np.allclose(res.posterior.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(3)
        knee = quiet_knee(active=float(rng.uniform(0, 1)))
        extra = [
            BaseSource(f"s{i}", "tone",
                       {"Healthy": float(rng.uniform(0, 1)),
                        "Unhealthy": float(rng.uniform(0, 1))},
                       {"freq": 100.0 + i})
            for i in range(2)
        ]
        chan = independent_sensor_channel(3, rng.uniform(0, 1, size=3))
        w = make_world([knee] + extra, sensor_channel=chan, causal_link_enabled=False)
        raw = rng.uniform(0.1, 1.0, size=(8, 4))
        q = QuantizerSpec(4, raw / raw.sum(axis=1, keepdims=True))
        res = exact_posterior(w, q)

        events = enumerate_composite_events(3)
        joint = np.zeros((4, 2))
        for h_idx, health in enumerate(HEALTH_VALUES):
            probs = w.activation_probs(health)
            for cell in range(4):
                total = 0.0
                for i in range(8):
                    for j, ev in enumerate(events):
                        total += (q.cell_given_observation[i, cell]
                                  * chan[i, j] * event_probability(ev, probs))
                joint[cell, h_idx] = 0.5 * total
        mass = joint.sum(axis=1)
        assert np.allclose(res.cell_mass, mass, atol=1e-12)
        assert np.allclose(res.posterior, joint / mass[:, None], atol=1e-12)
        assert bayes_accuracy(w, q) == pytest.approx(joint.max(axis=1).sum(), abs=1e-12)

    def test_unreachable_cell_is_nan(self):
        w = self.toy_world(p_tone_h=1.0, p_tone_u=1.0, observe=1.0)
        res = exact_posterior(w, self.tone_quantizer())
        assert res.reachable[0] and not res.reachable[1]
        assert np.isnan(res.posterior[1]).all()

    def test_validation_errors(self):
        w = self.toy_world()
        with pytest.raises(ParameterError):
            QuantizerSpec(2, np.ones((4, 2)))
        with pytest.raises(ParameterError):
            QuantizerSpec(0, np.ones((4, 0)))
        with pytest.raises(CapacityError):
            QuantizerSpec(MAX := 100_001, np.ones((4, MAX)) / MAX)
        q = self.tone_quantizer()
        with pytest.raises(ParameterError):
            exact_posterior(w, q, prior=(0.5, 0.6))
        many = [quiet_knee()] + [
            BaseSource(f"s{i}", "tone", {"Healthy": 0.5, "Unhealthy": 0.5}, {"freq": 99.0})
            for i in range(9)
        ]
        big = make_world(many, causal_link_enabled=False)
        with pytest.raises(CapacityError):
            bayes_accuracy(big, q)
