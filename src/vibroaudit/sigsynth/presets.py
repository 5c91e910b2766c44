"""Canned worlds that plant one bias mechanism each.

Every preset fixes all waveform parameters so a scenario name plus a
seed fully determines the rendered dataset.  The health link is only
enabled in the 'clean' scenario; the biased scenarios disable it so any
classifier accuracy above chance is attributable to the planted
shortcut, not to the knees.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import ParameterError
from .world import BaseSource, CohortSpec, WorldSpec

SCENARIOS = ("clean", "tone-bias", "randomized-tone", "device-shift", "day-nuisance")


def _knee(health_effect: bool) -> BaseSource:
    return BaseSource(
        name="knee",
        kind="knee",
        activation_prob_given_health={"Healthy": 1.0, "Unhealthy": 1.0},
        waveform_params={
            "health_effect": health_effect,
            "click_rate": 8.0,
            "click_amp": 0.15,
            "center_freq": 1500.0,
            "damping": 80.0,
            "amp_jitter_sigma": 0.1,
        },
    )


def scenario_preset(
    name: str,
    *,
    n_subjects: int | None = None,
    seed: int = 0,
    n_repetitions: int | None = None,
    repetition_duration_s: float | None = None,
) -> WorldSpec:
    """Build the WorldSpec for a named scenario.

    clean            knee source only, health link enabled.
    tone-bias        persistent 33 kHz tone in every Unhealthy subject
                     and exactly one Healthy subject; health link off.
    randomized-tone  the same tone activated by a fair coin for every
                     subject, so it carries no label information.
    device-shift     two recording devices with opposite spectral tilts,
                     device locked to leg side, and the Unhealthy legs'
                     device tilted slightly more; health link off.
    day-nuisance     one subject recorded across days with a broadband
                     bed whose level walks from day to day; health link
                     off (used with day-to-subject relabeling audits).
    """
    if name not in SCENARIOS:
        raise ParameterError(f"unknown scenario {name!r}; choose from {SCENARIOS}")

    overrides = {
        "n_subjects": n_subjects,
        "n_repetitions": n_repetitions,
        "repetition_duration_s": repetition_duration_s,
    }

    def cohort(defaults: CohortSpec) -> CohortSpec:
        return replace(defaults, **{k: v for k, v in overrides.items() if v is not None})

    if name == "clean":
        return WorldSpec(
            base_sources=[_knee(health_effect=True)],
            cohort=cohort(
                CohortSpec(n_subjects=20, device_assignment="shuffled")
            ),
            sample_rate=100_000.0,
            causal_link_enabled=True,
            seed=seed,
        )

    if name in ("tone-bias", "randomized-tone"):
        if name == "tone-bias":
            activation = {"Healthy": 0.0, "Unhealthy": 1.0}
            forced: tuple[int, ...] = (0,)  # subject 0 is Healthy under first-k layout
        else:
            activation = {"Healthy": 0.5, "Unhealthy": 0.5}
            forced = ()
        tone = BaseSource(
            name="interference-tone",
            kind="tone",
            activation_prob_given_health=activation,
            waveform_params={"freq": 33_000.0, "amp": 0.03},
            activation_scope="session",
            forced_active_subjects=forced,
        )
        return WorldSpec(
            base_sources=[_knee(health_effect=False), tone],
            cohort=cohort(CohortSpec(n_subjects=20)),
            sample_rate=100_000.0,
            causal_link_enabled=False,
            seed=seed,
        )

    if name == "device-shift":
        bed = BaseSource(
            name="room-bed",
            kind="broadband",
            activation_prob_given_health={"Healthy": 1.0, "Unhealthy": 1.0},
            waveform_params={"level_db": -35.0},
        )
        tilt = BaseSource(
            name="device-tilt",
            kind="device-tilt",
            activation_prob_given_health={"Healthy": 1.0, "Unhealthy": 1.0},
            waveform_params={
                "slopes_db_per_khz": {"DL": 0.25, "DR": -0.25},
                "health_delta_db_per_khz": 0.75,
                "health_delta_device": "DR",
                "bumps": {"DL": (2000.0, 3.0, 400.0), "DR": (3200.0, 3.0, 400.0)},
                "ref_hz": 1500.0,
                "ntaps": 129,
            },
            activation_scope="session",
        )
        return WorldSpec(
            base_sources=[_knee(health_effect=False), bed, tilt],
            cohort=cohort(
                CohortSpec(
                    n_subjects=16,
                    pairing="complementary",
                    device_assignment="side-locked",
                    left_unhealthy_fraction=6.0 / 16.0,
                    n_repetitions=8,
                )
            ),
            sample_rate=16_000.0,
            causal_link_enabled=False,
            seed=seed,
        )

    # day-nuisance
    daybed = BaseSource(
        name="day-bed",
        kind="broadband",
        activation_prob_given_health={"Healthy": 1.0, "Unhealthy": 1.0},
        waveform_params={
            "level_db": -25.0,
            "day_levels": {
                "offsets_db": [0.0, 0.6, 3.0, 3.6, 4.2],
                "jitter_db": 0.2,
            },
        },
        activation_scope="session",
    )
    # second room artifact on an unrelated day schedule; without it the
    # only nuisance axis is the bed level, days are totally ordered and
    # permuted day labels score systematically below chance
    dayhum = BaseSource(
        name="day-hum",
        kind="broadband",
        activation_prob_given_health={"Healthy": 1.0, "Unhealthy": 1.0},
        waveform_params={
            "level_db": -27.0,
            "band": (2800.0, 3800.0),
            "day_levels": {
                "offsets_db": [0.0, 5.0, 2.0, 6.0, 3.0],
                "jitter_db": 0.2,
            },
        },
        activation_scope="session",
    )
    return WorldSpec(
        base_sources=[_knee(health_effect=False), daybed, dayhum],
        cohort=cohort(
            CohortSpec(n_subjects=5, session_tag="day", n_repetitions=10)
        ),
        sample_rate=16_000.0,
        causal_link_enabled=False,
        seed=seed,
    )
