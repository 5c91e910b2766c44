"""Synthetic multi-source acoustic worlds with known causal ground truth.

A world is a set of base sources whose activation probabilities may
depend on the health label, an optional imperfect sensor channel over
composite source events, and a cohort layout.  Sampling a world renders
audio whose every component is recorded, so audits can be validated
against planted bias pathways instead of guessed ones.
"""

from .world import (
    BaseSource,
    CohortSpec,
    CompositeEvent,
    WorldSpec,
    enumerate_composite_events,
    event_probability,
    independent_sensor_channel,
    validate_world,
)
from .render import GroundTruth, RecordingSession, sample_cohort, write_dataset
from .presets import (
    SCENARIOS,
    scenario_preset,
)
from .posterior import QuantizerSpec, bayes_accuracy, exact_posterior

__all__ = [
    "BaseSource",
    "CohortSpec",
    "CompositeEvent",
    "WorldSpec",
    "enumerate_composite_events",
    "event_probability",
    "independent_sensor_channel",
    "validate_world",
    "GroundTruth",
    "RecordingSession",
    "sample_cohort",
    "write_dataset",
    "SCENARIOS",
    "scenario_preset",
    "QuantizerSpec",
    "exact_posterior",
    "bayes_accuracy",
]
