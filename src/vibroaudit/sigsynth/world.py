"""Causal world model: base sources, composite events, sensor channel.

The health label H influences the world only through per-source
activation probabilities (and, when the causal link is enabled, the
knee source's waveform parameters).  Everything downstream of the
activation draw is label-blind, which is what makes planted biases
auditable: any classifier signal must pass through an activation
pathway that the ground truth records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..dsp import DEFAULT_BANDPASS_TAPS, bandpass_problem
from ..errors import CapacityError, ParameterError

SOURCE_KINDS = ("knee", "tone", "broadband", "device-tilt")
HEALTH_VALUES = ("Healthy", "Unhealthy")

MAX_ENUM_SOURCES = 20
# taps of a device-tilt source's FIR when its waveform_params set no ntaps
DEFAULT_TILT_TAPS = 129


# ---------------------------------------------------------------------------
# composite events


@dataclass(frozen=True)
class CompositeEvent:
    """One cell of the partition over source activations.

    signs[j] is True when source j is active in this event and False
    when its complement holds; two events differing in any sign are
    disjoint, and the full set of 2^N events partitions the space.
    """

    signs: tuple[bool, ...]

    @property
    def n_sources(self) -> int:
        return len(self.signs)

    def active_names(self, names: list[str]) -> tuple[str, ...]:
        return tuple(n for n, s in zip(names, self.signs) if s)


def event_signs(index: int, n_sources: int) -> tuple[bool, ...]:
    """Signs of composite event ``index``: source j is active iff bit j
    of the index is clear."""
    return tuple(((index >> j) & 1) == 0 for j in range(n_sources))


def event_index(signs) -> int:
    """Index of the composite event with these signs; inverse of :func:`event_signs`."""
    return sum(1 << j for j, active in enumerate(signs) if not active)


def enumerate_composite_events(n_sources: int) -> list[CompositeEvent]:
    """All 2^n_sources pairwise-disjoint composite events.

    Deterministic order: event i has the signs :func:`event_signs` gives
    i, so the all-active event comes first and source 0 varies fastest
    (matching the two-source listing (A,B), (~A,B), (A,~B), (~A,~B)).
    """
    if n_sources < 0:
        raise ParameterError(f"n_sources must be >= 0, got {n_sources}")
    if n_sources > MAX_ENUM_SOURCES:
        raise CapacityError(
            f"enumerating {n_sources} sources needs 2^{n_sources} events; "
            f"the cap is 2^{MAX_ENUM_SOURCES}"
        )
    return [
        CompositeEvent(event_signs(i, n_sources)) for i in range(1 << n_sources)
    ]


def event_probability(event: CompositeEvent, activation_probs) -> float:
    """Probability of a composite event under independent activations."""
    probs = np.asarray(activation_probs, dtype=np.float64)
    if len(probs) != event.n_sources:
        raise ParameterError(
            f"event has {event.n_sources} signs but {len(probs)} probabilities given"
        )
    p = 1.0
    for active, q in zip(event.signs, probs):
        p *= q if active else 1.0 - q
    return float(p)


def independent_sensor_channel(n_sources: int, observe_probs) -> np.ndarray:
    """Sensor channel where each active source is seen independently.

    Returns the (2^N, 2^N) matrix p(O_i | S_j): an active source is
    observed with its per-source probability and missed otherwise; an
    inactive source is never observed.  Columns sum to 1.
    """
    probs = np.asarray(observe_probs, dtype=np.float64)
    if len(probs) != n_sources:
        raise ParameterError(f"need {n_sources} observation probabilities, got {len(probs)}")
    if np.any((probs < 0) | (probs > 1)):
        raise ParameterError("observation probabilities must lie in [0, 1]")
    events = enumerate_composite_events(n_sources)
    m = len(events)
    mat = np.zeros((m, m))
    for j, src_ev in enumerate(events):
        for i, obs_ev in enumerate(events):
            p = 1.0
            for k in range(n_sources):
                if obs_ev.signs[k] and not src_ev.signs[k]:
                    p = 0.0
                    break
                if src_ev.signs[k]:
                    p *= probs[k] if obs_ev.signs[k] else 1.0 - probs[k]
            mat[i, j] = p
    return mat


# ---------------------------------------------------------------------------
# sources and cohort


@dataclass
class BaseSource:
    """One acoustic source with health-conditional activation.

    activation_scope 'repetition' redraws the activation for every
    repetition; 'session' draws once per recording session and holds it
    (a persistent interference tone is a session-scope source).
    forced_active_subjects lists cohort subject indices for which the
    source is active regardless of the probability draw; the ground
    truth still records the activation.
    """

    name: str
    kind: str
    activation_prob_given_health: dict[str, float]
    waveform_params: dict = field(default_factory=dict)
    activation_scope: str = "repetition"
    forced_active_subjects: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ParameterError(f"source {self.name}: unknown kind {self.kind!r}")
        if self.activation_scope not in ("repetition", "session"):
            raise ParameterError(
                f"source {self.name}: activation_scope must be repetition or session"
            )
        for health in HEALTH_VALUES:
            if health not in self.activation_prob_given_health:
                raise ParameterError(
                    f"source {self.name}: missing activation probability for {health}"
                )
        for health, p in self.activation_prob_given_health.items():
            if not (0.0 <= p <= 1.0):
                raise ParameterError(
                    f"source {self.name}: activation probability for {health} "
                    f"must be in [0, 1], got {p}"
                )


@dataclass
class CohortSpec:
    """Cohort layout.

    pairing 'independent' gives one leg per subject with health split by
    health_split (first subjects Healthy, documented deterministic
    assignment); 'complementary' gives every subject one Healthy and one
    Unhealthy leg, with the first round(n * left_unhealthy_fraction)
    subjects unhealthy on the left.  session_tag 'day' collapses the
    cohort to one physical subject recorded n_subjects times (one
    session per day, day index in metadata).
    """

    n_subjects: int
    pairing: str = "independent"
    device_assignment: str = "side-locked"
    health_split: float = 0.5
    n_repetitions: int = 6
    repetition_duration_s: float = 4.0
    session_tag: str = "subject"
    left_unhealthy_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n_subjects < 1:
            raise ParameterError(f"n_subjects must be >= 1, got {self.n_subjects}")
        if self.pairing not in ("independent", "complementary"):
            raise ParameterError(f"unknown pairing {self.pairing!r}")
        if self.device_assignment not in ("side-locked", "shuffled"):
            raise ParameterError(f"unknown device_assignment {self.device_assignment!r}")
        if not (0.0 <= self.health_split <= 1.0):
            raise ParameterError("health_split must be in [0, 1]")
        if self.n_repetitions < 1:
            raise ParameterError("n_repetitions must be >= 1")
        if not (0 < self.repetition_duration_s < np.inf):
            raise ParameterError(
                f"repetition_duration_s must be finite and > 0, got {self.repetition_duration_s}"
            )
        if self.session_tag not in ("subject", "day"):
            raise ParameterError(f"unknown session_tag {self.session_tag!r}")
        if not (0.0 <= self.left_unhealthy_fraction <= 1.0):
            raise ParameterError("left_unhealthy_fraction must be in [0, 1]")


# ---------------------------------------------------------------------------
# world


@dataclass
class WorldSpec:
    """Full generative specification; (spec, seed) determines everything.

    sensor_channel is the (2^N, 2^N) matrix p(O_i | S_j) over the
    composite-event enumeration, or None for a perfect sensor (O = S).
    """

    base_sources: list[BaseSource]
    cohort: CohortSpec
    sample_rate: float = 100_000.0
    causal_link_enabled: bool = True
    sensor_channel: np.ndarray | None = None
    sensor_noise_db: float = -60.0
    seed: int = 0

    @property
    def n_sources(self) -> int:
        return len(self.base_sources)

    @property
    def source_names(self) -> list[str]:
        return [s.name for s in self.base_sources]

    def knee_source_index(self) -> int:
        idx = [i for i, s in enumerate(self.base_sources) if s.kind == "knee"]
        if len(idx) != 1:
            raise ParameterError(f"world must have exactly one knee source, found {len(idx)}")
        return idx[0]

    def activation_probs(self, health: str) -> np.ndarray:
        if health not in HEALTH_VALUES:
            raise ParameterError(f"unknown health value {health!r}")
        return np.array(
            [s.activation_prob_given_health[health] for s in self.base_sources]
        )

    def to_json_dict(self) -> dict:
        """Every field as JSON-ready data, base_sources under ``sources``."""
        out = asdict(self)
        out["sources"] = out.pop("base_sources")
        if self.sensor_channel is not None:
            out["sensor_channel"] = np.asarray(self.sensor_channel).tolist()
        return out


def validate_world(world: WorldSpec) -> None:
    """Check every WorldSpec invariant, raising on the first violation."""
    if world.sample_rate <= 0:
        raise ParameterError("sample_rate must be > 0")
    # _render_session cuts round(duration * fs) samples per repetition
    if not (0.5 < world.cohort.repetition_duration_s * world.sample_rate < np.inf):
        raise ParameterError(
            f"repetition_duration_s={world.cohort.repetition_duration_s} at {world.sample_rate} Hz "
            f"does not round to a finite, nonzero sample count"
        )
    if world.seed < 0:
        raise ParameterError("seed must be >= 0")
    names = world.source_names
    if len(set(names)) != len(names):
        raise ParameterError(f"source names must be unique, got {names}")
    world.knee_source_index()
    nyq = world.sample_rate / 2.0
    for src in world.base_sources:
        if src.kind == "tone" and src.waveform_params.get("freq", 0.0) >= nyq:
            raise ParameterError(
                f"source {src.name}: tone frequency {src.waveform_params.get('freq')} "
                f"must be below Nyquist {nyq}"
            )
        params = src.waveform_params
        if src.kind == "broadband" and params.get("band") is not None:
            lo, hi = (float(v) for v in params["band"])
            taps = int(params.get("taps", DEFAULT_BANDPASS_TAPS))
            problem = bandpass_problem(lo, hi, world.sample_rate, taps)
            if problem:
                raise ParameterError(f"source {src.name}: {problem}")
        if src.kind == "device-tilt":
            ntaps = int(params.get("ntaps", DEFAULT_TILT_TAPS))
            if ntaps < 3 or ntaps % 2 == 0:
                raise ParameterError(
                    f"source {src.name}: tilt filter needs an odd number of taps >= 3, got {ntaps}"
                )
        for idx in src.forced_active_subjects:
            if not (0 <= idx < world.cohort.n_subjects):
                raise ParameterError(
                    f"source {src.name}: forced subject index {idx} outside cohort"
                )
    tilts = [src for src in world.base_sources if src.kind == "device-tilt"]
    if tilts:
        from .render import plan_cohort  # render builds on this module

        devices = sorted({plan.device_id for plan in plan_cohort(world)})
        for src in tilts:
            missing = [d for d in devices if d not in src.waveform_params.get("slopes_db_per_khz", {})]
            if missing:
                raise ParameterError(
                    f"source {src.name}: device-tilt source has no slope for device {missing[0]!r}"
                )
    if not world.causal_link_enabled:
        knee = world.base_sources[world.knee_source_index()]
        if knee.waveform_params.get("health_effect", False):
            raise ParameterError(
                "causal_link_enabled is False but the knee source still has "
                "health_effect parameters; disable both so health groups render identically"
            )
    if world.sensor_channel is not None:
        mat = np.asarray(world.sensor_channel, dtype=np.float64)
        m = 1 << world.n_sources
        if mat.shape != (m, m):
            raise ParameterError(
                f"sensor_channel must be shape ({m}, {m}) for {world.n_sources} sources, "
                f"got {mat.shape}"
            )
        if np.any((mat < 0) | (mat > 1)):
            raise ParameterError("sensor_channel entries must lie in [0, 1]")
        colsums = mat.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > 1e-9):
            raise ParameterError(
                "sensor_channel columns must each sum to 1 (a distribution over observations)"
            )
