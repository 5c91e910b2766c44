"""Exact health posteriors under a known world.

The chain is health -> source activations -> observation -> quantized
measurement cell.  Because a preset world makes every factor explicit,
the posterior over health given the cell, and hence the best achievable
classification accuracy, can be computed in closed form and used as a
ceiling against which learned classifiers are judged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CapacityError, ParameterError
from .world import (
    HEALTH_VALUES,
    WorldSpec,
    enumerate_composite_events,
    event_probability,
)

MAX_POSTERIOR_SOURCES = 8
MAX_CELLS = 100_000


@dataclass
class QuantizerSpec:
    """Distribution of the measurement cell given the observed event.

    cell_given_observation[i, c] is p(cell c | observation event i) over
    the composite-event enumeration; rows sum to 1.  This stands in for
    whatever feature extraction and binning the measurement applies.
    """

    n_cells: int
    cell_given_observation: np.ndarray

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ParameterError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.n_cells > MAX_CELLS:
            raise CapacityError(f"n_cells {self.n_cells} exceeds the cap of {MAX_CELLS}")
        mat = np.asarray(self.cell_given_observation, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.n_cells:
            raise ParameterError(
                f"cell_given_observation must be (n_events, {self.n_cells}), got {mat.shape}"
            )
        if np.any((mat < 0) | (mat > 1)):
            raise ParameterError("cell probabilities must lie in [0, 1]")
        if np.any(np.abs(mat.sum(axis=1) - 1.0) > 1e-9):
            raise ParameterError("each cell_given_observation row must sum to 1")
        self.cell_given_observation = mat


@dataclass
class PosteriorResult:
    classes: tuple[str, str]
    cell_mass: np.ndarray
    posterior: np.ndarray
    reachable: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.cell_mass)


def _check_capacity(world: WorldSpec) -> None:
    if world.n_sources > MAX_POSTERIOR_SOURCES:
        raise CapacityError(
            f"exact posteriors enumerate 2^{world.n_sources} events; "
            f"the cap is 2^{MAX_POSTERIOR_SOURCES} sources"
        )


def _prior_vector(prior) -> np.ndarray:
    if prior is None:
        return np.array([0.5, 0.5])
    p = np.asarray(prior, dtype=np.float64)
    if p.shape != (2,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ParameterError("prior must be two nonnegative numbers summing to 1")
    return p


def _cell_given_health(world: WorldSpec, quantizer: QuantizerSpec) -> np.ndarray:
    """p(cell | health) as an (n_cells, 2) matrix via total probability."""
    events = enumerate_composite_events(world.n_sources)
    m = len(events)
    q = quantizer.cell_given_observation
    if q.shape[0] != m:
        raise ParameterError(
            f"quantizer covers {q.shape[0]} observation events, world has {m}"
        )
    channel = (
        np.eye(m)
        if world.sensor_channel is None
        else np.asarray(world.sensor_channel, dtype=np.float64)
    )
    out = np.empty((quantizer.n_cells, 2))
    for h_idx, health in enumerate(HEALTH_VALUES):
        probs = world.activation_probs(health)
        p_s = np.array([event_probability(ev, probs) for ev in events])
        p_o = channel @ p_s
        out[:, h_idx] = q.T @ p_o
    return out


def exact_posterior(world: WorldSpec, quantizer: QuantizerSpec, prior=None) -> PosteriorResult:
    """Posterior p(health | cell) for every measurement cell.

    Cells with zero marginal mass are marked unreachable and their
    posterior rows are NaN (conditioning on them is undefined).
    Reachable rows sum to 1 within 1e-9 by construction.
    """
    _check_capacity(world)
    pi = _prior_vector(prior)
    cond = _cell_given_health(world, quantizer)
    joint = cond * pi[None, :]
    mass = joint.sum(axis=1)
    reachable = mass > 0.0
    posterior = np.full_like(joint, np.nan)
    posterior[reachable] = joint[reachable] / mass[reachable, None]
    return PosteriorResult(
        classes=HEALTH_VALUES,
        cell_mass=mass,
        posterior=posterior,
        reachable=reachable,
    )


def bayes_accuracy(world: WorldSpec, quantizer: QuantizerSpec, prior=None) -> float:
    """Accuracy of the optimal decision rule on the quantized measurement.

    Sum over cells of the larger joint mass; no classifier consuming
    only the cell can beat this number.
    """
    _check_capacity(world)
    pi = _prior_vector(prior)
    joint = _cell_given_health(world, quantizer) * pi[None, :]
    return float(joint.max(axis=1).sum())
