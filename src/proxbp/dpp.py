"""Classical drift-plus-penalty backpressure baseline.

Sources trade queue backlog against V times utility; every link grants its
full capacity to the allowed session with the largest positive differential
backlog. Decision queues are the clipped virtual family, kept nonnegative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import ContractError, DecisionVector, Scenario, residual_matrix
from .queues import step_Y


@dataclass(frozen=True)
class DppConfig:
    """V weighs utility against backlog. x_max caps source rates; None means
    each source defaults to its total outgoing capacity, beyond which any
    rate is immediately infeasible anyway."""

    V: float
    x_max: float = None

    def __post_init__(self):
        if not (float(self.V) > 0 and math.isfinite(self.V)):
            raise ContractError(f"V must be positive, got {self.V!r}")
        if self.x_max is not None and not (float(self.x_max) > 0):
            raise ContractError(f"x_max must be positive, got {self.x_max!r}")


def rate_caps(scenario: Scenario, config: DppConfig) -> np.ndarray:
    if config.x_max is not None:
        return np.full(scenario.n_sessions, float(config.x_max))
    return scenario.src_out_cap.astype(float)


def dpp_source_rate(utility, V: float, q: float, x_max: float) -> float:
    """Maximize V*U(x) - q*x over [0, x_max] intersected with the domain.
    The scalar reference of the source phase of dpp_slot_update."""
    if q <= 0:
        return x_max
    if utility.kind == "wlog":
        # V w / x = q, open domain keeps x > 0
        return min(V * utility.weight / q, x_max)
    # wlog1p: V w / (1 + x) = q, clamped at the boundaries
    return min(max(V * utility.weight / q - 1.0, 0.0), x_max)


def dpp_slot_update(Q, scenario: Scenario, config: DppConfig) -> DecisionVector:
    """One slot of decisions from nonnegative decision queues Q (N, F).

    Sources follow dpp_source_rate elementwise. Each link grants its capacity
    to the first allowed session of largest differential backlog
    Q[tail] - Q[head] (the head entry counts as zero at the session's
    destination), provided that differential is strictly positive.
    """
    Q = np.asarray(Q, dtype=float)
    rate_cap = rate_caps(scenario, config)
    q = Q.take(scenario.src_entries)
    with np.errstate(over="ignore"):  # a subnormal q gives inf, which the cap clips
        ratio = config.V * scenario.utility_weight / np.where(q > 0, q, 1.0)
    x = np.where(scenario.is_wlog, ratio, np.maximum(ratio - 1.0, 0.0))
    x = np.where(q > 0, np.minimum(x, rate_cap), rate_cap)
    network = scenario.network
    heads = network.heads
    diff = Q[network.tails] - np.where(scenario.active[heads], Q[heads], 0.0)
    gain = np.where(scenario.allow_mask & (diff > 0), diff, 0.0)
    # Column 0 stands for idling. argmax takes the first maximum, so a link
    # serves only a strictly positive differential, ties to the lowest id.
    idle = np.zeros((scenario.n_links, 1))
    choice = np.argmax(np.concatenate((idle, gain), axis=1), axis=1)
    grant = np.nonzero(choice)[0]
    mu = np.zeros((scenario.n_links, scenario.n_sessions))
    mu[grant, choice[grant] - 1] = network.caps[grant]
    return DecisionVector(x, mu)


@dataclass(frozen=True, eq=False)
class DppState:
    Q: np.ndarray
    t: int


def dpp_initial_state(scenario: Scenario) -> DppState:
    return DppState(np.zeros((scenario.n_nodes, scenario.n_sessions)), 0)


def dpp_step(state: DppState, scenario: Scenario, config: DppConfig) -> tuple:
    """Returns (decisions, next state). Queues advance by the clipped update."""
    y = dpp_slot_update(state.Q, scenario, config)
    q = step_Y(state.Q, residual_matrix(scenario, y.x, y.mu), scenario)
    return y, DppState(q, state.t + 1)
