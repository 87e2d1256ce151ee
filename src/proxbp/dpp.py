"""Classical drift-plus-penalty backpressure baseline.

Sources trade queue backlog against V times utility; every link grants its
full capacity to the allowed session with the largest positive differential
backlog. Decisions read the clipped virtual queues Y, which the harness steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import ContractError, DecisionVector, Scenario


@dataclass(frozen=True)
class DppConfig:
    """V weighs utility against backlog. x_max caps source rates; None means
    each source defaults to its total outgoing capacity, beyond which any
    rate is immediately infeasible anyway."""

    V: float
    x_max: float = None

    def __post_init__(self):
        if not (float(self.V) > 0 and math.isfinite(self.V)):
            raise ContractError(f"V must be positive and finite, got {self.V!r}")
        if self.x_max is not None and not (float(self.x_max) > 0 and math.isfinite(self.x_max)):
            raise ContractError(f"x_max must be positive and finite, got {self.x_max!r}")


def rate_caps(scenario: Scenario, config: DppConfig) -> np.ndarray:
    if config.x_max is not None:
        return np.full(scenario.n_sessions, float(config.x_max))
    return scenario.src_out_cap.astype(float)


def dpp_slot_update(Q, scenario: Scenario, config: DppConfig) -> DecisionVector:
    """One slot of decisions from the clipped virtual queues Q (N, F), which
    are nonnegative.

    Each source maximizes V U(x) - q x over [0, cap], q being its queue: the
    cap when q <= 0, else V w / q for wlog and V w / q - 1 for wlog1p,
    clamped to [0, cap]. Each link grants its capacity to the first allowed
    session of largest differential backlog Q[tail] - Q[head] (the head entry
    counts as zero at the session's destination), provided that differential
    is strictly positive.
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

