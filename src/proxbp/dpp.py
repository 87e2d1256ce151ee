"""Classical drift-plus-penalty backpressure baseline.

Sources trade queue backlog against V times utility; every link grants its
full capacity to the allowed session with the largest positive differential
backlog. Decisions read the clipped virtual queues Y, which the harness steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import ContractError, Scenario


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


def dpp_slot_update(Q, scenario: Scenario, config: DppConfig, out=None) -> tuple:
    """One slot of decisions from the clipped virtual queues Q (N, F), which
    are nonnegative: the source rates x (F,) and link rates mu (L, F), the
    latter written into out (C-contiguous) if given.

    Each source maximizes V U(x) - q x over [0, cap], q being its queue and
    U(x) = w log(k + x): the cap when q <= 0, else V w / q - k clamped to
    [0, cap]. Each link grants its capacity to the first allowed
    session of largest differential backlog Q[tail] - Q[head], provided that
    differential is strictly positive. The head entry counts as zero where
    the link heads into the session's destination
    (Scenario.head_dst_entries), whatever Q holds there. A subnormal source
    queue gives an infinite ratio, which the cap clips; numpy warns of that
    overflow unless the caller ignores it, as run() does.
    """
    Q = np.asarray(Q, dtype=float)
    cap = scenario.src_out_cap if config.x_max is None else config.x_max
    q = Q.take(scenario.src_entries)
    pos = q > 0
    ratio = config.V * scenario.utility_weight / np.where(pos, q, 1.0)
    x = np.maximum(ratio - scenario.utility_shift, 0.0)
    x = np.where(pos, np.minimum(x, cap), cap)
    network = scenario.network
    gain = Q.take(network.tails, axis=0)
    head_q = Q.take(network.heads, axis=0)
    head_q.put(scenario.head_dst_entries, 0.0)
    gain -= head_q
    # fmax maps a NaN differential to 0 like a nonpositive one: no gain.
    np.fmax(gain, 0.0, out=gain)
    gain.put(scenario.forbidden_entries, 0.0)
    # argmax takes the first maximum, so ties go to the lowest id; a link
    # serves only a strictly positive gain.
    choice = gain.argmax(axis=1)
    n_l, n_f = gain.shape
    best = choice + np.arange(0, n_l * n_f, n_f)
    grant = np.flatnonzero(gain.take(best) > 0.0)
    if out is None:
        out = np.empty((n_l, n_f))
    out.fill(0.0)
    out.put(best.take(grant), network.caps.take(grant))
    return x, out
