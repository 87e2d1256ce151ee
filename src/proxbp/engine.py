"""Proximal backpressure engine.

Each slot: form per-(node, session) weights W = Q + g(y_prev) with W = 0 at
destinations, solve one proximal scalar problem per source and one capped
simplex projection per link, then advance the signed virtual queues by the
new flow residuals. All decisions within a slot read the same W, so source
and link updates are order-independent, and slot_update runs them as one
array program over sources and over (links x sessions). link_update is the
per-link scalar reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import ContractError, DecisionVector, Scenario, residual_matrix, zero_decision
from .projection import ProjectionInstance, project_rows, project_sorted
from .rates import solve_rates

ALPHA_MODES = ("utility-gap", "queue-bound")


def default_alpha(network, mode: str) -> np.ndarray:
    """Per-node proximal coefficients.

    "utility-gap" returns (d_n + 1) / 2, the smallest setting with a vanishing
    utility gap; "queue-bound" returns (d_n + 1)^2 / 2, which additionally
    keeps all queues bounded by constants.
    """
    if mode not in ALPHA_MODES:
        raise ContractError(f"alpha mode must be one of {ALPHA_MODES}, got {mode!r}")
    d = network.degrees.astype(float)
    if mode == "utility-gap":
        return 0.5 * (d + 1.0)
    return 0.5 * (d + 1.0) ** 2


@dataclass(frozen=True, eq=False)
class AlgConfig:
    """alpha is a per-node positive array (queue^2 per rate^2 units)."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).copy()
        if a.ndim != 1 or np.any(~np.isfinite(a)) or np.any(a <= 0):
            raise ContractError("alpha must be a vector of positive reals")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True, eq=False)
class BpState:
    """Signed virtual queues Q (N, F), previous slot's decisions, slot counter,
    and the weights W (N, F) the previous slot used (None before the first)."""

    Q: np.ndarray
    y_prev: DecisionVector
    t: int
    W: np.ndarray = None


def initial_state(scenario: Scenario) -> BpState:
    q = np.zeros((scenario.n_nodes, scenario.n_sessions))
    q.setflags(write=False)
    return BpState(q, zero_decision(scenario), 0)


def compute_weights(state: BpState, scenario: Scenario) -> np.ndarray:
    """W = Q + g(y_prev), zero at destinations. (N, F)."""
    w = state.Q + residual_matrix(scenario, state.y_prev.x, state.y_prev.mu)
    w[scenario.inactive] = 0.0
    return w


def link_update(link: int, W: np.ndarray, alpha: np.ndarray, mu_prev: np.ndarray,
                scenario: Scenario) -> np.ndarray:
    """One link's routing update. Returns the (F,) rate column for the link.

    Completing the square in the link's slot objective reduces it to the
    capped-simplex projection of a_f = mu_prev_f + (W_n - W_m) / (2 (a_n + a_m))
    with budget equal to the link capacity. Forbidden sessions stay at zero.
    """
    l = scenario.network.links[link]
    allowed = scenario.allow_mask[link]
    out = np.zeros(scenario.n_sessions)
    if not allowed.any():
        return out
    denom = 2.0 * (alpha[l.tail] + alpha[l.head])
    a = mu_prev[link, allowed] + (W[l.tail, allowed] - W[l.head, allowed]) / denom
    z, _ = project_sorted(ProjectionInstance(a, l.capacity))
    out[allowed] = z
    return out


def slot_update(state: BpState, scenario: Scenario, config: AlgConfig) -> tuple:
    """Advance one slot. Returns (decisions for slot t, next state).

    Every source's rate problem is solved by solve_rates and every link's
    projection by one project_rows call on the (L, F) matrix
    a = mu_prev + (W[tail] - W[head]) / (2 (alpha_tail + alpha_head)).
    """
    alpha = config.alpha
    W = compute_weights(state, scenario)
    if not np.isfinite(W).all():
        raise ContractError("weights must be finite")
    x = solve_rates(scenario.is_wlog, scenario.utility_weight,
                    W[scenario.src_entries], state.y_prev.x, alpha[scenario.src])
    network = scenario.network
    tails, heads = network.tails, network.heads
    denom = 2.0 * (alpha[tails] + alpha[heads])
    a = state.y_prev.mu + (W[tails] - W[heads]) / denom[:, None]
    mu = project_rows(a, network.caps, scenario.allow_mask)
    y = DecisionVector(x, mu)
    q = state.Q + residual_matrix(scenario, y.x, y.mu)
    q.setflags(write=False)
    return y, BpState(q, y, state.t + 1, W)


def lyapunov(state: BpState) -> float:
    """L(t) = half the squared norm of the signed virtual queues."""
    return 0.5 * float(np.sum(state.Q * state.Q))
