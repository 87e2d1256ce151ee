"""Proximal backpressure engine.

Each slot reads the signed virtual queues Q(t), the previous slot's decisions
and their flow residual g(y_prev), which stepped Q, forms per-(node, session)
weights W = Q + g(y_prev) with W = 0 at destinations, and solves one proximal
scalar problem per source and one capped simplex projection per link. The
caller owns the queues and computes each residual; the engine keeps no state. All
decisions within a slot read the same W, so source and link updates are
order-independent, and slot_update runs them as one array program over
sources and over (links x sessions), on raw (x, mu) arrays. link_update is
the per-link scalar reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import ContractError, Scenario, _frozen, residual_matrix  # for perfbench's tracer
from .projection import ProjectionInstance, project_rows, project_sorted
from .rates import rate_lanes

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
    """alpha is a per-node positive array (queue^2 per rate^2 units), a
    read-only copy of the one given."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).copy()
        if a.ndim != 1 or np.any(~np.isfinite(a)) or np.any(a <= 0):
            raise ContractError("alpha must be a vector of positive reals")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    def node_alpha(self, network) -> np.ndarray:
        """alpha, after a check that it has one entry per node of network."""
        if self.alpha.size != network.node_count:
            raise ContractError(f"alpha has {self.alpha.size} entries for {network.node_count} nodes")
        return self.alpha


@dataclass(frozen=True, eq=False)
class SlotConstants:
    """What slot_update reads from alpha that stays fixed over a run; run()
    builds one. (F,): a_src, 2 alpha at each session's source, its multiples
    two_a_src and four_a_src, and ak_src, a_src times the 0-or-1 utility
    shift. link_denom (L, F), 2 (alpha_tail + alpha_head) across each link's
    row, to divide without a broadcast. The utility shifts and forbidden
    pairs come from the scenario. Raises ContractError unless alpha has one
    entry per node, 2 alpha is finite at the sources, and so are four_a_src
    (8 alpha) and link_denom."""

    scenario: Scenario
    config: AlgConfig
    a_src: np.ndarray = field(init=False)
    two_a_src: np.ndarray = field(init=False)
    four_a_src: np.ndarray = field(init=False)
    ak_src: np.ndarray = field(init=False)
    link_denom: np.ndarray = field(init=False)

    def __post_init__(self):
        sc = self.scenario
        network = sc.network
        alpha = self.config.node_alpha(network)
        with np.errstate(over="ignore"):  # 4a and the link denominators may overflow
            a_src = 2.0 * alpha[sc.src]
            if not np.isfinite(a_src).all():
                raise ContractError("2 alpha must be finite at every source")
            four_a, denom = 4.0 * a_src, 2.0 * (alpha[network.tails] + alpha[network.heads])
            if not (np.isfinite(four_a).all() and np.isfinite(denom).all()):
                raise ContractError("8 alpha at every source and 2 (alpha_tail + alpha_head) "
                                    "at every link must be finite")
            arrays = {"a_src": a_src, "two_a_src": 2.0 * a_src, "four_a_src": four_a,
                      "ak_src": a_src * sc.utility_shift,
                      "link_denom": np.repeat(denom[:, None], sc.n_sessions, axis=1)}
        for name, a in arrays.items():
            object.__setattr__(self, name, _frozen(a))


def compute_weights(Q: np.ndarray, g_prev: np.ndarray, scenario: Scenario) -> np.ndarray:
    """W = Q + g_prev, zero at destinations. (N, F)."""
    w = Q + g_prev
    w.put(scenario.dst_entries, 0.0)
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


def slot_update(Q: np.ndarray, g_prev, x_prev, mu_prev, consts: SlotConstants) -> tuple:
    """One slot's (x, mu, W): decisions and the weights they come from, given
    the signed queues Q (N, F), the last slot's rates x_prev (F,) and mu_prev
    (L, F), and their residual g_prev (N, F), which stepped Q.

    Every source's rate problem is solved by one rate_lanes call with the
    run's constants and every link's projection by one project_rows call on
    the (L, F) matrix a = mu_prev + (W[tail] - W[head]) / (2 (alpha_tail +
    alpha_head)), the scenario's forbidden pairs fixed at zero. Raises
    ContractError unless W is finite and x_prev lies in [0, inf). numpy may
    warn where W or alpha nears the float range, unless the caller ignores
    it, as run() does.
    """
    scenario = consts.scenario
    W = compute_weights(Q, g_prev, scenario)
    if not np.isfinite(W).all():
        raise ContractError("weights must be finite")
    # a non-finite x_prev makes g_prev, so W, non-finite at its source
    if x_prev.min(initial=0.0) < 0.0:
        raise ContractError("x_prev must lie in the domain closure")
    x = rate_lanes(scenario.utility_shift, scenario.utility_weight,
                   W.take(scenario.src_entries) - consts.a_src * x_prev,
                   consts.a_src, consts.ak_src, consts.two_a_src, consts.four_a_src)
    network = scenario.network
    # mu_prev + (W[tail] - W[head]) / link_denom in place: the same roundings
    a = W.take(network.tails, axis=0)
    a -= W.take(network.heads, axis=0)
    a /= consts.link_denom
    a += mu_prev
    mu = project_rows(a, network.caps, scenario.forbidden_entries)
    return x, mu, W
