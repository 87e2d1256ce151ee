"""Queue dynamics: clipped virtual (Y), store-and-forward physical (Z), signed
virtual (Q), plus scripted-policy replay and the queue-bound transfer audit.

All three families are stepped from the same per-slot decisions. Y assumes
freshly injected data can traverse the whole network within its arrival slot;
Z is faithful to physical forwarding, serving from existing backlog before
arrivals join; Q integrates the signed flow residuals without clipping.
Arrays are (N, F) with destination entries pinned at zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import (CAP_TOL, ContractError, Scenario, ScenarioValidationError, decision_faults,
                  residual_matrix)


def step_Y(Y, g, scenario: Scenario) -> np.ndarray:
    """Clipped virtual queues: add the slot's flow residual g (N, F), as
    returned by residual_matrix, so everything prescribed counts; then clip
    at zero."""
    nxt = np.maximum(np.asarray(Y, dtype=float) + g, 0.0)
    nxt.put(scenario.dst_entries, 0.0)
    return nxt


def step_Q(Q, g) -> np.ndarray:
    """Signed virtual queues: integrate the flow residual g, no clipping."""
    return np.asarray(Q, dtype=float) + g


def step_Z(Z, arrivals, mu, scenario: Scenario) -> tuple:
    """Physical store-and-forward queues. Returns (Z next, actual sends (L, F)).

    Service first: each node fills its outgoing prescriptions in ascending
    link-index order from current backlog only, so a link's actual transfer is
    min(prescribed, what is left). Upstream sends and exogenous arrivals join
    afterwards, in link order, and cannot move again until the next slot. The
    k-th out-links of all nodes are served together, one rank at a time, over
    the padded table Network.out_slots; a padding entry prescribes 0, takes
    min(0, backlog) = 0 from a backlog Z >= 0 and leaves it as it was. A
    negative backlog entry counts as empty: Z is clipped at zero once, as it
    is copied in, so padded and served ranks agree and no link sends a
    negative amount.

    arrivals is an (N, F) matrix or the (F,) source rates, which join at each
    session's source entry.
    """
    network = scenario.network
    n_l, n_f = scenario.n_links, scenario.n_sessions
    out_slots = network.out_slots
    # prescriptions with a zero row at the padding index L
    padded = np.empty((n_l + 1, n_f))
    np.maximum(mu, 0.0, out=padded[:n_l])
    padded[n_l] = 0.0
    wanted = padded.take(out_slots, axis=0)
    # each rank's takes, with a zero row at the padding index K·N of in_slots
    flat = np.empty((out_slots.size + 1, n_f))
    flat[-1] = 0.0
    takes = flat[:-1].reshape(wanted.shape)
    # the remaining backlog until the loop ends; a negative entry is empty
    nxt = np.maximum(Z, 0.0, dtype=float, order="C")
    for want, take in zip(wanted, takes):
        np.minimum(want, nxt, out=take)
        nxt -= take
    sends = flat.take(network.link_slots, axis=0)
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.ndim == 1:
        nxt.put(scenario.src_entries, nxt.take(scenario.src_entries) + arrivals)
    else:
        nxt += arrivals
    # each (head, session) entry receives its sends one link at a time, in
    # ascending link order; a padding entry adds +0.0
    for ins in flat.take(network.in_slots, axis=0):
        nxt += ins
    nxt.put(scenario.dst_entries, 0.0)
    return nxt, sends


# ---------------------------------------------------------------------------
# scripted policies


@dataclass(frozen=True, eq=False)
class ScriptedPolicy:
    """Fixed per-slot exogenous arrivals and prescribed link rates.

    mu is the physical forwarding timeline; mu_instant prescribes each
    arrival's entire remaining path within its arrival slot, the schedule the
    clipped virtual model is allowed to follow. Both must respect capacities
    and allow-sets; slot t of each array drives the step from state t to t+1.
    """

    arrivals: np.ndarray   # (T, N, F)
    mu: np.ndarray         # (T, L, F)
    mu_instant: np.ndarray  # (T, L, F)

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float).copy()
        mu = np.asarray(self.mu, dtype=float).copy()
        mi = np.asarray(self.mu_instant, dtype=float).copy()
        if arr.ndim != 3 or mu.ndim != 3 or mi.ndim != 3:
            raise ScenarioValidationError("policy arrays must be 3-d (slot, ..., session)")
        if not (arr.shape[0] == mu.shape[0] == mi.shape[0]) or mu.shape != mi.shape \
                or arr.shape[2] != mu.shape[2]:
            raise ScenarioValidationError(
                f"policy shapes inconsistent: arrivals {arr.shape}, mu {mu.shape}, mu_instant {mi.shape}")
        for a in (arr, mu, mi):
            a.setflags(write=False)
        object.__setattr__(self, "arrivals", arr)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu_instant", mi)

    @property
    def slots(self) -> int:
        return self.arrivals.shape[0]


def validate_policy(scenario: Scenario, policy: ScriptedPolicy):
    """Raise unless the policy fits the scenario: shapes, nonnegative arrivals
    that skip the destinations, and schedules that pass decision_faults."""
    n, f, l = scenario.n_nodes, scenario.n_sessions, scenario.n_links
    if policy.arrivals.shape[1:] != (n, f) or policy.mu.shape[1:] != (l, f):
        raise ScenarioValidationError("policy shapes do not match the scenario")
    if np.any(policy.arrivals < 0):
        raise ScenarioValidationError("negative exogenous arrival")
    if np.any(policy.arrivals[:, ~scenario.active] != 0):
        raise ScenarioValidationError("exogenous arrival at a session destination")
    no_rates = np.zeros((policy.slots, f))  # the schedules carry no source rates
    for name, sched in (("mu", policy.mu), ("mu_instant", policy.mu_instant)):
        faults = decision_faults(scenario, no_rates, sched)
        if faults:
            t, message = faults[0]
            raise ScenarioValidationError(f"{name} at slot {t}: {message}")


@dataclass(frozen=True, eq=False)
class ScriptedTrace:
    """Queue histories under a scripted policy. State index 0 is the empty start,
    index t is the state after t steps; Y follows mu_instant, Z and Q follow mu."""

    Y: np.ndarray  # (T+1, N, F)
    Z: np.ndarray  # (T+1, N, F)
    Q: np.ndarray  # (T+1, N, F)


def run_scripted(scenario: Scenario, policy: ScriptedPolicy) -> ScriptedTrace:
    validate_policy(scenario, policy)
    t_max = policy.slots
    shape = (scenario.n_nodes, scenario.n_sessions)
    y_hist = np.zeros((t_max + 1,) + shape)
    z_hist = np.zeros((t_max + 1,) + shape)
    q_hist = np.zeros((t_max + 1,) + shape)
    for t in range(t_max):
        arr = policy.arrivals[t]
        y_hist[t + 1] = step_Y(y_hist[t], residual_matrix(scenario, arr, policy.mu_instant[t]),
                               scenario)
        z_hist[t + 1], _ = step_Z(z_hist[t], arr, policy.mu[t], scenario)
        q_hist[t + 1] = step_Q(q_hist[t], residual_matrix(scenario, arr, policy.mu[t]))
    return ScriptedTrace(y_hist, z_hist, q_hist)


# ---------------------------------------------------------------------------
# bound transfer audit


def audit_queue_bounds(Y, Z, B: float, scenario: Scenario) -> list:
    """Check the bound transfer: if the signed queues stayed within |Q| <= B
    under some decision stream, then both the clipped and the physical queues
    must stay below 2B + sum of outgoing capacities at every (slot, node,
    session) under those same decisions.

    Y and Z are histories shaped (T, N, F). Returns one record per violation,
    (slot, family, node, session, value, bound); empty iff the bounds hold.
    """
    if not (B >= 0):
        raise ContractError(f"B must be a nonnegative real, got {B!r}")
    limit = 2.0 * B + scenario.network.out_cap[:, None]
    out = []
    for name, fam in (("Y", Y), ("Z", Z)):
        fam = np.asarray(fam, dtype=float)
        bad = np.argwhere(fam > limit[None, :, :] + CAP_TOL)
        for t, n, f in bad:
            out.append((int(t), name, int(n), int(f), float(fam[t, n, f]), float(limit[n, 0])))
    return out
