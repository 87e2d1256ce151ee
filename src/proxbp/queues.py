"""Queue dynamics: clipped virtual (Y), store-and-forward physical (Z), signed
virtual (Q), plus scripted-policy replay and the queue-bound transfer audit.

All three families are stepped from the same per-slot decisions. Y assumes
freshly injected data can traverse the whole network within its arrival slot;
Z is faithful to physical forwarding, serving from existing backlog before
arrivals join; Q integrates the signed flow residuals without clipping.
Arrays are (N, F) with destination entries pinned at zero. step_Y and
step_Q step one slot; ZSteps steps consecutive slots in one call, so a caller
whose decisions do not read Z steps it once per chunk of stored decisions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import (_EPS, ContractError, Scenario, ScenarioValidationError, decision_faults,
                  residual_matrix)


def step_Y(Y, g, scenario: Scenario, out=None) -> np.ndarray:
    """Clipped virtual queues: from Y (N, F), add the slot's flow residual g
    (N, F), as returned by residual_matrix, so everything prescribed counts;
    then clip at zero and zero the destination entries. An add, a maximum and
    one put, into out (C-contiguous) if given, else into a new array of Y's
    shape."""
    if out is None:
        out = np.empty(np.shape(Y))
    np.add(Y, g, out=out)
    np.maximum(out, 0.0, out=out)
    out.put(scenario.dst_entries, 0.0)
    return out


def step_Q(Q, g, out=None) -> np.ndarray:
    """Signed virtual queues: integrate the flow residual g unclipped, into out if given."""
    return np.add(Q, g, out=out, dtype=float)


class ZSteps:
    """Physical store-and-forward queues Z over up to `slots` consecutive
    slots per call, with the scratch allocated once; step_Z is one slot of it.

    Service first: each node fills its outgoing prescriptions in ascending
    link-index order from current backlog only, so a link's actual transfer is
    min(prescribed, what is left). Upstream sends and exogenous arrivals join
    afterwards, in link order, and cannot move again until the next slot. The
    k-th out-links of all nodes are served together, one rank at a time, over
    the padded table Network.out_slots; a padding entry prescribes 0, takes
    min(0, backlog) = 0 from a backlog Z >= 0 and leaves it as it was. A
    negative backlog entry counts as empty: Z is clipped at zero once per
    slot, as it is read, so padded and served ranks agree and no link sends a
    negative amount.

    A call gathers the prescriptions of all its slots over out_slots, clips
    them, zeroes the padding and scatters the source rates, once each. Per
    slot remain the rank passes and the inflow: the remaining backlog plus
    the arrivals, then one gather of the sends over Network.in_slots, added
    one in-rank at a time, so each entry receives its sends in ascending
    link order (a padding entry adds +0.0).
    """

    def __init__(self, scenario: Scenario, slots: int):
        network = scenario.network
        n_n, n_f, n_l = scenario.n_nodes, scenario.n_sessions, scenario.n_links
        kn = network.out_slots.size
        self.scenario = scenario
        # each slot's prescriptions by (rank, node), and where out_slots pads
        self.wanted = np.empty((slots,) + network.out_slots.shape + (n_f,))
        self.pads = np.flatnonzero(network.out_slots.ravel() == n_l)
        self.arrivals = np.zeros((slots, n_n, n_f))  # source rates at their entries
        # one slot's rank takes, with a zero row at the padding index K·N of in_slots
        self.flat = np.zeros((kn + 1, n_f))
        self.takes = list(self.flat[:kn].reshape(self.wanted.shape[1:]))  # one (N, F) per rank
        self.rem = np.empty((n_n, n_f))
        self.inflow = np.empty(network.in_slots.shape + (n_f,))
        self.ins = list(self.inflow)  # one (N, F) per in-rank

    def __call__(self, Z, arrivals, mu, out, sends=None) -> np.ndarray:
        """Step Z (N, F) over the n = len(mu) slots of mu (n, L, F). arrivals
        are the slots' (n, F) source rates, which join at each session's
        source entry, or (n, N, F) matrices. out (n, N, F) receives the state
        after each slot and sends, if given, (n, L, F) each link's actual
        transfer. Z may be out[0], which is written after Z is read. Returns
        out."""
        sc = self.scenario
        network = sc.network
        mu = np.asarray(mu, dtype=float)
        n = len(mu)
        wanted = self.wanted[:n]
        # the padding index L reads link L - 1 and is zeroed after the clip
        mu.take(network.out_slots, axis=1, out=wanted, mode="clip")
        np.maximum(wanted, 0.0, out=wanted)
        wanted.reshape(n, network.out_slots.size, sc.n_sessions)[:, self.pads] = 0.0
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.ndim == 2:
            arr = self.arrivals[:n]
            arr.reshape(n, sc.n_nodes * sc.n_sessions)[:, sc.src_entries] = arrivals
            arrivals = arr
        rem, takes, flat, inflow, ins = self.rem, self.takes, self.flat, self.inflow, self.ins
        in_slots, dst = network.in_slots, sc.dst_entries
        prev = Z
        for t in range(n):
            np.maximum(prev, 0.0, out=rem)
            for k, take in enumerate(takes):
                np.minimum(wanted[t, k], rem, out=take)
                rem -= take
            if sends is not None:
                flat.take(network.link_slots, axis=0, out=sends[t])
            prev = out[t]
            np.add(rem, arrivals[t], out=prev)
            flat.take(in_slots, axis=0, out=inflow)
            for sent in ins:
                prev += sent
            prev.put(dst, 0.0)
        return out


def step_Z(Z, arrivals, mu, scenario: Scenario) -> tuple:
    """One slot of the physical queues (ZSteps): arrivals are the (F,) source
    rates or an (N, F) matrix. Returns (Z next, actual sends (L, F))."""
    mu = np.asarray(mu, dtype=float)
    nxt = np.empty((1, scenario.n_nodes, scenario.n_sessions))
    sends = np.empty((1,) + mu.shape)
    ZSteps(scenario, 1)(Z, np.asarray(arrivals, dtype=float)[None], mu[None], nxt, sends)
    return nxt[0], sends[0]


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
    """Raise unless the policy fits the scenario: shapes, finite nonnegative
    arrivals that skip the destinations, schedules that pass decision_faults."""
    n, f, l = scenario.n_nodes, scenario.n_sessions, scenario.n_links
    if policy.arrivals.shape[1:] != (n, f) or policy.mu.shape[1:] != (l, f):
        raise ScenarioValidationError("policy shapes do not match the scenario")
    if not (np.isfinite(policy.arrivals) & (policy.arrivals >= 0)).all():
        raise ScenarioValidationError("exogenous arrivals must be finite and nonnegative")
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
    y_hist, z_hist, q_hist = (np.zeros((t_max + 1,) + shape) for _ in range(3))
    for t in range(t_max):
        arr = policy.arrivals[t]
        step_Y(y_hist[t], residual_matrix(scenario, arr, policy.mu_instant[t]), scenario,
               out=y_hist[t + 1])
        step_Q(q_hist[t], residual_matrix(scenario, arr, policy.mu[t]), out=q_hist[t + 1])
    ZSteps(scenario, t_max)(z_hist[0], policy.arrivals, policy.mu, z_hist[1:])
    return ScriptedTrace(y_hist, z_hist, q_hist)


# ---------------------------------------------------------------------------
# bound transfer audit


def audit_queue_bounds(peak_Y, peak_Z, B: float, scenario: Scenario, slots: int) -> list:
    """Check the bound transfer: if the signed queues stayed within |Q| <= B
    under some decision stream, then both the clipped and the physical queues
    must stay below 2B + sum of outgoing capacities at every (node, session)
    under those same decisions, up to the rounding of their recursions.

    peak_Y and peak_Z are each family's (N, F) peaks over the stream of
    `slots` slots. Returns one record per violation, (family, node, session,
    value, bound); empty iff the bounds hold.

    A peak may exceed its bound by T (L + N + 2) eps S, T = slots and S the
    largest bound. With u = eps / 2 and float steps from the same g:
    Q' = Q + g + e, |e| <= u B, and Y' = max(Y + g + d, 0), |d| <= u Y'.
    So Y - Q steps as D' = max(D + d - e, -Q'), D(0) = 0, and Y(t) = Q(t) +
    max over s <= t of (-Q(s) + the d - e of the slots after s), at most
    2B + T u (peak Y + B). Exact queues under the same decisions obey the
    bounds with an exact B, within T u B of this one. A Z step serves in
    link order and then adds, and what leaves a node and what stays, each
    monotone in its backlog, sum to it, so the step does not grow the sum
    over nodes of a session's |Z| error. Each slot adds at most d_n + 1
    roundings at node n, of values at most its peak: (2L + N) u peak Z in
    all, so Z is within 2 T u B + T (2L + N) u peak Z of its bound. With the
    peaks at most S, both are to first order below T (L + N + 1) eps S; the
    1 more covers higher orders.
    """
    if not (B >= 0):
        raise ContractError(f"B must be a nonnegative real, got {B!r}")
    limit = 2.0 * B + scenario.network.out_cap[:, None]
    slack = slots * (scenario.n_links + scenario.n_nodes + 2) * _EPS * limit.max()
    out = []
    for name, peak in (("Y", peak_Y), ("Z", peak_Z)):
        peak = np.asarray(peak, dtype=float)
        if peak.shape != (scenario.n_nodes, scenario.n_sessions):
            raise ContractError(f"peak_{name} must be (N, F), got shape {peak.shape}")
        out += [(name, int(n), int(f), float(peak[n, f]), float(limit[n, 0]))
                for n, f in np.argwhere(peak > limit + slack)]
    return out
