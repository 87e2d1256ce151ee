"""Simulation driver: slot loop, inline invariant checks, metric traces, CSV
emission, the adversarial chain generator, and multi-run comparison."""
from __future__ import annotations

import io
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .net import (ContractError, Link, Network, Scenario, ScenarioValidationError,
                  Session, Utility, residual_matrix, total_utility, validate_decision)
from .engine import AlgConfig, default_alpha, initial_state, slot_update
from .dpp import DppConfig, dpp_initial_state, dpp_step
from .queues import ScriptedPolicy, audit_queue_bounds, step_Q, step_Y, step_Z

CSV_HEADER = "slot,alg,session,x,xbar,util_inst,util_avg,util_jensen,gap,maxQ,maxZ,maxY,lyapunov"

WEIGHT_IDENTITY_TOL = 1e-12
DRIFT_IDENTITY_TOL = 1e-9
TELESCOPE_TOL = 1e-9  # per slot of accumulation


@dataclass(eq=False)
class Trace:
    """Per-slot metrics of one run. Row t aggregates slots 0..t inclusive, and
    queue columns report the state right after slot t's update."""

    alg: str
    x: np.ndarray           # (T, F)
    xbar: np.ndarray        # (T, F) running mean of x
    util_inst: np.ndarray   # (T,)
    util_avg: np.ndarray    # (T,) running mean of util_inst
    util_jensen: np.ndarray  # (T,) utility at xbar
    gap: np.ndarray         # (T,) U_star - util_avg, nan without an oracle
    maxQ: np.ndarray        # (T,) max |signed virtual queue|
    maxZ: np.ndarray        # (T,)
    maxY: np.ndarray        # (T,)
    lyap: np.ndarray        # (T,)
    z_total: np.ndarray = None   # (T,) total physical backlog (not in CSV)
    peak_Y: np.ndarray = None    # (N, F) peak of Y over the run (not in CSV)
    peak_Z: np.ndarray = None    # (N, F) peak of Z over the run (not in CSV)
    summary: dict = field(default_factory=dict)

    @property
    def slots(self) -> int:
        return self.x.shape[0]

    def to_csv(self, fh) -> None:
        close = False
        if isinstance(fh, (str, bytes)):
            fh = open(fh, "w", encoding="utf-8")
            close = True
        try:
            fh.write(CSV_HEADER + "\n")
            per_slot = np.column_stack((self.util_inst, self.util_avg, self.util_jensen,
                                        self.gap, self.maxQ, self.maxZ, self.maxY,
                                        self.lyap)).tolist()
            for t, (xs, xbars, cells) in enumerate(zip(self.x.tolist(), self.xbar.tolist(),
                                                       per_slot)):
                tail = ",".join(map(repr, cells))
                fh.write("".join(f"{t},{self.alg},{f},{a!r},{b!r},{tail}\n"
                                 for f, (a, b) in enumerate(zip(xs, xbars))))
        finally:
            if close:
                fh.close()

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def trace_from_csv(fh) -> Trace:
    """Rebuild the pinned columns of an emitted trace. Summary and the extra
    in-memory fields are not part of the CSV and come back empty."""
    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "r", encoding="utf-8")
        close = True
    try:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ContractError(f"unexpected CSV header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    finally:
        if close:
            fh.close()
    if not rows:
        raise ContractError("trace CSV has no rows")
    alg = rows[0][1]
    n_f = max(int(r[2]) for r in rows) + 1
    n_t = max(int(r[0]) for r in rows) + 1
    x = np.zeros((n_t, n_f))
    xbar = np.zeros((n_t, n_f))
    scal = {name: np.zeros(n_t) for name in
            ("util_inst", "util_avg", "util_jensen", "gap", "maxQ", "maxZ", "maxY", "lyap")}
    for r in rows:
        t, f = int(r[0]), int(r[2])
        x[t, f] = float(r[3])
        xbar[t, f] = float(r[4])
        for i, name in enumerate(("util_inst", "util_avg", "util_jensen", "gap",
                                  "maxQ", "maxZ", "maxY", "lyap")):
            scal[name][t] = float(r[5 + i])
    return Trace(alg=alg, x=x, xbar=xbar, gap=scal["gap"], util_inst=scal["util_inst"],
                 util_avg=scal["util_avg"], util_jensen=scal["util_jensen"],
                 maxQ=scal["maxQ"], maxZ=scal["maxZ"], maxY=scal["maxY"], lyap=scal["lyap"])


def run(scenario: Scenario, algorithm: str, config, slots: int, oracle=None) -> Trace:
    """Drive one algorithm for the given number of slots.

    Steps all three queue families under the produced decisions and evaluates
    the inline invariants every slot: per-slot feasibility, the drift identity
    of the signed queues, the weight identity (proximal algorithm only), the
    telescoping of Q, and the queue bound transfer with B set to the observed
    max |Q|. Results land in trace.summary; summary["passed"] is the overall
    verdict. summary["queue_transfer_violations"] holds the records of
    audit_queue_bounds applied to the per-(node, session) peaks of Y and Z
    (trace.peak_Y, trace.peak_Z), one per violating (family, node, session)
    with slot index 0.
    """
    if slots < 1:
        raise ContractError(f"slots must be at least 1, got {slots!r}")
    if algorithm not in ("new", "dpp"):
        raise ContractError(f"algorithm must be 'new' or 'dpp', got {algorithm!r}")
    n_f = scenario.n_sessions
    n_n = scenario.n_nodes
    x_hist = np.empty((slots, n_f))
    util_inst = np.empty(slots)
    max_q = np.empty(slots)
    max_z = np.empty(slots)
    max_y = np.empty(slots)
    lyap = np.empty(slots)
    z_total = np.empty(slots)

    Y = np.zeros((n_n, n_f))
    Z = np.zeros((n_n, n_f))
    Q = np.zeros((n_n, n_f))

    weight_err = 0.0
    drift_err = 0.0
    telescope_scaled = 0.0
    q_consistency = 0.0
    feas_failures = []
    cum_g = np.zeros((n_n, n_f))
    peak_Y = np.zeros((n_n, n_f))
    peak_Z = np.zeros((n_n, n_f))
    lyap_after = 0.0

    state = initial_state(scenario) if algorithm == "new" else dpp_initial_state(scenario)
    q_prev = None

    for t in range(slots):
        if algorithm == "new":
            q_now = state.Q
            y, state = slot_update(state, scenario, config)
            if t >= 1:
                ident = 2.0 * q_now - q_prev
                ident[~scenario.active] = 0.0
                weight_err = max(weight_err, float(np.max(np.abs(state.W - ident))))
            q_prev = q_now
        else:
            y, state = dpp_step(state, scenario, config)

        g = residual_matrix(scenario, y.x, y.mu)
        q_before = Q
        lyap_before = lyap_after
        try:
            validate_decision(scenario, y)
        except ScenarioValidationError as e:
            feas_failures.append((t, str(e)))
        Y = step_Y(Y, g, scenario)
        Z, _ = step_Z(Z, y.x, y.mu, scenario)
        Q = step_Q(Q, g)

        lyap_after = 0.5 * float(np.sum(Q * Q))
        drift = float(np.sum(q_before * g + 0.5 * g * g))
        drift_err = max(drift_err, abs((lyap_after - lyap_before) - drift))
        cum_g += g
        telescope_scaled = max(
            telescope_scaled, float(np.max(np.abs(Q - cum_g))) / (t + 1.0))
        if algorithm == "new":
            q_consistency = max(q_consistency, float(np.max(np.abs(state.Q - Q))))

        x_hist[t] = y.x
        util_inst[t] = total_utility(scenario, y.x)
        max_q[t] = float(np.max(np.abs(Q)))
        max_z[t] = float(np.max(Z))
        max_y[t] = float(np.max(Y))
        z_total[t] = float(np.sum(Z))
        lyap[t] = lyap_after
        np.maximum(peak_Y, Y, out=peak_Y)
        np.maximum(peak_Z, Z, out=peak_Z)

    denom = np.arange(1, slots + 1, dtype=float)
    xbar = np.cumsum(x_hist, axis=0) / denom[:, None]
    util_avg = np.cumsum(util_inst) / denom
    util_jensen = np.array([total_utility(scenario, xbar[t]) for t in range(slots)])
    if oracle is not None:
        gap = oracle.U_star - util_avg
    else:
        gap = np.full(slots, math.nan)

    # bound transfer with B = observed max |Q| (initial zero states included)
    b_obs = float(max_q.max())
    transfer = audit_queue_bounds(peak_Y[None], peak_Z[None], b_obs, scenario)

    summary = {
        "weight_identity_max": weight_err,
        "drift_identity_max": drift_err,
        "telescoping_scaled_max": telescope_scaled,
        "queue_consistency_max": q_consistency,
        "feasibility_violations": feas_failures,
        "queue_transfer_violations": transfer,
        "observed_max_abs_q": b_obs,
    }
    summary["passed"] = (
        weight_err <= WEIGHT_IDENTITY_TOL
        and drift_err <= DRIFT_IDENTITY_TOL
        and telescope_scaled <= TELESCOPE_TOL
        and q_consistency == 0.0
        and not feas_failures
        and not transfer
    )
    return Trace(alg=algorithm, x=x_hist, xbar=xbar, util_inst=util_inst,
                 util_avg=util_avg, util_jensen=util_jensen, gap=gap, maxQ=max_q,
                 maxZ=max_z, maxY=max_y, lyap=lyap, z_total=z_total, peak_Y=peak_Y,
                 peak_Z=peak_Z, summary=summary)


# ---------------------------------------------------------------------------
# adversarial chain generator


def chain_example(k: int, slots: int = None) -> tuple:
    """Chain scenario plus a scripted schedule separating the queue models.

    3k+1 nodes: a shared hub (node 0), a feeder chain a_1..a_k, a relay chain
    r_1..r_k, and a chain b_1..b_k. Session 0 ships a-traffic along
    a_1..a_k, the relays, and the hub to b_1; session 1 ships b-traffic along
    b_1..b_k and the hub to a_1. Arrivals are periodic with period 2k: one
    unit at a_j in slot j-1, one at b_j in slot k+j-1 (0-based). All
    capacities are 1.

    The full-path schedule (mu_instant) forwards each arrival to its
    destination within its slot, so the clipped virtual queues stay exactly
    zero. The physical schedule (mu) moves packets one hop per slot with the
    hub draining one packet per slot in arrival order, which piles the hub
    backlog to exactly k+1 at slot 3k.
    """
    if k < 1:
        raise ContractError(f"k must be a positive integer, got {k!r}")
    t_max = 6 * k if slots is None else int(slots)
    if t_max < 1:
        raise ContractError(f"slots must be positive, got {slots!r}")
    n_nodes = 3 * k + 1
    hub = 0

    def a(i):  # 1-based feeder index to node id
        return i

    def r(i):
        return k + i

    def b(i):
        return 2 * k + i

    links = []
    for i in range(1, k):
        links.append(Link(a(i), a(i + 1), 1.0))
    links.append(Link(a(k), r(1), 1.0))
    for i in range(1, k):
        links.append(Link(r(i), r(i + 1), 1.0))
    links.append(Link(r(k), hub, 1.0))
    for i in range(1, k):
        links.append(Link(b(i), b(i + 1), 1.0))
    links.append(Link(b(k), hub, 1.0))
    links.append(Link(hub, b(1), 1.0))
    links.append(Link(hub, a(1), 1.0))
    path_a = list(range(0, 2 * k)) + [3 * k]          # a-chain, relays, hub exit
    path_b = list(range(2 * k, 3 * k)) + [3 * k + 1]  # b-chain, hub exit
    sessions = (
        Session(0, a(1), b(1), Utility("wlog1p", 1.0)),
        Session(1, b(1), a(1), Utility("wlog1p", 1.0)),
    )
    allowed = tuple(
        frozenset([0] if l in set(path_a) else ([1] if l in set(path_b) else []))
        for l in range(len(links))
    )
    scenario = Scenario(Network(n_nodes, tuple(links)), sessions, allowed)

    n_l = len(links)
    arrivals = np.zeros((t_max, n_nodes, 2))
    for t in range(t_max):
        rphase = t % (2 * k)
        if rphase < k:
            arrivals[t, a(rphase + 1), 0] = 1.0
        else:
            arrivals[t, b(rphase - k + 1), 1] = 1.0

    # physical timeline: every non-hub node forwards one unit per slot along
    # its session's unique out-link; the hub serves one packet per slot in
    # arrival order (ties broken by incoming link index).
    paths = (path_a, path_b)
    out_link_of = {}
    for f, path in enumerate(paths):
        for l in path:
            if links[l].tail != hub:
                out_link_of[(links[l].tail, f)] = l
    hub_exit = {0: 3 * k, 1: 3 * k + 1}
    hub_entry = (2 * k - 1, 3 * k - 1)  # a-traffic enters first within a slot

    mu = np.zeros((t_max, n_l, 2))
    count = np.zeros((n_nodes, 2))
    fifo = deque()
    for t in range(t_max):
        for (n, f), l in out_link_of.items():
            if count[n, f] >= 1.0:
                mu[t, l, f] = 1.0
        if fifo:
            f = fifo[0]
            mu[t, hub_exit[f], f] = 1.0
        count, sends = step_Z(count, arrivals[t], mu[t], scenario)
        if mu[t, hub_exit[0], 0] or mu[t, hub_exit[1], 1]:
            fifo.popleft()
        for f, l in ((0, hub_entry[0]), (1, hub_entry[1])):
            if sends[l, f] >= 1.0:
                fifo.append(f)

    # instant schedule: each arrival's remaining path is prescribed in full
    mu_instant = np.zeros((t_max, n_l, 2))
    for t in range(t_max):
        spots = np.argwhere(arrivals[t] > 0)
        for n, f in spots:
            path = paths[int(f)]
            start = next(i for i, l in enumerate(path) if links[l].tail == int(n))
            for l in path[start:]:
                mu_instant[t, l, int(f)] = 1.0

    return scenario, ScriptedPolicy(arrivals, mu, mu_instant)


def save_policy(policy: ScriptedPolicy, path):
    """Write a scripted schedule as a line-oriented text document (nonzero
    entries only): slots, arrive/mu/mu_instant lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"slots {policy.slots}\n")
        for tag, arr in (("arrive", policy.arrivals), ("mu", policy.mu),
                         ("mu_instant", policy.mu_instant)):
            for idx in np.argwhere(arr != 0):
                t, i, f = (int(v) for v in idx)
                fh.write(f"{tag} {t} {i} {f} {float(arr[t, i, f])!r}\n")


# ---------------------------------------------------------------------------
# comparison runs


@dataclass(frozen=True)
class CompareRun:
    """One (algorithm, parameters) cell of a comparison."""

    name: str
    algorithm: str                  # "new" or "dpp"
    alpha_mode: str = "queue-bound"  # new only
    alpha_scale: float = 1.0
    V: float = 500.0                # dpp only
    x_max: float = None


def make_config(scenario: Scenario, spec: CompareRun):
    if spec.algorithm == "new":
        return AlgConfig(default_alpha(scenario.network, spec.alpha_mode) * spec.alpha_scale)
    return DppConfig(V=spec.V, x_max=spec.x_max)


def queue_mass(trace: Trace) -> float:
    """Mean total physical backlog over the final tenth of the run."""
    tail = max(1, trace.slots // 10)
    return float(np.mean(trace.z_total[-tail:]))


def compare(scenario: Scenario, runs, slots: int, oracle=None) -> tuple:
    """Run each comparison cell and summarize. Returns (traces, report text)."""
    traces = {}
    lines = []
    for spec in runs:
        tr = run(scenario, spec.algorithm, make_config(scenario, spec), slots, oracle=oracle)
        traces[spec.name] = tr
        parts = [f"run {spec.name}", f"alg {spec.algorithm}"]
        if spec.algorithm == "new":
            parts.append(f"alpha_mode {spec.alpha_mode}")
            if spec.alpha_scale != 1.0:
                parts.append(f"alpha_scale {spec.alpha_scale!r}")
        else:
            parts.append(f"V {spec.V!r}")
        if oracle is not None:
            parts.append(f"terminal_gap {float(tr.gap[-1])!r}")
            parts.append(f"terminal_jensen_gap {float(oracle.U_star - tr.util_jensen[-1])!r}")
        parts.append(f"z_mass {queue_mass(tr)!r}")
        parts.append(f"max_abs_q {tr.summary['observed_max_abs_q']!r}")
        parts.append("checks " + ("ok" if tr.summary["passed"] else "FAIL"))
        lines.append(" ".join(parts))
    return traces, "\n".join(lines) + "\n"
