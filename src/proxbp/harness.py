"""Simulation driver: slot loop, chunked invariant checks, metric traces, CSV
emission, the adversarial chain generator, and multi-run comparison."""
from __future__ import annotations

import contextlib
import io
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .net import (ContractError, Link, Network, Scenario, Session, Utility, decision_faults,
                  residual_matrix, total_utility)
from .engine import AlgConfig, default_alpha, initial_state, slot_update
from .dpp import DppConfig, dpp_slot_update
from .queues import ScriptedPolicy, audit_queue_bounds, step_Q, step_Y, step_Z

CSV_HEADER = "slot,alg,session,x,xbar,util_inst,util_avg,util_jensen,gap,maxQ,maxZ,maxY,lyapunov"

WEIGHT_IDENTITY_TOL = 1e-12
DRIFT_IDENTITY_TOL = 1e-9
TELESCOPE_TOL = 1e-9  # per slot of accumulation
# the per-slot checks of run() and the largest value each may take
CHECK_TOLS = {"weight_identity": WEIGHT_IDENTITY_TOL, "drift_identity": DRIFT_IDENTITY_TOL,
              "telescoping": TELESCOPE_TOL, "queue_consistency": 0.0}

CHUNK_BYTES = 1 << 17  # byte budget of each per-chunk buffer of run()


def _opened(fh, mode):
    """Context manager: the file at path fh opened in mode, or fh itself."""
    if isinstance(fh, (str, bytes)):
        return open(fh, mode, encoding="utf-8")
    return contextlib.nullcontext(fh)


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
        with _opened(fh, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            per_slot = np.column_stack((self.util_inst, self.util_avg, self.util_jensen,
                                        self.gap, self.maxQ, self.maxZ, self.maxY,
                                        self.lyap)).tolist()
            for t, (xs, xbars, cells) in enumerate(zip(self.x.tolist(), self.xbar.tolist(),
                                                       per_slot)):
                tail = ",".join(map(repr, cells))
                fh.write("".join(f"{t},{self.alg},{f},{a!r},{b!r},{tail}\n"
                                 for f, (a, b) in enumerate(zip(xs, xbars))))

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def trace_from_csv(fh) -> Trace:
    """Rebuild the pinned columns of an emitted trace. Summary and the extra
    in-memory fields are not part of the CSV and come back empty. A malformed
    row raises a ContractError that names its line."""
    n_fields = CSV_HEADER.count(",") + 1
    with _opened(fh, "r") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ContractError(f"unexpected CSV header {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            r = line.strip().split(",")
            if len(r) != n_fields:
                raise ContractError(
                    f"trace CSV line {lineno}: expected {n_fields} fields, got {len(r)}")
            try:
                t, f = int(r[0]), int(r[2])
                values = [float(v) for v in r[3:]]
            except ValueError as e:
                raise ContractError(f"trace CSV line {lineno}: {e}") from None
            if t < 0 or f < 0:
                raise ContractError(f"trace CSV line {lineno}: negative slot or session")
            rows.append((t, r[1], f, values))
    if not rows:
        raise ContractError("trace CSV has no rows")
    alg = rows[0][1]
    n_f = max(r[2] for r in rows) + 1
    n_t = max(r[0] for r in rows) + 1
    x = np.zeros((n_t, n_f))
    xbar = np.zeros((n_t, n_f))
    # the Trace fields of the per-slot columns, in CSV order
    names = ("util_inst", "util_avg", "util_jensen", "gap", "maxQ", "maxZ", "maxY", "lyap")
    scal = {name: np.zeros(n_t) for name in names}
    for t, _, f, values in rows:
        x[t, f], xbar[t, f] = values[:2]
        for name, v in zip(names, values[2:]):
            scal[name][t] = v
    return Trace(alg=alg, x=x, xbar=xbar, **scal)


def chunk_slots(scenario: Scenario) -> int:
    """Slots per chunk of run(): as many as fit CHUNK_BYTES in its largest
    per-slot buffer, an (L, F) rate matrix or an (N, F) queue matrix."""
    row = 8 * scenario.n_sessions * max(scenario.n_links, scenario.n_nodes)
    return max(1, CHUNK_BYTES // row)


def run(scenario: Scenario, algorithm: str, config, slots: int, oracle=None) -> Trace:
    """Drive one algorithm for the given number of slots.

    Steps all three queue families under the produced decisions and checks
    the invariants of every slot: per-slot feasibility, the drift identity of
    the signed queues, the weight identity (proximal algorithm only), the
    telescoping of Q, the agreement of the engine's Q with the harness's
    (proximal only), and the queue bound transfer with B set to the observed
    max |Q|.

    The slot loop runs only the recursions and stores each slot's decisions,
    residual, queues and engine state in (chunk, ...) buffers; chunk_slots
    sizes them to CHUNK_BYTES each. DPP decides from the loop's own clipped
    queues Y. Once per chunk, array programs over the buffers evaluate the
    checks and the per-slot metrics, feasibility by decision_faults.
    Utilities are evaluated after the loop.

    Results land in trace.summary; summary["passed"] is the overall verdict.
    summary["first_violation"] maps each per-slot check to the (slot, value)
    of its first violation, or None if it held throughout (the value is the
    message for "feasibility"). summary["queue_transfer_violations"] holds
    the records of audit_queue_bounds applied to the per-(node, session)
    peaks of Y and Z (trace.peak_Y, trace.peak_Z), one per violating (family,
    node, session) with slot index 0.
    """
    if slots < 1:
        raise ContractError(f"slots must be at least 1, got {slots!r}")
    if algorithm not in ("new", "dpp"):
        raise ContractError(f"algorithm must be 'new' or 'dpp', got {algorithm!r}")
    prox = algorithm == "new"
    audit = _ChunkAudit(scenario, prox, slots)
    Y = Z = Q = np.zeros((scenario.n_nodes, scenario.n_sessions))
    state = initial_state(scenario) if prox else None
    x_hist = audit.x_hist
    buf_mu, buf_g, buf_Y, buf_Z, buf_Q = audit.mu, audit.g, audit.Y, audit.Z, audit.Q
    buf_W, buf_engine_Q = audit.W, audit.engine_Q

    for t0 in range(0, slots, audit.chunk):
        n = min(audit.chunk, slots - t0)
        for i in range(n):
            if prox:
                y, state = slot_update(state, scenario, config)
                buf_W[i] = state.W
                buf_engine_Q[i] = state.Q
            else:
                y = dpp_slot_update(Y, scenario, config)
            g = residual_matrix(scenario, y.x, y.mu)
            Y = step_Y(Y, g, scenario)
            Z, _ = step_Z(Z, y.x, y.mu, scenario)
            Q = step_Q(Q, g)
            x_hist[t0 + i] = y.x
            buf_mu[i] = y.mu
            buf_g[i] = g
            buf_Y[i] = Y
            buf_Z[i] = Z
            buf_Q[i] = Q
        audit.chunk_done(t0, n)

    denom = np.arange(1, slots + 1, dtype=float)
    xbar = np.cumsum(x_hist, axis=0) / denom[:, None]
    util_inst = total_utility(scenario, x_hist)
    util_avg = np.cumsum(util_inst) / denom
    util_jensen = total_utility(scenario, xbar)
    if oracle is not None:
        gap = oracle.U_star - util_avg
    else:
        gap = np.full(slots, math.nan)

    # bound transfer with B = observed max |Q| (initial zero states included)
    b_obs = float(audit.max_q.max())
    transfer = audit_queue_bounds(audit.peak_Y[None], audit.peak_Z[None], b_obs, scenario)

    # each check's worst value, and the slot and value of its first violation
    worst = {}
    first = {}
    for name, values in audit.checks.items():
        worst[name] = float(values.max())
        bad = ~(values <= CHECK_TOLS[name])
        k = int(np.argmax(bad))
        first[name] = (k, float(values[k])) if bad[k] else None
    feas = audit.feas_failures
    first["feasibility"] = feas[0] if feas else None
    summary = {
        "weight_identity_max": worst["weight_identity"],
        "drift_identity_max": worst["drift_identity"],
        "telescoping_scaled_max": worst["telescoping"],
        "queue_consistency_max": worst["queue_consistency"],
        "feasibility_violations": feas,
        "queue_transfer_violations": transfer,
        "observed_max_abs_q": b_obs,
        "first_violation": first,
    }
    summary["passed"] = all(v is None for v in first.values()) and not transfer
    return Trace(alg=algorithm, x=x_hist, xbar=xbar, util_inst=util_inst,
                 util_avg=util_avg, util_jensen=util_jensen, gap=gap, maxQ=audit.max_q,
                 maxZ=audit.max_z, maxY=audit.max_y, lyap=audit.lyap, z_total=audit.z_total,
                 peak_Y=audit.peak_Y, peak_Z=audit.peak_Z, summary=summary)


class _ChunkAudit:
    """The chunk buffers of run(), and the checks and metrics evaluated on
    them. Everything a check needs from before a chunk is carried over: the
    signed queues and Lyapunov value after the previous slot, the running sum
    of residuals, and the engine's queues after the previous two slots.

    Reductions over a slot's (N, F) block run over axes (1, 2) of the
    C-contiguous (chunk, N, F) buffer, which sums in the same order as a sum
    over the slot's own matrix; a running sum is a cumsum seeded with the
    carried value. So every metric is bitwise the per-slot value."""

    def __init__(self, scenario: Scenario, prox: bool, slots: int):
        self.scenario = scenario
        self.prox = prox
        n_n, n_f, n_l = scenario.n_nodes, scenario.n_sessions, scenario.n_links
        self.chunk = c = min(slots, chunk_slots(scenario))
        self.mu = np.empty((c, n_l, n_f))
        self.g, self.Y, self.Z, self.Q = (np.empty((c, n_n, n_f)) for _ in range(4))
        self.W, self.engine_Q = ((np.empty((c, n_n, n_f)) for _ in range(2)) if prox
                                 else (None, None))

        self.x_hist = np.empty((slots, n_f))
        self.max_q, self.max_z, self.max_y, self.lyap, self.z_total = (
            np.empty(slots) for _ in range(5))
        self.peak_Y = np.zeros((n_n, n_f))
        self.peak_Z = np.zeros((n_n, n_f))
        # per-slot values of each check; those that do not apply stay 0
        self.checks = {name: np.zeros(slots) for name in CHECK_TOLS}
        self.feas_failures = []

        self.Q_last = np.zeros((n_n, n_f))
        self.lyap_last = 0.0
        self.cum_g = np.zeros((n_n, n_f))
        self.engine_Q_last = np.zeros((2, n_n, n_f))  # after slots t-2 and t-1

    def chunk_done(self, t0: int, n: int):
        """Evaluate the metrics and checks of slots t0 .. t0 + n - 1, held in
        the first n rows of the buffers."""
        sc = self.scenario
        checks = self.checks
        rows = slice(t0, t0 + n)
        x = self.x_hist[rows]
        mu, g, Y, Z, Q = (b[:n] for b in (self.mu, self.g, self.Y, self.Z, self.Q))
        self.max_q[rows] = np.abs(Q).max(axis=(1, 2))
        self.max_z[rows] = Z.max(axis=(1, 2))
        self.max_y[rows] = Y.max(axis=(1, 2))
        self.z_total[rows] = Z.sum(axis=(1, 2))
        np.maximum(self.peak_Y, Y.max(axis=0), out=self.peak_Y)
        np.maximum(self.peak_Z, Z.max(axis=0), out=self.peak_Z)

        # drift identity: L(t+1) - L(t) = <Q(t), g> + |g|^2 / 2
        lyap = 0.5 * (Q * Q).sum(axis=(1, 2))
        self.lyap[rows] = lyap
        q_before = np.concatenate((self.Q_last[None], Q[:-1]))
        drift = (q_before * g + 0.5 * g * g).sum(axis=(1, 2))
        lyap_before = np.concatenate(([self.lyap_last], lyap[:-1]))
        checks["drift_identity"][rows] = np.abs((lyap - lyap_before) - drift)
        self.Q_last = Q[-1].copy()
        self.lyap_last = lyap[-1]

        # telescoping: Q(t+1) is the running sum of the residuals
        cum_g = np.cumsum(np.concatenate((self.cum_g[None], g)), axis=0)[1:]
        checks["telescoping"][rows] = (np.abs(Q - cum_g).max(axis=(1, 2))
                                       / (np.arange(t0, t0 + n) + 1.0))
        self.cum_g = cum_g[-1].copy()

        if self.prox:
            # weight identity: W(t) = 2 Q(t) - Q(t-1) off the destinations
            eq = np.concatenate((self.engine_Q_last, self.engine_Q[:n]))
            ident = 2.0 * eq[1:-1] - eq[:-2]
            ident[:, sc.inactive] = 0.0
            err = np.abs(self.W[:n] - ident).max(axis=(1, 2))
            if t0 == 0:
                err[0] = 0.0  # slot 0 has no previous weights
            checks["weight_identity"][rows] = err
            checks["queue_consistency"][rows] = np.abs(self.engine_Q[:n] - Q).max(axis=(1, 2))
            self.engine_Q_last = eq[-2:].copy()

        self.feas_failures += [(t0 + i, message) for i, message in decision_faults(sc, x, mu)]


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
