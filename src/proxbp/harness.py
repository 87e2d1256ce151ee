"""Simulation driver: slot loop, chunked invariant checks, metric traces, CSV
emission, the adversarial chain generator, and multi-run comparison."""
from __future__ import annotations

import math
import numbers
from array import array
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .net import (_EPS, ContractError, Link, Network, Scenario, Session, Utility,
                  decision_faults, residual_matrix, total_utility)
from .engine import AlgConfig, SlotConstants, default_alpha, slot_update
from .dpp import DppConfig, dpp_slot_update
from .queues import ScriptedPolicy, ZSteps, audit_queue_bounds, step_Q, step_Y

CSV_HEADER = "slot,alg,session,x,xbar,util_inst,util_avg,util_jensen,gap,maxQ,maxZ,maxY,lyapunov"
# the Trace fields of the per-slot columns, in CSV order after x and xbar
SLOT_COLUMNS = ("util_inst", "util_avg", "util_jensen", "gap", "maxQ", "maxZ", "maxY", "lyap")

CHUNK_BYTES = 1 << 18  # byte budget of each per-chunk buffer of run()
CSV_BLOCK_ROWS = 1024  # rows that Trace.to_csv formats at a time


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

    def to_csv(self, path) -> None:
        """Write the trace CSV at path, CSV_BLOCK_ROWS rows (one slot at least)
        at a time, so the Python floats of one block are all it holds."""
        block = max(1, CSV_BLOCK_ROWS // max(self.x.shape[1], 1))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for t0 in range(0, self.slots, block):
                rows = slice(t0, t0 + block)
                per_slot = np.column_stack([getattr(self, name)[rows]
                                            for name in SLOT_COLUMNS]).tolist()
                for t, (xs, xbars, cells) in enumerate(
                        zip(self.x[rows].tolist(), self.xbar[rows].tolist(), per_slot), start=t0):
                    tail = ",".join(map(repr, cells))
                    fh.write("".join(f"{t},{self.alg},{f},{a!r},{b!r},{tail}\n"
                                     for f, (a, b) in enumerate(zip(xs, xbars))))


def trace_from_csv(path) -> Trace:
    """Rebuild the pinned columns of the trace CSV at path. Summary and the
    extra in-memory fields are not part of the CSV and come back empty.

    The rows must come in to_csv's order: slots 0, 1, ... and sessions
    0 .. F-1 within each slot, where slot 0 fixes F. A malformed row, a row
    of a second alg and a row other than the next (slot, session) pair each
    raise a ContractError that names its line; a file that ends inside a
    slot raises one that names the first pair it lacks. The per-slot
    columns of a slot come from its last row. Each row's values are kept in
    one float64 array, 80 bytes a row besides the trace it gives."""
    n_fields = CSV_HEADER.count(",") + 1
    values = array("d")  # the n_fields - 3 values of each row, row after row
    n_rows, n_f = 0, None  # n_f is fixed by the first row of slot 1
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ContractError(f"unexpected CSV header {header!r}")
        for lineno, text in enumerate(fh, start=2):
            text = text.strip()
            if not text:
                continue
            r = text.split(",")
            if len(r) != n_fields:
                raise ContractError(
                    f"trace CSV line {lineno}: expected {n_fields} fields, got {len(r)}")
            try:
                t, f = int(r[0]), int(r[2])
                row = [float(v) for v in r[3:]]
            except ValueError as e:
                raise ContractError(f"trace CSV line {lineno}: {e}") from None
            if not n_rows:
                alg = r[1]
            elif r[1] != alg:
                raise ContractError(f"trace CSV line {lineno}: alg {r[1]!r} differs from "
                                    f"the earlier rows' {alg!r}")
            if n_f is None and n_rows and (t, f) == (1, 0):
                n_f = n_rows
            want = divmod(n_rows, n_f) if n_f else (0, n_rows)
            if (t, f) != want:
                also = " or slot 1 session 0" if n_f is None and n_rows else ""
                raise ContractError(f"trace CSV line {lineno}: slot {t} session {f} where "
                                    f"slot {want[0]} session {want[1]}{also} comes next")
            n_rows += 1
            values.extend(row)
    if not n_rows:
        raise ContractError("trace CSV has no rows")
    n_f = n_f or n_rows
    if n_rows % n_f:
        t, f = divmod(n_rows, n_f)
        raise ContractError(f"trace CSV has no row for slot {t} session {f}")
    rows = np.frombuffer(values).reshape(-1, n_f, n_fields - 3)
    scal = {name: rows[:, -1, j].copy() for j, name in enumerate(SLOT_COLUMNS, start=2)}
    return Trace(alg=alg, x=rows[:, :, 0].copy(), xbar=rows[:, :, 1].copy(), **scal)


def chunk_slots(scenario: Scenario) -> int:
    """Slots per chunk of run(): as many as fit CHUNK_BYTES in its largest
    per-slot buffer, an (L, F) rate matrix or an (N, F) queue matrix."""
    row = 8 * scenario.n_sessions * max(scenario.n_links, scenario.n_nodes)
    return max(1, CHUNK_BYTES // row)


def _utilities(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """total_utility of each row of x (T, F), NaN at a row with a rate
    outside its utility's domain: x < 0, or x = 0 for wlog."""
    outside = ((x < 0.0) | (x + scenario.utility_shift <= 0.0)).any(axis=1)
    if not outside.any():
        return total_utility(scenario, x)
    util = np.full(len(x), math.nan)
    util[~outside] = total_utility(scenario, x[~outside])
    return util


def _is_count(value) -> bool:
    """value is a whole number of at least 1: an int or a numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def weight_identity_limit(q_max, q_max_prev):
    """Largest |W(t) - (2 Q(t) - Q(t-1))| a slot may show, elementwise over
    max |Q(t)| and max |Q(t-1)|: 4 eps M, M the larger of the two. A
    proximal slot runs only from finite queues, so M is finite where it is
    evaluated.

    With u = eps / 2, per entry: the loop steps Q(t) = fl(Q(t-1) + g), so
    Q(t-1) + g = Q(t) / (1 + d1); the engine forms W = (Q(t) + g)(1 + d2) and
    the check (2 Q(t) - Q(t-1))(1 + d3), |di| <= u. Exactly, their difference
    is -d1 Q(t) / (1 + d1), and |Q(t) + g|, |2 Q(t) - Q(t-1)| <= 3 M / (1 - u),
    so they differ by at most 7 u M / (1 - u), 3.5 eps M up to a factor
    1 + eps; the roundings of that difference and of the limit fit below
    4 eps M. A settled run handed a stale residual is off by thousands of
    eps M. The limit needs no underflow floor: 2 Q(t) is exact, and an
    addition's error, a multiple of the smallest subnormal, is 0 wherever u
    times the result is smaller, that is wherever 4 eps M can underflow.
    """
    return 4.0 * _EPS * np.maximum(q_max, q_max_prev)


def drift_identity_limit(lyap, lyap_prev, n_terms: int):
    """Largest |L(t+1) - L(t) - (<Q(t), g> + |g|^2 / 2)| a slot may show,
    elementwise over L(t+1) and L(t), for n = n_terms = N F queue entries:
    c eps (L(t) + L(t+1)), c = 3 D + 8, taken as 0 where it is not finite,
    plus the underflow floor (5 n + 2) s, s the smallest subnormal.

    numpy sums the n terms of a slot pairwise: a block of m <= 128 terms
    goes to 8 accumulators added in a tree of depth 3, its last m % 8 terms
    one by one, at most m // 8 + 2 + m % 8 <= 24 additions per term; a larger
    count is split, the larger half at most 16 + (n - 16) / 2. So no term
    passes more than D = 25 + ceil(log2((max(n, 128) - 16) / 112)) additions,
    one starting the sum. With u = eps / 2, the loop steps Q' = fl(Q + g) =
    Q + g + e, |e_i| <= u |Q'_i|, so exactly L' - L - <Q, g> - |g|^2 / 2 =
    <Q', e> - |e|^2 / 2, at most u (2 + u) L'. Each L, half a sum of rounded
    squares, is within gamma(D + 1) L, and their difference rounds once; the
    drift, a sum of terms of two roundings, is within gamma(D + 2) S,
    S = sum(|Q g| + g^2 / 2) <= 5 (1 + u)^2 (L + L') as |g_i| <= |Q_i| +
    (1 + u) |Q'_i|. To first order the value is at most u (L + L')
    (2 + (D + 1) + 1 + 5 (D + 2)) = eps (3 D + 7) (L + L'); the 1 more in c
    covers higher orders. A sum is exact where it underflows, but a product
    or a halving may then err by s / 2 beyond that model: n squares and one
    halving for each L, and n products Q g, n halvings and n products of g
    in the drift. The floor is twice their sum, which also covers the
    limit's own rounding.
    """
    depth = 25 + math.ceil(math.log2((max(n_terms, 128) - 16) / 112))
    bound = (3 * depth + 8) * _EPS * (lyap + lyap_prev)
    return np.where(np.isfinite(bound), bound, 0.0) + (5 * n_terms + 2) * math.ulp(0.0)


def run(scenario: Scenario, config, slots: int, oracle=None) -> Trace:
    """Drive one algorithm for the given number of slots: the proximal
    algorithm for an AlgConfig, DPP for a DppConfig.

    Steps all three queue families under the produced decisions and checks
    the invariants of every slot: per-slot feasibility (to decision_faults'
    limit, with each projected row's scale in a proximal run), the drift
    identity of the signed queues (to drift_identity_limit), the weight
    identity (proximal algorithm only, to weight_identity_limit) and the
    queue bound transfer with B = max |Q|.

    The slot loop stores each slot's decisions, residual, queues and weights
    in (chunk, ...) buffers; chunk_slots sizes them to CHUNK_BYTES each, and
    all of them, ZSteps's scratch too, are allocated once per run. The
    proximal engine decides from its signed queues Q and the residual g that
    stepped them (the weight identity finds g in W), DPP from its clipped
    queues Y. Under both algorithms the loop steps Y by step_Y and Q by
    step_Q, each into its buffer row. residual_matrix writes each slot's
    residual, and dpp_slot_update each DPP slot's link rates, straight into
    their rows; the proximal engine's link rates are copied into theirs.
    The Q buffer holds Q(t0 - 1) and Q(t0), the queues of the two slots
    before a chunk, in rows 0 and 1, which the drift and weight identities
    read; the Y and Z buffers hold the queues before the chunk in row 0.
    Once per chunk, ZSteps steps the physical queues Z over the stored
    decisions, which no decision reads, then array programs over the
    buffers evaluate the checks and the per-slot metrics, feasibility by
    decision_faults, keep each of Y's and Z's (N, F) peak over the run, and
    copy the last rows to the front. Reductions over a slot's (N, F) block
    run over axes (1, 2) of a C-contiguous (chunk, N, F) buffer, which sums
    in the same order as a sum over the slot's own matrix, so every metric
    is bitwise the per-slot value, the Lyapunov value recomputed from a
    carried row too. Utilities are evaluated after the loop, NaN at a slot
    whose rates leave a utility's domain (a negative rate is also a
    feasibility fault). A proximal run whose signed queues go non-finite has
    no weights for its next slot: it stops there, and the trace holds the
    slots run before, with the drift identity failed at the faulty slot.

    Results land in trace.summary; summary["passed"] is the overall verdict.
    summary["first_violation"] maps each per-slot check to the (slot, value)
    of its first violation, or None if it held throughout (the value is the
    message for "feasibility"). Its "utility" entry is the first NaN
    util_inst, so a run whose rates leave a utility's domain does not pass.
    summary["queue_transfer_violations"] holds the audit_queue_bounds records
    of the (N, F) peaks of Y and Z (trace.peak_Y, trace.peak_Z), one per
    violating (family, node, session); it is empty when a queue went NaN.
    """
    if not _is_count(slots):
        raise ContractError(f"slots must be a positive integer, got {slots!r}")
    slots = int(slots)
    if not isinstance(config, (AlgConfig, DppConfig)):
        raise ContractError(f"config must be an AlgConfig or a DppConfig, "
                            f"got {type(config).__name__}")
    prox = isinstance(config, AlgConfig)
    consts = SlotConstants(scenario, config) if prox else None
    n_n, n_f, n_l = scenario.n_nodes, scenario.n_sessions, scenario.n_links
    # x_hist and the seven rows of records
    record_bytes = 8 * slots * (n_f + 7)
    if record_bytes > np.iinfo(np.intp).max:
        raise ContractError(f"slots {slots}: run's per-slot records need {record_bytes} "
                            f"bytes, more than numpy can address")
    chunk = min(slots, chunk_slots(scenario))
    buf_mu, buf_g = np.empty((chunk, n_l, n_f)), np.empty((chunk, n_n, n_f))
    buf_W = np.empty((chunk, n_n, n_f)) if prox else None
    buf_Q = np.zeros((2 + chunk, n_n, n_f))
    buf_Y, buf_Z = (np.zeros((1 + chunk, n_n, n_f)) for _ in range(2))
    z_steps = ZSteps(scenario, chunk)
    peak_Y, peak_Z = np.zeros((n_n, n_f)), np.zeros((n_n, n_f))
    x_hist = np.empty((slots, n_f))
    # per slot: the five metrics, then the values of the two checks; a check
    # that does not apply stays 0
    records = np.zeros((7, slots))
    max_q, max_z, max_y, lyap, z_total, weight_ident, drift_ident = records
    feas = []
    Q = g = np.zeros((n_n, n_f))  # g of the zero decision
    Y = buf_Y[0]
    x, mu = np.zeros(n_f), np.zeros((n_l, n_f))

    # overflow and NaN show in the checks, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, slots, chunk):
            n = min(chunk, slots - t0)
            for i in range(n):
                if prox:
                    try:
                        x, mu, buf_W[i] = slot_update(Q, g, x, mu, consts)
                    except ContractError:
                        if np.isfinite(Q).all():
                            raise
                        # non-finite queues give no weights: the run ends before this slot
                        slots, n = t0 + i, i
                        break
                    buf_mu[i] = mu
                else:
                    x, mu = dpp_slot_update(Y, scenario, config, out=buf_mu[i])
                g = residual_matrix(scenario, x, mu, out=buf_g[i])
                Y = step_Y(Y, g, scenario, out=buf_Y[i + 1])
                Q = step_Q(Q, g, out=buf_Q[i + 2])
                x_hist[t0 + i] = x
            if not n:  # a stop at a chunk's first slot leaves it nothing to check
                break

            # the checks and metrics of slots t0 .. t0 + n - 1
            rows = slice(t0, t0 + n)
            xs, mus, gs = x_hist[rows], buf_mu[:n], buf_g[:n]
            Ys, Zs = buf_Y[1:n + 1], buf_Z[1:n + 1]
            z_steps(buf_Z[0], xs, mus, out=Zs)
            q_all = buf_Q[1:n + 2]  # Q(t0), the queues before the chunk, then after each slot
            q_max = np.abs(buf_Q[:n + 2]).max(axis=(1, 2))  # from Q(t0 - 1) on
            max_q[rows] = q_max[2:]
            max_z[rows] = Zs.max(axis=(1, 2))
            max_y[rows] = Ys.max(axis=(1, 2))
            z_total[rows] = Zs.sum(axis=(1, 2))
            np.maximum(peak_Y, Ys.max(axis=0), out=peak_Y)
            np.maximum(peak_Z, Zs.max(axis=0), out=peak_Z)

            # drift identity: L(t+1) - L(t) = <Q(t), g> + |g|^2 / 2
            l_all = 0.5 * (q_all * q_all).sum(axis=(1, 2))
            lyap[rows] = l_all[1:]
            drift = (q_all[:-1] * gs + 0.5 * gs * gs).sum(axis=(1, 2))
            drift_ident[rows] = np.abs(np.diff(l_all) - drift)

            if prox:
                # weight identity: W(t) = 2 Q(t) - Q(t-1) off the destinations
                ident = 2.0 * q_all[:-1] - buf_Q[:n]
                ident.reshape(n, -1)[:, scenario.dst_entries] = 0.0
                weight_ident[rows] = np.abs(buf_W[:n] - ident).max(axis=(1, 2))
            # decision_faults' bound on each projected row's |a|: the identity
            # gives |W(t)| <= 3 M, M = max(max |Q(t)|, max |Q(t-1)|), up to
            # rounding, so |a| <= cap_l + 6 M / (2 (alpha_tail + alpha_head))
            m = np.maximum(q_max[:n], q_max[1:n + 1])
            scale = (scenario.network.caps + 6.0 * m[:, None] / consts.link_denom[:, 0]
                     if prox else None)
            buf_Q[:2] = buf_Q[n:n + 2]
            buf_Y[0] = Ys[-1]
            buf_Z[0] = Zs[-1]
            feas += [(t0 + i, message) for i, message in decision_faults(scenario, xs, mus, scale)]
            if t0 + n == slots:  # the last chunk, or a stop inside this one
                break

    x_hist = x_hist[:slots]  # only the slots that ran
    max_q, max_z, max_y, lyap, z_total, weight_ident, drift_ident = records[:, :slots]
    denom = np.arange(1, slots + 1, dtype=float)
    xbar = np.cumsum(x_hist, axis=0) / denom[:, None]
    util_inst = _utilities(scenario, x_hist)
    util_avg = np.cumsum(util_inst) / denom
    util_jensen = _utilities(scenario, xbar)
    if oracle is not None:
        gap = oracle.U_star - util_avg
    else:
        gap = np.full(slots, math.nan)

    # bound transfer with B = observed max |Q| (initial zero states included);
    # a NaN queue gives no B, and the drift identity has failed at its slot
    b_obs = float(max_q.max())
    transfer = ([] if math.isnan(b_obs) else
                audit_queue_bounds(peak_Y, peak_Z, b_obs, scenario, slots))

    # each check's worst value, and the slot and value of its first violation
    q_max = np.concatenate((np.zeros(2), max_q))  # max |Q(t)| from t = -1
    l_all = np.concatenate((np.zeros(1), lyap))  # L(t) from t = 0
    # a DPP run has no weights, and its weight values stay 0
    weight_limit = weight_identity_limit(q_max[1:-1], q_max[:-2]) if prox else 0.0
    checks = {"weight_identity": (weight_ident, weight_limit),
              "drift_identity": (drift_ident, drift_identity_limit(l_all[1:], l_all[:-1], Q.size))}
    summary = {}
    first = {}
    for name, (values, limit) in checks.items():
        summary[f"{name}_max"] = float(values.max())
        bad = ~(values <= limit)
        k = int(np.argmax(bad))
        first[name] = (k, float(values[k])) if bad[k] else None
    first["feasibility"] = feas[0] if feas else None
    k = int(np.argmax(np.isnan(util_inst)))
    first["utility"] = (k, float(util_inst[k])) if math.isnan(util_inst[k]) else None
    summary.update(feasibility_violations=feas, queue_transfer_violations=transfer,
                   observed_max_abs_q=b_obs, first_violation=first)
    summary["passed"] = all(v is None for v in first.values()) and not transfer
    return Trace(alg="new" if prox else "dpp", x=x_hist, xbar=xbar, util_inst=util_inst,
                 util_avg=util_avg, util_jensen=util_jensen, gap=gap, maxQ=max_q,
                 maxZ=max_z, maxY=max_y, lyap=lyap, z_total=z_total,
                 peak_Y=peak_Y, peak_Z=peak_Z, summary=summary)


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
    if not _is_count(k):
        raise ContractError(f"k must be a positive integer, got {k!r}")
    if slots is not None and not _is_count(slots):
        raise ContractError(f"slots must be a positive integer, got {slots!r}")
    k = int(k)
    t_max = 6 * k if slots is None else int(slots)
    # arrivals over the 3k + 1 nodes, mu and mu_instant over the 3k + 2 links
    schedule_bytes = 16 * t_max * (9 * k + 5)
    if schedule_bytes > np.iinfo(np.intp).max:
        raise ContractError(f"k {k}, slots {t_max}: the chain's schedules need "
                            f"{schedule_bytes} bytes, more than numpy can address")
    n_nodes = 3 * k + 1
    hub = 0
    walks = (list(range(1, 2 * k + 1)) + [hub],        # a_1..a_k, r_1..r_k, hub
             list(range(2 * k + 1, 3 * k + 1)) + [hub])  # b_1..b_k, hub
    # each session's hops: its walk, then the hub exit to the other walk's start
    hops = [(f, u, v) for f, walk in enumerate(walks) for u, v in zip(walk, walk[1:])]
    hops += [(f, hub, walks[1 - f][0]) for f in (0, 1)]
    links = tuple(Link(u, v, 1.0) for _, u, v in hops)
    paths = ([], [])
    for l, (f, _, _) in enumerate(hops):
        paths[f].append(l)
    sessions = tuple(Session(f, walk[0], walks[1 - f][0], Utility("wlog1p", 1.0))
                     for f, walk in enumerate(walks))
    allowed = tuple(frozenset({f}) for f, _, _ in hops)
    scenario = Scenario(Network(n_nodes, links), sessions, allowed)

    n_l = len(links)
    arrivals = np.zeros((t_max, n_nodes, 2))
    # instant schedule: an arrival at walk index j prescribes its path from link j on
    mu_instant = np.zeros((t_max, n_l, 2))
    for t in range(t_max):
        f, j = divmod(t % (2 * k), k)
        arrivals[t, walks[f][j], f] = 1.0
        mu_instant[t, paths[f][j:], f] = 1.0

    # physical timeline: every non-hub node forwards one unit per slot along
    # its session's unique out-link; the hub serves one packet per slot in
    # arrival order (ties broken by incoming link index).
    out_link_of = {}
    for f, path in enumerate(paths):
        for l in path:
            if links[l].tail != hub:
                out_link_of[(links[l].tail, f)] = l
    hub_exit = [path[-1] for path in paths]
    hub_entry = [path[-2] for path in paths]  # a-traffic enters first within a slot

    mu = np.zeros((t_max, n_l, 2))
    steps = ZSteps(scenario, 1)
    state, sends = np.zeros((1, n_nodes, 2)), np.empty((1, n_l, 2))
    count = state[0]  # each step overwrites it with the next state
    fifo = deque()
    for t in range(t_max):
        for (n, f), l in out_link_of.items():
            if count[n, f] >= 1.0:
                mu[t, l, f] = 1.0
        if fifo:
            f = fifo.popleft()
            mu[t, hub_exit[f], f] = 1.0
        steps(count, arrivals[t:t + 1], mu[t:t + 1], state, sends)
        for f, l in enumerate(hub_entry):
            if sends[0, l, f] >= 1.0:
                fifo.append(f)

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


# the algorithm that reads each algorithm-specific CompareRun field, and the
# value it takes when a cell of that algorithm leaves it out
FIELD_ALG = {"alpha_mode": "new", "alpha_scale": "new", "V": "dpp", "x_max": "dpp"}
FIELD_DEFAULT = {"alpha_mode": "queue-bound", "alpha_scale": 1.0, "V": 500.0, "x_max": None}


@dataclass(frozen=True)
class CompareRun:
    """One (algorithm, parameters) cell of a comparison. Each field after
    algorithm belongs to one algorithm (FIELD_ALG). One left out (None) takes
    its FIELD_DEFAULT in a cell of its algorithm and stays None in the other;
    one given in a cell of the other algorithm raises ContractError."""

    name: str
    algorithm: str = "new"    # or "dpp"
    alpha_mode: str = None    # new only
    alpha_scale: float = None  # new only
    V: float = None           # dpp only
    x_max: float = None       # dpp only; None is no cap

    def __post_init__(self):
        alg = self.algorithm
        if alg not in ("new", "dpp"):
            raise ContractError(f"algorithm must be 'new' or 'dpp', got {alg!r}")
        for f, owner in FIELD_ALG.items():
            if getattr(self, f) is None:
                if owner == alg:
                    object.__setattr__(self, f, FIELD_DEFAULT[f])
            elif owner != alg:
                raise ContractError(f"option {f.replace('_', '-')} is for alg {owner}, "
                                    f"not {alg}")


def make_config(scenario: Scenario, spec: CompareRun):
    if spec.algorithm == "new":
        # a scale that overflows alpha gives inf, which AlgConfig rejects
        with np.errstate(over="ignore"):
            alpha = default_alpha(scenario.network, spec.alpha_mode) * spec.alpha_scale
        return AlgConfig(alpha)
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
        tr = run(scenario, make_config(scenario, spec), slots, oracle=oracle)
        traces[spec.name] = tr
        parts = [f"run {spec.name}", f"alg {spec.algorithm}"]
        if spec.algorithm == "new":
            parts.append(f"alpha_mode {spec.alpha_mode}")
            if spec.alpha_scale != 1.0:
                parts.append(f"alpha_scale {spec.alpha_scale!r}")
        else:
            parts.append(f"V {spec.V!r}")
            if spec.x_max is not None:
                parts.append(f"x_max {spec.x_max!r}")
        if oracle is not None:
            parts.append(f"terminal_gap {float(tr.gap[-1])!r}")
            parts.append(f"terminal_jensen_gap {float(oracle.U_star - tr.util_jensen[-1])!r}")
        parts.append(f"z_mass {queue_mass(tr)!r}")
        parts.append(f"max_abs_q {tr.summary['observed_max_abs_q']!r}")
        parts.append("checks " + ("ok" if tr.summary["passed"] else "FAIL"))
        lines.append(" ".join(parts))
    return traces, "\n".join(lines) + "\n"
