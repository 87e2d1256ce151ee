"""Reference implementations the tests hold the library to.

run_per_slot is harness.run with every queue family stepped and every check
and metric evaluated inside the slot loop, one slot at a time. harness.run's
loop steps only what the next decision reads, Q (by step_Q, as here) under
both algorithms and Y for DPP, and its audit steps the rest, Z and a
proximal run's Y, once per chunk; both hand audit_queue_bounds the (N, F)
peaks of Y and Z. The parity tests hold run to this reference's traces and
summaries, bit for bit. project_bisect and kkt_residual check
the capped-simplex projection independently of its sort-based solvers;
project_rows_masked is projection.project_rows with the forbidden pairs
given as a boolean mask of the allowed ones, the encoding it replaced;
objective and slope write out a source's slot problem for the rate solvers;
arrival_matrix scatters source rates the way residual_matrix and ZSteps
place them. dual_value is oracle.dual_value with its link term as a loop over
the links and their allow-sets. bfs_links is a fewest-hop search over Link
objects with a predicate per link, and in_trees and repair_feasible are
Scenario.in_trees and oracle.repair_feasible on it, peeling numpy matrices:
the library's list search must give the same trees and, bit for bit, the
same repairs. trace_from_csv keeps every row of a trace CSV as a tuple of
Python values and every (slot, session) pair in a dict: harness.trace_from_csv,
which keeps typed arrays, must give the same fields and the same errors.
allow_sets is parse_scenario's allow pass in two passes, a first that
checks each allow line and sorts its link into ids or none, and a second
that builds each link's set: the one-pass rule must give the same sets and
the same first error.
"""
import math
from collections import deque

import numpy as np

from proxbp.dpp import dpp_slot_update
from proxbp.engine import AlgConfig, SlotConstants, slot_update
from proxbp.harness import (CSV_HEADER, SLOT_COLUMNS, Trace, drift_identity_limit,
                            weight_identity_limit)
from proxbp.net import (ContractError, DomainError, NumericError, ScenarioFormatError,
                        decision_faults, residual_matrix, total_utility)
from proxbp.queues import audit_queue_bounds, step_Q, step_Y, step_Z


def project_bisect(inst, tol: float = 1e-10) -> tuple:
    """Projection of a ProjectionInstance via bisection on the water level.
    Stops when |sum(max(0, a - theta)) - b| <= tol; raises NumericError after
    200 halvings."""
    if not (tol > 0):
        raise ContractError(f"tol must be positive, got {tol!r}")
    a = inst.a
    b = inst.b
    clipped = np.maximum(a, 0.0)
    if clipped.sum() <= b:
        return clipped, 0.0
    lo, hi = 0.0, float(a.max())
    theta = hi
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        excess = np.maximum(a - theta, 0.0).sum() - b
        if abs(excess) <= tol:
            return np.maximum(a - theta, 0.0), theta
        if excess > 0:
            lo = theta
        else:
            hi = theta
    raise NumericError(f"projection bisection did not reach tol={tol} in 200 iterations")


def kkt_residual(inst, z, theta: float) -> float:
    """Max violation of the projection's optimality system for (z, theta).
    Zero iff optimal.

    Checks primal feasibility, dual feasibility, stationarity (the implied
    nonnegativity multiplier nu = z - a + theta must be >= 0), and both
    complementary-slackness products.
    """
    a = inst.a
    z = np.asarray(z, dtype=float)
    if z.shape != a.shape:
        raise ContractError(f"z shape {z.shape} does not match a shape {a.shape}")
    theta = float(theta)
    nu = z - a + theta
    slack = float(z.sum()) - inst.b
    worst = max(
        max(slack, 0.0),              # budget
        float(np.max(-z)),            # z >= 0
        max(-theta, 0.0),             # theta >= 0
        float(np.max(-nu)),           # nu >= 0
        float(np.max(np.abs(z * nu))),  # nu_k z_k = 0
        abs(theta * slack),           # theta (sum z - b) = 0
    )
    return max(worst, 0.0)


def project_rows_masked(a, b, mask) -> np.ndarray:
    """project_rows with the entries outside the (L, K) boolean mask (None:
    none) fixed at zero: the masked a is clipped, and the tight rows sort the
    masked a itself."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ContractError("projection input must be finite")
    if mask is not None:
        a = np.where(mask, a, 0.0)
    z = np.maximum(a, 0.0)
    tight = (z.sum(axis=1) > b).nonzero()[0]
    if not tight.size:
        return z
    at = a.take(tight, axis=0)
    srt = np.sort(at, axis=1)[:, ::-1]
    k = a.shape[1]
    theta_candidates = (srt.cumsum(axis=1) - b.take(tight)[:, None]) / np.arange(1.0, k + 1.0)
    ok = srt >= theta_candidates
    last = np.arange(k - 1, ok.size, k) - ok[:, ::-1].argmax(axis=1)
    if not ok.take(last).all():
        raise NumericError("projection scan found no admissible active set")
    theta = np.maximum(theta_candidates.take(last), 0.0)
    z[tight] = np.maximum(at - theta[:, None], 0.0)
    return z


def objective(p, x) -> float:
    """U(x) - W*x - alpha*(x - x_prev)^2 for the RateProblem p."""
    x = float(x)
    return p.utility.value(x) - p.pressure * x - p.alpha * (x - p.x_prev) ** 2


def slope(p, x) -> float:
    """h(x), the derivative of the slot objective of the RateProblem p.
    Strictly decreasing. U'(x) is w/x for wlog and w/(1+x) for wlog1p."""
    x = float(x)
    u = p.utility
    du = u.weight / x if u.kind == "wlog" else u.weight / (1.0 + x)
    return du - p.pressure - 2.0 * p.alpha * (x - p.x_prev)


def arrival_matrix(scenario, x) -> np.ndarray:
    """Scatter per-session source rates into an (N, F) exogenous-arrival matrix."""
    m = np.zeros((scenario.n_nodes, scenario.n_sessions))
    m.put(scenario.src_entries, np.asarray(x, dtype=float))
    return m


def dual_value(scenario, lam) -> float:
    """q(lam), one link and one allowed session at a time: each link adds its
    capacity times its largest positive price lam[tail] - lam[head], and a
    NaN price never compares larger."""
    total = 0.0
    for f, s in enumerate(scenario.sessions):
        lf = float(lam[s.src, f])
        w = s.utility.weight
        if lf <= 0.0:
            return math.inf
        if s.utility.kind == "wlog":
            total += w * math.log(w / lf) - w
        else:
            if w > lf:  # interior maximizer of w*log1p(x) - lf*x
                total += w * math.log(w / lf) - w + lf
    for l, lk in enumerate(scenario.network.links):
        best = 0.0
        for f in scenario.allowed[l]:
            coef = float(lam[lk.tail, f] - lam[lk.head, f])
            if coef > best:
                best = coef
        total += lk.capacity * best
    return total


def bfs_links(network, root, usable, backward=False) -> dict:
    """Fewest-hop search from root over the links l with usable(l), along the
    links or, with backward, against them. Returns {node reached: the link it
    was reached over}, with -1 for root."""
    via = {root: -1}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for l in (network.in_links if backward else network.out_links)[v]:
            u = network.links[l].tail if backward else network.links[l].head
            if u not in via and usable(l):
                via[u] = l
                queue.append(u)
    return via


def in_trees(scenario) -> np.ndarray:
    """Scenario.in_trees: per session, a backward search from its destination
    over the links it may use."""
    tree = np.full((scenario.n_nodes, scenario.n_sessions), -1, dtype=int)
    for f, s in enumerate(scenario.sessions):
        via = bfs_links(scenario.network, s.dst, lambda l, f=f: f in scenario.allowed[l],
                        backward=True)
        tree[list(via), f] = list(via.values())
    return tree


def repair_feasible(scenario, x, mu):
    """oracle.repair_feasible, one whole search per peel and the rates left
    kept in an (L, F) matrix."""
    net = scenario.network
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    left = np.maximum(np.asarray(mu, dtype=float), 0.0)
    left.put(scenario.forbidden_entries, 0.0)
    load = left.sum(axis=1)
    over = load > net.caps
    left[over] *= (net.caps[over] / load[over])[:, None]
    out = np.zeros_like(left)
    for f, s in enumerate(scenario.sessions):
        rest = x[f]
        while rest > 0.0:
            via = bfs_links(net, s.src, lambda l, f=f: left[l, f] > 0.0)
            if s.dst not in via:
                break
            path, n = [], s.dst
            while n != s.src:
                path.append(via[n])
                n = net.links[via[n]].tail
            amount = min(rest, float(left[path, f].min()))
            left[path, f] -= amount
            out[path, f] += amount
            rest -= amount
        x[f] -= rest
    return x, out


def _utility_or_nan(scenario, x) -> float:
    """total_utility at the rate vector x, NaN where it leaves the domain."""
    try:
        return total_utility(scenario, x)
    except DomainError:
        return math.nan


def run_per_slot(scenario, config, slots, oracle=None) -> Trace:
    prox = isinstance(config, AlgConfig)
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
    weight_ok = True
    drift_err = 0.0
    drift_ok = True
    feas_failures = []
    peak_Y = np.zeros((n_n, n_f))
    peak_Z = np.zeros((n_n, n_f))
    lyap_after = 0.0

    consts = SlotConstants(scenario, config) if prox else None
    x, mu = np.zeros(n_f), np.zeros((scenario.n_links, n_f))
    dpp_Q = np.zeros((n_n, n_f))  # DPP's own clipped queues, stepped apart from Y
    q_prev = np.zeros((n_n, n_f))  # Q(-1): slot 0's weights are 0 = 2 Q(0) - Q(-1)

    for t in range(slots):
        if prox:
            # the residual of the previous decisions, computed here afresh
            x, mu, W = slot_update(Q, residual_matrix(scenario, x, mu), x, mu, consts)
            ident = 2.0 * Q - q_prev
            ident[~scenario.active] = 0.0
            err = float(np.max(np.abs(W - ident)))
            weight_err = max(weight_err, err)
            q_now, q_before = np.max(np.abs(Q)), np.max(np.abs(q_prev))
            weight_ok &= bool(err <= weight_identity_limit(q_now, q_before))
            # a bound on the |a| that project_rows projected: |W| <= 3 M
            scale = (scenario.network.caps
                     + 6.0 * max(q_now, q_before) / consts.link_denom[:, 0])
            q_prev = Q
        else:
            x, mu = dpp_slot_update(dpp_Q, scenario, config)
            dpp_Q = step_Y(dpp_Q, residual_matrix(scenario, x, mu), scenario)
            scale = None

        g = residual_matrix(scenario, x, mu)
        q_before = Q
        lyap_before = lyap_after
        feas_failures += [(t, message) for _, message in decision_faults(
            scenario, x[None], mu[None], None if scale is None else scale[None])]
        Y = step_Y(Y, g, scenario)
        Z, _ = step_Z(Z, x, mu, scenario)
        Q = step_Q(Q, g)

        lyap_after = 0.5 * float(np.sum(Q * Q))
        drift = float(np.sum(q_before * g + 0.5 * g * g))
        err = abs((lyap_after - lyap_before) - drift)
        drift_err = max(drift_err, err)
        drift_ok &= bool(err <= drift_identity_limit(lyap_after, lyap_before, n_n * n_f))

        x_hist[t] = x
        util_inst[t] = _utility_or_nan(scenario, x)
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
    util_jensen = np.array([_utility_or_nan(scenario, xbar[t]) for t in range(slots)])
    if oracle is not None:
        gap = oracle.U_star - util_avg
    else:
        gap = np.full(slots, math.nan)

    b_obs = float(max_q.max())
    transfer = audit_queue_bounds(peak_Y, peak_Z, b_obs, scenario, slots)

    summary = {
        "weight_identity_max": weight_err,
        "drift_identity_max": drift_err,
        "feasibility_violations": feas_failures,
        "queue_transfer_violations": transfer,
        "observed_max_abs_q": b_obs,
    }
    summary["passed"] = (
        weight_ok
        and drift_ok
        and not feas_failures
        and not transfer
        and not np.isnan(util_inst).any()
    )
    return Trace(alg="new" if prox else "dpp", x=x_hist, xbar=xbar, util_inst=util_inst,
                 util_avg=util_avg, util_jensen=util_jensen, gap=gap, maxQ=max_q,
                 maxZ=max_z, maxY=max_y, lyap=lyap, z_total=z_total, peak_Y=peak_Y,
                 peak_Z=peak_Z, summary=summary)


def trace_from_csv(path) -> Trace:
    """harness.trace_from_csv with a tuple of Python values per row, in two
    passes: the first parses the rows up to the first malformed one or one
    of a second alg, the second compares row k's (slot, session) pair with
    divmod(k, F), F the count of the rows (0, 0), (0, 1), ... that open the
    file. An out-of-order row comes before the fault that ends the first
    pass, so it is the first faulty line."""
    n_fields = CSV_HEADER.count(",") + 1
    rows, fault = [], None  # (line, slot, session, values) of each row before the fault
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ContractError(f"unexpected CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            r = line.strip().split(",")
            if len(r) != n_fields:
                fault = f"trace CSV line {lineno}: expected {n_fields} fields, got {len(r)}"
                break
            try:
                t, f = int(r[0]), int(r[2])
                values = tuple(float(v) for v in r[3:])
            except ValueError as e:
                fault = f"trace CSV line {lineno}: {e}"
                break
            if rows and r[1] != alg:
                fault = (f"trace CSV line {lineno}: alg {r[1]!r} differs from the earlier "
                         f"rows' {alg!r}")
                break
            alg = r[1]
            rows.append((lineno, t, f, values))
    n_f = 0
    while n_f < len(rows) and rows[n_f][1:3] == (0, n_f):
        n_f += 1
    for k, (lineno, t, f, _) in enumerate(rows):
        want = divmod(k, max(n_f, 1))
        if (t, f) != want:
            nxt = f"slot {want[0]} session {want[1]}"
            if k == n_f > 0:  # slot 0 may go on or end here
                nxt = f"slot 0 session {k} or {nxt}"
            raise ContractError(
                f"trace CSV line {lineno}: slot {t} session {f} where {nxt} comes next")
    if fault is not None:
        raise ContractError(fault)
    if not rows:
        raise ContractError("trace CSV has no rows")
    if len(rows) % n_f:
        t, f = divmod(len(rows), n_f)
        raise ContractError(f"trace CSV has no row for slot {t} session {f}")
    n_t = len(rows) // n_f
    x = np.zeros((n_t, n_f))
    xbar = np.zeros((n_t, n_f))
    scal = {name: np.zeros(n_t) for name in SLOT_COLUMNS}
    for _, t, f, values in rows:
        x[t, f], xbar[t, f] = values[:2]
        for name, v in zip(SLOT_COLUMNS, values[2:]):
            scal[name][t] = v
    return Trace(alg=alg, x=x, xbar=xbar, **scal)


def allow_sets(allows, n_links, n_sessions) -> tuple:
    """The allow-sets of a scenario document's n_links links, from its allow
    lines in document order, one (line, link, session id or None for
    'none') each. A link without an allow line allows all n_sessions
    sessions. Raises the ScenarioFormatError of the first faulty line."""
    allow_ids, allow_none = {}, set()
    for lineno, li, f in allows:
        if not (0 <= li < n_links):
            raise ScenarioFormatError(lineno, f"allow references missing link {li}")
        if f is None:
            if allow_ids.get(li):
                raise ScenarioFormatError(lineno, f"allow {li} none conflicts with earlier allow lines")
            allow_none.add(li)
        elif li in allow_none:
            raise ScenarioFormatError(lineno, f"allow line conflicts with earlier allow {li} none")
        elif not (0 <= f < n_sessions):
            raise ScenarioFormatError(lineno, f"allow names missing session {f}")
        else:
            allow_ids.setdefault(li, []).append(f)
    allowed = []
    for li in range(n_links):
        if li in allow_none:
            allowed.append(frozenset())
        elif li in allow_ids:
            allowed.append(frozenset(allow_ids[li]))
        else:
            allowed.append(frozenset(range(n_sessions)))
    return tuple(allowed)
