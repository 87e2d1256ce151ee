"""Centralized optimum oracle for the joint rate control and routing problem.

Maximizes the total utility over source rates and link-session rates subject
to per-(session, node) flow balance (injection plus inflow at most outflow
everywhere except destinations), link capacities, allow-sets, and
nonnegativity. Solved by the log-barrier method (Boyd & Vandenberghe, Convex
Optimization, ch. 11): damped Newton centering on all three constraint
families, from a strictly feasible start built on each destination's BFS
in-tree, with the barrier parameter raised tenfold per centering.

Every centering produces two certificates: the exact dual value of the
flow-balance relaxation at lambda = 1 / (t * slack), and a feasible primal
point from path peeling (flow decomposition; Ahuja, Magnanti & Orlin, Network
Flows, ch. 3). Their difference brackets the true optimum, so the reported
duality gap is sound regardless of how well Newton converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import (ContractError, Scenario, ScenarioValidationError, _fewest_hops, _frozen,
                  require_routable, residual_matrix, total_utility, validate_decision)
from .engine import AlgConfig, default_alpha

NEWTON_TOL = 1e-9     # half the squared Newton decrement that ends a centering
NEWTON_STEPS = 100    # Newton steps per centering at most
# Largest dense Newton system a solve builds: the bytes of the float64
# constraint matrix G and Hessian. A solve factors the Hessian once per
# Newton step, which takes about a second on one core at this size (2900
# variables); the 10x10 grid with 20 sessions would need 543 MB.
NEWTON_BYTES_MAX = 64 * 2**20


class OracleError(RuntimeError):
    """Solver failed to certify the requested tolerance. Carries best_gap and
    history, one (t, primal, dual, gap, newton_steps) row per centering."""

    def __init__(self, msg, best_gap=None, history=()):
        super().__init__(msg)
        self.best_gap = best_gap
        self.history = tuple(history)


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Certified near-optimal point.

    x_star (F,) and mu_star (L, F) are a feasible point and U_star its
    utility, so the true optimum lies in [U_star, U_star + duality_gap].
    lambda_star are nonnegative flow-balance multipliers (zero at
    destinations); zeta is the alpha-weighted squared decision mass of that
    point used by the gap and queue bounds, at the stored alpha. The four
    arrays are read-only float64, and alpha is a copy of the caller's.
    """

    x_star: np.ndarray       # (F,)
    mu_star: np.ndarray      # (L, F)
    U_star: float
    lambda_star: np.ndarray  # (N, F)
    zeta: float
    alpha: np.ndarray        # (N,)
    duality_gap: float
    max_violation: float
    weak_duality_margin: float


# ---------------------------------------------------------------------------
# exact dual value


def dual_value(scenario: Scenario, lam: np.ndarray) -> float:
    """q(lam): exact dual function of the flow-balance relaxation.

    Separates into one unconstrained concave scalar sup per source and one
    linear program over the capacity simplex per link. Returns +inf when a
    source multiplier is nonpositive (the sup diverges there). A source
    with U(x) = w log(k + x) and a finite multiplier l > 0 maximizes
    U(x) - l x at x = w / l - k where w > l k, for a sup of
    w log(w / l) - w + l k, and else (wlog1p only) at x = 0, for a sup of 0.
    """
    total = 0.0
    for lf, w, k in zip(lam.take(scenario.src_entries).tolist(),
                        scenario.utility_weight.tolist(), scenario.utility_shift.tolist()):
        if lf <= 0.0:
            return math.inf
        if w > lf * k:
            total += w * math.log(w / lf) - w + lf * k
    net = scenario.network
    coef = lam.take(net.tails, axis=0) - lam.take(net.heads, axis=0)
    coef.put(scenario.forbidden_entries, 0.0)
    best = np.fmax.reduce(coef, axis=1, initial=0.0)
    for term in (net.caps * best).tolist():  # fmax skips a NaN; link order keeps the rounding
        total += term
    return total


# ---------------------------------------------------------------------------
# primal repair and slack removal


def repair_feasible(scenario: Scenario, x, mu):
    """Feasible point near any (x, mu) by path peeling (flow decomposition).

    Clips signs and forbidden pairs and scales overloaded links down. Then
    each session moves the bottleneck of a fewest-hop src -> dst path over
    links with rate left to the output, until x_f is routed or no path is
    left; each peel empties a link or routes the rest of x_f. The path is the
    first one found in queue order, and the search stops once it reaches
    dst_f. The output is a sum of paths, so flow balance holds with
    equality, and x_f keeps its routed part: all of it on a feasible input
    such as a barrier iterate.
    """
    net = scenario.network
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    left = np.maximum(np.asarray(mu, dtype=float), 0.0)
    left.put(scenario.forbidden_entries, 0.0)
    load = left.sum(axis=1)
    over = load > net.caps
    left[over] *= (net.caps[over] / load[over])[:, None]
    out = np.zeros_like(left)
    heads, tails = net.heads.tolist(), net.tails.tolist()
    for f, s in enumerate(scenario.sessions):
        rest = float(x[f])
        if rest > 0.0:
            # session f's rates left as Python floats, and {link: rate peeled}
            col, got = left[:, f].tolist(), {}
            while rest > 0.0:
                via = _fewest_hops(net.out_links, heads, col, s.src, stop=s.dst)
                if via[s.dst] is None:
                    break
                path, n = [], s.dst
                while n != s.src:
                    path.append(via[n])
                    n = tails[via[n]]
                amount = min(rest, min(col[l] for l in path))
                for l in path:
                    col[l] -= amount
                    got[l] = got.get(l, 0.0) + amount
                rest -= amount
            out[list(got), f] = list(got.values())
        x[f] -= rest
    return x, out


def tighten_to_equality(scenario: Scenario, x, mu):
    """Feasible (x, mu) with its loose flow-balance constraints closed: the
    link rates and source rates of repair_feasible's path peel.

    On a feasible input every active node sends out at least what it takes
    in, so the peel routes all of each x_f on src -> dst paths: flow balance
    holds with equality, rates only decrease and the objective is unchanged.
    Where the remainder is rounding (L eps of x_f or the largest capacity),
    the input x_f is kept. A larger one, as on a link loaded over its
    capacity within decision_faults' limit, is rate the peel could not
    route."""
    routed, mu = repair_feasible(scenario, x, mu)
    scale = np.maximum(x, scenario.network.caps.max(initial=0.0))
    rounding = scenario.n_links * np.finfo(float).eps * scale
    return np.where(x - routed <= rounding, x, routed), mu


def compute_zeta(scenario: Scenario, x, mu, alpha) -> float:
    """Alpha-weighted squared decision mass of the rates x (F,) and mu (L, F).

    Each non-destination (node, session) contributes alpha_n times the squared
    norm of the session's variables incident to n (its rate at the source plus
    adjacent link rates); each destination contributes alpha_dst times the
    squared incoming rates.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (scenario.n_nodes,):
        raise ContractError(f"alpha must have one entry per node, got shape {alpha.shape}")
    x, mu = np.asarray(x, dtype=float), np.asarray(mu, dtype=float)
    tails = scenario.network.tails
    heads = scenario.network.heads
    total = float(np.sum(alpha[scenario.src] * x * x))
    sq = mu * mu
    total += float(np.sum(alpha[heads][:, None] * sq))
    tail_counts = tails[:, None] != scenario.dst[None, :]
    total += float(np.sum(np.where(tail_counts, alpha[tails][:, None] * sq, 0.0)))
    return total


# ---------------------------------------------------------------------------
# main solver


def _kept(scenario):
    """(N, F) mask of kept flow-balance rows and the kept (links, sessions)
    pairs of the barrier problem.

    Pairs (l, f) with l leaving dst_f or entering a node that cannot reach
    dst_f are zero at every feasible point; dropping them and such nodes'
    rows leaves an interior."""
    net, tree = scenario.network, scenario.in_trees
    reach = tree >= 0
    reach[scenario.dst, np.arange(scenario.n_sessions)] = True
    pairs = np.nonzero(scenario.allow_mask & reach[net.heads]
                       & (net.tails[:, None] != scenario.dst))
    return reach & scenario.active, pairs


def _barrier_problem(scenario, rows, pairs):
    """Constraints G z <= h (the kept flow-balance rows, then link loads) and
    a strictly feasible z = (x, mu at the kept pairs) for the rows and pairs
    of _kept. At z, each node that can reach dst_f sends eps
    of f there along the in-tree, each kept pair carries eps / (4 (L + 1))
    more and each source injects eps / 2: every kept row has slack eps / 4
    or more, and every link is loaded below half its capacity."""
    net, n_f, tree = scenario.network, scenario.n_sessions, scenario.in_trees
    cols = n_f + np.arange(pairs[0].size)
    flow = np.zeros(rows.shape + (cols.size + n_f,))
    flow[scenario.src, np.arange(n_f), np.arange(n_f)] = 1.0
    flow[:, pairs[1], cols] = net.incidence[:, pairs[0]]
    load = np.zeros((scenario.n_links, flow.shape[2]))
    load[pairs[0], cols] = 1.0
    h = np.concatenate([np.zeros(int(rows.sum())), net.caps])

    eps = float(np.min(net.caps, initial=1.0)) / (2.0 * (n_f + 1) * (scenario.n_nodes + 1))
    mu = np.zeros((scenario.n_links, n_f))
    for f, dst in enumerate(scenario.dst):
        for n in np.flatnonzero(tree[:, f] >= 0):
            while n != dst:
                mu[tree[n, f], f] += eps
                n = net.heads[tree[n, f]]
    mu[pairs] += eps / (4.0 * (scenario.n_links + 1))
    z = np.concatenate([np.full(n_f, eps / 2.0), mu[pairs]])
    return np.vstack([flow[rows], load]), h, z


def solve_centralized(scenario: Scenario, tol: float = 1e-5, alpha=None) -> OracleSolution:
    """Solve the joint problem to a certified duality gap of at most tol.

    For t = 1, 10, 100, ... damped Newton steps with Armijo backtracking
    center -t U(x) - sum(log slack), and each center is certified. With m
    constraints the gap at an exact center is at most m / t, so the solve
    gives up once m / t is a hundred times below tol. It gives up at once
    when the gap of a centering has grown two centerings in a row: past that
    point the Newton system is too ill-conditioned to gain precision.

    Returns the best repaired primal point (a sum of src -> dst paths, so
    flow balance holds with equality), its utility, the multipliers
    achieving the best dual value, and zeta at the supplied (or default)
    per-node alpha. Raises ContractError before solving unless tol is
    positive and finite and alpha passes AlgConfig.node_alpha, the rule a run
    applies. Raises OracleError if the certificate does not close, and at
    once for an unroutable session or a Newton system of more than
    NEWTON_BYTES_MAX bytes.
    """
    if not (0.0 < tol < math.inf):
        raise ContractError(f"tol must be positive and finite, got {tol!r}")
    if alpha is None:
        alpha = default_alpha(scenario.network, "utility-gap")
    alpha = AlgConfig(alpha).node_alpha(scenario.network)  # the run's rule for alpha
    try:
        require_routable(scenario)
    except ScenarioValidationError as e:
        raise OracleError(f"no feasible point with positive rates: {e}") from None

    rows, pairs = _kept(scenario)
    n_z = scenario.n_sessions + pairs[0].size
    n_bytes = 8 * n_z * (int(rows.sum()) + scenario.n_links + n_z)
    if n_bytes > NEWTON_BYTES_MAX:
        raise OracleError(f"the Newton system has {n_z} variables, and its G and Hessian "
                          f"need {n_bytes} bytes, over the cap of {NEWTON_BYTES_MAX}; "
                          f"proxbp run simulates the scenario without the oracle")
    G, h, z = _barrier_problem(scenario, rows, pairs)
    n_f, n_mu = scenario.n_sessions, z.size - scenario.n_sessions
    # U(x) = w . log(z + shift): w is zero on the mu entries of z
    w = np.concatenate([scenario.utility_weight, np.zeros(n_mu)])
    shift = np.concatenate([scenario.utility_shift, np.zeros(n_mu)])
    m = G.shape[0] + z.size  # plus one sign constraint per variable

    def barrier(z, t):
        """The barrier at z, inf outside the interior, and the slack h - G z."""
        s = h - G @ z
        if min(s.min(initial=1.0), z.min(initial=1.0)) <= 0.0:
            return math.inf, s
        return -t * (w @ np.log(z + shift)) - np.log(s).sum() - np.log(z).sum(), s

    def center(z, t):
        """Newton iterate from z to the center at t, the steps taken and the
        slack there. The barrier is evaluated at z and then once per trial
        point; an accepted trial's value and slack carry to the next step."""
        now, s = barrier(z, t)
        tw = t * w
        for steps in range(1, NEWTON_STEPS + 1):
            zs = z + shift
            grad = G.T @ (1.0 / s) - 1.0 / z - tw / zs
            hess = (G.T / (s * s)) @ G
            hess.ravel()[::z.size + 1] += 1.0 / (z * z) + tw / zs ** 2  # the diagonal
            dz = np.linalg.solve(hess, -grad)
            slope = float(grad @ dz)
            if -slope <= 2.0 * NEWTON_TOL:
                break
            step, trial = 1.0, z + dz
            val, s_trial = barrier(trial, t)
            while val > now + 0.25 * step * slope:
                step *= 0.5
                trial = z + step * dz
                if (trial == z).all():
                    return z, steps, s  # rounding allows no further descent
                val, s_trial = barrier(trial, t)
            z, now, s = trial, val, s_trial
        return z, steps, s

    mu = np.zeros((scenario.n_links, n_f))
    best_primal, best_dual, weak_margin = -math.inf, math.inf, math.inf
    history = []

    def failure(reason):
        gap = best_dual - best_primal
        return OracleError(
            f"no certificate at tol={tol} after {len(history)} centerings: {reason}; best gap "
            f"{gap!r}; last (t, primal, dual, gap, newton_steps) = "
            f"{', '.join(map(str, history[-3:]))}", best_gap=gap, history=history)

    n_rows = int(rows.sum())  # the flow-balance rows lead G and the slack
    t = 1.0
    while True:
        try:
            z, steps, s = center(z, t)
        except np.linalg.LinAlgError:
            raise failure(f"the Newton system at t={t!r} is singular") from None
        lam = np.zeros(rows.shape)
        lam[rows] = 1.0 / (t * s[:n_rows])
        # nodes that cannot reach dst_f get f's largest multiplier: no link into them is priced
        lam = np.where(rows | ~scenario.active, lam, lam.max(axis=0))
        qv = dual_value(scenario, lam)
        if qv < best_dual:
            best_dual, best_lam = qv, lam
        mu[pairs] = z[n_f:]
        xr, mur = repair_feasible(scenario, z[:n_f], mu)
        # U(x) = w log(k + x) is finite where k + x > 0; the repair may zero a wlog rate
        in_domain = (xr + scenario.utility_shift > 0.0).all()
        val = total_utility(scenario, xr) if in_domain else -math.inf
        if val > best_primal:
            best_primal, best_x, best_mu = val, xr, mur
        weak_margin = min(weak_margin, qv - best_primal)
        if qv < best_primal - 1e-9:
            raise OracleError(f"weak duality violated: dual {qv!r} below primal {best_primal!r}")
        history.append((t, val, qv, qv - val, steps))
        if best_dual - best_primal <= tol:
            break
        if len(history) >= 3 and history[-3][3] < history[-2][3] < history[-1][3]:
            raise failure("the gap stopped shrinking, so the Newton system has lost precision")
        if m / t < tol / 100.0:
            raise failure("the gap bound m / t is below tol / 100")
        t *= 10.0

    validate_decision(scenario, best_x, best_mu)
    g = residual_matrix(scenario, best_x, best_mu)
    return OracleSolution(
        x_star=_frozen(best_x),
        mu_star=_frozen(best_mu),
        U_star=total_utility(scenario, best_x),
        lambda_star=_frozen(best_lam),
        zeta=compute_zeta(scenario, best_x, best_mu, alpha),
        alpha=alpha,
        duality_gap=float(best_dual - best_primal),
        max_violation=float(max(0.0, g.max())),
        weak_duality_margin=float(weak_margin),
    )


# ---------------------------------------------------------------------------
# report serialization (same line-oriented style as scenario files)


def serialize_solution(sol: OracleSolution, scenario: Scenario) -> str:
    out = [
        f"ustar {float(sol.U_star)!r}",
        f"duality_gap {float(sol.duality_gap)!r}",
        f"max_violation {float(sol.max_violation)!r}",
        f"weak_margin {float(sol.weak_duality_margin)!r}",
        f"zeta {float(sol.zeta)!r}",
    ]
    for n, a in enumerate(sol.alpha):
        out.append(f"alpha {n} {float(a)!r}")
    for f, v in enumerate(sol.x_star):
        out.append(f"x {f} {float(v)!r}")
    for l, f in zip(*np.nonzero(scenario.allow_mask)):
        out.append(f"mu {l} {f} {float(sol.mu_star[l, f])!r}")
    for n, f in zip(*np.nonzero(scenario.active)):
        out.append(f"lambda {n} {f} {float(sol.lambda_star[n, f])!r}")
    return "\n".join(out) + "\n"


def parse_solution(text: str, scenario: Scenario) -> OracleSolution:
    """Inverse of serialize_solution. Raises a line-numbered ContractError for
    an unknown directive, a wrong field count, a bad or non-finite number, an
    alpha that is not positive, a negative duality_gap, max_violation, zeta, x
    or mu (solve_centralized writes none), an index out of range, an array
    entry that serialize_solution never writes (mu off the allowed (link,
    session) pairs, lambda at a destination) or a scalar or array entry that
    an earlier line gave; then a ContractError naming any scalar the report
    lacks, else the first array entry it lacks. lambda and weak_margin are
    signed."""
    scalars = dict.fromkeys(("ustar", "duality_gap", "max_violation", "weak_margin", "zeta"))
    # each array entry the report carries: every alpha and x, the allowed mu
    # and the active lambda, in serialize_solution's order
    written = {"alpha": np.ones(scenario.n_nodes, dtype=bool),
               "x": np.ones(scenario.n_sessions, dtype=bool),
               "mu": scenario.allow_mask, "lambda": scenario.active}
    arrays = {tag: np.zeros(mask.shape) for tag, mask in written.items()}
    line_of = {}  # (tag, index) -> the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tag, *fields = line.split()
        if tag not in scalars and tag not in arrays:
            raise ContractError(f"report line {lineno}: unknown report directive {tag!r}")
        shape = arrays[tag].shape if tag in arrays else ()
        if len(fields) != len(shape) + 1:
            raise ContractError(
                f"report line {lineno}: {tag} takes {len(shape) + 1} fields, got {len(fields)}")
        try:
            idx = tuple(int(v) for v in fields[:-1])
            val = float(fields[-1])
        except ValueError:
            raise ContractError(f"report line {lineno}: bad number in {line!r}") from None
        if not math.isfinite(val):
            raise ContractError(f"report line {lineno}: {tag} value {val!r} is not finite")
        if tag == "alpha" and not val > 0.0:
            raise ContractError(f"report line {lineno}: alpha {val!r} is not positive")
        if tag in ("duality_gap", "max_violation", "zeta", "x", "mu") and val < 0.0:
            raise ContractError(f"report line {lineno}: {tag} {val!r} is negative")
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ContractError(
                f"report line {lineno}: {tag} index {idx} out of range for shape {shape}")
        name = " ".join(map(str, (tag, *idx)))
        if tag in written and not written[tag][idx]:
            raise ContractError(f"report line {lineno}: {name} is not an entry of the report")
        first = line_of.setdefault((tag, idx), lineno)
        if first != lineno:
            raise ContractError(f"report line {lineno}: {name} repeats line {first}")
        if tag in arrays:
            arrays[tag][idx] = val
        else:
            scalars[tag] = val
    missing = [k for k, v in scalars.items() if v is None]
    if missing:
        raise ContractError(f"report has no {', '.join(missing)} line")
    for tag, mask in written.items():
        absent = [idx for idx in zip(*np.nonzero(mask)) if (tag, idx) not in line_of]
        if absent:
            name = " ".join(map(str, (tag, *absent[0])))
            raise ContractError(f"report has no {name} line")
    return OracleSolution(
        x_star=_frozen(arrays["x"]),
        mu_star=_frozen(arrays["mu"]),
        U_star=scalars["ustar"],
        lambda_star=_frozen(arrays["lambda"]),
        zeta=scalars["zeta"],
        alpha=_frozen(arrays["alpha"]),
        duality_gap=scalars["duality_gap"],
        max_violation=scalars["max_violation"],
        weak_duality_margin=scalars["weak_margin"],
    )


def save_solution(sol: OracleSolution, scenario: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_solution(sol, scenario))


def load_solution(path, scenario: Scenario) -> OracleSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution(fh.read(), scenario)
