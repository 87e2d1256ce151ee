"""Centralized optimum oracle for the joint rate control and routing problem.

Maximizes the total utility over source rates and link-session rates subject
to per-(session, node) flow balance (injection plus inflow at most outflow
everywhere except destinations), link capacities, allow-sets, and
nonnegativity. Solved by an augmented-Lagrangian dual ascent on the
flow-balance constraints; capacity and sign constraints stay inside the inner
blocks, which are closed-form scalars (sources) and exact link blocks: each
session's rate is piecewise linear in the link's budget multiplier, so the
multiplier is found by a sorted-breakpoint search and interpolated exactly.

Every outer iteration produces two certificates: an exactly feasible repaired
primal point and the exact dual value at the current multipliers. Their
difference brackets the true optimum, so the reported duality gap is sound
regardless of how well the inner loops converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import (ContractError, DecisionVector, Scenario, residual_matrix,
                  total_utility, validate_decision)
from .engine import default_alpha
from .rates import positive_quad_root

MAX_OUTER = 400       # outer augmented-Lagrangian iterations before OracleError
INNER_TOL = 1e-10     # largest rate change that ends the inner ascent
INNER_PASSES = 300    # block-coordinate passes per outer iteration
PRIMAL_PASSES = 200   # passes of repair_feasible and of tighten_to_equality
TIGHTEN_TOL = 1e-9    # flow-balance slack that tighten_to_equality leaves


class OracleError(RuntimeError):
    """Solver failed to certify the requested tolerance. Carries best_gap."""

    def __init__(self, msg, best_gap=None):
        super().__init__(msg)
        self.best_gap = best_gap


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Certified near-optimal point.

    U_star is the utility of the feasible y_star, so the true optimum lies in
    [U_star, U_star + duality_gap]. lambda_star are nonnegative flow-balance
    multipliers (zero at destinations); zeta is the alpha-weighted squared
    decision mass of y_star used by the gap and queue bounds, evaluated at the
    stored alpha vector.
    """

    y_star: DecisionVector
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
    source multiplier is nonpositive (the sup diverges there).
    """
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


# ---------------------------------------------------------------------------
# inner blocks of the augmented Lagrangian


def _al_source_rate(utility, lam_f, c, rho):
    """Maximize U(x) - psi(lam_f, x + c) over the utility domain, where psi is
    the inequality-form augmented penalty with parameter rho."""
    if utility.kind == "wlog":
        return float(positive_quad_root(rho, lam_f + rho * c, -utility.weight))
    a0 = lam_f + rho * c
    if utility.weight - max(0.0, a0) <= 0.0:
        return 0.0
    return float(positive_quad_root(rho, rho + a0, a0 - utility.weight))


def _al_link_update(scenario, l, g, lam, mu, rho, damp):
    """Exact block update of one link's allowed sessions under the capacity
    budget; g is mutated in place to stay consistent with the new mu column.

    A session's rate solves profile(mu) = theta on [0, cap], where profile is
    the derivative of its term of the link objective: strictly decreasing and
    piecewise linear with knots at 0, cap and its two kinks, so the clamped
    inverse interpolates over the knots. If the rates at theta = 0 overflow
    cap, the total rate is piecewise linear in theta with breakpoints at the
    profile values of all knots, and theta is interpolated where it hits cap.
    """
    lk = scenario.network.links[l]
    cap = lk.capacity
    rows = []
    for f in sorted(scenario.allowed[l]):
        dst = scenario.sessions[f].dst
        mu_c = mu[l, f]
        has_n = lk.tail != dst
        has_m = lk.head != dst
        kn = g[lk.tail, f] + mu_c if has_n else 0.0
        km = g[lk.head, f] - mu_c if has_m else 0.0
        kinks = [0.0, cap]
        if has_n:
            kinks.append(kn + lam[lk.tail, f] / rho)
        if has_m:
            kinks.append(-km - lam[lk.head, f] / rho)
        knots = np.unique(np.clip(kinks, 0.0, cap))[::-1]
        profile = -2.0 * damp * (knots - mu_c)
        if has_n:
            profile += np.maximum(0.0, lam[lk.tail, f] + rho * (kn - knots))
        if has_m:
            profile -= np.maximum(0.0, lam[lk.head, f] + rho * (km + knots))
        rows.append((f, kn, km, has_n, has_m, profile, knots))

    def solution(theta):
        return [np.interp(theta, profile, knots) for (*_, profile, knots) in rows]

    vals = solution(0.0)
    if sum(vals) > cap:
        thetas = np.unique(np.concatenate([profile for *_, profile, _ in rows]).clip(0.0))
        totals = sum(solution(thetas))
        vals = solution(np.interp(cap, totals[::-1], thetas[::-1]))
        tot = sum(vals)
        if tot > cap > 0:
            vals = [v * cap / tot for v in vals]
    change = 0.0
    for (f, kn, km, has_n, has_m, *_), v in zip(rows, vals):
        change = max(change, abs(v - mu[l, f]))
        mu[l, f] = v
        if has_n:
            g[lk.tail, f] = kn - v
        if has_m:
            g[lk.head, f] = km + v
    return change


def _inner_bcd(scenario, x, mu, lam, rho):
    """Block-coordinate ascent on the augmented Lagrangian. Mutates x and mu."""
    damp = 1e-8 * (1.0 + rho)
    g = residual_matrix(scenario, x, mu)
    for _ in range(INNER_PASSES):
        change = 0.0
        for f, s in enumerate(scenario.sessions):
            c = g[s.src, f] - x[f]
            new = _al_source_rate(s.utility, lam[s.src, f], c, rho)
            change = max(change, abs(new - x[f]))
            x[f] = new
            g[s.src, f] = c + new
        for l in range(scenario.n_links):
            change = max(change, _al_link_update(scenario, l, g, lam, mu, rho, damp))
        if change <= INNER_TOL:
            break
        # resync residuals to stop incremental drift
        g = residual_matrix(scenario, x, mu)


# ---------------------------------------------------------------------------
# primal repair and tightening


def repair_feasible(scenario: Scenario, x, mu):
    """Project a near-feasible point to exact feasibility without optimizing.

    Clips signs and forbidden pairs, rescales overloaded links, then walks
    flow-balance violations by shrinking the violating node's inflow (and
    source rate) until injection nowhere exceeds service.
    """
    x = np.maximum(np.asarray(x, dtype=float).copy(), 0.0)
    mu = np.maximum(np.asarray(mu, dtype=float).copy(), 0.0)
    mu[~scenario.allow_mask] = 0.0
    caps = scenario.network.caps
    load = mu.sum(axis=1)
    for l in range(scenario.n_links):
        if load[l] > caps[l]:
            mu[l] *= caps[l] / load[l]
    net = scenario.network
    for _ in range(PRIMAL_PASSES):
        g = residual_matrix(scenario, x, mu)
        bad = np.argwhere(g > 1e-14)
        if bad.size == 0:
            return x, mu
        for n, f in bad:
            n = int(n)
            f = int(f)
            outflow = sum(mu[l, f] for l in net.out_links[n])
            inflow = sum(mu[l, f] for l in net.in_links[n])
            if n == scenario.sessions[f].src:
                inflow += x[f]
            if inflow <= 0:
                continue
            factor = max(0.0, min(1.0, outflow / inflow))
            if n == scenario.sessions[f].src:
                x[f] *= factor
            for l in net.in_links[n]:
                mu[l, f] *= factor
    raise OracleError("primal repair did not converge in %d passes" % PRIMAL_PASSES)


def tighten_to_equality(scenario: Scenario, y: DecisionVector) -> DecisionVector:
    """Shrink outgoing rates of loose flow-balance constraints to equality.

    The input must be feasible. Rates only decrease (processed in descending
    link-index order at each node), so feasibility is preserved, and source
    rates are untouched, so the objective is exactly unchanged. Destination
    outflows carry nothing and are dropped first.
    """
    x = y.x.copy()
    mu = y.mu.copy()
    net = scenario.network
    for f, s in enumerate(scenario.sessions):
        for l in net.out_links[s.dst]:
            mu[l, f] = 0.0
    for _ in range(PRIMAL_PASSES):
        g = residual_matrix(scenario, x, mu)
        loose = np.argwhere(g < -TIGHTEN_TOL)
        if loose.size == 0:
            return DecisionVector(x, mu)
        for n, f in loose:
            n = int(n)
            f = int(f)
            deficit = -float(residual_matrix(scenario, x, mu)[n, f])
            if deficit <= TIGHTEN_TOL:
                continue
            for l in sorted(net.out_links[n], reverse=True):
                take = min(mu[l, f], deficit)
                mu[l, f] -= take
                deficit -= take
                if deficit <= 0:
                    break
    raise OracleError("tightening did not converge in %d passes" % PRIMAL_PASSES)


def compute_zeta(scenario: Scenario, y_star: DecisionVector, alpha) -> float:
    """Alpha-weighted squared decision mass of y_star.

    Each non-destination (node, session) contributes alpha_n times the squared
    norm of the session's variables incident to n (its rate at the source plus
    adjacent link rates); each destination contributes alpha_dst times the
    squared incoming rates.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (scenario.n_nodes,):
        raise ContractError(f"alpha must have one entry per node, got shape {alpha.shape}")
    x = np.asarray(y_star.x, dtype=float)
    mu = np.asarray(y_star.mu, dtype=float)
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


def solve_centralized(scenario: Scenario, tol: float = 1e-5, alpha=None) -> OracleSolution:
    """Solve the joint problem to a certified duality gap of at most tol.

    Returns the best repaired primal point (tightened to flow-balance
    equality), its utility, the multipliers achieving the best dual value,
    and zeta at the supplied (or default) per-node alpha. Raises OracleError
    with the best gap achieved if the certificate never closes.
    """
    if not (tol > 0):
        raise ContractError(f"tol must be positive, got {tol!r}")
    if alpha is None:
        alpha = default_alpha(scenario.network, "utility-gap")
    alpha = np.asarray(alpha, dtype=float)

    x = np.ones(scenario.n_sessions)
    mu = np.zeros((scenario.n_links, scenario.n_sessions))
    lam = np.zeros((scenario.n_nodes, scenario.n_sessions))
    rho = 1.0
    best_primal = -math.inf
    best_x = None
    best_mu = None
    best_dual = math.inf
    best_lam = None
    weak_margin = math.inf
    prev_viol = math.inf

    for _ in range(MAX_OUTER):
        _inner_bcd(scenario, x, mu, lam, rho)
        g = residual_matrix(scenario, x, mu)
        viol = max(0.0, float(g.max()))

        lam = np.maximum(lam + rho * g, 0.0)
        lam[~scenario.active] = 0.0
        qv = dual_value(scenario, lam)
        if qv < best_dual:
            best_dual = qv
            best_lam = lam.copy()

        xr, mur = repair_feasible(scenario, x, mu)
        try:
            val = total_utility(scenario, xr)
        except ValueError:
            val = -math.inf
        if val > best_primal:
            best_primal = val
            best_x, best_mu = xr, mur
        if math.isfinite(qv):
            weak_margin = min(weak_margin, qv - best_primal)
            if qv < best_primal - 1e-9:
                raise OracleError(
                    f"weak duality violated: dual {qv!r} below primal {best_primal!r}")

        if best_dual - best_primal <= tol:
            break
        if viol > 0.25 * prev_viol:
            rho = min(rho * 2.0, 1e8)
        prev_viol = viol
    else:
        raise OracleError(
            f"no certificate at tol={tol} after {MAX_OUTER} outer iterations, "
            f"best gap {best_dual - best_primal!r}", best_gap=best_dual - best_primal)

    y = tighten_to_equality(scenario, DecisionVector(best_x, best_mu))
    validate_decision(scenario, y)
    g = residual_matrix(scenario, y.x, y.mu)
    return OracleSolution(
        y_star=y,
        U_star=float(total_utility(scenario, y.x)),
        lambda_star=best_lam,
        zeta=compute_zeta(scenario, y, alpha),
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
    for f, v in enumerate(sol.y_star.x):
        out.append(f"x {f} {float(v)!r}")
    for l in range(scenario.n_links):
        for f in sorted(scenario.allowed[l]):
            out.append(f"mu {l} {f} {float(sol.y_star.mu[l, f])!r}")
    act = scenario.active
    for n in range(scenario.n_nodes):
        for f in range(scenario.n_sessions):
            if act[n, f]:
                out.append(f"lambda {n} {f} {float(sol.lambda_star[n, f])!r}")
    return "\n".join(out) + "\n"


def parse_solution(text: str, scenario: Scenario) -> OracleSolution:
    """Inverse of serialize_solution. Raises a line-numbered ContractError for
    an unknown directive, a wrong field count, a bad number or an index out
    of range, and a ContractError naming any scalar the report lacks."""
    scalars = dict.fromkeys(("ustar", "duality_gap", "max_violation", "weak_margin", "zeta"))
    arrays = {
        "alpha": np.zeros(scenario.n_nodes),
        "x": np.zeros(scenario.n_sessions),
        "mu": np.zeros((scenario.n_links, scenario.n_sessions)),
        "lambda": np.zeros((scenario.n_nodes, scenario.n_sessions)),
    }
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
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ContractError(
                f"report line {lineno}: {tag} index {idx} out of range for shape {shape}")
        if tag in arrays:
            arrays[tag][idx] = val
        else:
            scalars[tag] = val
    missing = [k for k, v in scalars.items() if v is None]
    if missing:
        raise ContractError(f"report has no {', '.join(missing)} line")
    return OracleSolution(
        y_star=DecisionVector(arrays["x"], arrays["mu"]),
        U_star=scalars["ustar"],
        lambda_star=arrays["lambda"],
        zeta=scalars["zeta"],
        alpha=arrays["alpha"],
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
