"""Independent feasibility and grid-search helpers for cross-checking the
centralized solver. Built on scipy's LP solver, no code shared with the
package's own optimization routines."""
import math

import numpy as np
from scipy.optimize import linprog

import proxbp as P


def max_rate_lp(scenario, f, fixed):
    """Largest injection rate of session f with the other sessions' rates
    pinned at fixed, via a multicommodity-flow linear program."""
    n_l, n_f, n_n = scenario.n_links, scenario.n_sessions, scenario.n_nodes
    n_var = n_l * n_f + 1  # mu flattened plus x_f

    def vid(l, g):
        return l * n_f + g

    c = np.zeros(n_var)
    c[-1] = -1.0
    a_ub = []
    b_ub = []
    # flow balance: injection + inflow - outflow <= 0 at non-destinations
    for g in range(n_f):
        s = scenario.sessions[g]
        for n in range(n_n):
            if n == s.dst:
                continue
            row = np.zeros(n_var)
            for l in scenario.network.in_links[n]:
                row[vid(l, g)] = 1.0
            for l in scenario.network.out_links[n]:
                row[vid(l, g)] = -1.0
            rhs = 0.0
            if n == s.src:
                if g == f:
                    row[-1] = 1.0
                else:
                    rhs = -float(fixed[g])
            a_ub.append(row)
            b_ub.append(rhs)
    for l in range(n_l):
        row = np.zeros(n_var)
        for g in range(n_f):
            row[vid(l, g)] = 1.0
        a_ub.append(row)
        b_ub.append(scenario.network.caps[l])
    bounds = []
    for l in range(n_l):
        for g in range(n_f):
            bounds.append((0.0, None) if g in scenario.allowed[l] else (0.0, 0.0))
    bounds.append((0.0, None))
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    return float(res.x[-1])


def grid_best_utility(scenario, step=1e-2):
    """Best total utility over a rate grid, feasibility certified by LPs.
    Handles one- and two-session scenarios; closed-domain utilities also get
    the exact zero rate as a grid point."""
    assert scenario.n_sessions <= 2
    if scenario.n_sessions == 1:
        top = max_rate_lp(scenario, 0, [0.0])
        grid = np.arange(step, top + 1e-12, step)
        return max(P.total_utility(scenario, [g]) for g in grid)
    best = -math.inf
    # wlog diverges at 0, so the zero rate is outside its domain
    open0 = scenario.sessions[0].utility.kind == "wlog"
    open1 = scenario.sessions[1].utility.kind == "wlog"
    top1 = max_rate_lp(scenario, 1, [0.0, 0.0])
    b_axis = list(np.arange(step, top1 + 1e-12, step))
    if not open1:
        b_axis.append(0.0)
    for b in b_axis:
        a_top = max_rate_lp(scenario, 0, [0.0, b])
        a_vals = [a_top] if a_top > 0 or not open0 else []
        a_vals += list(np.arange(step, a_top + 1e-12, step))
        if not open0:
            a_vals.append(0.0)
        for a in a_vals:
            if (a <= 0.0 and open0) or (b <= 0.0 and open1):
                continue
            best = max(best, P.total_utility(scenario, [a, b]))
    return best


def kelley_bracket(scenario, width=1e-8, rounds=100):
    """[lo, hi] around the optimal total utility by Kelley's cutting-plane
    method. An LP over the flow polytope maximizes the sum of u_f under
    tangent cuts of each U_f: the cuts lie above the concave utilities, so
    the LP value is an upper bound hi, and the utility of the LP's feasible
    rates is a lower bound lo. Each round adds cuts at the LP's rates, until
    hi - lo <= width or the rounds run out."""
    n_l, n_f = scenario.n_links, scenario.n_sessions
    net = scenario.network
    ls, fs = np.meshgrid(np.arange(n_l), np.arange(n_f), indexing="ij")
    n_mu = n_l * n_f
    ix = n_mu + np.arange(n_f)   # x_f column; mu[l, f] is column l * F + f
    iu = ix + n_f                # u_f column, the epigraph of U_f
    n_var = n_mu + 2 * n_f
    flow = np.zeros((scenario.n_nodes, n_f, n_var))
    flow[net.heads[ls], fs, ls * n_f + fs] = 1.0
    flow[net.tails[ls], fs, ls * n_f + fs] = -1.0
    flow[scenario.src, np.arange(n_f), ix] = 1.0
    load = np.zeros((n_l, n_var))
    load[ls, ls * n_f + fs] = 1.0
    a_rows = [flow[scenario.active], load]
    b_rows = [np.zeros(int(scenario.active.sum())), np.array(net.caps)]
    bounds = ([(0.0, None) if ok else (0.0, 0.0) for ok in scenario.allow_mask.ravel()]
              + [(0.0, None)] * n_f + [(None, None)] * n_f)
    cost = np.zeros(n_var)
    cost[iu] = -1.0

    def add_cuts(x):
        for f, s in enumerate(scenario.sessions):
            u = s.utility
            d = u.weight / x[f] if u.kind == "wlog" else u.weight / (1.0 + x[f])
            row = np.zeros((1, n_var))
            row[0, iu[f]] = 1.0
            row[0, ix[f]] = -d
            a_rows.append(row)
            b_rows.append(np.array([s.utility.value(x[f]) - d * x[f]]))

    lo, hi = -math.inf, math.inf
    x = np.ones(n_f)
    for _ in range(rounds):
        add_cuts(np.maximum(x, 1e-9))
        res = linprog(cost, A_ub=np.vstack(a_rows), b_ub=np.concatenate(b_rows),
                      bounds=bounds, method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        if res.status != 0:
            raise RuntimeError(f"cutting-plane LP failed: {res.message}")
        hi = min(hi, -res.fun)
        x = res.x[ix]
        if np.all(x + scenario.utility_shift > 0):
            lo = max(lo, P.total_utility(scenario, x))
        if hi - lo <= width:
            break
    return lo, hi
