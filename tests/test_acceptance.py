"""End-to-end acceptance checks.

Each test here covers one headline guarantee of the package and prints a
single PASS/FAIL line with the measured numbers, so the verdict can be read
straight off the test log. Tolerances and time budgets are part of the
assertions. The long simulations come from session fixtures; their wall-clock
seconds are recorded there and held against the budgets here.
"""
import itertools
import math
import time

import numpy as np
from gridlp import grid_best_utility
from reference import kkt_residual, project_bisect
from reference import objective as rate_objective
from reference import slope as rate_slope

import proxbp as P
from proxbp.rates import rate_lanes

GRID_STEP = 1e-2


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# capped-simplex projection


def _lattice_offsets(k, radius=2):
    span = [d * GRID_STEP for d in range(-radius, radius + 1)]
    return np.array(list(itertools.product(span, repeat=k)))


def _best_grid_distance(a, b, z_star, offsets):
    """Smallest squared distance to a over 1e-2-grid points that satisfy the
    budget, searched exhaustively in 2-d and around z_star plus random and
    origin probes in higher dimensions."""
    k = a.size
    if k == 2:
        axis = np.arange(0.0, b + GRID_STEP / 2, GRID_STEP)
        g0, g1 = np.meshgrid(axis, axis, indexing="ij")
        feas = g0 + g1 <= b + 1e-12
        dist = (g0 - a[0]) ** 2 + (g1 - a[1]) ** 2
        return float(dist[feas].min())
    base = np.maximum(np.round(z_star / GRID_STEP) * GRID_STEP, 0.0)
    pts = np.maximum(base + offsets[k], 0.0)
    probes = np.round(np.random.default_rng(int(1e6 * b) + k).uniform(
        0.0, b, (300, k)) / GRID_STEP) * GRID_STEP
    pts = np.vstack([pts, probes, np.zeros((1, k))])
    feas = pts.sum(axis=1) <= b + 1e-12
    dist = ((pts - a[None, :]) ** 2).sum(axis=1)
    return float(dist[feas].min())


def _project_ragged(rows, budgets):
    """project_rows on vectors of unequal length: one call on the rows padded
    to a common width, the padding forbidden. Returns the projected rows."""
    sizes = np.array([r.size for r in rows])
    mask = np.arange(sizes.max()) < sizes[:, None]
    a = np.full(mask.shape, 1e3)  # masked entries must stay out of every row
    a[mask] = np.concatenate(rows)
    z = P.project_rows(a, np.array(budgets), np.flatnonzero(~mask))
    assert not z[~mask].any()
    return [row[:k] for row, k in zip(z, sizes)]


def _water_level(a, z):
    """The budget multiplier implied by a projection z of a: the smallest
    theta >= 0 with z_k >= a_k - theta for every k. On an optimal z it is the
    water level, so kkt_residual with it is zero iff z is optimal."""
    return max(float(np.max(a - z)), 0.0)


def test_capped_simplex_projection():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240801)
    insts = []
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        insts.append(P.ProjectionInstance(rng.normal(0.0, 2.0, k), float(rng.uniform(0.0, 3.0))))
    worst_kkt = 0.0
    worst_dev = 0.0
    for inst, z in zip(insts, _project_ragged([i.a for i in insts], [i.b for i in insts])):
        worst_kkt = max(worst_kkt, kkt_residual(inst, z, _water_level(inst.a, z)))
        zb, _ = project_bisect(inst)
        worst_dev = max(worst_dev, float(np.abs(z - zb).max()))

    offsets = {k: _lattice_offsets(k) for k in range(3, 7)}
    rows, budgets = [], []
    for _ in range(200):
        k = int(rng.integers(2, 7))
        rows.append(rng.normal(0.0, 1.0, k))
        budgets.append(float(rng.uniform(0.05, 2.0)))
    beaten = 0
    for a, b, z in zip(rows, budgets, _project_ragged(rows, budgets)):
        d_star = float(((z - a) ** 2).sum())
        if _best_grid_distance(a, b, z, offsets) < d_star - 1e-12:
            beaten += 1
    elapsed = time.monotonic() - t0

    ok = worst_kkt <= 1e-9 and worst_dev <= 1e-8 and beaten == 0 and elapsed < 5.0
    _verdict("capped-simplex projection", ok,
             f"1000 instances kkt<={worst_kkt:.2e} bisection dev<={worst_dev:.2e}, "
             f"grid beat the output on {beaten}/200 instances, {elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------------------
# per-source rate solver


def test_source_rate_solver():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240802)
    probs = []
    for _ in range(1000):
        w = float(rng.uniform(0.1, 5.0))
        probs.append(P.RateProblem(P.Utility("wlog", w), float(rng.normal(0.0, 5.0)),
                                   float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.2, 8.0))))
    # one rate_lanes call for all sources with the constants a slot forms:
    # a = 2 alpha, a k, 2a and 4a from SlotConstants, d = W - a x_prev
    a = 2.0 * np.array([p.alpha for p in probs])
    d = np.array([p.pressure for p in probs]) - a * np.array([p.x_prev for p in probs])
    k = np.zeros(len(probs))  # utility shift 0: wlog
    x_all = rate_lanes(k, np.array([p.utility.weight for p in probs]), d, a, a * k,
                       2.0 * a, 4.0 * a)
    worst_h = 0.0
    worst_dev = 0.0
    grid_losses = 0
    for prob, x_hat in zip(probs, x_all.tolist()):
        w = prob.utility.weight
        worst_h = max(worst_h, abs(rate_slope(prob, x_hat)))

        # independent root bracketing on the strictly decreasing slope
        hi = max(1.0, prob.x_prev)
        while rate_slope(prob, hi) > 0:
            hi *= 2.0
        lo = 1e-12
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if rate_slope(prob, mid) > 0:
                lo = mid
            else:
                hi = mid
        worst_dev = max(worst_dev, abs(x_hat - 0.5 * (lo + hi)))

        # objective dominance over the grid, formulas written out directly
        g = np.arange(1e-4, hi + 1e-4, 1e-4)
        vals = (w * np.log(g) - prob.pressure * g
                - prob.alpha * (g - prob.x_prev) ** 2)
        if rate_objective(prob, x_hat) + 1e-12 < float(vals.max()):
            grid_losses += 1
    elapsed = time.monotonic() - t0

    ok = worst_h <= 1e-9 and worst_dev <= 1e-8 and grid_losses == 0 and elapsed < 5.0
    _verdict("per-source rate solver", ok,
             f"1000 problems |h|<={worst_h:.2e} bisection dev<={worst_dev:.2e}, "
             f"1e-4 grid beat the root {grid_losses} times, {elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------------------
# chain schedules where the clipped queues see nothing


def test_chain_queue_divergence():
    t0 = time.monotonic()
    parts = []
    ok = True
    for k in (2, 5, 10):
        sc, pol = P.chain_example(k)
        tr = P.run_scripted(sc, pol)
        hub = tr.Z[:, 0, :].sum(axis=1)
        integral = np.array_equal(tr.Z, np.round(tr.Z))
        good = (hub[3 * k] == k + 1.0 and float(hub.max()) == k + 1.0
                and float(np.abs(tr.Y).max()) == 0.0 and integral)
        ok = ok and good
        parts.append(f"k={k} hub[{3 * k}]={hub[3 * k]:g} peak={hub.max():g} "
                     f"maxY={tr.Y.max():g}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _verdict("virtual/actual queue divergence on chains", ok,
             "; ".join(parts) + f", {elapsed:.2f}s (budget 1s)")


# ---------------------------------------------------------------------------
# running-average and mean-rate utility gaps


def test_running_utility_gap_bound(gap_runs):
    parts = []
    ok = True
    for name in ("singlelink", "sixnode"):
        sc, sol, tr = gap_runs[name]
        if name == "singlelink":
            # analytic optimum: one unit-capacity link, log utility
            u_ref = 0.0
            x_ref, mu_ref = np.array([1.0]), np.array([[1.0]])
        else:
            ok = ok and sol.duality_gap <= 1e-5
            u_ref = sol.U_star
            x_ref, mu_ref = sol.x_star, sol.mu_star
        alpha = P.default_alpha(sc.network, "utility-gap")
        zeta = P.compute_zeta(sc, x_ref, mu_ref, alpha)
        bound = zeta / np.arange(1.0, tr.slots + 1.0) + 2e-5
        gap_avg = u_ref - tr.util_avg
        gap_jen = u_ref - tr.util_jensen
        margin = float(np.max(np.maximum(gap_avg, gap_jen) - bound))
        decayed = gap_avg[9999] <= gap_avg[999] / 5.0
        ok = ok and margin <= 0.0 and decayed
        parts.append(f"{name} zeta={zeta:.3g} worst margin {margin:.2e}, "
                     f"gap 1e3/1e4 = {gap_avg[999]:.2e}/{gap_avg[9999]:.2e}")
    secs = gap_runs["seconds"]
    ok = ok and secs < 60.0
    _verdict("running utility gap bound zeta/t", ok,
             "; ".join(parts) + f", sims {secs:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# slot-uniform queue bounds under the heavier weights


def test_signed_and_physical_queue_bounds(soak_runs):
    parts = []
    ok = True
    for name in ("singlelink", "sixnode"):
        sc, sol, tr = soak_runs[name]
        alpha = P.default_alpha(sc.network, "queue-bound")
        zeta = P.compute_zeta(sc, sol.x_star, sol.mu_star, alpha)
        lam = float(np.linalg.norm(sol.lambda_star))
        q_limit = 2.0 * lam + math.sqrt(2.0 * zeta)
        q_peak = float(tr.maxQ.max())
        # per-node actual backlog against the transfer limit with the node's
        # own outgoing capacity; the all-node maximum is implied
        z_peaks = tr.peak_Z.max(axis=1)
        z_limits = 4.0 * lam + 2.0 * math.sqrt(2.0 * zeta) + sc.network.out_cap
        z_slack = float(np.min(z_limits - z_peaks))
        ok = ok and q_peak <= q_limit + 1e-9 and z_slack >= -1e-9
        parts.append(f"{name} max|Q| {q_peak:.3g} <= {q_limit:.3g}, "
                     f"min Z slack {z_slack:.3g}")
    secs = soak_runs["seconds"]
    ok = ok and secs < 300.0
    _verdict("slot-uniform queue bounds over 1e5 slots", ok,
             "; ".join(parts) + f", sims {secs:.1f}s (budget 300s)")


# ---------------------------------------------------------------------------
# per-slot algebraic identities on every long run


def test_per_slot_identity_audit(gap_runs, soak_runs, dpp_runs):
    labeled = []
    for name in ("singlelink", "sixnode"):
        labeled.append((f"gap:{name}", gap_runs[name][2]))
        labeled.append((f"soak:{name}", soak_runs[name][2]))
    for v in sorted(dpp_runs):
        labeled.append((f"dpp:V{v:g}", dpp_runs[v]))
    worst_w = max(tr.summary["weight_identity_max"] for _, tr in labeled)
    worst_d = max(tr.summary["drift_identity_max"] for _, tr in labeled)
    failed = [name for name, tr in labeled if not tr.summary["passed"]]
    ok = worst_w <= 1e-12 and worst_d <= 1e-9 and not failed
    _verdict("per-slot weight/drift identities", ok,
             f"{len(labeled)} runs, weight id <= {worst_w:.2e}, drift id <= "
             f"{worst_d:.2e}, failed runs {failed or 'none'}")


# ---------------------------------------------------------------------------
# qualitative contrast with the drift-plus-penalty baseline


def test_baseline_tradeoff_contrast(gap_runs, dpp_runs):
    new_tr = gap_runs["sixnode"][2]
    # distance from optimum: the baseline over-injects while its queues fill,
    # so its running-average utility can overshoot U* and its signed gap go
    # negative; |gap| is the fair closeness measure for both algorithms
    gap_new = abs(float(new_tr.gap[-1]))
    gap_dpp = abs(float(dpp_runs[500.0].gap[-1]))
    mass = {v: P.queue_mass(dpp_runs[v]) for v in (10.0, 100.0, 500.0)}
    mass_new = P.queue_mass(new_tr)
    ok = (gap_new < gap_dpp
          and mass[500.0] > mass[100.0] > mass[10.0]
          and mass_new < mass[10.0])
    _verdict("baseline tradeoff contrast", ok,
             f"terminal |gap| {gap_new:.3g} vs baseline V=500 {gap_dpp:.3g}; "
             f"backlog mass V500/V100/V10 = {mass[500.0]:.3g}/{mass[100.0]:.3g}/"
             f"{mass[10.0]:.3g}, ours {mass_new:.3g}")


# ---------------------------------------------------------------------------
# centralized solver certification


def test_centralized_oracle_certification(singlelink, sixnode,
                                          singlelink_sol, sixnode_sol):
    parts = []
    ok = True
    for name, sc, sol in (("singlelink", singlelink, singlelink_sol),
                          ("sixnode", sixnode, sixnode_sol)):
        grid_dev = abs(sol.U_star - grid_best_utility(sc))
        # slack removal on a deliberately loose feasible point
        loose_x = 0.8 * sol.x_star
        before = P.total_utility(sc, loose_x)
        tight_x, tight_mu = P.tighten_to_equality(sc, loose_x, sol.mu_star)
        drift = abs(P.total_utility(sc, tight_x) - before)
        resid = P.residual_matrix(sc, tight_x, tight_mu)
        worst_res = float(np.abs(resid[sc.active]).max())
        re_res = P.residual_matrix(sc, *P.tighten_to_equality(sc, sol.x_star, sol.mu_star))
        worst_res = max(worst_res, float(np.abs(re_res[sc.active]).max()))
        ok = (ok and sol.duality_gap <= 1e-5 and grid_dev <= 2e-2
              and drift <= 1e-12 and worst_res <= 1e-9)
        parts.append(f"{name} gap {sol.duality_gap:.2e} grid dev {grid_dev:.2e} "
                     f"tighten obj drift {drift:.2e} resid {worst_res:.2e}")
    _verdict("centralized oracle certification", ok, "; ".join(parts))
