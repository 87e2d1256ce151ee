"""Per-slot reference of harness.run: every check and metric is evaluated
inside the slot loop, one slot at a time. The parity tests hold the chunked
harness to this loop's traces and summaries, bit for bit."""
import math

import numpy as np

from proxbp.dpp import dpp_slot_update
from proxbp.engine import initial_state, slot_update
from proxbp.harness import (DRIFT_IDENTITY_TOL, TELESCOPE_TOL, WEIGHT_IDENTITY_TOL, Trace)
from proxbp.net import ScenarioValidationError, residual_matrix, total_utility, validate_decision
from proxbp.queues import audit_queue_bounds, step_Q, step_Y, step_Z


def run_per_slot(scenario, algorithm, config, slots, oracle=None) -> Trace:
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

    state = initial_state(scenario) if algorithm == "new" else None
    dpp_Q = np.zeros((n_n, n_f))  # DPP's own clipped queues, stepped apart from Y
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
            y = dpp_slot_update(dpp_Q, scenario, config)
            dpp_Q = step_Y(dpp_Q, residual_matrix(scenario, y.x, y.mu), scenario)

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
