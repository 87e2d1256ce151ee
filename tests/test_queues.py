import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import arrays, scenarios

import proxbp as P
from proxbp.net import residual_matrix
from proxbp.queues import (ScriptedPolicy, arrival_matrix, audit_queue_bounds,
                           run_scripted, step_Q, step_Y, step_Z, validate_policy)


def test_arrival_matrix(sixnode):
    m = arrival_matrix(sixnode, [0.3, 0.7])
    assert m.shape == (6, 2)
    assert m[0, 0] == 0.3 and m[2, 1] == 0.7
    assert m.sum() == 1.0


def test_step_y_clips_at_zero(singlelink):
    y0 = np.zeros((2, 1))
    # service prescribed with nothing to send: the virtual queue still counts it
    nxt = step_Y(y0, residual_matrix(singlelink, [0.0], [[1.0]]), singlelink)
    assert nxt[0, 0] == 0.0
    nxt = step_Y(y0, residual_matrix(singlelink, [0.4], [[1.0]]), singlelink)
    assert nxt[0, 0] == 0.0
    nxt = step_Y(nxt, residual_matrix(singlelink, [0.4], [[0.1]]), singlelink)
    assert abs(nxt[0, 0] - 0.3) < 1e-15


def test_step_q_is_signed(singlelink):
    q = np.zeros((2, 1))
    q = step_Q(q, residual_matrix(singlelink, [0.0], [[1.0]]))
    assert q[0, 0] == -1.0
    q = step_Q(q, residual_matrix(singlelink, [0.5], [[0.0]]))
    assert q[0, 0] == -0.5
    assert q[1, 0] == 0.0


def test_step_z_serves_backlog_only(relay):
    z = np.zeros((3, 1))
    # prescribing service on an empty node moves nothing
    z, sends = step_Z(z, [1.0], [[1.0], [1.0]], relay)
    assert z[0, 0] == 1.0 and z[1, 0] == 0.0
    assert sends.sum() == 0.0
    # now the unit at node 0 moves to node 1; the new arrival stays behind it
    z, sends = step_Z(z, [1.0], [[1.0], [0.5]], relay)
    assert z[0, 0] == 1.0 and z[1, 0] == 1.0
    assert sends[0, 0] == 1.0 and sends[1, 0] == 0.0
    # node 1 can now forward at most the link rate from its backlog
    z, sends = step_Z(z, [0.0], [[0.0], [0.5]], relay)
    assert abs(z[1, 0] - 0.5) < 1e-15
    assert sends[1, 0] == 0.5


def test_step_z_ascending_link_order():
    # two outgoing links, prescriptions exceed the backlog: the lower-indexed
    # link is served first from what is available
    sc = P.parse_scenario(
        "nodes 4\nlink 0 1 1.0\nlink 0 2 1.0\nlink 1 3 1.0\nlink 2 3 1.0\n"
        "session 0 0 3 wlog 1.0\n")
    z = np.zeros((4, 1))
    z[0, 0] = 1.0
    mu = np.zeros((4, 1))
    mu[0, 0] = 0.8
    mu[1, 0] = 0.8
    z2, sends = step_Z(z, [0.0], mu, sc)
    assert sends[0, 0] == 0.8
    assert abs(sends[1, 0] - 0.2) < 1e-15
    assert z2[0, 0] == 0.0


def _step_Z_scalar(Z, arrivals, mu, scenario):
    """Scalar reference for step_Z: each node serves its out-links one at a
    time in ascending link order, then sends and arrivals join link by link."""
    network = scenario.network
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.ndim == 1:
        arrivals = arrival_matrix(scenario, arrivals)
    mu = np.asarray(mu, dtype=float)
    rem = np.array(Z, dtype=float)
    sends = np.zeros((scenario.n_links, scenario.n_sessions))
    for n in range(scenario.n_nodes):
        avail = rem[n]
        for l in network.out_links[n]:
            take = np.minimum(np.maximum(mu[l], 0.0), avail)
            sends[l] = take
            avail -= take
    nxt = rem + arrivals
    for l, lk in enumerate(network.links):
        nxt[lk.head] += sends[l]
    nxt[~scenario.active] = 0.0
    return nxt, sends


@st.composite
def _z_steps(draw, vector_arrivals=(True, False)):
    """(scenario, Z, arrivals, mu); arrivals are the (F,) source rates or,
    where vector_arrivals draws False, an (N, F) matrix."""
    sc = draw(scenarios())
    n, f, l = sc.n_nodes, sc.n_sessions, sc.n_links
    coarse = draw(st.booleans())
    z = arrays(draw, (n, f), (0.0, 0.25, 1.0, 3.0), 0.0, 5.0, coarse)
    mu = arrays(draw, (l, f), (0.0, 0.5, 1.0, 2.0), 0.0, 3.0, coarse)
    shape = (f,) if draw(st.sampled_from(vector_arrivals)) else (n, f)
    arrivals = arrays(draw, shape, (0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    return sc, z, arrivals, mu


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_z_steps())
def test_step_z_matches_scalar_reference(case):
    sc, z, arrivals, mu = case
    nxt, sends = step_Z(z, arrivals, mu, sc)
    ref_nxt, ref_sends = _step_Z_scalar(z, arrivals, mu, sc)
    assert nxt.tobytes() == ref_nxt.tobytes()
    assert sends.tobytes() == ref_sends.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_z_steps(vector_arrivals=(True,)))
def test_step_z_vector_arrivals_match_arrival_matrix(case):
    sc, z, x, mu = case
    nxt, sends = step_Z(z, x, mu, sc)
    ref_nxt, ref_sends = step_Z(z, arrival_matrix(sc, x), mu, sc)
    assert nxt.tobytes() == ref_nxt.tobytes()
    assert sends.tobytes() == ref_sends.tobytes()


def test_step_z_accepts_fortran_ordered_inputs(sixnode):
    # the sends are added through a flat view of the next backlog, which must
    # not be a copy whatever the memory layout of Z and of the arrivals
    rng = np.random.default_rng(3)
    z = rng.uniform(0.0, 2.0, (6, 2))
    mu = rng.uniform(0.0, 1.0, (8, 2))
    arr = arrival_matrix(sixnode, [0.3, 0.7])
    ref_nxt, ref_sends = step_Z(z, arr, mu, sixnode)
    for zf, af in ((np.asfortranarray(z), np.asfortranarray(arr)),
                   (np.asfortranarray(z), np.array([0.3, 0.7]))):
        nxt, sends = step_Z(zf, af, mu, sixnode)
        assert nxt.tobytes() == ref_nxt.tobytes()
        assert sends.tobytes() == ref_sends.tobytes()


def test_step_triple_consistency(sixnode):
    rng = np.random.default_rng(9)
    Y = Z = Q = np.zeros((6, 2))
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, 2)
        mu = rng.uniform(0.0, 0.5, (8, 2))
        g = residual_matrix(sixnode, x, mu)
        Y = step_Y(Y, g, sixnode)
        Z, _ = step_Z(Z, x, mu, sixnode)
        Q = step_Q(Q, g)
        assert np.all(Y >= 0)
        assert np.all(Z >= 0)
        assert np.all(Y[~sixnode.active] == 0)
        assert np.all(Z[~sixnode.active] == 0)
        assert np.all(Q[~sixnode.active] == 0)


def test_scripted_policy_validation(relay):
    arr = np.zeros((3, 3, 1))
    mu = np.zeros((3, 2, 1))
    pol = ScriptedPolicy(arr, mu, mu)
    validate_policy(relay, pol)
    bad = arr.copy()
    bad[0, 2, 0] = 1.0  # arrival at the destination
    with pytest.raises(P.ScenarioValidationError):
        validate_policy(relay, ScriptedPolicy(bad, mu, mu))
    over = mu.copy()
    over[1, 1, 0] = 0.75  # capacity of the second link is 0.5
    with pytest.raises(P.ScenarioValidationError, match=r"^mu at slot 1: link 1 overloaded"):
        validate_policy(relay, ScriptedPolicy(arr, over, mu))
    negative = mu.copy()
    negative[2, 0, 0] = -0.25
    with pytest.raises(P.ScenarioValidationError,
                       match=r"^mu_instant at slot 2: negative rate in decision$"):
        validate_policy(relay, ScriptedPolicy(arr, mu, negative))
    with pytest.raises(P.ScenarioValidationError):
        ScriptedPolicy(np.zeros((2, 3, 1)), mu, mu)


def test_chain_depth_one_hand_computed():
    sc, pol = P.chain_example(1)
    assert sc.n_nodes == 4 and sc.n_links == 5 and sc.n_sessions == 2
    trace = run_scripted(sc, pol)
    hub_total = trace.Z[:, 0, :].sum(axis=1)
    # hand simulation: arrivals alternate a_1, b_1; the hub drains one per slot
    assert hub_total[:7].tolist() == [0.0, 0.0, 0.0, 2.0, 1.0, 2.0, 1.0]
    assert np.all(trace.Y == 0.0)


def test_chain_depth_two_hand_computed():
    sc, pol = P.chain_example(2)
    trace = run_scripted(sc, pol)
    hub_total = trace.Z[:, 0, :].sum(axis=1)
    assert hub_total[6] == 3.0
    assert float(hub_total.max()) == 3.0
    assert np.all(trace.Y == 0.0)


def test_chain_hub_peak_grows_linearly():
    for k in (1, 2, 3, 4):
        sc, pol = P.chain_example(k)
        trace = run_scripted(sc, pol)
        hub_total = trace.Z[:, 0, :].sum(axis=1)
        assert hub_total[3 * k] == k + 1.0
        assert float(hub_total.max()) == k + 1.0
        assert np.all(trace.Y == 0.0)
        # the signed queues track the physical timeline's residuals
        assert np.all(trace.Q[-1] <= trace.Z[-1] + 1e-12)


def test_chain_policy_is_feasible():
    sc, pol = P.chain_example(3)
    validate_policy(sc, pol)
    assert pol.slots == 18
    sc2, pol2 = P.chain_example(3, slots=40)
    assert pol2.slots == 40
    validate_policy(sc2, pol2)


def test_audit_queue_bounds_empty_on_compliant_history(relay):
    y = np.zeros((5, 3, 1))
    z = np.full((5, 3, 1), 0.5)
    z[:, 2, :] = 0.0
    assert audit_queue_bounds(y, z, 1.0, relay) == []


def test_audit_queue_bounds_names_the_violation(relay):
    # out_cap at node 1 is 0.5, so the limit with B = 0 is 0.5
    z = np.zeros((4, 3, 1))
    z[2, 1, 0] = 0.8
    report = audit_queue_bounds(np.zeros((4, 3, 1)), z, 0.0, relay)
    assert len(report) == 1
    slot, family, node, session, value, bound = report[0]
    assert (slot, family, node, session) == (2, "Z", 1, 0)
    assert value == 0.8 and bound == 0.5
    with pytest.raises(P.ContractError):
        audit_queue_bounds(z, z, -1.0, relay)


def test_pathwise_coupling_z_below_q_plus_bound(sixnode, singlelink):
    # along any decision stream, physical backlog stays within the signed
    # queue plus a constant: max Z <= max |Q| plus one slot of outgoing work
    for sc in (sixnode, singlelink):
        cfg = P.AlgConfig(P.default_alpha(sc.network, "queue-bound"))
        tr = P.run(sc, "new", cfg, 2000)
        b = tr.summary["observed_max_abs_q"]
        limit = 2.0 * b + float(sc.network.out_cap.max())
        assert float(tr.maxZ.max()) <= limit + 1e-9
