import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import arrival_matrix
from strategies import arrays, scenarios

import proxbp as P
from proxbp.engine import compute_weights
from proxbp.net import residual_matrix
from proxbp.queues import (ScriptedPolicy, ZSteps, audit_queue_bounds, run_scripted, step_Q,
                           step_Y, step_Z, validate_policy)


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


def test_step_z_treats_a_negative_backlog_as_empty():
    # node 2 has no out-link, so only padding ranks reach its entry: it is
    # emptied like any other negative entry, not kept
    sc = P.parse_scenario("nodes 3\nlink 0 1 1.0\nlink 0 2 1.0\nsession 0 0 1 wlog 1.0\n")
    nxt, sends = step_Z(np.array([[0.0], [0.0], [-0.5]]), [0.0], np.zeros((2, 1)), sc)
    assert nxt.tolist() == [[0.0], [0.0], [0.0]]
    assert sends.tolist() == [[0.0], [0.0]]


def test_step_z_sends_nothing_from_a_negative_backlog():
    # node 0 serves links 0 and 1 at its first two ranks from a backlog of
    # -0.5, which counts as empty: no link sends a negative amount
    sc = P.parse_scenario(
        "nodes 3\nlink 0 1 1.0\nlink 0 2 1.0\nlink 2 1 1.0\nsession 0 0 1 wlog 1.0\n")
    z = np.array([[-0.5], [0.0], [0.25]])
    mu = np.full((3, 1), 1.0)
    nxt, sends = step_Z(z, [0.125], mu, sc)
    assert sends.tolist() == [[0.0], [0.0], [0.25]]
    assert nxt.tolist() == [[0.125], [0.0], [0.0]]


def _step_Z_scalar(Z, arrivals, mu, scenario):
    """Scalar reference for step_Z: each node serves its out-links one at a
    time in ascending link order from its backlog, a negative entry counting
    as empty, then sends and arrivals join link by link."""
    network = scenario.network
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.ndim == 1:
        arrivals = arrival_matrix(scenario, arrivals)
    mu = np.asarray(mu, dtype=float)
    rem = np.maximum(np.array(Z, dtype=float), 0.0)
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


@st.composite
def _z_chunks(draw):
    """(scenario, Z, arrivals, mu) for a chunk of 1 to 5 slots: a start
    backlog with negative and -0.0 entries, prescriptions with some, and
    arrivals as (n, F) source rates or (n, N, F) matrices."""
    sc = draw(scenarios())
    n, f, l = sc.n_nodes, sc.n_sessions, sc.n_links
    slots = draw(st.integers(1, 5))
    coarse = draw(st.booleans())
    z = arrays(draw, (n, f), (-1.0, -0.0, 0.0, 0.25, 3.0), -2.0, 5.0, coarse)
    mu = arrays(draw, (slots, l, f), (-0.5, -0.0, 0.0, 0.5, 2.0), -1.0, 3.0, coarse)
    shape = (slots, f) if draw(st.booleans()) else (slots, n, f)
    arrivals = arrays(draw, shape, (0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    return sc, z, arrivals, mu


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_z_chunks())
def test_z_steps_match_a_chain_of_scalar_steps(case):
    # two calls on one ZSteps, the second from the first's last state, as
    # run steps consecutive chunks with its scratch
    sc, z, arrivals, mu = case
    steps = ZSteps(sc, 5)
    slots = len(mu)
    out = np.empty((2, slots, sc.n_nodes, sc.n_sessions))
    sends = np.empty((2,) + mu.shape)
    first = out[0]
    assert steps(z, arrivals, mu, first, sends[0]) is first
    steps(first[-1], arrivals, mu, out[1], sends[1])
    want = z
    for i in range(2 * slots):
        want, want_sends = _step_Z_scalar(want, arrivals[i % slots], mu[i % slots], sc)
        assert out[i // slots, i % slots].tobytes() == want.tobytes()
        assert sends[i // slots, i % slots].tobytes() == want_sends.tobytes()


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sc=scenarios())
def test_padded_link_tables(sc):
    # the draws include parallel links, nodes without out-links or in-links
    # and single-link networks
    net = sc.network
    n, n_l = net.node_count, len(net.links)
    out_slots, in_slots = net.out_slots, net.in_slots
    assert out_slots.shape == (max(map(len, net.out_links)), n)
    assert in_slots.shape == (max(map(len, net.in_links)), n)
    for node in range(n):
        outs = [l for l, link in enumerate(net.links) if link.tail == node]
        ins = [l for l, link in enumerate(net.links) if link.head == node]
        assert out_slots[:, node].tolist() == outs + [n_l] * (len(out_slots) - len(outs))
        # in_slots lists flat out_slots positions; the padding is one past them
        linked = np.append(out_slots.ravel(), -1).take(in_slots[:, node])
        assert linked.tolist() == ins + [-1] * (len(in_slots) - len(ins))
    assert out_slots.ravel().take(net.link_slots).tolist() == list(range(n_l))


def test_step_z_matches_scalar_reference_on_a_grid(gridgen):
    # degrees 2 to 4 and F = 20: every rank and in-rank has padding entries
    sc = P.parse_scenario(gridgen.grid_scenario(10, 20, 1))
    consts = P.SlotConstants(sc, P.AlgConfig(P.default_alpha(sc.network, "queue-bound")))
    Q = Z = g = np.zeros((sc.n_nodes, sc.n_sessions))
    x, mu = np.zeros(sc.n_sessions), np.zeros((sc.n_links, sc.n_sessions))
    for _ in range(300):
        x, mu, _ = P.slot_update(Q, g, x, mu, consts)
        g = residual_matrix(sc, x, mu)
        Q = Q + g
        nxt, sends = step_Z(Z, x, mu, sc)
        ref_nxt, ref_sends = _step_Z_scalar(Z, x, mu, sc)
        assert nxt.tobytes() == ref_nxt.tobytes()
        assert sends.tobytes() == ref_sends.tobytes()
        Z = nxt
    assert Z.any() and sends.any()


def test_step_z_without_links():
    sessions = (P.Session(0, 0, 2, P.Utility("wlog", 1.0)),
                P.Session(1, 1, 0, P.Utility("wlog1p", 1.0)))
    sc = P.Scenario(P.Network(3, ()), sessions, ())
    assert sc.network.out_slots.shape == sc.network.in_slots.shape == (0, 3)
    z = np.array([[1.0, 2.0], [0.5, 0.0], [0.0, 3.0]])
    mu = np.zeros((0, 2))
    for arrivals in ([0.25, 1.0], np.full((3, 2), 0.75)):
        nxt, sends = step_Z(z, arrivals, mu, sc)
        ref_nxt, ref_sends = _step_Z_scalar(z, arrivals, mu, sc)
        assert sends.shape == (0, 2)
        assert nxt.tobytes() == ref_nxt.tobytes()


@st.composite
def _zeroing_cases(draw):
    """(scenario, Q, Y, Z, x, arrivals, mu, x_prev, mu_prev): signed queues Q,
    backlogs Y and Z, source rates x (F,), an arrival matrix (N, F) and link
    rates mu, and decisions x_prev, mu_prev for the weights."""
    sc = draw(scenarios())
    n, f, l = sc.n_nodes, sc.n_sessions, sc.n_links
    coarse = draw(st.booleans())
    q = arrays(draw, (n, f), (-2.0, -0.0, 0.0, 1.5), -5.0, 5.0, coarse)
    y, z = (arrays(draw, (n, f), (0.0, 0.5, 3.0), 0.0, 5.0, coarse) for _ in range(2))
    x = arrays(draw, (f,), (0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    arrivals = arrays(draw, (n, f), (0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    mu = arrays(draw, (l, f), (0.0, 0.25, 1.0), 0.0, 3.0, coarse)
    x_prev = arrays(draw, (f,), (0.0, 1.0), 0.0, 2.0, coarse)
    mu_prev = arrays(draw, (l, f), (0.0, 0.5), 0.0, 2.0, coarse)
    return sc, q, y, z, x, arrivals, mu, x_prev, mu_prev


def _mask_zeroed(scenario, m):
    """m with its destination entries set to 0.0 through the boolean mask
    ~active, the zeroing that Scenario.dst_entries replaced."""
    m[~scenario.active] = 0.0
    return m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_zeroing_cases())
def test_flat_destination_zeroing_matches_the_mask(case):
    sc, q, y, z, x, arrivals, mu, x_prev, mu_prev = case
    src = sc.src_entries
    assert sorted(sc.dst_entries.tolist()) == np.flatnonzero(~sc.active).tolist()
    # each kernel against the arithmetic it replaced, zeroed through the mask,
    # on C-ordered inputs; Fortran-ordered inputs must give the same bits
    g_vec = sc.network.incidence @ mu
    g_vec.put(src, g_vec.take(src) + x)
    g_vec = _mask_zeroed(sc, g_vec)
    g_mat = _mask_zeroed(sc, sc.network.incidence @ mu + arrivals)
    g_prev = sc.network.incidence @ mu_prev
    g_prev.put(src, g_prev.take(src) + x_prev)
    w = _mask_zeroed(sc, q + _mask_zeroed(sc, g_prev))
    for order in ("C", "F"):
        q_o, y_o, z_o, arr_o, mu_o = (np.asarray(a, order=order)
                                      for a in (q, y, z, arrivals, mu))
        assert residual_matrix(sc, x, mu_o).tobytes() == g_vec.tobytes()
        assert residual_matrix(sc, arr_o, mu_o).tobytes() == g_mat.tobytes()
        g_prev_o = residual_matrix(sc, x_prev, np.asarray(mu_prev, order=order))
        assert compute_weights(q_o, g_prev_o, sc).tobytes() == w.tobytes()
        for g in (g_vec, g_mat):
            want = _mask_zeroed(sc, np.maximum(y + g, 0.0))
            assert step_Y(y_o, g, sc).tobytes() == want.tobytes()
        for arr in (x, arr_o):
            nxt, sends = step_Z(z_o, arr, mu_o, sc)
            ref_nxt, ref_sends = _step_Z_scalar(z, arr, mu, sc)
            assert nxt.tobytes() == ref_nxt.tobytes()
            assert sends.tobytes() == ref_sends.tobytes()


SPECIAL = (-0.0, 0.0, 1.5, -2.0, math.nan, math.inf, -math.inf)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), sc=scenarios(), slots=st.integers(1, 3))
def test_step_y_into_buffer_rows_matches_the_clipped_rule(data, sc, slots):
    # a chain of out= steps into buffer rows, as run() passes them, gives
    # the states of a chain of allocating steps and of the masked rule bit
    # for bit, on signed zeros, NaN and infinities too
    shape = (sc.n_nodes, sc.n_sessions)
    values = st.sampled_from(SPECIAL) | st.floats(-5.0, 5.0)
    y = data.draw(hnp.arrays(np.float64, shape, elements=values))
    g = data.draw(hnp.arrays(np.float64, (slots,) + shape, elements=values))
    chain = np.full((slots + 1,) + shape, math.nan)
    with np.errstate(invalid="ignore"):  # inf + -inf
        prev, new, want = y, y, y
        for row, g_t in zip(chain, g):
            assert step_Y(prev, g_t, sc, out=row) is row
            new = step_Y(new, g_t, sc)
            want = _mask_zeroed(sc, np.maximum(want + g_t, 0.0))
            assert row.tobytes() == new.tobytes() == want.tobytes()
            prev = row
    assert np.isnan(chain[-1]).all()


def test_step_y_steps_one_slot(sixnode):
    # its result takes Y's shape, so a stack of residuals fails to broadcast
    # instead of giving a stack with only the first row's destinations zeroed
    with pytest.raises(ValueError, match="broadcast"):
        step_Y(np.zeros((6, 2)), np.ones((3, 6, 2)), sixnode)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.tuples(st.integers(1, 30), st.integers(1, 4),
                                       st.integers(1, 4)))
def test_step_q_chain_is_the_running_sum_of_residuals(data, shape):
    g = arrays(data.draw, shape, (0.0, -0.0, 1.0, -2.5), -1e6, 1e6, data.draw(st.booleans()))
    Q = np.zeros(shape[1:])
    chain = []
    for row in g:
        Q = step_Q(Q, row)
        chain.append(Q)
    # the sum is seeded with Q(0) = 0 as the chain is, so a slot-0 residual
    # of -0.0 sums to +0.0 on both sides
    want = np.cumsum(np.concatenate((np.zeros((1,) + shape[1:]), g)), axis=0)[1:]
    assert np.array(chain).tobytes() == want.tobytes()


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
    with pytest.raises(P.ScenarioValidationError, match=r"^mu at slot 1: link 1 overloaded: "
                       r"load 0\.75 exceeds capacity 0\.5$"):
        validate_policy(relay, ScriptedPolicy(arr, over, mu))
    negative = mu.copy()
    negative[2, 0, 0] = -0.25
    with pytest.raises(P.ScenarioValidationError,
                       match=r"^mu_instant at slot 2: negative rate in decision$"):
        validate_policy(relay, ScriptedPolicy(arr, mu, negative))
    with pytest.raises(P.ScenarioValidationError):
        ScriptedPolicy(np.zeros((2, 3, 1)), mu, mu)


def test_scripted_policy_rejects_a_non_finite_arrival(relay):
    # a NaN arrival would otherwise replay into NaN queues without an error
    mu = np.zeros((3, 2, 1))
    for bad in (math.nan, math.inf):
        arr = np.zeros((3, 3, 1))
        arr[1, 0, 0] = bad
        pol = ScriptedPolicy(arr, mu, mu)
        for check in (validate_policy, run_scripted):
            with pytest.raises(P.ScenarioValidationError,
                               match="^exogenous arrivals must be finite and nonnegative$"):
                check(relay, pol)


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


def test_run_scripted_replays_an_empty_policy(sixnode):
    empty = np.zeros((0, 6, 2)), np.zeros((0, 8, 2)), np.zeros((0, 8, 2))
    tr = run_scripted(sixnode, ScriptedPolicy(*empty))
    for hist in (tr.Y, tr.Z, tr.Q):
        assert hist.tolist() == np.zeros((1, 6, 2)).tolist()


def test_audit_queue_bounds_empty_on_compliant_history(relay):
    # the (N, F) peaks of a compliant history
    y = np.zeros((3, 1))
    z = np.array([[0.5], [0.5], [0.0]])
    assert audit_queue_bounds(y, z, 1.0, relay, 10) == []


def test_audit_queue_bounds_names_the_violation(relay):
    # out_cap at node 1 is 0.5, so the limit with B = 0 is 0.5
    z = np.zeros((3, 1))
    z[1, 0] = 0.8
    assert audit_queue_bounds(np.zeros((3, 1)), z, 0.0, relay, 10) == [("Z", 1, 0, 0.8, 0.5)]
    with pytest.raises(P.ContractError):
        audit_queue_bounds(z, z, -1.0, relay, 10)
    # a (T, N, F) history is not a peak
    with pytest.raises(P.ContractError, match=r"peak_Y must be \(N, F\)"):
        audit_queue_bounds(np.zeros((4, 3, 1)), z, 1.0, relay, 10)


@pytest.mark.parametrize("slots", (1, 1000))
def test_audit_queue_bounds_allows_the_rounding_of_its_recursions(relay, slots):
    # B = 1 gives the bounds 3, 2.5 and 2 at nodes 0, 1 and 2 (out_cap 1,
    # 0.5 and 0); a peak may exceed them by T (L + N + 2) eps times the
    # largest, 7 T eps 3, and by no more
    slack = slots * 7 * np.finfo(float).eps * 3.0
    for n, bound in ((1, 2.5), (2, 2.0)):
        edge = np.zeros((3, 1))
        edge[n, 0] = bound + slack
        assert audit_queue_bounds(edge, edge, 1.0, relay, slots) == []
        edge[n, 0] = np.nextafter(bound + slack, np.inf)
        assert audit_queue_bounds(edge, np.zeros((3, 1)), 1.0, relay, slots) == [
            ("Y", n, 0, edge[n, 0], bound)]


def test_pathwise_coupling_z_below_q_plus_bound(sixnode, singlelink):
    # along any decision stream, physical backlog stays within the signed
    # queue plus a constant: max Z <= max |Q| plus one slot of outgoing work
    for sc in (sixnode, singlelink):
        cfg = P.AlgConfig(P.default_alpha(sc.network, "queue-bound"))
        tr = P.run(sc, cfg, 2000)
        b = tr.summary["observed_max_abs_q"]
        limit = 2.0 * b + float(sc.network.out_cap.max())
        # audit_queue_bounds' slack: the rounding of 2000 slots of the recursions
        slack = 2000 * (sc.n_links + sc.n_nodes + 2) * np.finfo(float).eps * limit
        assert float(tr.maxZ.max()) <= limit + slack
