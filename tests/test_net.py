import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from strategies import arrays, scenarios

import proxbp as P


def flow_residual(scenario, f, n, y):
    """Scalar reference for residual_matrix: the signed flow-balance residual
    of session f at node n for decisions y."""
    s = scenario.sessions[f]
    if n == s.dst:
        raise P.ContractError(f"node {n} is the destination of session {f}, no flow-balance constraint")
    net = scenario.network
    tot = float(y.x[f]) if n == s.src else 0.0
    for l in net.in_links[n]:
        tot += float(y.mu[l, f])
    for l in net.out_links[n]:
        tot -= float(y.mu[l, f])
    return tot


def residual_both_forms(scenario, x, mu):
    """residual_matrix of the (F,) rate vector, checked bitwise against the
    same arrivals passed as an (N, F) arrival matrix."""
    g = P.residual_matrix(scenario, x, mu)
    g_full = P.residual_matrix(scenario, P.arrival_matrix(scenario, x), mu)
    assert g_full.tobytes() == g.tobytes()
    return g


def test_wlog_utility_values():
    u = P.Utility("wlog", 2.0)
    assert u.value(1.0) == 0.0
    assert abs(u.value(math.e) - 2.0) < 1e-12
    assert abs(u.derivative(0.5) - 4.0) < 1e-12
    assert u.open_at_zero
    with pytest.raises(P.DomainError):
        u.value(0.0)
    with pytest.raises(P.DomainError):
        u.derivative(-1.0)


def test_wlog1p_utility_values():
    u = P.Utility("wlog1p", 3.0)
    assert u.value(0.0) == 0.0
    assert abs(u.value(1.0) - 3.0 * math.log(2.0)) < 1e-12
    assert abs(u.derivative(0.0) - 3.0) < 1e-12
    assert abs(u.derivative(1.0) - 1.5) < 1e-12
    assert not u.open_at_zero
    with pytest.raises(P.DomainError):
        u.value(-1e-9)


def test_utility_rejects_bad_kind_and_weight():
    with pytest.raises(P.ScenarioValidationError):
        P.Utility("quadratic", 1.0)
    with pytest.raises(P.ScenarioValidationError):
        P.Utility("wlog", 0.0)
    with pytest.raises(P.ScenarioValidationError):
        P.Utility("wlog", -2.0)


def test_network_adjacency_and_caps(sixnode):
    net = sixnode.network
    assert net.node_count == 6
    assert len(net.links) == 8
    # node 2 receives links 2 (0->2) and 7 (1->2), emits 3 (2->3) and 5 (2->4)
    assert net.in_links[2] == (2, 7)
    assert net.out_links[2] == (3, 5)
    assert net.degrees[2] == 4
    assert net.out_cap[2] == 2.0
    assert np.all(net.caps == 1.0)


def test_incidence_signs(relay):
    a = relay.network.incidence
    assert a.shape == (3, 2)
    assert a[0, 0] == -1.0 and a[1, 0] == 1.0
    assert a[1, 1] == -1.0 and a[2, 1] == 1.0
    assert a[0, 1] == 0.0


def test_network_rejects_bad_links():
    with pytest.raises(P.ScenarioValidationError):
        P.Network(2, (P.Link(0, 0, 1.0),))
    with pytest.raises(P.ScenarioValidationError):
        P.Network(2, (P.Link(0, 5, 1.0),))
    with pytest.raises(P.ScenarioValidationError):
        P.Network(2, (P.Link(0, 1, 0.0),))
    with pytest.raises(P.ScenarioValidationError):
        P.Network(2, (P.Link(0, 1, -1.0),))


def test_scenario_validation_errors():
    net = P.Network(3, (P.Link(0, 1, 1.0), P.Link(1, 2, 1.0)))
    u = P.Utility("wlog", 1.0)
    with pytest.raises(P.ScenarioValidationError):
        P.Scenario(net, (P.Session(1, 0, 2, u),), (frozenset(), frozenset()))
    with pytest.raises(P.ScenarioValidationError):
        P.Scenario(net, (P.Session(0, 1, 1, u),), (frozenset(), frozenset()))
    with pytest.raises(P.ScenarioValidationError):
        P.Scenario(net, (P.Session(0, 0, 2, u),), (frozenset([3]), frozenset()))
    with pytest.raises(P.ScenarioValidationError):
        P.Scenario(net, (P.Session(0, 0, 2, u),), (frozenset(),))


def test_active_mask_and_sources(sixnode):
    act = sixnode.active
    assert act.shape == (6, 2)
    assert not act[5, 0] and not act[3, 1]
    assert act[5, 1] and act[3, 0]
    assert act[:, 0].sum() == 5
    assert list(sixnode.src) == [0, 2]
    assert list(sixnode.dst) == [5, 3]
    assert list(sixnode.src_out_cap) == [2.0, 2.0]


def test_residual_matrix_single_link(singlelink):
    g = residual_both_forms(singlelink, [0.7], [[0.4]])
    assert g.shape == (2, 1)
    assert abs(g[0, 0] - 0.3) < 1e-15
    assert g[1, 0] == 0.0  # destination row pinned to zero


def test_residual_matrix_relay(relay):
    g = residual_both_forms(relay, [1.0], [[1.0], [0.5]])
    assert abs(g[0, 0] - 0.0) < 1e-15
    assert abs(g[1, 0] - 0.5) < 1e-15
    assert g[2, 0] == 0.0


def test_residual_matrix_is_linear(sixnode):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x1 = rng.uniform(0, 2, 2)
        x2 = rng.uniform(0, 2, 2)
        m1 = rng.uniform(0, 1, (8, 2))
        m2 = rng.uniform(0, 1, (8, 2))
        a, b = rng.uniform(-2, 2, 2)
        lhs = residual_both_forms(sixnode, a * x1 + b * x2, a * m1 + b * m2)
        rhs = a * P.residual_matrix(sixnode, x1, m1) + b * P.residual_matrix(sixnode, x2, m2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_flow_residual_matches_matrix(sixnode):
    rng = np.random.default_rng(3)
    y = P.DecisionVector(rng.uniform(0, 2, 2), rng.uniform(0, 1, (8, 2)))
    g = residual_both_forms(sixnode, y.x, y.mu)
    for f in range(2):
        for n in range(6):
            if n == sixnode.sessions[f].dst:
                with pytest.raises(P.ContractError):
                    flow_residual(sixnode, f, n, y)
            else:
                assert abs(flow_residual(sixnode, f, n, y) - g[n, f]) < 1e-12


def test_total_utility(sixnode):
    val = P.total_utility(sixnode, [1.2, 1.8])
    assert abs(val - (math.log(1.2) + 1.5 * math.log(1.8))) < 1e-12


def test_decision_vector_is_read_only(singlelink):
    y = P.zero_decision(singlelink)
    with pytest.raises(ValueError):
        y.x[0] = 1.0
    with pytest.raises(P.ScenarioValidationError):
        P.DecisionVector(np.zeros(2), np.zeros((3, 1)))


def test_validate_decision_catches_violations(sixnode):
    ok = P.DecisionVector(np.array([0.5, 0.5]), np.full((8, 2), 0.25))
    P.validate_decision(sixnode, ok)
    with pytest.raises(P.ScenarioValidationError):
        P.validate_decision(sixnode, P.DecisionVector(np.array([-0.1, 0.5]), np.zeros((8, 2))))
    with pytest.raises(P.ScenarioValidationError):
        bad_mu = np.zeros((8, 2))
        bad_mu[0, 0] = -0.2
        P.validate_decision(sixnode, P.DecisionVector(np.array([0.1, 0.1]), bad_mu))
    with pytest.raises(P.ScenarioValidationError):
        over = np.full((8, 2), 0.6)  # every link loaded at 1.2 > 1
        P.validate_decision(sixnode, P.DecisionVector(np.array([0.1, 0.1]), over))


def test_validate_decision_forbidden_pair(relay):
    restricted = P.parse_scenario(
        "nodes 3\n"
        "link 0 1 1.0\n"
        "link 1 2 1.0\n"
        "session 0 0 2 wlog 1.0\n"
        "session 1 0 1 wlog 1.0\n"
        "allow 1 0\n")
    assert restricted.allowed[1] == frozenset([0])
    bad_mu = np.zeros((2, 2))
    bad_mu[1, 1] = 0.1
    with pytest.raises(P.ScenarioValidationError):
        P.validate_decision(restricted, P.DecisionVector(np.array([0.0, 0.0]), bad_mu))


def _slot_faults(scenario, x, mu):
    """Scalar reference for decision_faults: each slot checked on its own,
    entry by entry and then link by link."""
    faults = []
    for t in range(x.shape[0]):
        message = None
        if any(v < 0 for v in x[t]) or any(v < 0 for v in mu[t].ravel()):
            message = "negative rate in decision"
        elif any(mu[t, l, f] != 0 for l in range(scenario.n_links)
                 for f in range(scenario.n_sessions) if f not in scenario.allowed[l]):
            message = "nonzero rate on a forbidden (link, session) pair"
        else:
            for l, link in enumerate(scenario.network.links):
                load, cap = mu[t, l].sum(), np.float64(link.capacity)
                if load - cap > P.CAP_TOL:
                    message = f"link {l} overloaded: load {load!r} exceeds capacity {cap!r}"
                    break
        if message is not None:
            faults.append((t, message))
    return faults


@st.composite
def _decision_stacks(draw):
    """(scenario, x (T, F), mu (T, L, F)): feasible slots, then per slot a
    random mix of a negative source rate, a negative link rate, a nonzero
    entry at a random (link, session) pair and an overload of a random link
    by about CAP_TOL or more."""
    sc = draw(scenarios())
    n_t, n_l, n_f = draw(st.integers(1, 6)), sc.n_links, sc.n_sessions
    coarse = draw(st.booleans())
    x = arrays(draw, (n_t, n_f), (0.0, -0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    share = arrays(draw, (n_t, n_l, n_f), (0.0, -0.0, 0.25, 1.0), 0.0, 1.0, coarse)
    caps = sc.network.caps
    mu = share * sc.allow_mask * (caps[:, None] / n_f)
    codes = draw(hnp.arrays(np.int64, (n_t, 5), elements=st.integers(0, 1 << 20)))
    for t, (kind, l, f, g, d) in enumerate(codes.tolist()):
        l, f, g = l % n_l, f % n_f, g % n_f
        if kind & 1:
            x[t, f] = -0.5
        if kind & 2:
            mu[t, l, g] = -1e-12
        if kind & 4:
            mu[t, (l + d) % n_l, g] += 0.125
        if kind & 8:
            mu[t, l, f] += caps[l] + (0.5e-9, 1e-9, 2e-9, 1.0)[d % 4]
    return sc, x, mu


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_decision_stacks())
def test_decision_faults_match_the_per_slot_check(case):
    sc, x, mu = case
    faults = P.decision_faults(sc, x, mu)
    assert faults == _slot_faults(sc, x, mu)
    messages = dict(faults)
    for t in range(x.shape[0]):
        y = P.DecisionVector(x[t], mu[t])
        if t in messages:
            with pytest.raises(P.ScenarioValidationError) as err:
                P.validate_decision(sc, y)
            assert str(err.value) == messages[t]
        else:
            P.validate_decision(sc, y)


# --- scenario document format ---


def test_parse_defaults_every_session_allowed(singlelink):
    assert singlelink.allowed[0] == frozenset([0])
    text = "nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 1.0\nsession 1 1 0 wlog1p 2.0\n"
    sc = P.parse_scenario(text)
    assert sc.allowed[0] == frozenset([0, 1])


def test_parse_allow_none():
    sc = P.parse_scenario(
        "nodes 3\nlink 0 1 1.0\nlink 1 2 1.0\n"
        "session 0 0 2 wlog 1.0\nallow 0 none\n")
    assert sc.allowed[0] == frozenset()
    assert sc.allowed[1] == frozenset([0])


def test_parse_comments_and_blank_lines():
    sc = P.parse_scenario(
        "# header comment\n\nnodes 2\nlink 0 1 2.5   # inline comment\n"
        "session 0 0 1 wlog1p 0.5\n")
    assert sc.network.links[0].capacity == 2.5
    assert sc.sessions[0].utility.kind == "wlog1p"


def test_parse_error_line_numbers():
    with pytest.raises(P.ScenarioFormatError) as e:
        P.parse_scenario("nodes 2\nlink 0 one 1.0\n")
    assert e.value.lineno == 2
    with pytest.raises(P.ScenarioFormatError) as e:
        P.parse_scenario("nodes 2\nlink 0 1 1.0\nbogus 1 2\n")
    assert e.value.lineno == 3
    with pytest.raises(P.ScenarioFormatError) as e:
        P.parse_scenario("nodes 2\nlink 0 1 1.0\nsession 0 0 1 huber 1.0\n")
    assert e.value.lineno == 3
    with pytest.raises(P.ScenarioFormatError) as e:
        P.parse_scenario("nodes 2\nnodes 3\n")
    assert e.value.lineno == 2


def test_parse_missing_nodes_rejected():
    with pytest.raises(P.ScenarioValidationError):
        P.parse_scenario("link 0 1 1.0\nsession 0 0 1 wlog 1.0\n")


def test_round_trip_exact(sixnode, singlelink):
    for sc in (sixnode, singlelink):
        again = P.parse_scenario(P.serialize_scenario(sc))
        assert again.network == sc.network
        assert again.sessions == sc.sessions
        assert again.allowed == sc.allowed


def test_round_trip_with_partial_allow_sets():
    text = ("nodes 4\nlink 0 1 1.5\nlink 1 2 0.25\nlink 2 3 1.0\n"
            "session 0 0 3 wlog 1.0\nsession 1 1 3 wlog1p 2.0\n"
            "allow 0 0\nallow 1 none\n")
    sc = P.parse_scenario(text)
    assert sc.allowed == (frozenset([0]), frozenset(), frozenset([0, 1]))
    again = P.parse_scenario(P.serialize_scenario(sc))
    assert again.allowed == sc.allowed
    assert again.network == sc.network

