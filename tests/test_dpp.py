import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import arrays, scenarios

import proxbp as P
from proxbp.dpp import (DppConfig, dpp_initial_state, dpp_slot_update, dpp_source_rate, dpp_step,
                        rate_caps)


def test_source_rate_rules():
    wlog = P.Utility("wlog", 1.0)
    wlog1p = P.Utility("wlog1p", 1.0)
    # empty or negative queue: send the cap
    assert dpp_source_rate(wlog, 10.0, 0.0, 5.0) == 5.0
    assert dpp_source_rate(wlog, 10.0, -1.0, 5.0) == 5.0
    # V w / q below the cap picks the interior point
    assert dpp_source_rate(wlog, 10.0, 4.0, 5.0) == 2.5
    assert dpp_source_rate(wlog, 10.0, 1.0, 5.0) == 5.0
    # log1p shifts by one and clamps at zero
    assert dpp_source_rate(wlog1p, 10.0, 4.0, 5.0) == 1.5
    assert dpp_source_rate(wlog1p, 10.0, 20.0, 5.0) == 0.0


def test_link_grant_goes_to_largest_differential():
    sc = P.parse_scenario(
        "nodes 3\nlink 0 1 2.0\nlink 1 2 2.0\n"
        "session 0 0 2 wlog 1.0\nsession 1 0 2 wlog 1.0\n")
    q = np.zeros((3, 2))
    q[0] = [5.0, 2.0]
    q[1] = [1.0, 4.0]
    y = dpp_slot_update(q, sc, DppConfig(V=1.0))
    # differentials on link 0: session 0 has 5-1=4, session 1 has 2-4=-2
    assert y.mu[0, 0] == 2.0 and y.mu[0, 1] == 0.0
    # link 1 heads into the destination, so the head queue counts as zero
    assert y.mu[1, 1] == 2.0 and y.mu[1, 0] == 0.0


def test_link_idles_without_positive_differential(singlelink):
    y = dpp_slot_update(np.zeros((2, 1)), singlelink, DppConfig(V=1.0))
    assert y.mu[0, 0] == 0.0
    q = np.zeros((2, 1))
    q[0, 0] = 0.5
    y = dpp_slot_update(q, singlelink, DppConfig(V=1.0))
    assert y.mu[0, 0] == 1.0


def test_tie_breaks_to_lowest_session_id():
    sc = P.parse_scenario(
        "nodes 2\nlink 0 1 1.0\n"
        "session 0 0 1 wlog 1.0\nsession 1 0 1 wlog 1.0\n")
    q = np.zeros((2, 2))
    q[0] = [3.0, 3.0]
    y = dpp_slot_update(q, sc, DppConfig(V=1.0))
    assert y.mu[0, 0] == 1.0 and y.mu[0, 1] == 0.0


def test_default_rate_cap_is_source_out_capacity(sixnode):
    y = dpp_slot_update(np.zeros((6, 2)), sixnode, DppConfig(V=50.0))
    assert list(y.x) == [2.0, 2.0]
    y = dpp_slot_update(np.zeros((6, 2)), sixnode, DppConfig(V=50.0, x_max=0.75))
    assert list(y.x) == [0.75, 0.75]


def test_decision_queues_stay_nonnegative(sixnode):
    cfg = DppConfig(V=25.0)
    s = dpp_initial_state(sixnode)
    for _ in range(200):
        y, s = dpp_step(s, sixnode, cfg)
        assert np.all(s.Q >= 0)
        P.validate_decision(sixnode, y)


def test_higher_v_means_higher_queues(sixnode):
    masses = []
    for v in (10.0, 100.0):
        cfg = DppConfig(V=v)
        s = dpp_initial_state(sixnode)
        tot = 0.0
        for _ in range(800):
            _, s = dpp_step(s, sixnode, cfg)
            tot += float(s.Q.sum())
        masses.append(tot)
    assert masses[1] > masses[0]


def test_config_validation():
    with pytest.raises(P.ContractError):
        DppConfig(V=0.0)
    with pytest.raises(P.ContractError):
        DppConfig(V=1.0, x_max=-2.0)


def _dpp_slot_scalar(Q, scenario, config):
    """Scalar reference for dpp_slot_update: dpp_source_rate per source, and
    per link a scan over its allowed sessions in ascending id order that keeps
    the first strictly larger positive differential."""
    caps = rate_caps(scenario, config)
    x = np.array([dpp_source_rate(s.utility, config.V, float(Q[s.src, f]), float(caps[f]))
                  for f, s in enumerate(scenario.sessions)])
    mu = np.zeros((scenario.n_links, scenario.n_sessions))
    for l, lk in enumerate(scenario.network.links):
        best_f = -1
        best_diff = 0.0
        for f in sorted(scenario.allowed[l]):
            diff = Q[lk.tail, f] - (Q[lk.head, f] if lk.head != scenario.sessions[f].dst else 0.0)
            if diff > best_diff:
                best_diff = diff
                best_f = f
        if best_f >= 0:
            mu[l, best_f] = lk.capacity
    return x, mu


@st.composite
def _dpp_cases(draw):
    sc = draw(scenarios())
    coarse = draw(st.booleans())
    q = arrays(draw, (sc.n_nodes, sc.n_sessions), (0.0, 0.5, 1.0, 3.0), 0.0, 10.0, coarse)
    q[~sc.active] = 0.0
    config = DppConfig(V=draw(st.sampled_from((1.0, 25.0, 500.0))),
                       x_max=draw(st.sampled_from((None, 0.75))))
    return sc, q, config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_dpp_cases())
def test_dpp_slot_matches_scalar_reference(case):
    sc, q, config = case
    y = dpp_slot_update(q, sc, config)
    x, mu = _dpp_slot_scalar(q, sc, config)
    assert y.x.tobytes() == x.tobytes()
    assert y.mu.tobytes() == mu.tobytes()
