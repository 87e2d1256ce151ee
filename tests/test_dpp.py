import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import arrays, scenarios

import proxbp as P
from proxbp.dpp import DppConfig, dpp_slot_update


def dpp_source_rate(utility, V: float, q: float, x_max: float) -> float:
    """Maximize V*U(x) - q*x over [0, x_max] intersected with the domain.
    The scalar reference of the source phase of dpp_slot_update."""
    if q <= 0:
        return x_max
    if utility.kind == "wlog":
        # V w / x = q, open domain keeps x > 0
        return min(V * utility.weight / q, x_max)
    # wlog1p: V w / (1 + x) = q, clamped at the boundaries
    return min(max(V * utility.weight / q - 1.0, 0.0), x_max)


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
    _, y_mu = dpp_slot_update(q, sc, DppConfig(V=1.0))
    # differentials on link 0: session 0 has 5-1=4, session 1 has 2-4=-2
    assert y_mu[0, 0] == 2.0 and y_mu[0, 1] == 0.0
    # link 1 heads into the destination, so the head queue counts as zero
    assert y_mu[1, 1] == 2.0 and y_mu[1, 0] == 0.0


def test_link_idles_without_positive_differential(singlelink):
    _, y_mu = dpp_slot_update(np.zeros((2, 1)), singlelink, DppConfig(V=1.0))
    assert y_mu[0, 0] == 0.0
    q = np.zeros((2, 1))
    q[0, 0] = 0.5
    _, y_mu = dpp_slot_update(q, singlelink, DppConfig(V=1.0))
    assert y_mu[0, 0] == 1.0


def test_forbidden_session_with_largest_differential_is_skipped():
    sc = P.parse_scenario(
        "nodes 2\nlink 0 1 2.0\n"
        "session 0 0 1 wlog 1.0\nsession 1 0 1 wlog 1.0\nsession 2 0 1 wlog 1.0\n"
        "allow 0 0\nallow 0 2\n")
    q = np.zeros((2, 3))
    q[0] = [1.0, 5.0, 3.0]
    _, y_mu = dpp_slot_update(q, sc, DppConfig(V=1.0))
    assert list(y_mu[0]) == [0.0, 0.0, 2.0]


def test_link_idles_when_only_a_forbidden_differential_is_positive():
    sc = P.parse_scenario(
        "nodes 3\nlink 0 1 1.0\nlink 1 2 1.0\n"
        "session 0 0 2 wlog 1.0\nsession 1 0 2 wlog 1.0\nallow 0 0\n")
    q = np.zeros((3, 2))
    q[0] = [1.0, 5.0]
    for head in (2.0, 1.0):  # session 0's differential on link 0: -1, then 0
        q[1, 0] = head
        _, y_mu = dpp_slot_update(q, sc, DppConfig(V=1.0))
        assert not y_mu[0].any()


def test_tie_breaks_to_lowest_session_id():
    sc = P.parse_scenario(
        "nodes 2\nlink 0 1 1.0\n"
        "session 0 0 1 wlog 1.0\nsession 1 0 1 wlog 1.0\n")
    q = np.zeros((2, 2))
    q[0] = [3.0, 3.0]
    _, y_mu = dpp_slot_update(q, sc, DppConfig(V=1.0))
    assert y_mu[0, 0] == 1.0 and y_mu[0, 1] == 0.0


def test_default_rate_cap_is_source_out_capacity(sixnode):
    y_x, _ = dpp_slot_update(np.zeros((6, 2)), sixnode, DppConfig(V=50.0))
    assert list(y_x) == [2.0, 2.0]
    y_x, _ = dpp_slot_update(np.zeros((6, 2)), sixnode, DppConfig(V=50.0, x_max=0.75))
    assert list(y_x) == [0.75, 0.75]


def _advance(Y, scenario, config):
    """One DPP slot as the harness runs it: decide from the clipped queues Y,
    then step Y by the decisions' residual. Returns x, mu and the next Y."""
    x, mu = dpp_slot_update(Y, scenario, config)
    return x, mu, P.step_Y(Y, P.residual_matrix(scenario, x, mu), scenario)


def test_decision_queues_stay_nonnegative(sixnode):
    cfg = DppConfig(V=25.0)
    Y = np.zeros((6, 2))
    for _ in range(200):
        x, mu, Y = _advance(Y, sixnode, cfg)
        assert np.all(Y >= 0)
        P.validate_decision(sixnode, x, mu)


def test_higher_v_means_higher_queues(sixnode):
    masses = []
    for v in (10.0, 100.0):
        cfg = DppConfig(V=v)
        Y = np.zeros((6, 2))
        tot = 0.0
        for _ in range(800):
            *_, Y = _advance(Y, sixnode, cfg)
            tot += float(Y.sum())
        masses.append(tot)
    assert masses[1] > masses[0]


def test_config_validation():
    with pytest.raises(P.ContractError):
        DppConfig(V=0.0)
    with pytest.raises(P.ContractError):
        DppConfig(V=1.0, x_max=-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(P.ContractError, match="x_max"):
            DppConfig(V=1.0, x_max=bad)


def _dpp_slot_scalar(Q, scenario, config):
    """Scalar reference for dpp_slot_update: dpp_source_rate per source, and
    per link a scan over its allowed sessions in ascending id order that keeps
    the first strictly larger positive differential."""
    links = scenario.network.links
    caps = [sum((lk.capacity for lk in links if lk.tail == s.src), 0.0)
            if config.x_max is None else float(config.x_max) for s in scenario.sessions]
    x = np.array([dpp_source_rate(s.utility, config.V, float(Q[s.src, f]), caps[f])
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
    if draw(st.booleans()):  # else a link's head counts as zero at a nonzero destination entry
        q[~sc.active] = 0.0
    config = DppConfig(V=draw(st.sampled_from((1.0, 25.0, 500.0))),
                       x_max=draw(st.sampled_from((None, 0.75))))
    return sc, q, config


def test_subnormal_source_queue_sends_the_cap(singlelink):
    # V w / q overflows: numpy warns unless the caller ignores it
    q = np.array([[5e-324], [0.0]])
    with pytest.raises(RuntimeWarning, match="overflow"):
        dpp_slot_update(q, singlelink, DppConfig(V=1.0))
    with np.errstate(over="ignore"):
        x, _ = dpp_slot_update(q, singlelink, DppConfig(V=1.0))
    assert x.tolist() == [1.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_dpp_cases())
def test_dpp_slot_matches_scalar_reference(case):
    sc, q, config = case
    # a subnormal source queue overflows V w / q to inf, which the cap
    # clips; dpp_slot_update leaves the errstate to its caller, as run() holds one
    with np.errstate(over="ignore"):
        y_x, y_mu = dpp_slot_update(q, sc, config)
    x, mu = _dpp_slot_scalar(q, sc, config)
    assert y_x.tobytes() == x.tobytes()
    assert y_mu.tobytes() == mu.tobytes()
    # written into a row of a NaN-filled chunk buffer, as run() passes it
    rows = np.full((3, sc.n_links, sc.n_sessions), math.nan)
    row = rows[1]
    with np.errstate(over="ignore"):
        o_x, o_mu = dpp_slot_update(q, sc, config, out=row)
    assert o_mu is row
    assert o_x.tobytes() == x.tobytes()
    assert row.tobytes() == mu.tobytes()
    assert np.isnan(rows[[0, 2]]).all()


def test_nan_queue_entry_matches_scalar_reference(sixnode):
    """A NaN differential grants nothing, as in the scalar scan, wherever the
    NaN sits off the source entries (a NaN source queue has no defined rate:
    the scalar reference's min(nan, cap) depends on argument order)."""
    config = DppConfig(V=25.0)
    base = np.arange(12.0).reshape(6, 2) % 5
    base[~sixnode.active] = 0.0
    sources = set(zip(sixnode.src.tolist(), range(2)))
    for n, f in zip(*np.nonzero(sixnode.active)):
        if (n, f) in sources:
            continue
        q = base.copy()
        q[n, f] = math.nan
        y_x, y_mu = dpp_slot_update(q, sixnode, config)
        x, mu = _dpp_slot_scalar(q, sixnode, config)
        assert y_x.tobytes() == x.tobytes()
        assert y_mu.tobytes() == mu.tobytes()
