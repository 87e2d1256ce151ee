import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import slot_cases

import proxbp as P
from proxbp.engine import compute_weights, default_alpha, initial_state, link_update, slot_update
from proxbp.rates import RateProblem, solve_rate


def test_default_alpha_presets(sixnode, singlelink):
    # six-node degrees: node 0 emits 2, node 2 has degree 4, node 5 receives 2
    a_gap = default_alpha(sixnode.network, "utility-gap")
    a_bound = default_alpha(sixnode.network, "queue-bound")
    assert a_gap[2] == 2.5 and a_bound[2] == 12.5
    assert a_gap[0] == 1.5 and a_bound[0] == 4.5
    a1 = default_alpha(singlelink.network, "utility-gap")
    assert list(a1) == [1.0, 1.0]
    assert list(default_alpha(singlelink.network, "queue-bound")) == [2.0, 2.0]
    with pytest.raises(P.ContractError):
        default_alpha(singlelink.network, "fast")


def test_alg_config_validation():
    with pytest.raises(P.ContractError):
        P.AlgConfig(np.array([1.0, 0.0]))
    with pytest.raises(P.ContractError):
        P.AlgConfig(np.array([[1.0], [1.0]]))
    cfg = P.AlgConfig([2.0, 3.0])
    assert cfg.alpha.dtype == float


def test_weights_are_queue_plus_residual(singlelink):
    state = initial_state(singlelink)
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    y0, s1 = slot_update(state, singlelink, cfg)
    # first slot: W = 0, so the source solves max log x - x^2 at 1/sqrt(2)
    assert abs(y0.x[0] - 1.0 / math.sqrt(2.0)) < 1e-12
    assert y0.mu[0, 0] == 0.0
    w1 = compute_weights(s1, singlelink)
    g0 = P.residual_matrix(singlelink, y0.x, y0.mu)
    assert np.max(np.abs(w1 - (s1.Q + g0))) < 1e-15
    assert w1[1, 0] == 0.0  # destination weight pinned


def test_weight_identity_two_slots(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "utility-gap"))
    s = initial_state(sixnode)
    q_hist = [s.Q]
    for _ in range(5):
        w = compute_weights(s, sixnode)
        if s.t >= 1:
            ident = 2.0 * q_hist[-1] - q_hist[-2]
            ident[~sixnode.active] = 0.0
            assert np.max(np.abs(w - ident)) < 1e-12
        _, s = slot_update(s, sixnode, cfg)
        q_hist.append(s.Q)


def test_link_update_matches_projection(sixnode):
    rng = np.random.default_rng(8)
    alpha = default_alpha(sixnode.network, "utility-gap")
    w = rng.normal(0.0, 2.0, (6, 2))
    w[~sixnode.active] = 0.0
    mu_prev = rng.uniform(0.0, 0.5, (8, 2))
    for l, lk in enumerate(sixnode.network.links):
        col = link_update(l, w, alpha, mu_prev, sixnode)
        a = mu_prev[l] + (w[lk.tail] - w[lk.head]) / (2.0 * (alpha[lk.tail] + alpha[lk.head]))
        z, _ = P.project_sorted(P.ProjectionInstance(a, lk.capacity))
        assert np.max(np.abs(col - z)) < 1e-12
        assert col.sum() <= lk.capacity + 1e-12


def test_link_update_grid_optimality(relay):
    # the slot objective of one link decomposes per session; check the update
    # against a fine grid of feasible alternatives
    alpha = np.array([1.0, 2.0, 1.5])
    w = np.array([[3.0], [1.0], [0.0]])
    mu_prev = np.array([[0.2], [0.1]])
    col = link_update(0, w, alpha, mu_prev, relay)
    lk = relay.network.links[0]
    denom = alpha[lk.tail] + alpha[lk.head]

    def slot_value(m):
        return (w[lk.tail, 0] - w[lk.head, 0]) * m - denom * (m - mu_prev[0, 0]) ** 2

    best = slot_value(col[0])
    for m in np.arange(0.0, lk.capacity + 1e-12, 1e-3):
        assert slot_value(m) <= best + 1e-9


def test_forbidden_sessions_stay_zero():
    sc = P.parse_scenario(
        "nodes 3\nlink 0 1 1.0\nlink 1 2 1.0\nlink 0 2 1.0\n"
        "session 0 0 2 wlog 1.0\nsession 1 0 1 wlog 1.0\n"
        "allow 2 0\n")
    cfg = P.AlgConfig(default_alpha(sc.network, "utility-gap"))
    s = initial_state(sc)
    for _ in range(30):
        y, s = slot_update(s, sc, cfg)
        assert y.mu[2, 1] == 0.0
        P.validate_decision(sc, y)


def test_singlelink_converges_to_unit_rate(singlelink):
    cfg = P.AlgConfig(default_alpha(singlelink.network, "utility-gap"))
    s = initial_state(singlelink)
    x = None
    for _ in range(3000):
        y, s = slot_update(s, singlelink, cfg)
        x = y.x[0]
    assert abs(x - 1.0) < 1e-3
    assert abs(y.mu[0, 0] - 1.0) < 1e-3


def test_joint_slot_objective_optimality(singlelink):
    # after the per-slot decomposition, (x, mu) of the single-link scenario
    # jointly maximize U(x) - W0 (x - mu) - a0 ((x-xp)^2 + (mu-mup)^2) - a1 (mu-mup)^2
    # over x > 0, 0 <= mu <= 1. Verify on a 2-d grid after a few slots.
    alpha = np.array([1.0, 1.0])
    cfg = P.AlgConfig(alpha)
    s = initial_state(singlelink)
    for _ in range(4):
        y, s = slot_update(s, singlelink, cfg)
    w = compute_weights(s, singlelink)
    xp, mup = s.y_prev.x[0], s.y_prev.mu[0, 0]
    y, _ = slot_update(s, singlelink, cfg)

    def joint(xv, mv):
        return (math.log(xv) - w[0, 0] * (xv - mv)
                - alpha[0] * ((xv - xp) ** 2 + (mv - mup) ** 2)
                - alpha[1] * (mv - mup) ** 2)

    best = joint(y.x[0], y.mu[0, 0])
    for xv in np.arange(0.01, 2.0, 0.01):
        for mv in np.arange(0.0, 1.0 + 1e-12, 0.01):
            assert joint(xv, mv) <= best + 1e-6


def test_state_is_deterministic(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    runs = []
    for _ in range(2):
        s = initial_state(sixnode)
        xs = []
        for _ in range(50):
            y, s = slot_update(s, sixnode, cfg)
            xs.append(y.x.copy())
        runs.append(np.array(xs))
    assert np.array_equal(runs[0], runs[1])


def _scalar_slot(state, scenario, config):
    """slot_update's decisions from the scalar references: solve_rate per
    source and link_update per link."""
    W = compute_weights(state, scenario)
    alpha = config.alpha
    x = np.array([solve_rate(RateProblem(s.utility, W[s.src, f], state.y_prev.x[f], alpha[s.src]))
                  for f, s in enumerate(scenario.sessions)])
    mu = np.array([link_update(l, W, alpha, state.y_prev.mu, scenario)
                   for l in range(scenario.n_links)])
    return x, mu


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=slot_cases())
def test_batched_slot_matches_scalar_reference(case):
    scenario, state, config = case
    y, nxt = slot_update(state, scenario, config)
    x, mu = _scalar_slot(state, scenario, config)
    assert y.x.tobytes() == x.tobytes()
    if all(len(a) == scenario.n_sessions for a in scenario.allowed):
        assert y.mu.tobytes() == mu.tobytes()
    else:
        # a restricted row of 8 or more entries sums its clipped entries in a
        # different grouping than the scalar path, which moves only rounding
        assert np.max(np.abs(y.mu - mu)) <= 1e-12
        assert np.all(y.mu[~scenario.allow_mask] == 0.0)
    assert np.array_equal(nxt.Q, state.Q + P.residual_matrix(scenario, y.x, y.mu))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=slot_cases())
def test_state_carries_the_residual_of_its_decisions(case):
    scenario, state, config = case
    y, nxt = slot_update(state, scenario, config)
    assert nxt.g.tobytes() == P.residual_matrix(scenario, y.x, y.mu).tobytes()
    # the same state built by hand, without g and the run's constants
    bare = P.BpState(nxt.Q, nxt.y_prev, nxt.t, nxt.W)
    (y1, s1), (y2, s2) = slot_update(nxt, scenario, config), slot_update(bare, scenario, config)
    for field in ("x", "mu"):
        assert getattr(y1, field).tobytes() == getattr(y2, field).tobytes()
    for field in ("Q", "W", "g"):
        assert getattr(s1, field).tobytes() == getattr(s2, field).tobytes()


def test_carried_constants_follow_the_config(sixnode):
    # a state chain continued under another config must use that config's alpha
    gap = P.AlgConfig(default_alpha(sixnode.network, "utility-gap"))
    bound = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    _, s = slot_update(initial_state(sixnode), sixnode, gap)
    y, _ = slot_update(s, sixnode, bound)
    ref, _ = slot_update(P.BpState(s.Q, s.y_prev, s.t, s.W), sixnode, bound)
    assert y.x.tobytes() == ref.x.tobytes() and y.mu.tobytes() == ref.mu.tobytes()
    assert s.consts.config is gap


def test_slot_update_rejects_non_finite_weights(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    s = initial_state(sixnode)
    q = np.zeros((6, 2))
    q[4, 1] = math.nan  # node 4 is no source, so only the link phase reads it
    with pytest.raises(P.ContractError):
        slot_update(P.BpState(q, s.y_prev, 0), sixnode, cfg)


def test_slot_update_rejects_bad_previous_rates(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    s = initial_state(sixnode)
    for bad in (-0.5, math.inf, math.nan):
        prev = P.DecisionVector([0.5, bad], s.y_prev.mu)
        with pytest.raises(P.ContractError):
            slot_update(P.BpState(s.Q, prev, 0), sixnode, cfg)


def test_alpha_needs_one_entry_per_node(sixnode):
    # too few entries would index past alpha's end, too many would be ignored
    for n in (2, 9):
        with pytest.raises(P.ContractError, match=f"alpha has {n} entries for 6 nodes"):
            P.run(sixnode, "new", P.AlgConfig(np.ones(n)), 5)
        with pytest.raises(P.ContractError):
            slot_update(initial_state(sixnode), sixnode, P.AlgConfig(np.ones(n)))
