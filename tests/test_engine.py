import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import slot_cases

import proxbp as P
from proxbp.engine import SlotConstants, compute_weights, default_alpha, link_update, slot_update
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


def _slots(scenario, config, count):
    """The first count slots of a proximal run from zero queues, as
    (Q(t), (x, mu)(t-1), (x, mu)(t), W(t)). Q steps by the residual of each
    slot's decisions, and the next slot reads that residual, as in run()."""
    consts = SlotConstants(scenario, config)
    q = g = np.zeros((scenario.n_nodes, scenario.n_sessions))
    prev = np.zeros(scenario.n_sessions), np.zeros((scenario.n_links, scenario.n_sessions))
    for _ in range(count):
        x, mu, w = slot_update(q, g, *prev, consts)
        yield q, prev, (x, mu), w
        g = P.residual_matrix(scenario, x, mu)
        q = P.step_Q(q, g)
        prev = x, mu


def test_weights_are_queue_plus_residual(singlelink):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    (_, _, (x0, mu0), w0), (q1, (x_prev, mu_prev), _, w1) = _slots(singlelink, cfg, 2)
    # first slot: W = 0, so the source solves max log x - x^2 at 1/sqrt(2)
    assert not w0.any()
    assert abs(x0[0] - 1.0 / math.sqrt(2.0)) < 1e-12
    assert mu0[0, 0] == 0.0
    assert x_prev is x0 and mu_prev is mu0
    g0 = P.residual_matrix(singlelink, x0, mu0)
    assert np.max(np.abs(w1 - (q1 + g0))) < 1e-15
    assert w1[1, 0] == 0.0  # destination weight pinned
    assert w1.tobytes() == compute_weights(q1, g0, singlelink).tobytes()


def test_weight_identity_two_slots(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "utility-gap"))
    q_prev = np.zeros((6, 2))  # Q(-1): slot 0's weights are 0 = 2 Q(0) - Q(-1)
    for q, _, _, w in _slots(sixnode, cfg, 5):
        ident = 2.0 * q - q_prev
        ident[~sixnode.active] = 0.0
        assert np.max(np.abs(w - ident)) < 1e-12
        q_prev = q


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
    for _, _, (x, mu), _ in _slots(sc, cfg, 30):
        assert mu[2, 1] == 0.0
        P.validate_decision(sc, x, mu)


def test_singlelink_converges_to_unit_rate(singlelink):
    cfg = P.AlgConfig(default_alpha(singlelink.network, "utility-gap"))
    *_, (_, _, (x, mu), _) = _slots(singlelink, cfg, 3000)
    assert abs(x[0] - 1.0) < 1e-3
    assert abs(mu[0, 0] - 1.0) < 1e-3


def test_joint_slot_objective_optimality(singlelink):
    # after the per-slot decomposition, (x, mu) of the single-link scenario
    # jointly maximize U(x) - W0 (x - mu) - a0 ((x-xp)^2 + (mu-mup)^2) - a1 (mu-mup)^2
    # over x > 0, 0 <= mu <= 1. Verify on a 2-d grid after a few slots.
    alpha = np.array([1.0, 1.0])
    cfg = P.AlgConfig(alpha)
    *_, (_, (x_prev, mu_prev), (x, mu), w) = _slots(singlelink, cfg, 5)
    xp, mup = x_prev[0], mu_prev[0, 0]

    def joint(xv, mv):
        return (math.log(xv) - w[0, 0] * (xv - mv)
                - alpha[0] * ((xv - xp) ** 2 + (mv - mup) ** 2)
                - alpha[1] * (mv - mup) ** 2)

    best = joint(x[0], mu[0, 0])
    for xv in np.arange(0.01, 2.0, 0.01):
        for mv in np.arange(0.0, 1.0 + 1e-12, 0.01):
            assert joint(xv, mv) <= best + 1e-6


def test_state_is_deterministic(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    runs = []
    for _ in range(2):
        runs.append(np.array([x for _, _, (x, _), _ in _slots(sixnode, cfg, 50)]))
    assert np.array_equal(runs[0], runs[1])


def _scalar_slot(W, x_prev, mu_prev, scenario, config):
    """slot_update's decisions from the scalar references: solve_rate per
    source and link_update per link."""
    alpha = config.alpha
    x = np.array([solve_rate(RateProblem(s.utility, W[s.src, f], x_prev[f], alpha[s.src]))
                  for f, s in enumerate(scenario.sessions)])
    mu = np.array([link_update(l, W, alpha, mu_prev, scenario)
                   for l in range(scenario.n_links)])
    return x, mu


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=slot_cases())
def test_batched_slot_matches_scalar_reference(case):
    scenario, q, x_prev, mu_prev, config = case
    g_prev = P.residual_matrix(scenario, x_prev, mu_prev)
    y_x, y_mu, w = slot_update(q, g_prev, x_prev, mu_prev, SlotConstants(scenario, config))
    # the weights returned are the ones the decisions were computed from
    assert w.tobytes() == compute_weights(q, g_prev, scenario).tobytes()
    x, mu = _scalar_slot(w, x_prev, mu_prev, scenario, config)
    assert y_x.tobytes() == x.tobytes()
    if all(len(a) == scenario.n_sessions for a in scenario.allowed):
        assert y_mu.tobytes() == mu.tobytes()
    else:
        # a restricted row of 8 or more entries sums its clipped entries in a
        # different grouping than the scalar path, which moves only rounding
        assert np.max(np.abs(y_mu - mu)) <= 1e-12
        assert np.all(y_mu[~scenario.allow_mask] == 0.0)


def test_slot_update_rejects_non_finite_weights(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    q = np.zeros((6, 2))
    q[4, 1] = math.nan  # node 4 is no source, so only the link phase reads it
    with pytest.raises(P.ContractError, match="^weights must be finite$"):
        slot_update(q, np.zeros((6, 2)), np.zeros(2), np.zeros((8, 2)),
                    SlotConstants(sixnode, cfg))


def test_slot_update_rejects_bad_previous_rates(sixnode):
    cfg = P.AlgConfig(default_alpha(sixnode.network, "queue-bound"))
    consts = SlotConstants(sixnode, cfg)
    # a non-finite rate makes its residual, so the weights, non-finite at its source
    for bad, message in ((-0.5, "x_prev must lie in the domain closure"),
                         (math.inf, "weights must be finite"),
                         (math.nan, "weights must be finite")):
        x_prev, mu_prev = np.array([0.5, bad]), np.zeros((8, 2))
        g_prev = P.residual_matrix(sixnode, x_prev, mu_prev)
        with pytest.raises(P.ContractError, match=f"^{message}$"):
            slot_update(np.zeros((6, 2)), g_prev, x_prev, mu_prev, consts)


def test_alpha_needs_one_entry_per_node(sixnode):
    # too few entries would index past alpha's end, too many would be ignored
    for n in (2, 9):
        with pytest.raises(P.ContractError, match=f"alpha has {n} entries for 6 nodes"):
            P.run(sixnode, P.AlgConfig(np.ones(n)), 5)
        with pytest.raises(P.ContractError):
            SlotConstants(sixnode, P.AlgConfig(np.ones(n)))


def test_slot_constants_reject_an_overflowing_alpha(sixnode):
    # 2 alpha overflows to inf at the sources: rejected when the run's
    # constants are built, before any slot
    with pytest.raises(P.ContractError, match="2 alpha must be finite at every source"):
        SlotConstants(sixnode, P.AlgConfig(np.full(6, 1e308)))
    with pytest.raises(P.ContractError, match="2 alpha must be finite"):
        P.run(sixnode, P.AlgConfig(np.full(6, 1e308)), 5)


@pytest.mark.parametrize("alpha", ([3e307] * 6, [1.0, 1.0, 1.0, 1.0, 1e308, 1.0]))
def test_slot_constants_reject_an_alpha_in_the_overflow_band(sixnode, alpha):
    # 2 alpha is finite, but 8 alpha at a source (nodes 0 and 2) or a link
    # denominator 2 (alpha_tail + alpha_head) at node 4's links overflows
    band = (r"^8 alpha at every source and 2 \(alpha_tail \+ alpha_head\) at every link "
            r"must be finite$")
    with pytest.raises(P.ContractError, match=band):
        SlotConstants(sixnode, P.AlgConfig(np.array(alpha)))
