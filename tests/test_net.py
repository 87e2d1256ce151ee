import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import allow_sets, arrival_matrix
from strategies import arrays, scenarios

import proxbp as P

EPS = float(np.finfo(float).eps)


def flow_residual(scenario, f, n, x, mu):
    """Scalar reference for residual_matrix: the signed flow-balance residual
    of session f at node n for the decisions x, mu."""
    s = scenario.sessions[f]
    if n == s.dst:
        raise P.ContractError(f"node {n} is the destination of session {f}, no flow-balance constraint")
    net = scenario.network
    tot = float(x[f]) if n == s.src else 0.0
    for l in net.in_links[n]:
        tot += float(mu[l, f])
    for l in net.out_links[n]:
        tot -= float(mu[l, f])
    return tot


def residual_both_forms(scenario, x, mu):
    """residual_matrix of the (F,) rate vector, checked bitwise against the
    same arrivals passed as an (N, F) arrival matrix."""
    g = P.residual_matrix(scenario, x, mu)
    g_full = P.residual_matrix(scenario, arrival_matrix(scenario, x), mu)
    assert g_full.tobytes() == g.tobytes()
    return g


def test_wlog_utility_values():
    u = P.Utility("wlog", 2.0)
    assert u.value(1.0) == 0.0
    assert abs(u.value(math.e) - 2.0) < 1e-12
    with pytest.raises(P.DomainError):
        u.value(0.0)


def test_wlog1p_utility_values():
    u = P.Utility("wlog1p", 3.0)
    assert u.value(0.0) == 0.0
    assert abs(u.value(1.0) - 3.0 * math.log(2.0)) < 1e-12
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


def test_a_scenario_needs_a_session():
    # with no session there is no rate to simulate and nothing to optimize
    with pytest.raises(P.ScenarioValidationError, match="^scenario has no session$"):
        P.parse_scenario("nodes 2\nlink 0 1 1.0\n")
    with pytest.raises(P.ScenarioValidationError, match="^scenario has no session$"):
        P.Scenario(P.Network(2, (P.Link(0, 1, 1.0),)), (), (frozenset(),))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sc=scenarios())
def test_head_dst_entries_match_a_scan_of_the_links(sc):
    want = [l * sc.n_sessions + f for l, link in enumerate(sc.network.links)
            for f, s in enumerate(sc.sessions) if link.head == s.dst]
    assert sc.head_dst_entries.tolist() == want


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


@st.composite
def _residual_cases(draw):
    sc = draw(scenarios())
    coarse = draw(st.booleans())
    x = arrays(draw, (sc.n_sessions,), (0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    mu = arrays(draw, (sc.n_links, sc.n_sessions), (0.0, 0.25, 1.0), 0.0, 3.0, coarse)
    return sc, x, mu


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_residual_cases())
def test_residual_matrix_into_out_matches_the_allocating_call(case):
    sc, x, mu = case
    for arrivals in (x, arrival_matrix(sc, x)):
        want = P.residual_matrix(sc, arrivals, mu)
        # a row of a NaN-filled chunk buffer, as run() passes it
        rows = np.full((3,) + want.shape, math.nan)
        row = rows[1]
        assert P.residual_matrix(sc, arrivals, mu, out=row) is row
        assert row.tobytes() == want.tobytes()
        assert np.isnan(rows[[0, 2]]).all()


def test_residual_matrix_ignores_the_memory_layout(gridgen):
    # the product of the incidence matrix and mu sums in an order that
    # depends on mu's layout, so residual_matrix reads mu in C order
    sc = P.parse_scenario(gridgen.grid_scenario(10, 20, 1))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, sc.n_sessions)
        mu = rng.uniform(0.0, 1.0, (sc.n_links, sc.n_sessions))
        g = P.residual_matrix(sc, x, mu)
        assert P.residual_matrix(sc, x, np.asfortranarray(mu)).tobytes() == g.tobytes()


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
    x, mu = rng.uniform(0, 2, 2), rng.uniform(0, 1, (8, 2))
    g = residual_both_forms(sixnode, x, mu)
    for f in range(2):
        for n in range(6):
            if n == sixnode.sessions[f].dst:
                with pytest.raises(P.ContractError):
                    flow_residual(sixnode, f, n, x, mu)
            else:
                assert abs(flow_residual(sixnode, f, n, x, mu) - g[n, f]) < 1e-12


def test_total_utility(sixnode):
    val = P.total_utility(sixnode, [1.2, 1.8])
    assert abs(val - (math.log(1.2) + 1.5 * math.log(1.8))) < 1e-12


@st.composite
def _rate_matrices(draw):
    """(scenario, x (T, F)) with every entry in its session's domain: wlog
    rates positive, wlog1p rates nonnegative, zero common."""
    sc = draw(scenarios(allow=("full",)))
    t = draw(st.integers(1, 6))
    x = arrays(draw, (t, sc.n_sessions), (0.0, 1e-300, 0.5, 1.0, 7.0), 0.0, 1e6,
               draw(st.booleans()))
    floor = np.where(sc.utility_shift == 0.0, 5e-324, 0.0)  # wlog rates are positive
    return sc, np.maximum(x, floor)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_rate_matrices())
def test_total_utility_rows_are_sums_of_utility_values(case):
    sc, x = case
    expect = np.array([sum(s.utility.value(v) for s, v in zip(sc.sessions, row))
                       for row in x.tolist()])
    assert P.total_utility(sc, x).tobytes() == expect.tobytes()
    for row, want in zip(x, expect.tolist()):  # an (F,) vector is one row, a float
        got = P.total_utility(sc, row)
        assert type(got) is float and repr(got) == repr(want)


def test_total_utility_checks_every_row(sixnode):
    x = np.ones((5, 2))
    x[3, 1] = 0.0  # wlog is undefined at 0
    with pytest.raises(P.DomainError):
        P.total_utility(sixnode, x)
    wlog1p = P.parse_scenario("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog1p 1.0\n")
    assert P.total_utility(wlog1p, np.zeros((3, 1))).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(P.DomainError):
        P.total_utility(wlog1p, np.array([[0.0], [math.nan], [-1e-300]]))


def test_total_utility_of_a_vector_raises_the_utility_value_error(sixnode):
    wlog1p = P.parse_scenario("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog1p 1.0\n")
    for sc, x in ((sixnode, [1.0, 0.0]), (sixnode, [-2.5, -1.0]), (wlog1p, [-1e-300])):
        with pytest.raises(P.DomainError) as want:
            sum(s.utility.value(v) for s, v in zip(sc.sessions, x))
        with pytest.raises(P.DomainError) as got:
            P.total_utility(sc, x)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "wlog1p utility undefined at x=-1e-300"


def test_validate_decision_catches_violations(sixnode):
    P.validate_decision(sixnode, np.array([0.5, 0.5]), np.full((8, 2), 0.25))
    P.validate_decision(sixnode, [0.5, 0.5], np.full((8, 2), 0.25).tolist())  # array-likes
    mismatched = [
        (np.zeros(2), np.zeros((8, 3))),  # x and mu disagree on F
        (np.zeros(3), np.zeros((8, 3))),  # they agree, but the scenario has F = 2
        (np.zeros(2), np.zeros((7, 2))),  # one link short
        (np.zeros((1, 2)), np.zeros((8, 2))),
        (np.zeros(2), np.zeros(16)),
    ]
    for x, mu in mismatched:
        with pytest.raises(P.ScenarioValidationError,
                           match="^decision shape does not match scenario$"):
            P.validate_decision(sixnode, x, mu)
    with pytest.raises(P.ScenarioValidationError):
        P.validate_decision(sixnode, np.array([-0.1, 0.5]), np.zeros((8, 2)))
    with pytest.raises(P.ScenarioValidationError):
        bad_mu = np.zeros((8, 2))
        bad_mu[0, 0] = -0.2
        P.validate_decision(sixnode, np.array([0.1, 0.1]), bad_mu)
    with pytest.raises(P.ScenarioValidationError,
                       match=r"^link 0 overloaded: load 1\.2 exceeds capacity 1\.0$"):
        over = np.full((8, 2), 0.6)  # every link loaded at 1.2 > 1
        P.validate_decision(sixnode, np.array([0.1, 0.1]), over)
    # a load over its capacity by the rounding of an F-term sum, 2 F eps
    # cap, passes, the next float above fails: two ulps of 1e-9 and three
    tiny = P.parse_scenario("nodes 2\nlink 0 1 1e-9\nsession 0 0 1 wlog 1.0\n")
    edge = _capacity_edge(1e-9, 2 * EPS * 1e-9)
    assert edge == np.nextafter(np.nextafter(1e-9, 1.0), 1.0)
    P.validate_decision(tiny, np.zeros(1), np.array([[edge]]))
    with pytest.raises(P.ScenarioValidationError, match="^link 0 overloaded"):
        P.validate_decision(tiny, np.zeros(1), np.array([[np.nextafter(edge, 1.0)]]))


def _capacity_edge(cap, limit):
    """The largest float load whose excess over cap, load - cap, is at most limit."""
    load = cap + limit
    while load - cap > limit:
        load = np.nextafter(load, -math.inf)
    while np.nextafter(load, math.inf) - cap <= limit:
        load = np.nextafter(load, math.inf)
    return float(load)


def _load_limits(scenario, n_t, scale):
    """(T, L) excess over capacity that decision_faults allows: 2 F eps cap
    without scale, 4 F^2 eps scale with it."""
    n_f = scenario.n_sessions
    if scale is None:
        return np.tile(2 * n_f * EPS * scenario.network.caps, (n_t, 1))
    return 4 * n_f * n_f * EPS * scale


def test_a_nan_rate_is_a_fault(sixnode):
    # NaN fails every comparison, so a check for negative rates alone and the
    # load test both pass it
    mu = np.full((8, 2), 0.25)
    nan_mu = mu.copy()
    nan_mu[0, 0] = math.nan
    negative_too = nan_mu.copy()
    negative_too[1, 1] = -0.25
    for x, m in (([0.5, math.nan], mu), ([0.5, 0.5], nan_mu), ([0.5, math.nan], nan_mu),
                 ([-0.5, 0.5], negative_too)):
        assert P.decision_faults(sixnode, np.array([x]), m[None]) == [(0, "NaN rate in decision")]
        with pytest.raises(P.ScenarioValidationError, match="^NaN rate in decision$"):
            P.validate_decision(sixnode, x, m)


def test_an_infinite_rate_is_a_fault(sixnode):
    # +inf passes x >= 0, and no load test reads x
    mu = np.full((8, 2), 0.25)
    inf_mu = mu.copy()
    inf_mu[0, 0] = math.inf
    negative_too = inf_mu.copy()
    negative_too[1, 1] = -0.25
    for x, m in (([math.inf, 0.5], np.zeros((8, 2))), ([0.5, 0.5], inf_mu),
                 ([0.5, -math.inf], mu), ([0.5, 0.5], -inf_mu), ([0.5, 0.5], negative_too)):
        assert P.decision_faults(sixnode, np.array([x]), m[None]) == [
            (0, "infinite rate in decision")]
        with pytest.raises(P.ScenarioValidationError, match="^infinite rate in decision$"):
            P.validate_decision(sixnode, x, m)
    # a NaN is reported first
    assert P.decision_faults(sixnode, [[math.inf, math.nan]], mu[None]) == [
        (0, "NaN rate in decision")]


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
        P.validate_decision(restricted, np.array([0.0, 0.0]), bad_mu)


def _slot_faults(scenario, x, mu, scale=None):
    """Scalar reference for decision_faults: each slot checked on its own,
    entry by entry and then link by link."""
    limits = _load_limits(scenario, x.shape[0], scale)
    faults = []
    for t in range(x.shape[0]):
        message = None
        rates = list(x[t]) + list(mu[t].ravel())
        if any(math.isnan(v) for v in rates):
            message = "NaN rate in decision"
        elif any(math.isinf(v) for v in rates):
            message = "infinite rate in decision"
        elif any(v < 0 for v in rates):
            message = "negative rate in decision"
        elif any(mu[t, l, f] != 0 for l in range(scenario.n_links)
                 for f in range(scenario.n_sessions) if f not in scenario.allowed[l]):
            message = "nonzero rate on a forbidden (link, session) pair"
        else:
            for l, link in enumerate(scenario.network.links):
                load, cap = float(mu[t, l].sum()), float(link.capacity)
                if load - cap > limits[t, l]:
                    message = f"link {l} overloaded: load {load!r} exceeds capacity {cap!r}"
                    break
        if message is not None:
            faults.append((t, message))
    return faults


@st.composite
def _decision_stacks(draw):
    """(scenario, x (T, F), mu (T, L, F), scale (T, L) or None): feasible
    slots, then per slot a random mix of a negative source rate, a negative
    link rate, a nonzero entry at a random (link, session) pair, an overload
    of a random link by half, once or twice decision_faults' limit or by 1,
    a NaN source or link rate and a +inf or -inf source or link rate."""
    sc = draw(scenarios())
    n_t, n_l, n_f = draw(st.integers(1, 6)), sc.n_links, sc.n_sessions
    coarse = draw(st.booleans())
    x = arrays(draw, (n_t, n_f), (0.0, -0.0, 0.5, 1.0), 0.0, 2.0, coarse)
    share = arrays(draw, (n_t, n_l, n_f), (0.0, -0.0, 0.25, 1.0), 0.0, 1.0, coarse)
    caps = sc.network.caps
    mu = share * sc.allow_mask * (caps[:, None] / n_f)
    scale = None
    if draw(st.booleans()):  # as for projected rows: a scale of cap_l or more
        scale = caps * arrays(draw, (n_t, n_l), (1.0, 1e3, 1e6), 1.0, 1e6, coarse)
    limits = _load_limits(sc, n_t, scale)
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
            mu[t, l, f] += caps[l] + (0.5 * limits[t, l], limits[t, l], 2 * limits[t, l],
                                      1.0)[d % 4]
        if kind & 16:
            if d & 4:
                x[t, f] = math.nan
            else:
                mu[t, l, g] = math.nan
        if kind & 32:
            inf = math.inf if d & 16 else -math.inf
            if d & 32:
                x[t, g] = inf
            else:
                mu[t, (l + 1) % n_l, f] = inf
    return sc, x, mu, scale


def _screen_edge(cap):
    """(scenario, x, mu, None) at the edge of decision_faults' load screen:
    F = 20 sessions share one link of capacity cap, and the four slots load
    it, by numpy's pairwise sum, with the largest load the check passes, the
    next float above it, a NaN entry and an inf entry. Each of the first two
    rows is the first draw whose BLAS sum falls below its pairwise sum, which
    a screen without slack reads as a lighter load."""
    f = 20
    sc = P.parse_scenario(f"nodes 2\nlink 0 1 {cap!r}\n"
                          + "".join(f"session {i} 0 1 wlog 1.0\n" for i in range(f)))
    ones = np.ones(f)
    rows = []
    edge = _capacity_edge(cap, 2 * f * EPS * cap)
    for load in (edge, np.nextafter(edge, math.inf)):
        for seed in range(1000):
            row = np.random.default_rng(seed).uniform(0.5, 1.0, f)
            row *= 0.9 * load / row[:-1].sum()
            row[-1] = 0.0
            # numpy adds the last entry last, and this difference is exact
            row[-1] = load - row.sum()
            if row.sum() == load and (np.stack([row] * 4) @ ones)[0] < load:
                break
        rows.append(row)
    rows += [rows[0].copy(), rows[0].copy()]
    rows[2][3], rows[3][3] = math.nan, math.inf
    return sc, np.zeros((4, f)), np.array(rows)[:, None, :], None


def test_screen_passes_loads_of_exactly_the_capacity(gridgen, monkeypatch):
    # every DPP grant loads its link with exactly its capacity: the load
    # screen must pass such slots without the per-slot sums, as the 2F eps
    # limit does, on the 10x10/20 grid (F = 20) and on one link of F = 1
    grid = P.parse_scenario(gridgen.grid_scenario(10, 20, 1))
    one = P.parse_scenario("nodes 2\nlink 0 1 0.7\nsession 0 0 1 wlog 1.0\n")
    for sc in (grid, one):
        assert sc.forbidden_entries.size == 0  # cached before the spy
    real = np.flatnonzero
    flagged = []

    def spy(a):
        flagged.append(int(np.count_nonzero(a)))
        return real(a)

    monkeypatch.setattr(np, "flatnonzero", spy)
    for sc in (grid, one):
        n_l, n_f = sc.n_links, sc.n_sessions
        mu = np.zeros((50, n_l, n_f))
        who = np.random.default_rng(0).integers(0, n_f, (50, n_l))
        np.put_along_axis(mu, who[..., None], sc.network.caps[None, :, None], axis=2)
        flagged.clear()
        assert P.decision_faults(sc, np.ones((50, n_f)), mu) == []
        assert flagged == [0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_decision_stacks())
@example(case=_screen_edge(0.5))
@example(case=_screen_edge(1e12))
def test_decision_faults_match_the_per_slot_check(case):
    sc, x, mu, scale = case
    faults = P.decision_faults(sc, x, mu, scale)
    assert faults == _slot_faults(sc, x, mu, scale)
    if scale is not None:
        return  # validate_decision checks rates it did not project
    messages = dict(faults)
    for t in range(x.shape[0]):
        if t in messages:
            with pytest.raises(P.ScenarioValidationError) as err:
                P.validate_decision(sc, x[t], mu[t])
            assert str(err.value) == messages[t]
        else:
            P.validate_decision(sc, x[t], mu[t])


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


@pytest.mark.parametrize("lines, message", [
    ("allow 3 0", "line 4: allow references missing link 3"),
    ("allow -1 none", "line 4: allow references missing link -1"),
    ("allow 0 4", "line 4: allow names missing session 4"),
    ("allow 0 0\nallow 0 1", "line 5: allow names missing session 1"),
    ("allow 0 0\nallow 0 none", "line 5: allow 0 none conflicts with earlier allow lines"),
    ("allow 0 none\nallow 0 0", "line 5: allow line conflicts with earlier allow 0 none"),
])
def test_parse_allow_errors_name_their_line(lines, message):
    with pytest.raises(P.ScenarioFormatError) as e:
        P.parse_scenario(f"nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 1.0\n{lines}\n")
    assert str(e.value) == message


@pytest.mark.parametrize("lines, message", [
    ("nodes 2\nlink 0 0 1.0", "line 2: link 0 is a self-loop at node 0"),
    ("nodes 2\nlink 0 1 1.0\nlink 1 5 1.0",
     "line 3: link 1 endpoint out of range: Link(tail=1, head=5, capacity=1.0)"),
    ("nodes 2\n\nlink 0 1 0", "line 3: link 0 capacity must be positive, got 0.0"),
    ("nodes 2\nlink 0 1 nan", "line 2: link 0 capacity must be positive, got nan"),
    ("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 0",
     "line 3: session 0: utility weight must be positive, got 0.0"),
    ("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 1.0\nsession 2 1 0 wlog 1.0",
     "line 4: session ids must be 0..F-1 in order, got id 2 at position 1"),
    ("nodes 2\nlink 0 1 1.0\nsession 0 1 1 wlog1p 1.0", "line 3: session 0 has src == dst == 1"),
    ("nodes 2\nlink 0 1 1.0\nsession 0 0 7 wlog 1.0",
     "line 3: session 0 references a missing node"),
    ("# no nodes\nnodes 0", "line 2: node_count must be at least 1"),
])
def test_parse_validation_errors_name_their_line(lines, message):
    with pytest.raises(P.ScenarioFormatError) as e:
        P.parse_scenario(lines + "\n")
    assert str(e.value) == message


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


@st.composite
def _allow_edits(draw, sc):
    """sc's document after up to four edits: an allow line dropped,
    duplicated or moved anywhere, its ids swapped for none or back, or its
    link or session token replaced by one from -1 to one past the largest
    valid; a new allow line; a comment or blank line."""
    lines = P.serialize_scenario(sc).splitlines()
    link = st.integers(-1, sc.n_links + 1).map(str)
    session = st.integers(-1, sc.n_sessions + 1).map(str)
    for _ in range(draw(st.integers(0, 4))):
        allow = [i for i, line in enumerate(lines) if line.startswith("allow")]
        op = draw(st.sampled_from(("drop", "duplicate", "move", "swap", "link", "session",
                                   "new", "comment")))
        if op == "new":
            lines.insert(draw(st.integers(0, len(lines))),
                         f"allow {draw(link)} {draw(st.just('none') | session)}")
        elif op == "comment":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "# x"))))
        elif allow:
            i = draw(st.sampled_from(allow))
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            elif op == "move":
                lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
            else:
                tokens = lines[i].split()
                if op == "swap":
                    tokens[2] = draw(session) if tokens[2] == "none" else "none"
                elif op == "link":
                    tokens[1] = draw(link)
                else:
                    tokens[2] = draw(session)
                lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), scenarios(allow=("mixed",)))
def test_allow_pass_matches_the_two_pass_rule(data, sc):
    # an unedited document round-trips exactly
    text = P.serialize_scenario(sc)
    again = P.parse_scenario(text)
    assert (again.network, again.sessions, again.allowed) == (sc.network, sc.sessions, sc.allowed)
    assert P.serialize_scenario(again) == text
    # an edited one gives the two-pass rule's sets or its first error
    doc = data.draw(_allow_edits(sc))
    allows = [(lineno, int(t[1]), None if t[2] == "none" else int(t[2]))
              for lineno, t in enumerate((line.split() for line in doc.splitlines()), 1)
              if t[:1] == ["allow"]]
    try:
        want = allow_sets(allows, sc.n_links, sc.n_sessions)
    except P.ScenarioFormatError as e:
        with pytest.raises(P.ScenarioFormatError) as got:
            P.parse_scenario(doc)
        assert str(got.value) == str(e)
    else:
        assert P.parse_scenario(doc).allowed == want
